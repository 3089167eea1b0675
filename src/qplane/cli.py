"""Command-line front end.

Thirteen subcommands drive the library over stable JSON/CSV formats;
see ``qplane --help``.  Exit codes: 0 success, 2 malformed input,
3 precondition violation, 4 numerical non-convergence -- with a single
machine-readable ``error: ...`` line on stderr.

A fixed ``--seed`` makes every command deterministic end to end: equal
configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio, koszul, opcalc, qalgebra, qtopology
from .errors import InputFormatError, NonConvergenceError, PreconditionError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NONCONVERGENCE = 4


@dataclass(frozen=True)
class RunConfig:
    q: complex
    n: int
    rho: float
    rho_x: float
    rho_y: float
    smax: int
    rank_tol: float
    seed: int
    output: str

    def __post_init__(self):
        if self.q == 0:
            raise PreconditionError("q must be nonzero")
        if self.n < 1:
            raise PreconditionError(f"dimension must be >= 1, got {self.n}")
        for name, val in (("rho", self.rho), ("rho-x", self.rho_x), ("rho-y", self.rho_y)):
            if not val > 0:
                raise PreconditionError(f"--{name} must be positive, got {val}")


def _config(args) -> RunConfig:
    return RunConfig(
        q=complex(args.q_re, args.q_im),
        n=args.n,
        rho=args.rho,
        rho_x=args.rho_x,
        rho_y=args.rho_y,
        smax=args.smax,
        rank_tol=args.rank_tol,
        seed=args.seed,
        output=args.output,
    )


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            yield fp


def _load_payload(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return fileio.load_json(fp)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _write_series(cfg: RunConfig, series) -> None:
    with _open_out(cfg.output) as fp:
        fileio.dump_json(fileio.qseries_to_payload(series), fp)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mul(cfg: RunConfig, args) -> int:
    f = fileio.qseries_from_payload(_load_payload(args.left))
    g = fileio.qseries_from_payload(_load_payload(args.right))
    _write_series(cfg, qalgebra.qmul(f, g))
    return EXIT_OK


def cmd_pow(cfg: RunConfig, args) -> int:
    f = fileio.qseries_from_payload(_load_payload(args.series))
    _write_series(cfg, qalgebra.qpow(f, args.s, method=args.method))
    return EXIT_OK


def cmd_decompose(cfg: RunConfig, args) -> int:
    f = fileio.qseries_from_payload(_load_payload(args.series))
    parts = qalgebra.decompose(f)
    payloads = {
        "x": fileio.qseries_to_payload(parts.f_x),
        "xy": fileio.qseries_to_payload(parts.f_xy),
        "y": fileio.qseries_to_payload(parts.f_y),
    }
    if cfg.output == "-":
        fileio.dump_json(payloads, sys.stdout)
    else:
        stem = Path(cfg.output)
        for name, payload in payloads.items():
            with open(
                stem.with_suffix(f".{name}.json"), "w", encoding="utf-8"
            ) as fp:
                fileio.dump_json(payload, fp)
    return EXIT_OK


def cmd_norm(cfg: RunConfig, args) -> int:
    f = fileio.qseries_from_payload(_load_payload(args.series))
    row = [
        cfg.rho,
        cfg.rho_x,
        cfg.rho_y,
        qalgebra.seminorm(f, cfg.rho),
        qalgebra.p_seminorm(f, cfg.rho_x, cfg.rho_y),
    ]
    with _open_out(cfg.output) as fp:
        fileio.write_csv(fp, ["rho", "rho_x", "rho_y", "seminorm", "p_seminorm"], [row])
    return EXIT_OK


def cmd_decay(cfg: RunConfig, args) -> int:
    f = fileio.qseries_from_payload(_load_payload(args.series))
    parts = qalgebra.decompose(f)
    stray = parts.f_x.terms() + parts.f_y.terms()
    if stray:
        listing = ", ".join(f"x^{i} y^{k}" for i, k, _ in stray)
        raise PreconditionError(f"series is not in the mixed ideal; offending monomials: {listing}")
    if not abs(f.q) < 1:
        raise PreconditionError(
            f"decay bound not applicable at |q| = {abs(f.q)}; need |q| < 1"
        )
    rows = []
    if f.terms():
        norm_f = qalgebra.seminorm(f, cfg.rho)
        profile = qalgebra.decay_profile(f, cfg.rho, cfg.smax)
        for s, value in enumerate(profile.values, start=1):
            bound = abs(f.q) ** ((s - 1) / 2.0) * norm_f
            ratio = value / bound if bound > 0 else 0.0
            rows.append([s, value, bound, ratio])
    with _open_out(cfg.output) as fp:
        fileio.write_csv(fp, ["s", "root_norm", "bound", "ratio"], rows)
    return EXIT_OK


def cmd_twist(cfg: RunConfig, args) -> int:
    f = fileio.qseries_from_payload(_load_payload(args.series))
    _write_series(cfg, qalgebra.twist(f))
    return EXIT_OK


def cmd_qhull(cfg: RunConfig, args) -> int:
    base = fileio.diskunion_from_payload(_load_payload(args.disks))
    points = fileio.points_from_payload(_load_payload(args.points))
    hull = qtopology.QHull(base, cfg.q)
    rows = [
        [z.real, z.imag, int(hull.contains(z))] for z in points
    ]
    with _open_out(cfg.output) as fp:
        fileio.write_csv(fp, ["z_re", "z_im", "member"], rows)
    return EXIT_OK


def cmd_spiral(cfg: RunConfig, args) -> int:
    du = qtopology.spiral_neighborhood(
        complex(args.lam_re, args.lam_im), args.eps, args.delta, cfg.q
    )
    with _open_out(cfg.output) as fp:
        fileio.dump_json(fileio.diskunion_to_payload(du), fp)
    return EXIT_OK


def cmd_modelpair(cfg: RunConfig, args) -> int:
    pair = opcalc.model_pair(cfg.q, cfg.n)
    payload = {
        "n": pair.n,
        "q": [pair.q.real, pair.q.imag],
        "residual": pair.residual(),
        "T": fileio.matrix_to_payload(pair.t)["entries"],
        "S": fileio.matrix_to_payload(pair.s)["entries"],
    }
    with _open_out(cfg.output) as fp:
        fileio.dump_json(payload, fp)
    return EXIT_OK


def cmd_calc(cfg: RunConfig, args) -> int:
    rep = fileio.qfunction_from_payload(_load_payload(args.function))
    pair = opcalc.model_pair(rep.q, cfg.n)
    matrix = opcalc.calc(rep, pair)
    with _open_out(cfg.output) as fp:
        fileio.dump_json(fileio.matrix_to_payload(matrix), fp)
    return EXIT_OK


def cmd_specmap(cfg: RunConfig, args) -> int:
    rep = fileio.qfunction_from_payload(_load_payload(args.function))
    pair = opcalc.model_pair(rep.q, cfg.n)
    report = opcalc.spectral_mapping_check(rep, pair)
    rows = [
        [ev.real, ev.imag, pr.real, pr.imag, d]
        for ev, pr, d in zip(report.eigenvalues, report.predicted, report.distances)
    ]
    header = ["actual_re", "actual_im", "predicted_re", "predicted_im", "distance"]
    with _open_out(cfg.output) as fp:
        fileio.write_csv(fp, header, rows)
    if cfg.output != "-":
        curve_rows = [
            [z.real, z.imag, v.real, v.imag] for z, v in report.x_branch_curve
        ]
        curve_path = Path(cfg.output).with_suffix(".xbranch.csv")
        with open(curve_path, "w", encoding="utf-8", newline="") as fp:
            fileio.write_csv(fp, ["z_re", "z_im", "f_re", "f_im"], curve_rows)
    print(fileio.fmt(report.max_distance))
    return EXIT_OK


def cmd_koszul(cfg: RunConfig, args) -> int:
    pair = opcalc.model_pair(cfg.q, cfg.n)
    g = complex(args.gamma_re, args.gamma_im)
    gamma = (g, 0j) if args.axis == "x" else (0j, g)
    comp = koszul.build(pair, gamma)
    hom = koszul.homology_dims(comp, cfg.rank_tol)
    defect = koszul.composite_defect(comp, pair.q)
    row = [
        g.real, g.imag, args.axis,
        hom.h0, hom.h1, hom.h2, int(hom.member), int(hom.stable), defect,
    ]
    header = ["g_re", "g_im", "axis", "h0", "h1", "h2", "member", "stable", "defect"]
    with _open_out(cfg.output) as fp:
        fileio.write_csv(fp, header, [row])
    return EXIT_OK


def cmd_scan(cfg: RunConfig, args) -> int:
    pair = opcalc.model_pair(cfg.q, cfg.n)
    grid = koszul.GridSpec(args.re_min, args.re_max, args.im_min, args.im_max, args.steps)
    rows = koszul.spectrum_scan(pair, args.axis, grid, cfg.rank_tol)
    table = [
        [r.g_re, r.g_im, r.axis, r.h0, r.h1, r.h2, int(r.member), int(r.stable)]
        for r in rows
    ]
    header = ["g_re", "g_im", "axis", "h0", "h1", "h2", "member", "stable"]
    with _open_out(cfg.output) as fp:
        fileio.write_csv(fp, header, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    shared = common.add_argument_group("shared options")
    shared.add_argument("--q-re", type=float, default=0.5, help="Re q (default 0.5)")
    shared.add_argument("--q-im", type=float, default=0.0, help="Im q (default 0)")
    shared.add_argument("--n", type=int, default=16, help="matrix dimension N")
    shared.add_argument("--rho", type=float, default=1.0, help="seminorm radius")
    shared.add_argument("--rho-x", type=float, default=1.0, help="x seminorm radius")
    shared.add_argument("--rho-y", type=float, default=1.0, help="y seminorm radius")
    shared.add_argument("--smax", type=int, default=8, help="largest power in decay profiles")
    shared.add_argument("--rank-tol", type=float, default=koszul.DEFAULT_RANK_TOL,
                        help="relative singular-value threshold for ranks")
    shared.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    shared.add_argument("--output", default="-", help="output path ('-' for stdout)")

    parser = argparse.ArgumentParser(
        prog="qplane",
        description="Truncated arithmetic and spectral scans on the q-commuting plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", parents=[common], help="multiply two series files")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("pow", parents=[common], help="raise a series to a power")
    p.add_argument("series")
    p.add_argument("--s", type=int, required=True, help="exponent (>= 1)")
    p.add_argument("--method", choices=["repeated", "formula"], default="repeated")
    p.set_defaults(func=cmd_pow)

    p = sub.add_parser("decompose", parents=[common],
                       help="split into x-part, mixed part and y-part")
    p.add_argument("series")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("norm", parents=[common], help="seminorms of a series")
    p.add_argument("series")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("decay", parents=[common],
                       help="power-decay profile of a mixed-ideal series")
    p.add_argument("series")
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("twist", parents=[common], help="swap the variable layout")
    p.add_argument("series")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("qhull", parents=[common],
                       help="membership of points in the q-hull of a disk union")
    p.add_argument("disks")
    p.add_argument("points")
    p.set_defaults(func=cmd_qhull)

    p = sub.add_parser("spiral", parents=[common],
                       help="disk chain covering a point's forward orbit")
    p.add_argument("--lam-re", type=float, required=True)
    p.add_argument("--lam-im", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(func=cmd_spiral)

    p = sub.add_parser("modelpair", parents=[common],
                       help="emit the truncated shift/diagonal model pair")
    p.set_defaults(func=cmd_modelpair)

    p = sub.add_parser("calc", parents=[common],
                       help="evaluate a function file on the model pair")
    p.add_argument("function")
    p.set_defaults(func=cmd_calc)

    p = sub.add_parser("specmap", parents=[common],
                       help="spectral mapping report for a function file")
    p.add_argument("function")
    p.set_defaults(func=cmd_specmap)

    p = sub.add_parser("koszul", parents=[common],
                       help="homology of the parametrized complex at one character")
    p.add_argument("--gamma-re", type=float, required=True)
    p.add_argument("--gamma-im", type=float, default=0.0)
    p.add_argument("--axis", choices=["x", "y"], required=True)
    p.set_defaults(func=cmd_koszul)

    p = sub.add_parser("scan", parents=[common],
                       help="axis scan of the truncation joint spectrum")
    p.add_argument("--axis", choices=["x", "y"], required=True)
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--im-min", type=float, default=0.0)
    p.add_argument("--im-max", type=float, default=0.0)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config(args)
        return args.func(cfg, args)
    except InputFormatError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"error: precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NonConvergenceError as exc:
        print(f"error: nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
