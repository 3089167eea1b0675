"""Command-line front end.

Thirteen subcommands drive the library over stable JSON/CSV formats;
see ``qplane --help``.  Exit codes: 0 success, 2 malformed input,
3 precondition violation, 4 numerical non-convergence -- with a single
machine-readable ``error: ...`` line on stderr.

Each subcommand declares only the options it reads, so any other
option is an argparse error (exit 2).  Every command is deterministic
end to end: equal arguments produce byte-identical output files.  A
series that lost mass to truncation says so in its JSON (``"lossy"``)
and ``decay`` in its ``lossy`` column.

Building the parser and parsing the arguments load no math layer: each
``cmd_*`` imports the layers it runs, so ``mul`` never imports the
operator calculus and ``qhull`` never imports the series algebra.  The
handlers call through module attributes (``qalgebra.qmul(...)``), so a
wrapper set on a module attribute sees the call.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from . import fileio
from .errors import InputFormatError, NonConvergenceError, PreconditionError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NONCONVERGENCE = 4


# Input checks on the options a handler reads; a failed one exits 3.


def _q(args) -> complex:
    q = complex(args.q_re, args.q_im)
    if q == 0:
        raise PreconditionError("q must be nonzero")
    return q


# The --n cap.  A complex N x N matrix takes 16 N^2 bytes.  Counted in
# such matrices, the peak resident memory of each subcommand grows by
#   modelpair 21.4   koszul 9.4   scan 10.7   calc 12.9   specmap 8.2
# (growth of ru_maxrss from N = 384 to N = 768 in a fresh process, one
# BLAS thread, `calc`/`specmap` on the worked log function, `scan` on 3
# points).  The pair's check at construction holds about ten at once;
# `modelpair` adds its JSON payload (a list of two floats per entry).
# The counts below round those up, and N is capped so that that many fit
# in _MEMORY_BUDGET bytes.  The check runs before anything is allocated.
_HELD_MATRICES = {"modelpair": 22, "koszul": 10, "scan": 11, "calc": 13, "specmap": 9}
_MEMORY_BUDGET = 2**30


def _max_n(command: str) -> int:
    return math.isqrt(_MEMORY_BUDGET // (16 * _HELD_MATRICES[command]))


# The scan point cap.  The peak resident memory of `scan` grows by about
# 370 bytes per grid point: its nodes, rows and CSV table (growth of
# ru_maxrss from 10^5 to 4 * 10^5 points at N = 1 in a fresh process,
# with one range open and with both).  A point is counted as 400 bytes,
# and a grid may hold as many as fit in _MEMORY_BUDGET.  The check runs
# before any node or matrix is allocated.
_POINT_BYTES = 400
_MAX_POINTS = _MEMORY_BUDGET // _POINT_BYTES

# The --smax cap.  `decay` stops multiplying once a power is the zero
# table, so its products are bounded by the truncation degree and its
# memory by the profile: the peak resident memory grows by about 200
# bytes per row, for the profile's two lists and the CSV table (growth
# of ru_maxrss from --smax 10^5 to 1.6 * 10^6 on the worked mixed series
# in a fresh process).  A row is counted as 256 bytes, and the profile
# may hold as many rows as fit in _MEMORY_BUDGET.  The check runs before
# the file is read.
_ROW_BYTES = 256
_MAX_SMAX = _MEMORY_BUDGET // _ROW_BYTES


# The trunc cap.  A series file's table takes 16 (D+1)^2 bytes however
# few its terms.  Counted in such tables, the peak resident memory of
# each series command grows by
#   mul 29.7   pow 28.8   decompose 7.2   norm 2.6   decay 15.2   twist 2.2
# (growth of ru_maxrss from D = 800 to D = 1600 in a fresh process, one
# BLAS thread, the largest over files of one term, of a term every 256
# cells and of a full row and column; a product of the last fills its
# table, and its JSON holds a term a cell; `norm` also at q = 2, `pow`
# at --s 2 and 3, `decay` at --smax 3 on mixed series).  The counts
# below round those up, and D is capped so that that many tables fit in
# _MEMORY_BUDGET bytes.  The check runs before the table is allocated.
_HELD_TABLES = {"mul": 30, "pow": 30, "decompose": 8, "norm": 3, "decay": 16, "twist": 3}


def _max_trunc(command: str) -> int:
    return math.isqrt(_MEMORY_BUDGET // (16 * _HELD_TABLES[command])) - 1


def _n(args) -> int:
    if args.n < 1:
        raise PreconditionError(f"dimension must be >= 1, got {args.n}")
    cap = _max_n(args.command)
    if args.n > cap:
        raise PreconditionError(
            f"dimension must be <= {cap} for {args.command}, got {args.n}"
        )
    return args.n


def _radius(name: str, val: float) -> float:
    if not val > 0:
        raise PreconditionError(f"--{name} must be positive, got {val}")
    if val == math.inf:
        raise PreconditionError(f"--{name} must be finite, got {val}")
    return val


def _rank_tol(args) -> float:
    from . import koszul

    return koszul.DEFAULT_RANK_TOL if args.rank_tol is None else args.rank_tol


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


def _load_series(args, path: str):
    """The series in ``path``; a well-formed ``trunc`` above the cap is refused first."""
    payload = _load_payload(path)
    trunc = payload.get("trunc") if isinstance(payload, dict) else None
    cap = _max_trunc(args.command)
    if type(trunc) is int and trunc > cap:
        raise PreconditionError(f"trunc must be <= {cap} for {args.command}, got {trunc}")
    return fileio.qseries_from_payload(payload)


def _write_series(args, series) -> None:
    with _open_out(args.output) as fp:
        fileio.dump_json(fileio.qseries_to_payload(series), fp)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_mul(args) -> int:
    from . import qalgebra

    f = _load_series(args, args.left)
    g = _load_series(args, args.right)
    _write_series(args, qalgebra.qmul(f, g))
    return EXIT_OK


def cmd_pow(args) -> int:
    from . import qalgebra

    f = _load_series(args, args.series)
    _write_series(args, qalgebra.qpow(f, args.s, method=args.method))
    return EXIT_OK


def cmd_decompose(args) -> int:
    from . import qalgebra

    f = _load_series(args, args.series)
    parts = qalgebra.decompose(f)
    payloads = {
        "x": fileio.qseries_to_payload(parts.f_x),
        "xy": fileio.qseries_to_payload(parts.f_xy),
        "y": fileio.qseries_to_payload(parts.f_y),
    }
    if args.output == "-":
        fileio.dump_json(payloads, sys.stdout)
    else:
        stem = Path(args.output)
        for name, payload in payloads.items():
            with open(
                stem.with_suffix(f".{name}.json"), "w", encoding="utf-8"
            ) as fp:
                fileio.dump_json(payload, fp)
    return EXIT_OK


def cmd_norm(args) -> int:
    from . import qalgebra

    rho = _radius("rho", args.rho)
    rho_x, rho_y = _radius("rho-x", args.rho_x), _radius("rho-y", args.rho_y)
    f = _load_series(args, args.series)
    row = [rho, rho_x, rho_y, qalgebra.seminorm(f, rho), qalgebra.p_seminorm(f, rho_x, rho_y)]
    with _open_out(args.output) as fp:
        fileio.write_csv(fp, ["rho", "rho_x", "rho_y", "seminorm", "p_seminorm"], [row])
    return EXIT_OK


def cmd_decay(args) -> int:
    from . import qalgebra

    rho = _radius("rho", args.rho)
    if args.smax < 1:
        raise PreconditionError(f"s_max must be >= 1, got {args.smax}")
    if args.smax > _MAX_SMAX:
        raise PreconditionError(f"s_max must be <= {_MAX_SMAX}, got {args.smax}")
    f = _load_series(args, args.series)
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
        norm_f = qalgebra.seminorm(f, rho)
        if not math.isfinite(norm_f):
            raise PreconditionError(f"the seminorm of the series overflows at rho = {rho}")
        profile = qalgebra.decay_profile(f, rho, args.smax)
        for s, (value, lossy) in enumerate(zip(profile.values, profile.lossy_at), start=1):
            bound = abs(f.q) ** ((s - 1) / 2.0) * norm_f
            ratio = value / bound if bound > 0 else 0.0
            rows.append([s, value, bound, ratio, int(lossy)])
    with _open_out(args.output) as fp:
        fileio.write_csv(fp, ["s", "root_norm", "bound", "ratio", "lossy"], rows)
    return EXIT_OK


def cmd_twist(args) -> int:
    from . import qalgebra

    f = _load_series(args, args.series)
    _write_series(args, qalgebra.twist(f))
    return EXIT_OK


def cmd_qhull(args) -> int:
    from . import qtopology

    q = _q(args)
    base = fileio.diskunion_from_payload(_load_payload(args.disks))
    points = fileio.points_from_payload(_load_payload(args.points))
    hull = qtopology.QHull(base, q)
    rows = [[z.real, z.imag, int(hull.contains(z))] for z in points]
    with _open_out(args.output) as fp:
        fileio.write_csv(fp, ["z_re", "z_im", "member"], rows)
    return EXIT_OK


def cmd_spiral(args) -> int:
    from . import qtopology

    du = qtopology.spiral_neighborhood(
        complex(args.lam_re, args.lam_im), args.eps, args.delta, _q(args)
    )
    with _open_out(args.output) as fp:
        fileio.dump_json(fileio.diskunion_to_payload(du), fp)
    return EXIT_OK


def cmd_modelpair(args) -> int:
    from . import opcalc

    pair = opcalc.model_pair(_q(args), _n(args))
    payload = {
        "n": pair.n,
        "q": [pair.q.real, pair.q.imag],
        "residual": pair.residual(),
        "T": fileio.matrix_to_payload(pair.t)["entries"],
        "S": fileio.matrix_to_payload(pair.s)["entries"],
    }
    with _open_out(args.output) as fp:
        fileio.dump_json(payload, fp)
    return EXIT_OK


def cmd_calc(args) -> int:
    from . import opcalc

    n = _n(args)
    rep = fileio.qfunction_from_payload(_load_payload(args.function))
    pair = opcalc.model_pair(rep.q, n)
    matrix = opcalc.calc(rep, pair)
    with _open_out(args.output) as fp:
        fileio.dump_json(fileio.matrix_to_payload(matrix), fp)
    return EXIT_OK


def cmd_specmap(args) -> int:
    from . import opcalc

    n = _n(args)
    rep = fileio.qfunction_from_payload(_load_payload(args.function))
    pair = opcalc.model_pair(rep.q, n)
    report = opcalc.spectral_mapping_check(rep, pair)
    rows = [
        [ev.real, ev.imag, pr.real, pr.imag, d]
        for ev, pr, d in zip(report.eigenvalues, report.predicted, report.distances)
    ]
    header = ["actual_re", "actual_im", "predicted_re", "predicted_im", "distance"]
    with _open_out(args.output) as fp:
        fileio.write_csv(fp, header, rows)
    print(fileio.fmt(report.max_distance))
    return EXIT_OK


def cmd_koszul(args) -> int:
    from . import koszul, opcalc

    pair = opcalc.model_pair(_q(args), _n(args))
    g = complex(args.gamma_re, args.gamma_im)
    gamma = (g, 0j) if args.axis == "x" else (0j, g)
    comp = koszul.build(pair, gamma)
    hom = koszul.homology_dims(comp, _rank_tol(args))
    defect = koszul.composite_defect(comp)
    row = [
        g.real, g.imag, args.axis,
        hom.h0, hom.h1, hom.h2, int(hom.member), int(hom.stable), defect,
    ]
    header = ["g_re", "g_im", "axis", "h0", "h1", "h2", "member", "stable", "defect"]
    with _open_out(args.output) as fp:
        fileio.write_csv(fp, header, [row])
    return EXIT_OK


def cmd_scan(args) -> int:
    from . import koszul, opcalc

    q, n = _q(args), _n(args)
    grid = koszul.GridSpec(args.re_min, args.re_max, args.im_min, args.im_max, args.steps)
    if grid.size > _MAX_POINTS:
        raise PreconditionError(
            f"the grid must have <= {_MAX_POINTS} points, got {grid.size}"
        )
    pair = opcalc.model_pair(q, n)
    rows = koszul.spectrum_scan(pair, args.axis, grid, _rank_tol(args))
    table = [
        [r.g_re, r.g_im, r.axis, r.h0, r.h1, r.h2, int(r.member), int(r.stable)]
        for r in rows
    ]
    header = ["g_re", "g_im", "axis", "h0", "h1", "h2", "member", "stable"]
    with _open_out(args.output) as fp:
        fileio.write_csv(fp, header, table)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_q(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q-re", type=float, default=0.5, help="Re q (default 0.5)")
    p.add_argument("--q-im", type=float, default=0.0, help="Im q (default 0)")


def _add_n(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument(
        "--n", type=int, default=16,
        help=f"matrix dimension N, 1 to {_max_n(command)}: {command} holds about "
        f"{_HELD_MATRICES[command]} N x N complex matrices, capped at 1 GiB",
    )


def _add_rank_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank-tol", type=float, default=None,
                   help="relative singular-value threshold for ranks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qplane",
        description="Truncated arithmetic and spectral scans on the q-commuting plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output", default="-", help="output path ('-' for stdout)")
        p.set_defaults(func=func)
        return p

    p = command("mul", cmd_mul, "multiply two series files")
    p.add_argument("left")
    p.add_argument("right")

    p = command("pow", cmd_pow, "raise a series to a power")
    p.add_argument("series")
    p.add_argument("--s", type=int, required=True, help="exponent (>= 1)")
    p.add_argument("--method", choices=["repeated", "formula"], default="repeated")

    p = command("decompose", cmd_decompose, "split into x-part, mixed part and y-part")
    p.add_argument("series")

    p = command("norm", cmd_norm, "seminorms of a series")
    p.add_argument("series")
    p.add_argument("--rho", type=float, default=1.0, help="seminorm radius")
    p.add_argument("--rho-x", type=float, default=1.0, help="x seminorm radius")
    p.add_argument("--rho-y", type=float, default=1.0, help="y seminorm radius")

    p = command("decay", cmd_decay, "power-decay profile of a mixed-ideal series")
    p.add_argument("series")
    p.add_argument("--rho", type=float, default=1.0, help="seminorm radius")
    p.add_argument(
        "--smax", type=int, default=8,
        help=f"largest power in the profile, 1 to {_MAX_SMAX}: about "
        f"{_ROW_BYTES} bytes a row within 1 GiB",
    )

    p = command("twist", cmd_twist, "swap the variable layout")
    p.add_argument("series")

    p = command("qhull", cmd_qhull, "membership of points in the q-hull of a disk union")
    p.add_argument("disks")
    p.add_argument("points")
    _add_q(p)

    p = command("spiral", cmd_spiral, "disk chain covering a point's forward orbit")
    p.add_argument("--lam-re", type=float, required=True)
    p.add_argument("--lam-im", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_q(p)

    p = command("modelpair", cmd_modelpair, "emit the truncated shift/diagonal model pair")
    _add_q(p)
    _add_n(p, "modelpair")

    p = command("calc", cmd_calc, "evaluate a function file on the model pair")
    p.add_argument("function")
    _add_n(p, "calc")

    p = command("specmap", cmd_specmap, "spectral mapping report for a function file")
    p.add_argument("function")
    _add_n(p, "specmap")

    p = command("koszul", cmd_koszul,
                "homology of the parametrized complex at one character")
    p.add_argument("--gamma-re", type=float, required=True)
    p.add_argument("--gamma-im", type=float, default=0.0)
    p.add_argument("--axis", choices=["x", "y"], required=True)
    _add_q(p)
    _add_n(p, "koszul")
    _add_rank_tol(p)

    p = command("scan", cmd_scan, "axis scan of the truncation joint spectrum")
    p.add_argument("--axis", choices=["x", "y"], required=True)
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--im-min", type=float, default=0.0)
    p.add_argument("--im-max", type=float, default=0.0)
    p.add_argument(
        "--steps", type=int, required=True,
        help="nodes per open range (max > min); the grid, steps x steps when both "
        f"ranges are open, holds at most {_MAX_POINTS} points, about "
        f"{_POINT_BYTES} bytes each within 1 GiB",
    )
    _add_q(p)
    _add_n(p, "scan")
    _add_rank_tol(p)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
