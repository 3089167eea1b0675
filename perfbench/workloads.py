"""The three workloads: seeded inputs, one round of tasks, a check per task.

``algebra`` joins the dense kernel tasks and the sparse series tasks,
``geometry`` the spectrum tasks and the topology tasks; ``cli`` runs the
command line.  Each part below builds its own tasks.

A round is a fixed multiset of tasks; the worker shuffles it with the
seed and repeats it.  The repetition counts put the median and the 90th
percentile of per-task latency inside a block of one task kind rather
than on the edge between two kinds, so they do not jump between runs.
Every task carries a check against an independent reference that the
worker runs outside the timed region; a reference is computed once per
distinct input and kept.
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import references as ref

Q_DENSE = 0.5 + 0.25j  # the kernel benchmarks' q (|q| < 1)
Q_BIG = 1.5  # |q| > 1: the kernel's 0*inf guard is live
Q = 0.5  # the worked examples' q
VARIANTS = 2  # distinct seeded inputs per task kind


class Wrong(Exception):
    """The output disagrees with its reference."""


class Failed(Exception):
    """The operation failed: it raised, or exited with an unexpected code."""


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    tasks: list[Task]
    warmup: Callable[[], None]


def once(fn):
    """Zero-argument ``fn`` evaluated on first use and then kept."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def close(got, want, what: str, rtol: float, atol: float = 0.0) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise Wrong(f"{what}: shape {got.shape}, expected {want.shape}")
    bad = ~(np.abs(got - want) <= rtol * np.abs(want) + atol)
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise Wrong(f"{what}: {got[i]} at {i}, expected {want[i]}")


def close_scaled(got, want, what: str, rtol: float) -> None:
    """Entrywise agreement to ``rtol`` times the largest reference entry."""
    want = np.asarray(want)
    close(got, want, what, 0.0, rtol * float(np.max(np.abs(want), initial=0.0)))


def same_flag(got: bool, want: bool, what: str) -> None:
    if bool(got) != bool(want):
        raise Wrong(f"{what}: lossy={got}, expected {want}")


def dense(rng, degree: int) -> np.ndarray:
    shape = (degree + 1, degree + 1)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def build_round(spec, make) -> list[Task]:
    """``spec`` lists ``(kind, repeats)``; ``make(kind, r)`` builds repeat ``r``."""
    return [make(kind, r) for kind, repeats in spec for r in range(repeats)]


# ---------------------------------------------------------------------------
# algebra, dense part: _accel.qmul_full does the work
# ---------------------------------------------------------------------------


def kernels_dense(seed: int, ctx) -> Workload:
    from oracles import naive_qmul
    from qplane import qalgebra as qa

    rng = np.random.default_rng(seed)
    sizes = {  # kind -> (q, D); D = 8..64 at |q| < 1, 16 and 32 at |q| > 1
        "qmul.D8": (Q_DENSE, 8),
        "qmul.D16": (Q_DENSE, 16),
        "qmul.D32": (Q_DENSE, 32),
        "qmul.D48": (Q_DENSE, 48),
        "qmul.D64": (Q_DENSE, 64),
        "qmul.q1.5.D16": (Q_BIG, 16),
        "qmul.q1.5.D32": (Q_BIG, 32),
        "qpow.repeated.D32.s3": (Q_DENSE, 32),
    }
    inputs = {
        (kind, v): (qa.QSeries(q, dense(rng, d)), qa.QSeries(q, dense(rng, d)))
        for kind, (q, d) in sizes.items()
        for v in range(VARIANTS)
    }

    def via_rowwise(kind, f, g):
        if kind.startswith("qpow"):
            return once(lambda: qa.qmul_rowwise(qa.qmul_rowwise(f, f), f))
        return once(lambda: qa.qmul_rowwise(f, g))

    # references, computed on first use: the same products through
    # qmul_rowwise, and the quadruple-loop oracle's untruncated table
    rowwise = {key: via_rowwise(key[0], f, g) for key, (f, g) in inputs.items()}
    naive = {
        key: once(lambda f=f, g=g: naive_qmul(f.coeffs, g.coeffs, f.q))
        for key, (f, g) in inputs.items()
        if key[0].startswith("qmul") and f.trunc_degree <= 16
    }

    def make(kind, r):
        key = kind, r % VARIANTS
        f, g = inputs[key]
        d = f.trunc_degree

        def check(out):
            w = rowwise[key]()
            close_scaled(out.coeffs, w.coeffs, f"{kind} vs qmul_rowwise", 1e-10)
            same_flag(out.lossy, w.lossy, kind)
            if key in naive:
                full = naive[key]()
                close_scaled(out.coeffs, full[: d + 1, : d + 1], f"{kind} vs naive_qmul", 1e-10)
                same_flag(out.lossy, np.any(full[d + 1 :, :]) or np.any(full[:, d + 1 :]), kind)

        if kind.startswith("qpow"):
            return Task(kind, lambda: qa.qpow(f, 3, "repeated"), check)
        return Task(kind, lambda: qa.qmul(f, g), check)

    spec = [
        ("qmul.D8", 3), ("qmul.D16", 3), ("qmul.q1.5.D16", 2),
        ("qmul.D32", 4), ("qmul.q1.5.D32", 4),  # algebra's median
        ("qpow.repeated.D32.s3", 4), ("qmul.D48", 4),
        ("qmul.D64", 1),
    ]

    def warmup():
        small = qa.QSeries(Q_DENSE, dense(np.random.default_rng(0), 4))
        qa.qpow(small, 2)

    return Workload(build_round(spec, make), warmup)


# ---------------------------------------------------------------------------
# algebra, sparse part: the zero-column skip and the formula enumeration
# ---------------------------------------------------------------------------


def series_sparse(seed: int, ctx) -> Workload:
    from qplane import qalgebra as qa

    rng = np.random.default_rng(seed)
    logs = {d: ref.log_xy_table(Q, 1.5, d) for d in (32, 64)}
    xy = {d: qa.QSeries.monomial(Q, d, 1, 1) for d in (32, 64)}
    log_series = {d: qa.QSeries(Q, t) for d, t in logs.items()}
    radii = {v: tuple(rng.uniform(0.5, 1.5, 3)) for v in range(VARIANTS)}
    points = {
        v: tuple(complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(2))
        for v in range(VARIANTS)
    }
    supports = {}  # (m, s, v) -> few-term table at D = 32, degrees < 4
    for m, s in ((4, 4), (5, 4), (4, 6), (6, 6), (8, 6)):
        for v in range(VARIANTS):
            cells = rng.choice(16, size=m, replace=False)
            table = np.zeros((33, 33), dtype=np.complex128)
            table[cells // 4, cells % 4] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            supports[m, s, v] = qa.QSeries(Q_DENSE, table)
    mixed = {d: qa.decompose(f).f_xy for d, f in log_series.items()}
    decay_refs = {
        d: once(lambda d=d: ref.decay_values(ref.terms(mixed[d].coeffs), Q, d, 1.0, 8))
        for d in mixed
    }
    repeated = {
        key: once(lambda f=f, s=key[1]: qa.qpow(f, s, "repeated"))
        for key, f in supports.items()
    }

    def make(kind, r):
        v = r % VARIANTS
        op, _, rest = kind.partition(".")
        if op == "log_shifted":
            d = int(rest[1:])

            def check(out):
                close(out.coeffs, logs[d], kind, 1e-12, 1e-300)

            return Task(kind, lambda: qa.log_shifted(1.5, xy[d]), check)

        if op == "decay_profile":
            d = int(rest[1:])

            def check(out):
                values, lossy = decay_refs[d]()
                close(out.values, values, kind, 1e-10)
                same_flag(out.lossy, lossy, kind)

            return Task(kind, lambda: qa.decay_profile(mixed[d], 1.0, 8), check)

        if op == "analysis":
            d = int(rest[1:])
            f = log_series[d]
            rho, rho_x, rho_y = radii[v]
            z, w = points[v]
            t = ref.terms(logs[d])

            def run():
                return (
                    qa.decompose(f), qa.twist(f), qa.seminorm(f, rho),
                    qa.p_seminorm(f, rho_x, rho_y),
                    qa.spec_eval(f, (z, 0)), qa.spec_eval(f, (0, w)),
                )

            def check(out):
                parts, tw, sn, psn, at_x, at_y = out
                table = logs[d]
                want_x = np.zeros_like(table)
                want_x[:, 0] = table[:, 0]
                want_xy = table.copy()
                want_xy[0, :] = 0
                want_xy[:, 0] = 0
                close(parts.f_x.coeffs, want_x, f"{kind} x part", 1e-12, 1e-300)
                close(parts.f_xy.coeffs, want_xy, f"{kind} mixed part", 1e-12, 1e-300)
                close(parts.f_y.coeffs, np.zeros_like(table), f"{kind} y part", 0.0)
                close(tw.coeffs, table.T, f"{kind} twist", 1e-12, 1e-300)
                close(sn, ref.weighted_l1(t, rho, rho), f"{kind} seminorm", 1e-12)
                close(psn, ref.weighted_l1(t, rho_x, rho_y), f"{kind} p_seminorm", 1e-12)
                # on the axes only the constant ln(3/2) of ln(3/2 + xy) survives
                close([at_x, at_y], [np.log(1.5)] * 2, f"{kind} spec_eval", 1e-14)

            return Task(kind, run, check)

        # qpow.formula.<m>^<s>
        m, s = map(int, rest.split(".")[1].split("^"))
        f = supports[m, s, v]

        def check(out):
            w = repeated[m, s, v]()
            close_scaled(out.coeffs, w.coeffs, f"{kind} vs repeated", 1e-10)
            same_flag(out.lossy, w.lossy, kind)

        return Task(kind, lambda: qa.qpow(f, s, "formula"), check)

    spec = [
        ("analysis.D32", 3), ("analysis.D64", 3),
        ("qpow.formula.4^4", 3), ("qpow.formula.5^4", 2),
        ("log_shifted.D32", 4),
        ("log_shifted.D64", 2), ("qpow.formula.4^6", 3), ("decay_profile.D32", 2),
        ("decay_profile.D64", 4),  # algebra's 90th percentile
        ("qpow.formula.6^6", 1), ("qpow.formula.8^6", 1),
    ]

    def warmup():
        small = qa.QSeries.monomial(Q, 4, 1, 1)
        qa.decay_profile(qa.log_shifted(1.5, small), 1.0, 2)
        qa.qpow(small + qa.QSeries.monomial(Q, 4, 0, 1), 2, "formula")

    return Workload(build_round(spec, make), warmup)


# ---------------------------------------------------------------------------
# geometry, spectrum part: koszul and opcalc, no kernels
# ---------------------------------------------------------------------------


def worked_functions(q: complex):
    """The two worked function reps, as scripts/generate_inputs.py writes them."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "generate_inputs", Path("scripts") / "generate_inputs.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return {
        "log_xy": gen.log_xy_function(q, 40, 40),
        "orbit_log": gen.orbit_log_function(q, 40, 40),
    }


def spectrum(seed: int, ctx) -> Workload:
    from qplane import koszul as kz
    from qplane import opcalc as oc

    pairs = {n: oc.model_pair(Q, n) for n in (8, 32, 64, 128)}
    grids = {8: kz.GridSpec(0.0, 1.0, 0.0, 0.0, 1025), 64: kz.GridSpec(0.0, 1.0, 0.0, 0.0, 257)}
    functions = worked_functions(Q)
    calc_refs = {  # f(T, S) assembled from Toeplitz blocks, on first use
        (name, n): once(lambda rep=rep, n=n: ref.calc_on_shift_model(rep, n))
        for name, rep in functions.items()
        for n in (32, 64, 128)
    }

    def nearest(grid, value):
        nodes = np.linspace(grid.re_min, grid.re_max, grid.steps)
        return float(nodes[np.argmin(np.abs(nodes - value))])

    def make(kind, r):
        op, *rest = kind.split(".")
        if op == "scan":
            axis, n = rest[0], int(rest[1][1:])
            pair, grid = pairs[n], grids[n]
            first = []

            def check(rows):
                if len(rows) != grid.steps or any(r.axis != axis for r in rows):
                    raise Wrong(f"{kind}: {len(rows)} rows")
                errors = [r.error for r in rows if r.error]
                if errors:
                    raise Wrong(f"{kind}: {len(errors)} error rows, first {errors[0]!r}")
                members = {r.g_re for r in rows if r.member}
                if axis == "y":
                    # the truncated pair's y-branch spectrum is {q^0, q^N}
                    # (tests/test_koszul.py::test_y_axis_membership_set)
                    want = {nearest(grid, 1.0), nearest(grid, Q**n)}
                    if members != want:
                        raise Wrong(f"{kind}: members {sorted(members)}, expected {sorted(want)}")
                elif n == 8 and members:
                    # silent x axis (tests/test_koszul.py::test_x_axis_stays_silent_on_model)
                    raise Wrong(f"{kind}: members {sorted(members)} on the x axis")
                if not first:
                    first.append(rows)
                elif rows != first[0]:
                    raise Wrong(f"{kind}: rows differ between repeats")

            return Task(kind, lambda: kz.spectrum_scan(pair, axis, grid), check)

        name, n = rest[0], int(rest[1][1:])
        rep, pair, want = functions[name], pairs[n], calc_refs[name, n]
        if op == "calc":
            def check(out):
                close_scaled(out, want(), kind, 1e-10)

            return Task(kind, lambda: oc.calc(rep, pair), check)

        def check(report):
            # the model's f(T, S) is lower triangular: its spectrum is its diagonal
            diag = np.diag(want())
            got = np.sort_complex(np.asarray(report.eigenvalues))
            close_scaled(got, np.sort_complex(diag), f"{kind} eigenvalues", 1e-9)
            if not report.max_distance <= 1e-8:
                raise Wrong(f"{kind}: max pairing distance {report.max_distance}")

        return Task(kind, lambda: oc.spectral_mapping_check(rep, pair), check)

    spec = [("scan.x.N8", 1), ("scan.y.N8", 1), ("scan.x.N64", 1), ("scan.y.N64", 1)]
    for name in functions:  # geometry's median falls on N = 32, its 90th percentile on N = 64
        spec += [(f"calc.{name}.N32", 7), (f"specmap.{name}.N32", 7)]
        spec += [(f"calc.{name}.N64", 4), (f"specmap.{name}.N64", 3)]
        spec += [(f"calc.{name}.N128", 1), (f"specmap.{name}.N128", 1)]

    def warmup():
        pair = oc.model_pair(Q, 4)
        kz.spectrum_scan(pair, "y", kz.GridSpec(0.0, 1.0, 0.0, 0.0, 5))
        oc.spectral_mapping_check(functions["log_xy"], pair)

    return Workload(build_round(spec, make), warmup)


# ---------------------------------------------------------------------------
# geometry, topology part: qtopology's per-point Python walk
# ---------------------------------------------------------------------------


def topology(seed: int, ctx) -> Workload:
    from qplane import qtopology as qt

    rng = np.random.default_rng(seed)
    disk = (1.0 + 0j, 0.1)  # the worked disk B(1, 0.1)
    base = qt.DiskUnion.single(*disk)
    hulls = {"flat": qt.QHull(base, Q)}
    hulls["nested"] = qt.QHull(hulls["flat"], Q)

    def cloud():
        # half uniform over the bounding box, half near the copies q^n B(1, 0.1)
        box = rng.uniform(-1.1, 1.1, (128, 2)) @ np.array([1, 1j])
        u = np.sqrt(rng.uniform(0, 1, 128)) * np.exp(2j * np.pi * rng.uniform(0, 1, 128))
        near = Q ** rng.integers(0, 12, 128) * (1.0 + 0.15 * u)
        return np.concatenate([box, near])

    def make(kind, r):
        op, flavour = kind.split(".")[1:3]
        if op == "contains":  # a fresh cloud for every task: costs depend on the points
            hull, pts = hulls[flavour], cloud()
            members = once(lambda: ref.hull_members(pts, [disk], Q))

            def check(out):
                want = members()
                got = np.asarray(out, dtype=bool)
                if not np.array_equal(got, want):
                    bad = int(np.argmax(got != want))
                    raise Wrong(f"{kind}: point {pts[bad]} member={got[bad]}, expected {want[bad]}")

            return Task(kind, lambda: [hull.contains(z) for z in pts], check)

        if op == "spiral_neighborhood":
            lam = 1.5 * np.exp(2j * np.pi * rng.uniform())

            def check(out):
                want = ref.spiral_disks(lam, 0.3, 0.1, Q)
                got = [(d.center, d.radius) for d in out.disks]
                if len(got) != len(want):
                    raise Wrong(f"{kind}: {len(got)} disks, expected {len(want)}")
                close(np.asarray(got), np.asarray(want), kind, 1e-12, 1e-15)

            return Task(kind, lambda: qt.spiral_neighborhood(lam, 0.3, 0.1, Q), check)

        # is_q_spiraling: both regions are q-invariant, so the only right answer is True
        if flavour == "hull":
            region, samples = hulls["flat"], 10_000  # as tests/test_qtopology.py
        else:
            region, samples = qt.spiral_neighborhood(1.0, 0.3, 0.1, Q), 5000
        s = int(rng.integers(0, 2**31))

        def check(out):
            if out is not True:
                raise Wrong(f"{kind}: {out}, expected True")

        return Task(kind, lambda: qt.is_q_spiraling(region, Q, samples=samples, seed=s), check)

    spec = [
        ("qtopology.spiral_neighborhood.orbit", 8),
        ("qhull.contains.flat", 16),
        ("qhull.contains.nested", 32),
        ("qtopology.is_q_spiraling.neighborhood", 10),
        ("qtopology.is_q_spiraling.hull", 1),
    ]

    def warmup():
        hulls["nested"].contains(0.3 + 0j)
        qt.is_q_spiraling(hulls["flat"], Q, samples=10, seed=0)

    return Workload(build_round(spec, make), warmup)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def cli(seed: int, ctx) -> Workload:
    """Every subcommand as a subprocess, plus three documented error exits."""
    from qplane import cli as cli_mod
    from qplane import fileio
    from qplane import qalgebra as qa

    rng = np.random.default_rng(seed)
    inputs = ctx.workdir / "inputs"
    gen = subprocess.run(
        [sys.executable, "scripts/generate_inputs.py", "--dir", str(inputs)],
        env=ctx.env, capture_output=True, timeout=60,
    )
    if gen.returncode != 0:
        raise RuntimeError(f"generate_inputs.py failed: {gen.stderr.decode()[-2000:]}")

    def write(name, payload):
        with open(inputs / name, "w", encoding="utf-8") as fp:
            fileio.dump_json(payload, fp)
        return str(inputs / name)

    for name in ("big_a", "big_b"):  # dense D = 64 at q = 1.5: the product overflows
        write(f"{name}.series.json", fileio.qseries_to_payload(qa.QSeries(Q_BIG, dense(rng, 64))))
    text = (inputs / "log_xy.series.json").read_text(encoding="utf-8")
    (inputs / "malformed.series.json").write_text(
        text[: int(rng.integers(10, len(text) - 10))], encoding="utf-8"
    )
    cloud = rng.uniform(-1.1, 1.1, (64, 2))
    write("cloud.points.json", cloud.tolist())

    def p(name):
        return str(inputs / name)

    argvs = {
        "mul": ["mul", p("y.series.json"), p("x.series.json")],
        "pow": ["pow", p("log_xy.series.json"), "--s", "3", "--method", "formula"],
        "decompose": ["decompose", p("log_xy.series.json")],
        "norm": ["norm", p("log_xy.series.json"), "--rho", "1.0"],
        "decay": ["decay", p("log_xy_mixed.series.json"), "--smax", "8"],
        "twist": ["twist", p("log_xy.series.json")],
        "qhull": ["qhull", p("base_disk.disks.json"), p("cloud.points.json")],
        "spiral": ["spiral", "--lam-re", "1.0", "--eps", "0.3", "--delta", "0.1"],
        "modelpair": ["modelpair", "--n", "8"],
        "calc": ["calc", p("log_xy.qfn.json"), "--n", "32"],
        "specmap": ["specmap", p("log_xy.qfn.json"), "--n", "32"],
        "koszul": ["koszul", "--gamma-re", "1.0", "--axis", "y", "--n", "8"],
        "scan": ["scan", "--axis", "y", "--re-min", "0", "--re-max", "1",
                 "--steps", "1025", "--n", "8"],
        # documented exits: 2 malformed input, 3 precondition, 3/4 numerical
        "twist.malformed": ["twist", p("malformed.series.json")],
        "decay.not_mixed": ["decay", p("log_xy.series.json")],
        "mul.overflow": ["mul", p("big_a.series.json"), p("big_b.series.json")],
    }
    expected_exit = {"twist.malformed": {2}, "decay.not_mixed": {3}, "mul.overflow": {3, 4}}
    def in_process(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_mod.main(argv)
        return code, buf.getvalue().encode()

    in_process_refs = {kind: once(lambda a=argv: in_process(a)) for kind, argv in argvs.items()}
    first_output = {}

    def make(kind, r):
        argv = argvs[kind]

        def run():
            return ctx.run_cli(argv)

        def check(proc):
            err = proc.stderr.decode(errors="replace")
            if kind in expected_exit:
                lines = err.splitlines()
                if proc.returncode not in expected_exit[kind] or len(lines) != 1 \
                        or not lines[0].startswith("error: "):
                    raise Failed(
                        f"{kind}: exit {proc.returncode}, expected "
                        f"{sorted(expected_exit[kind])} with one 'error:' line; "
                        f"stderr ends {err.strip().splitlines()[-1:]}"
                    )
                return
            if proc.returncode != 0:
                raise Failed(f"{kind}: exit {proc.returncode}: {err.strip()[-300:]}")
            if proc.stdout != first_output.setdefault(kind, proc.stdout):
                raise Wrong(f"{kind}: output differs between repeats")
            code, text = in_process_refs[kind]()
            if code != 0 or text != proc.stdout:
                raise Wrong(f"{kind}: subprocess output differs from the in-process result")

        return Task(kind, run, check)

    def warmup():
        proc = ctx.run_cli(["modelpair", "--n", "2"])
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode(errors="replace"))

    return Workload(build_round([(kind, 1) for kind in argvs], make), warmup)


def joined(*parts):
    """One workload whose round holds every part's round."""

    def build(seed: int, ctx) -> Workload:
        built = [part(seed, ctx) for part in parts]

        def warmup():
            for workload in built:
                workload.warmup()

        return Workload([task for workload in built for task in workload.tasks], warmup)

    return build


WORKLOADS = {
    "algebra": joined(kernels_dense, series_sparse),
    "geometry": joined(spectrum, topology),
    "cli": cli,
}
