"""Acceptance criteria, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible
with ``pytest -s`` or ``-rA``) and then asserts, so the suite result
mirrors the printed lines.  Tolerances are the contractual ones; the
stated runtime budgets are asserted as well.
"""

import io
import math
import time

import numpy as np
import pytest

from qplane import koszul as kz
from qplane import opcalc as oc
from qplane import qalgebra as qa
from qplane.qalgebra import QSeries

from generate_inputs import log_xy_function, orbit_log_function
from oracles import oracle_homology, random_qseries
from test_koszul import conjugated_pair

Q = 0.5


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # JIT compilation time must not count against the runtime budgets.
    f = QSeries.monomial(Q, 2, 1, 1)
    qa.qmul(f, f)
    qa.qpow(f, 2, "formula")


def test_criterion_01_model_pair_relation():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 8, 64, 256):
        pair = oc.model_pair(Q, n)
        scale = np.linalg.norm(pair.t) * np.linalg.norm(pair.s)
        residual = pair.residual()
        assert residual <= 1e-15 * scale
        worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    report(
        1,
        "model pair satisfies the commutation relation",
        elapsed < 1.0,
        f"worst residual {worst:.1e}, {elapsed:.2f}s",
    )


def test_criterion_02_power_formula_oracle_equivalence():
    # Tolerance is read relative to the largest coefficient in play: at
    # q = 2 the reordering exponents inflate coefficients to ~1e16,
    # where an absolute 1e-10 would be below one ulp.
    start = time.perf_counter()
    gen = np.random.default_rng(2)
    qs = [0.5, 0.5 + 0.25j, 2.0]
    worst = 0.0
    for trial in range(100):
        qv = qs[trial % 3]
        f = random_qseries(gen, qv, 16, 4, 3)
        s = 2 + trial % 3
        a = qa.qpow(f, s, "formula")
        b = qa.qpow(f, s, "repeated")
        scale = max(
            1.0,
            float(np.max(np.abs(a.coeffs))),
            float(np.max(np.abs(b.coeffs))),
        )
        diff = float(np.max(np.abs(a.coeffs - b.coeffs))) / scale
        assert diff <= 1e-10
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    report(
        2,
        "power formula agrees with repeated multiplication",
        elapsed < 10.0,
        f"100 series, worst scaled diff {worst:.1e}, {elapsed:.2f}s",
    )


def test_criterion_03_quasinilpotent_decay():
    start = time.perf_counter()
    gen = np.random.default_rng(3)
    for _ in range(100):
        f = random_qseries(gen, Q, 24, 4, 3, mixed_only=True)
        norm_f = qa.seminorm(f, 1.0)
        profile = qa.decay_profile(f, 1.0, 8)
        assert not profile.lossy
        for s, value in enumerate(profile.values, start=1):
            assert value <= Q ** ((s - 1) / 2) * norm_f * (1 + 1e-12)
    xy = QSeries.monomial(Q, 24, 1, 1)
    eq_profile = qa.decay_profile(xy, 1.0, 8)
    for s, value in enumerate(eq_profile.values, start=1):
        bound = Q ** ((s - 1) / 2) * qa.seminorm(xy, 1.0)
        assert abs(value - bound) <= 1e-12 * bound
    elapsed = time.perf_counter() - start
    report(
        3,
        "mixed-ideal powers decay under the envelope",
        elapsed < 30.0,
        f"100 series, equality case on the monomial, {elapsed:.2f}s",
    )


def test_criterion_04_seminorm_submultiplicativity():
    start = time.perf_counter()
    gen = np.random.default_rng(4)
    for _ in range(200):
        f = random_qseries(gen, Q, 16, 5, 8)
        g = random_qseries(gen, Q, 16, 5, 8)
        prod = qa.qmul(f, g)
        assert not prod.lossy
        rho = float(gen.uniform(0.5, 1.5))
        assert qa.seminorm(prod, rho) <= qa.seminorm(f, rho) * qa.seminorm(
            g, rho
        ) * (1 + 1e-12)
        rx, ry = float(gen.uniform(0.5, 1.5)), float(gen.uniform(0.5, 1.5))
        assert qa.p_seminorm(prod, rx, ry) <= qa.p_seminorm(
            f, rx, ry
        ) * qa.p_seminorm(g, rx, ry) * (1 + 1e-12)
    elapsed = time.perf_counter() - start
    report(
        4,
        "seminorms are submultiplicative on loss-free pairs",
        elapsed < 10.0,
        f"200 pairs, both seminorms, {elapsed:.2f}s",
    )


def test_criterion_05_log_example_spectrum():
    start = time.perf_counter()
    target = math.log(1.5)  # library log, not a copied decimal
    pair = oc.model_pair(Q, 32)
    ev = oc.eigenvalues(oc.calc(log_xy_function(Q, 40, 40), pair))
    worst = float(np.max(np.abs(ev - target)))
    elapsed = time.perf_counter() - start
    report(
        5,
        "log of the mixed monomial has singleton spectrum",
        worst <= 1e-8 and elapsed < 5.0,
        f"max |ev - ln(3/2)| = {worst:.1e}, {elapsed:.2f}s",
    )


def test_criterion_06_two_variable_example_spectrum():
    start = time.perf_counter()
    pair = oc.model_pair(Q, 24)
    ev = oc.eigenvalues(oc.calc(orbit_log_function(Q, 40, 40), pair))
    predicted = [math.log(1.5) + Q**m / (Q**m - 1.5) for m in range(24)]
    _, dist = oc.pair_eigenvalues(ev, predicted)
    worst = float(np.max(dist))
    elapsed = time.perf_counter() - start
    report(
        6,
        "two-variable example hits the predicted orbit values",
        worst <= 1e-6 and elapsed < 10.0,
        f"optimal pairing distance {worst:.1e}, {elapsed:.2f}s",
    )


def test_criterion_07_resolvent_twist_identity():
    start = time.perf_counter()
    pair = oc.model_pair(Q, 16)
    worst = 0.0
    for lam in (2.0, -1.5, 3.0j):
        for i in range(4):
            for k in range(4):
                for m in range(4):
                    res = oc.resolvent_twist_residual(pair, i, k, m, lam, relative=True)
                    assert res <= 1e-10
                    worst = max(worst, res)
    elapsed = time.perf_counter() - start
    report(
        7,
        "twisted resolvent identity holds",
        elapsed < 5.0,
        f"192 exponent/shift combinations, worst {worst:.1e}, {elapsed:.2f}s",
    )


def test_criterion_08_koszul_composite_identity():
    start = time.perf_counter()
    gen = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(gen.integers(2, 10))
        pair = conjugated_pair(gen, Q, n)
        gamma = (
            complex(gen.uniform(-2, 2), gen.uniform(-2, 2)),
            complex(gen.uniform(-2, 2), gen.uniform(-2, 2)),
        )
        comp = kz.build(pair, gamma)
        scale = (
            np.linalg.norm(pair.t, 2)
            + np.linalg.norm(pair.s, 2)
            + abs(gamma[0])
            + abs(gamma[1])
        ) ** 2
        defect = kz.composite_defect(comp)
        assert defect <= 1e-12 * scale
        worst = max(worst, defect / scale)
    for _ in range(100):
        n = int(gen.integers(2, 10))
        pair = conjugated_pair(gen, Q, n)
        g = complex(gen.uniform(-2, 2), gen.uniform(-2, 2))
        gamma = (g, 0j) if gen.random() < 0.5 else (0j, g)
        comp = kz.build(pair, gamma)
        scale = (
            np.linalg.norm(pair.t, 2)
            + np.linalg.norm(pair.s, 2)
            + abs(g)
        ) ** 2
        # on the axes the composite itself must vanish
        assert float(np.linalg.norm(comp.d1 @ comp.d0)) <= 1e-12 * scale
    elapsed = time.perf_counter() - start
    report(
        8,
        "composite of the differentials is the scalar defect",
        elapsed < 5.0,
        f"100 generic + 100 axis characters, worst scaled {worst:.1e}, {elapsed:.2f}s",
    )


def test_criterion_09_homology_matches_bruteforce():
    start = time.perf_counter()
    gen = np.random.default_rng(9)
    checked = 0
    for _ in range(50):
        n = int(gen.integers(1, 9))
        pair = oc.model_pair(Q, n)
        roll = gen.random()
        if roll < 0.4:
            gamma = (0j, complex(Q) ** int(gen.integers(0, n + 2)))
        elif roll < 0.7:
            gamma = (0j, complex(gen.uniform(-2, 2), gen.uniform(-2, 2)))
        else:
            gamma = (complex(gen.uniform(-2, 2), gen.uniform(-2, 2)), 0j)
        comp = kz.build(pair, gamma)
        assert kz.homology_dims(comp).dims == oracle_homology(comp.d0, comp.d1, n)
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        9,
        "homology dimensions equal the row-reduction oracle",
        checked == 50 and elapsed < 10.0,
        f"{checked} axis characters, N <= 8, {elapsed:.2f}s",
    )


def y_axis_homology(q: complex, n: int, mu: complex) -> tuple[int, int, int]:
    """``(h0, h1, h2)`` of the model pair's complex at ``(0, mu)``, by hand.

    There ``d0 = [mu I - qS; T]`` and ``d1 = [T, S - mu I]``.
    ``ker d0 = ker T ∩ ker(mu - qS)`` is ``span e_{N-1}`` when
    ``mu = q^N`` and zero otherwise.  ``im T = span(e_1..e_{N-1})`` and
    ``(S - mu) e_0 = (1 - mu) e_0``, so ``h2 = 1`` exactly when
    ``mu = 1``.  The Euler characteristic is 0, so ``h1 = h0 + h2``.
    """
    h0 = int(mu == complex(q) ** n)
    h2 = int(mu == 1)
    return (h0, h0 + h2, h2)


def test_criterion_10_spectrum_scan_sanity():
    # The scan flags a node when the displayed complex of the truncated
    # pair has homology there.  On the y-axis that set is {1, q^N}: the
    # orbit interior q^m (1 <= m < N) is exact, although it lies in
    # sigma(S) and in the Harte spectrum relative to the lower-triangular
    # algebra (oracles.model_y_spectrum).  Expected values come from
    # the closed form above and the row-reduction oracle, never from
    # koszul.homology_dims.
    start = time.perf_counter()
    n = 8
    pair = oc.model_pair(Q, n)
    # Dyadic nodes (spacing 2^-10) so every q^m for m <= 10 is hit
    # exactly; membership is a rank jump and only fires on the nose.
    grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 1025)
    rows = kz.spectrum_scan(pair, "y", grid)
    xs = np.asarray([r.g_re for r in rows])

    disagree = []
    for m in range(n + 1):
        node = int(np.argmin(np.abs(xs - Q**m)))
        r = rows[node]
        want = y_axis_homology(Q, n, Q**m)
        if r.g_re != Q**m or (r.h0, r.h1, r.h2) != want:
            disagree.append(
                f"q^{m}: node {r.g_re} gives {(r.h0, r.h1, r.h2)}, closed form {want}"
            )
    # The oracle's complex is assembled here from the displayed
    # differentials, not by kz.build, so a wrong block in build shows.
    eye = np.eye(n)
    for r in rows:
        g = complex(r.g_re, r.g_im)
        d0 = np.vstack([g * eye - Q * pair.s, pair.t])
        d1 = np.hstack([pair.t, pair.s - g * eye])
        want = oracle_homology(d0, d1, n)
        if (r.h0, r.h1, r.h2) != want:
            disagree.append(f"{r.g_re}: scan {(r.h0, r.h1, r.h2)}, oracle {want}")
    flagged = {r.g_re for r in rows if r.member}
    if flagged != {1.0, Q**n}:
        disagree.append(f"flagged {sorted(flagged)}, expected [q^{n}, 1]")
    orbit_clause = not disagree

    far = kz.spectrum_scan(pair, "y", kz.GridSpec(3.1, 4.0, 0.0, 0.0, 31))
    far_clause = not any(r.member for r in far)

    from qplane.fileio import write_csv

    def table(scan_rows):
        buf = io.StringIO()
        write_csv(
            buf,
            ["g_re", "g_im", "axis", "h0", "h1", "h2", "member", "stable"],
            [
                [r.g_re, r.g_im, r.axis, r.h0, r.h1, r.h2, int(r.member), int(r.stable)]
                for r in scan_rows
            ],
        )
        return buf.getvalue()

    deterministic = table(rows) == table(kz.spectrum_scan(pair, "y", grid))
    elapsed = time.perf_counter() - start

    detail = f"far-field {'ok' if far_clause else 'violated'}, " \
             f"deterministic {'ok' if deterministic else 'violated'}, {elapsed:.2f}s"
    if disagree:
        shown = "; ".join(disagree[:10])
        more = f" and {len(disagree) - 10} more" if len(disagree) > 10 else ""
        detail = f"nodes that disagree: {shown}{more}; " + detail
    report(
        10,
        "y-axis scan flags exactly its complex's spectrum {1, q^N} "
        "and stays silent far away",
        orbit_clause and far_clause and deterministic and elapsed < 30.0,
        detail,
    )


def test_criterion_11_qhull_membership():
    start = time.perf_counter()
    from qplane.qtopology import DiskUnion, QHull

    base = DiskUnion.single(1.0, 0.1)
    hull = QHull(base, Q)
    inside = hull.contains(0.5)
    outside = not hull.contains(0.3)

    hull2 = QHull(hull, Q)
    gen = np.random.default_rng(11)
    idempotent = True
    for _ in range(1000):
        z = complex(gen.uniform(-1.2, 1.2), gen.uniform(-1.2, 1.2))
        if hull2.contains(z) != hull.contains(z):
            idempotent = False
            break
    elapsed = time.perf_counter() - start
    report(
        11,
        "hull membership matches the disk computation and is idempotent",
        inside and outside and idempotent and elapsed < 5.0,
        f"1000 random points, {elapsed:.2f}s",
    )


def test_criterion_12_twist_antihomomorphism():
    start = time.perf_counter()
    gen = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        f = random_qseries(gen, Q, 12, 5, 5)
        g = random_qseries(gen, Q, 12, 5, 5)
        lhs = qa.twist(qa.qmul(g, f))
        rhs = qa.qmul_opposite(qa.twist(f), qa.twist(g))
        diff = float(np.max(np.abs(lhs.coeffs - rhs.coeffs)))
        assert diff <= 1e-12
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    report(
        12,
        "twist reverses products into the swapped layout",
        elapsed < 5.0,
        f"100 pairs, worst diff {worst:.1e}, {elapsed:.2f}s",
    )
