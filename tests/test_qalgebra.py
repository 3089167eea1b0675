import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from qplane import _accel
from qplane import qalgebra as qa
from qplane.errors import PreconditionError
from qplane.holo import HoloSeries, log_series
from qplane.qalgebra import QSeries

from oracles import naive_qmul, naive_qpow_formula, random_qseries

Q = 0.5


class TestQMul:
    def test_one_is_identity(self, rng):
        f = random_qseries(rng, Q, 10, 6, 5)
        one = QSeries.one(Q, 10)
        assert qa.qmul(one, f) == f
        assert qa.qmul(f, one) == f

    def test_y_times_x(self):
        y = QSeries.monomial(Q, 4, 0, 1)
        x = QSeries.monomial(Q, 4, 1, 0)
        assert qa.qmul(y, x).terms() == [(1, 1, Q + 0j)]

    def test_xy_squared(self):
        xy = QSeries.monomial(Q, 4, 1, 1)
        assert qa.qmul(xy, xy).terms() == [(2, 2, Q + 0j)]

    def test_matches_naive_oracle(self, rng):
        for qv in (0.5, 0.5 + 0.25j, 2.0):
            f = random_qseries(rng, qv, 12, 5, 4)
            g = random_qseries(rng, qv, 12, 5, 4)
            expected = naive_qmul(f.coeffs, g.coeffs, qv)[:13, :13]
            got = qa.qmul(f, g)
            assert np.allclose(got.coeffs, expected, rtol=1e-13, atol=1e-13)
            assert not got.lossy

    def test_rowwise_route_agrees(self, rng):
        for _ in range(10):
            f = random_qseries(rng, 0.5 + 0.25j, 14, 6, 6)
            g = random_qseries(rng, 0.5 + 0.25j, 14, 6, 6)
            a = qa.qmul(f, g)
            b = qa.qmul_rowwise(f, g)
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12

    def test_q_mismatch_rejected(self):
        f = QSeries.one(0.5, 3)
        g = QSeries.one(0.25, 3)
        with pytest.raises(PreconditionError):
            qa.qmul(f, g)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            qa.qmul(QSeries.one(Q, 3), QSeries.one(Q, 4))

    def test_loss_flag(self):
        x3 = QSeries.monomial(Q, 4, 3, 0)
        assert qa.qmul(x3, x3).lossy
        assert not qa.qmul(x3, QSeries.one(Q, 4)).lossy


class TestQPow:
    def test_power_one_returns_input(self, rng):
        f = random_qseries(rng, Q, 6, 4, 3)
        assert qa.qpow(f, 1, "formula") == f
        assert qa.qpow(f, 1, "repeated") == f

    def test_zero_series_formula_returns_input(self):
        zero = QSeries.zero(Q, 3)
        assert qa.qpow(zero, 3, "formula") is zero

    def test_xy_cubed_closed_form(self):
        xy = QSeries.monomial(Q, 6, 1, 1)
        for method in ("repeated", "formula"):
            out = qa.qpow(xy, 3, method)
            assert out.terms() == [(3, 3, Q**3 + 0j)]

    def test_monomial_power_closed_form(self, rng):
        # x^i y^k to the s-th: exponent q^(ik s(s-1)/2) on x^(is) y^(ks)
        i, k, s = 2, 1, 3
        g = QSeries.monomial(Q, 8, i, k)
        out = qa.qpow(g, s, "formula")
        assert out.terms() == [(i * s, k * s, Q ** (i * k * s * (s - 1) // 2) + 0j)]

    def test_triple_product_exponent_by_hand(self):
        # y^k x^i = q^(ik) x^i y^k: in x^2y * y^3 * x both y and y^3 cross
        # the last x, so the exponent is 1 + 3
        q = 0.5 + 0.25j
        x2y, y3, x = (QSeries.monomial(q, 4, i, k) for i, k in [(2, 1), (0, 3), (1, 0)])
        (cell,) = qa.qmul(qa.qmul(x2y, y3), x).terms()
        assert cell[:2] == (3, 4) and cell[2] == pytest.approx(q**4, rel=1e-15)
        # in (x^2y + y^3 + x)^3 the six orders of those three factors reach
        # cell (3, 4), with exponents sum_t (i_{t+1} + ... + i_s) k_t
        f = x2y + y3 + x
        expected = sum(q**e for e in (0, 1, 4, 6, 9, 10))
        for method in ("repeated", "formula"):
            assert qa.qpow(f, 3, method).coeffs[3, 4] == pytest.approx(expected, rel=1e-15)

    def test_methods_agree_on_random_support(self, rng):
        for _ in range(15):
            f = random_qseries(rng, 0.5 + 0.25j, 16, 4, 3)
            s = int(rng.integers(2, 5))
            a = qa.qpow(f, s, "formula")
            b = qa.qpow(f, s, "repeated")
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10

    def test_cap_suggests_repeated(self):
        f = random_qseries(np.random.default_rng(0), Q, 20, 12, 10)
        with pytest.raises(PreconditionError, match="repeated"):
            qa.qpow(f, 7, "formula")

    def test_cap_never_forms_the_whole_tuple_count(self):
        # 33 terms: forming 33**(10^7) in full would take about 15 s
        f = QSeries.from_terms(Q, 32, [(i, 32 - i, 1.0) for i in range(33)])
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match=r"33\*\*10000000 > 1000000 index tuples"):
            qa.qpow(f, 10**7, "formula")
        assert time.perf_counter() - start < 1.0

    def test_cap_refuses_a_one_term_table_before_allocating(self):
        # one term passes the tuple cap (1**s = 1), but x y to the 10^9th
        # would fill a (10^9 + 1)^2 table
        xy = QSeries.monomial(Q, 3, 1, 1)
        with pytest.raises(PreconditionError, match="1000000001 x 1000000001 table"):
            qa.qpow(xy, 10**9, "formula")
        assert not qa.qpow(xy, 10**9, "repeated").coeffs.any()  # the method it names

    def test_rejects_bad_power(self):
        with pytest.raises(PreconditionError):
            qa.qpow(QSeries.one(Q, 2), 0)

    def test_repeated_stops_once_the_power_vanishes(self, monkeypatch):
        # x^5 leaves the degree-4 table, and every later product is the
        # same zero table with the same loss flag
        qmul, calls = qa.qmul, []

        def counted(f, g):
            calls.append(1)
            return qmul(f, g)

        monkeypatch.setattr(qa, "qmul", counted)
        out = qa.qpow(QSeries.monomial(Q, 4, 1, 0), 10**9)
        assert out == QSeries.zero(Q, 4) and out.lossy
        assert len(calls) <= 5


def kernel_tables(rng, shape, d):
    """Left and right factor tables of one sparsity pattern at degree ``d``."""

    def noise(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    n = d + 1
    a = np.zeros((n, n), dtype=complex)
    b = np.zeros((n, n), dtype=complex)
    if shape == "dense":
        return noise(n, n), noise(n, n)
    if shape == "single-column":
        a[:, d // 2] = noise(n, 1)[:, 0]
        return a, noise(n, n)
    if shape == "single-row":
        a[d // 2, :] = noise(1, n)[0]
        b[d // 3, :] = noise(1, n)[0]
        return a, b
    if shape == "banded":
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 2
        return noise(n, n) * band, noise(n, n) * band
    if shape == "all-zero":
        return a, noise(n, n)
    assert shape == "rectangular"
    return noise(n, d // 2 + 2), noise(d // 3 + 1, n + 1)


def assert_scaled_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


# the oracle needs about 2 s for a dense D = 33 product, so that size runs
# at one q only: the one with |q| > 1 and a phase
KERNEL_CASES = [
    (shape, d, q)
    for shape in ("dense", "single-column", "single-row", "banded", "all-zero", "rectangular")
    for d in (0, 1, 16, 33)
    for q in (0.5 + 0.25j, 1.5, -0.7 + 0.9j)
    if not (shape == "dense" and d == 33 and q != -0.7 + 0.9j)
]


def routed(route, a, b, q, degree=None):
    """``_accel.qmul_full`` held to one route.

    A term pair costing 0 always takes the pair route; one costing
    ``inf`` never does, which leaves the column route.
    """
    saved = _accel.PAIR_COST
    _accel.PAIR_COST = {"pair": 0.0, "column": math.inf}[route]
    try:
        return _accel.qmul_full(a, b, q, degree)
    finally:
        _accel.PAIR_COST = saved


ROUTES = ("pair", "column")


class TestKernels:
    @pytest.mark.parametrize("shape, d, q", KERNEL_CASES)
    def test_product_matches_naive_oracle(self, shape, d, q):
        rng = np.random.default_rng(1000 * d + len(shape))
        a, b = kernel_tables(rng, shape, d)
        want = naive_qmul(a, b, q)
        assert_scaled_close(_accel.qmul_full(a, b, q), want)
        for route in ROUTES:
            assert_scaled_close(routed(route, a, b, q), want)
        # truncated, the column route forms exactly the (d+1)^2 box; the
        # pair route still hands back the whole table (a zero factor
        # runs neither)
        box = routed("column", a, b, q, d)
        assert box.shape == (d + 1, d + 1)
        n, m = min(d + 1, want.shape[0]), min(d + 1, want.shape[1])
        assert_scaled_close(box[:n, :m], want[:n, :m])
        assert not box[n:, :].any() and not box[:, m:].any()
        pairs = routed("pair", a, b, q, d)
        assert pairs.shape == (want.shape if a.any() else (d + 1, d + 1))

    def test_routing(self, monkeypatch, rng):
        # the diagonal mixed part of the worked logarithm scatters its
        # term pairs (32 and 46 terms); a dense table runs the columns
        scatter, calls = _accel._scatter_pairs, []

        def counted(*args):
            calls.append(1)
            return scatter(*args)

        monkeypatch.setattr(_accel, "_scatter_pairs", counted)
        for d, terms in ((32, 32), (64, 46)):
            xy = QSeries.monomial(Q, d, 1, 1)
            mixed = qa.decompose(qa.log_shifted(1.5, xy)).f_xy.coeffs
            assert np.count_nonzero(mixed) == terms
            calls.clear()
            _accel.qmul_full(mixed, mixed, Q)
            assert calls, d
        dense = rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))
        calls.clear()
        _accel.qmul_full(dense, dense, Q)
        assert not calls

    def test_gemm_operands_hold_no_subnormal_part(self, monkeypatch, rng):
        # twisted rows near the subnormal range are lifted by 2^600 before
        # their GEMM: a dense D = 64 product at q = 0.5+0.25j, whose twists
        # cross that range, and 2^600 y + 1 times 0.7 x^2 at q = 2^-520,
        # whose columns k1 = 0 (twist 1) and k1 = 1 (0.7 * 2^-1040) are
        # adjacent
        matmul, subnormal = np.matmul, []

        def spy(x, y, *args, **kwargs):
            parts = np.abs(y.view(np.float64))
            subnormal.append(bool(((parts > 0) & (parts < 2.0**-1022)).any()))
            return matmul(x, y, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        dense = [rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65)) for _ in "ab"]
        routed("column", *dense, 0.5 + 0.25j, 64)
        q = 2.0**-520
        a = QSeries.from_terms(q, 4, [(0, 1, 2.0**600), (0, 0, 1.0)]).coeffs
        routed("column", a, QSeries.monomial(q, 4, 2, 0, 0.7).coeffs, q, 4)
        assert subnormal and not any(subnormal)

    @pytest.mark.parametrize("q", [0.5 + 0.25j, 1.5])
    def test_dense_product_memory(self, q, rng):
        # every GEMM block of the column route lives in one workspace, so a
        # dense D = 64 product peaks below 2 MiB of traced memory (each
        # table is 66 KiB).  At q = 1.5 it is the CLI's overflowing
        # product, which qmul refuses after forming it
        f, g = (
            QSeries(q, rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65)))
            for _ in range(2)
        )
        tracemalloc.start()
        try:
            try:
                qa.qmul(f, g)
            except PreconditionError:
                assert q == 1.5
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_overflow_outside_the_table_only_sets_lossy(self):
        # x^10 y^30 * (x^35 + 1) at q = 2: the only twist that overflows,
        # 2^(35*30), belongs to the term at (45, 30), outside the D = 40 box
        f = QSeries.monomial(2.0, 40, 10, 30)
        g = QSeries.from_terms(2.0, 40, [(35, 0, 1.0), (0, 0, 1.0)])
        for route in ROUTES:
            full = routed(route, f.coeffs, g.coeffs, f.q)
            assert np.argwhere(~np.isfinite(full)).tolist() == [[45, 30]], route
        out = qa.qmul(f, g)
        assert out.lossy
        assert out.terms() == [(10, 30, 1 + 0j)]

    def test_overflow_inside_the_table_raises(self):
        f = QSeries.monomial(2.0, 40, 0, 35)
        g = QSeries.monomial(2.0, 40, 35, 0)
        with pytest.raises(PreconditionError, match=r"\|q\| = 2 inside the degree-40"):
            qa.qmul(f, g)

    def test_power_overflow_raises_for_both_methods(self):
        f = QSeries.monomial(2.0, 100, 40, 40)  # its square carries q^1600
        for method in ("repeated", "formula"):
            with pytest.raises(PreconditionError, match="overflows"):
                qa.qpow(f, 2, method)

    @pytest.mark.parametrize("method", ["product", "repeated", "formula"])
    def test_coefficient_overflow_does_not_blame_q(self, method):
        # (1e200 x)^2 = 1e400 x^2: the only twist is q^0 = 1
        f = QSeries.monomial(Q, 4, 1, 0, 1e200)
        what = "product" if method != "formula" else "power"
        with pytest.raises(PreconditionError) as info:
            qa.qmul(f, f) if method == "product" else qa.qpow(f, 2, method)
        assert str(info.value) == (
            f"the {what} overflows inside the degree-4 table with every twist set to 1: "
            "its coefficients leave the double range"
        )

    @pytest.mark.parametrize("method", ["product", "repeated", "formula"])
    def test_twist_overflow_still_names_q(self, method):
        # the square of 1e150 x^40 y^40 is 1e300 q^1600 at cell (80, 80):
        # finite without the twist, past the double range with it
        f = QSeries.monomial(2.0, 100, 40, 40, 1e150)
        what = "product" if method != "formula" else "power"
        with pytest.raises(
            PreconditionError, match=rf"the {what} overflows at \|q\| = 2 inside the degree-100"
        ):
            qa.qmul(f, f) if method == "product" else qa.qpow(f, 2, method)

    def test_only_cells_an_overflowed_term_reaches_are_non_finite(self, rng):
        # |q|^e overflows exactly for e = i2*k1 > 20; every cell the other
        # terms reach stays finite and matches the loop over those terms,
        # on both routes of the product
        q = 1e15 * np.exp(0.3j)
        a = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
        b = rng.standard_normal((13, 13)) + 1j * rng.standard_normal((13, 13))
        a[a.real > 1.0] = 0
        b[b.imag > 1.0] = 0
        want = np.zeros((25, 25), dtype=complex)
        reached = np.zeros((25, 25), dtype=bool)
        for (i1, k1), (i2, k2) in itertools.product(np.argwhere(a), np.argwhere(b)):
            if i2 * k1 > 20:
                reached[i1 + i2, k1 + k2] = True
            else:
                want[i1 + i2, k1 + k2] += complex(q) ** (i2 * k1) * a[i1, k1] * b[i2, k2]
        for route in ROUTES:
            got = routed(route, a, b, q)
            assert np.array_equal(~np.isfinite(got), reached), route
            assert_scaled_close(got[~reached], want[~reached])
        # the box route marks only the overflowed terms it keeps
        for d in (6, 12, 18):
            box = routed("column", a, b, q, d)
            assert np.array_equal(~np.isfinite(box), reached[: d + 1, : d + 1]), d
            kept = ~reached[: d + 1, : d + 1]
            assert_scaled_close(box[kept], want[: d + 1, : d + 1][kept])

    @pytest.mark.parametrize("layout", ["plain", "twisted"])
    def test_cross_check_routes_drop_overflow_outside_the_table(self, layout):
        # the example above through both reference routes: qmul's finite
        # table, lossy, no RuntimeWarning (the suite turns those into errors)
        f = QSeries.monomial(2.0, 40, 10, 30)
        g = QSeries.from_terms(2.0, 40, [(35, 0, 1.0), (0, 0, 1.0)])
        a, b = (f, g) if layout == "plain" else (qa.twist(g), qa.twist(f))
        rowwise, want = qa.qmul_rowwise(a, b), qa.qmul(a, b)
        assert rowwise.lossy and want.lossy
        assert rowwise == want
        # twist(g' f') = twist(f') *_opposite twist(g')
        opposite, want = qa.qmul_opposite(a, b), qa.twist(qa.qmul(qa.twist(b), qa.twist(a)))
        assert opposite.lossy and want.lossy
        assert opposite == want
        assert want.terms() in ([(10, 30, 1 + 0j)], [(30, 10, 1 + 0j)])

    @pytest.mark.parametrize("f_ik, g_ik", [((0, 35), (35, 0)), ((10, 40), (30, 0))])
    def test_cross_check_routes_raise_on_overflow_inside_the_table(self, f_ik, g_ik):
        # the second pair lands on the table's last row, (40, 40)
        f = QSeries.monomial(2.0, 40, *f_ik)
        g = QSeries.monomial(2.0, 40, *g_ik)
        with pytest.raises(PreconditionError, match="overflows"):
            qa.qmul(f, g)
        for route in (qa.qmul_rowwise, qa.qmul_opposite):
            with pytest.raises(PreconditionError, match=r"\|q\| = 2 inside the degree-40"):
                route(f, g)
        with pytest.raises(PreconditionError, match="overflows"):
            qa.qmul_opposite(qa.twist(g), qa.twist(f))

    def test_rowwise_refuses_a_power_of_q_past_the_double_range(self):
        # q^35 = 1e350 comes from the shared power table, so the reference
        # route refuses the product as qmul does, not with an OverflowError
        q = 1e10
        f = QSeries.from_terms(q, 40, [(0, 35, 1.0), (0, 0, 1.0)])
        g = QSeries.from_terms(q, 40, [(35, 0, 1.0), (0, 0, 1.0)])
        with pytest.raises(PreconditionError) as want:
            qa.qmul(f, g)
        with pytest.raises(PreconditionError) as got:
            qa.qmul_rowwise(f, g)
        assert str(got.value) == str(want.value)

    def test_cross_check_routes_agree_at_q_above_one(self, rng):
        # finite twists at q = 1.5, the benchmark's reference setting; then
        # a dense D = 64 product at q = 0.5+0.25j, whose twists q^(i2*k1)
        # cross the subnormal range (the rows the column route lifts)
        pairs = [
            (random_qseries(rng, 1.5, 16, 8, 16), random_qseries(rng, 1.5, 16, 8, 16))
            for _ in range(5)
        ]
        dense = [rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65)) for _ in "fg"]
        pairs.append(tuple(QSeries(0.5 + 0.25j, t) for t in dense))
        for f, g in pairs:
            want = qa.qmul(f, g)
            opposite = qa.twist(qa.qmul_opposite(qa.twist(g), qa.twist(f)))
            for got in (qa.qmul_rowwise(f, g), opposite):
                assert got.lossy == want.lossy
                assert_scaled_close(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize(
        "case, m, s",
        [("below", 3, 6), ("equal", 2, 11), ("ragged", 3, 7), ("single", 1, 5),
         ("square", 50, 2), ("long-tail", 46, 3)],
    )
    def test_formula_matches_tuple_loop(self, case, m, s, q):
        # the kernel joins a head block of m^(s//2) tuples with a tail
        # block of m^(s - s//2), taking head rows times the tail (a tail
        # past CHUNK in slices) up to CHUNK pairs a step
        head, tail = m ** (s // 2), m ** (s - s // 2)
        rows = _accel.CHUNK // min(tail, _accel.CHUNK)  # head rows per step
        assert {
            "below": head * tail < _accel.CHUNK,
            "equal": head * tail == _accel.CHUNK,
            "ragged": tail <= _accel.CHUNK and head > rows and head % rows != 0,
            "single": m == 1,
            "square": s == 2 and head > rows and head % rows != 0,
            "long-tail": tail > _accel.CHUNK and tail % _accel.CHUNK != 0,
        }[case]
        rng = np.random.default_rng(10 * m + s)
        cells = rng.choice(64, size=m, replace=False)
        ii, kk = cells // 8, cells % 8
        aa = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert_scaled_close(
            _accel.qpow_formula(ii, kk, aa, s, q), naive_qpow_formula(ii, kk, aa, s, q)
        )

    def test_formula_overflow_raises_without_a_warning(self, rng):
        # at q = 2 the squares of 100 terms in a 200 x 200 table meet
        # overflowed twists in one cell across steps (inf - inf)
        table = np.zeros((200, 200), dtype=complex)
        cells = rng.choice(200 * 200, size=100, replace=False)
        table[cells // 200, cells % 200] = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        f = QSeries(2.0, table)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("formula", "repeated"):
                with pytest.raises(PreconditionError, match=r"\|q\| = 2 inside the degree-199"):
                    qa.qpow(f, 2, method)


def outside_any(a, b, q, d):
    """The loss flag read off the untruncated table: any cell outside the box."""
    full = _accel.qmul_full(a, b, q)
    return bool(full[d + 1 :, :].any() or full[:, d + 1 :].any())


def lossy_table(rng, d):
    """A dense, sparse, banded or one-term table with a seeded magnitude."""
    n = d + 1
    mask = [
        np.ones((n, n), dtype=bool),
        rng.random((n, n)) < 0.2,
        np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1,
        np.arange(n * n).reshape(n, n) == rng.integers(n * n),
    ][rng.integers(4)]
    scale = 10.0 ** rng.choice([0, 0, 300, -300, 150, -150, -320, 307, rng.uniform(-320, 300)])
    return np.where(mask, (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * scale, 0)


# 2^-105 e^0.7i has a subnormal power q^10, with complex parts
LOSSY_QS = (
    1e-150, 0.01, 0.5, 0.3 + 0.4j, 1.5, 1e10, 2.0**-105 * complex(math.cos(0.7), math.sin(0.7))
)


class TestLossyRule:
    """``qmul``'s loss flag without the cells outside the box (qalgebra._lost_outside)."""

    @pytest.mark.parametrize("route", ["chosen", "column"])
    def test_matches_the_untruncated_table(self, route, monkeypatch):
        # 1500 seeded cases per route: the flag equals .any() over the
        # outside cells of the untruncated product; the column route
        # held for every product reaches all three steps of the decision
        if route == "column":
            monkeypatch.setattr(_accel, "PAIR_COST", math.inf)
        rng = np.random.default_rng(19 if route == "column" else 20)
        compared = 0
        for case in range(1500):
            d = int(rng.integers(0, 10))
            a, b = lossy_table(rng, d), lossy_table(rng, d)
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                continue
            q = LOSSY_QS[case % len(LOSSY_QS)]
            try:
                got = qa.qmul(QSeries(q, a), QSeries(q, b)).lossy
            except PreconditionError:  # a cell inside the box overflowed
                continue
            assert got == outside_any(a, b, q, d), (case, d, q)
            compared += 1
        assert compared >= 1200

    @staticmethod
    def steps(monkeypatch, cases):
        """``qmul``'s loss flags on ``cases``, and how many untruncated kernel calls it made.

        A case is ``(d, q, f_terms, g_terms)``; every flag is checked
        against the untruncated table first, before the spy goes in.
        """
        monkeypatch.setattr(_accel, "PAIR_COST", math.inf)  # the column route
        pairs = [
            (QSeries.from_terms(q, d, f), QSeries.from_terms(q, d, g)) for d, q, f, g in cases
        ]
        want = [outside_any(f.coeffs, g.coeffs, f.q, f.trunc_degree) for f, g in pairs]
        untruncated = []
        kernel = _accel.qmul_full

        def spied_kernel(a, b, q, degree=None):
            untruncated.append(degree is None)
            return kernel(a, b, q, degree)

        monkeypatch.setattr(_accel, "qmul_full", spied_kernel)
        got = [qa.qmul(f, g).lossy for f, g in pairs]
        assert got == want
        return got, sum(untruncated)

    def test_step_1_degrees_that_fit(self, monkeypatch):
        got, untruncated = self.steps(
            monkeypatch, [(8, Q, [(2, 1, 1.0), (0, 5, 2.0)], [(6, 0, 1.0), (1, 3, 1.0)])]
        )
        assert got == [False]
        assert untruncated == 0

    def test_step_2_a_vertex_cell(self, monkeypatch):
        # dense: (2D, 0) holds the one term a[D, 0] b[D, 0] q^0.  The
        # vertex (1, 3) of 2^-1070 y^2 * 2^-1070 xy holds 2^-2140 q^2,
        # 2^-1110 at q = 2^515, but its twist 2^1030 overflows
        rng = np.random.default_rng(5)
        dense = [(i, k, complex(*rng.standard_normal(2))) for i in range(5) for k in range(5)]
        got, untruncated = self.steps(monkeypatch, [
            (4, 0.3 + 0.4j, dense, dense[::-1]),
            (2, 2.0**515, [(0, 2, 2.0**-1070)], [(1, 1, 2.0**-1070)]),
        ])
        assert got == [True, True]
        assert untruncated == 0

    def test_step_3_the_table_where_the_vertex_is_tiny(self, monkeypatch):
        # the vertex (5, 0) holds 1e-320 (about 2^-1063), subnormal but
        # not 0, then 1e-324 (about 2^-1076), which rounds to 0; the
        # third case has a vertex below 2^-1000 and a large term at (5, 1)
        got, untruncated = self.steps(monkeypatch, [
            (4, Q, [(4, 0, 1e-160)], [(1, 0, 1e-160)]),
            (4, Q, [(4, 0, 1e-162)], [(1, 0, 1e-162)]),
            (4, Q, [(4, 0, 1e-300), (4, 1, 1e300)], [(1, 0, 1e-300)]),
        ])
        assert got == [True, False, True]
        assert untruncated == 3

    @pytest.mark.parametrize("route", ROUTES)
    def test_routes_agree_where_a_twist_underflows(self, route, monkeypatch):
        # 1e300 y times 1e300 x^3 is 1e150 x^3 y, but the twist q^3 =
        # 1e-450 underflows.  Both routes form c_h (c_t q^e), so the term
        # is lost the same way on each, without a warning or an error
        monkeypatch.setattr(_accel, "PAIR_COST", {"pair": 0.0, "column": math.inf}[route])
        f = QSeries.monomial(1e-150, 4, 0, 1, 1e300)
        g = QSeries.monomial(1e-150, 4, 3, 0, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = qa.qmul(f, g)
        assert not out.coeffs.any()
        assert not out.lossy

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("left", ["monomial", "two-column"])
    def test_routes_agree_where_a_formed_term_is_subnormal(self, route, left, monkeypatch):
        # b q^e = 0.7 * 2^-1040 is subnormal, so it keeps 34 of 0.7's 53
        # bits, and 2^600 times it is normal: both routes form c_h (c_t q^e),
        # so they give the same bits.  With y^2 beside 2^600 y (its twist
        # q^4 is 0) the column route runs a GEMM over both columns, which
        # lifts that row by 2^600 once formed
        monkeypatch.setattr(_accel, "PAIR_COST", {"pair": 0.0, "column": math.inf}[route])
        q = 2.0**-520
        terms = [(0, 1, 2.0**600)] + ([(0, 2, 1.0)] if left == "two-column" else [])
        f = QSeries.from_terms(q, 4, terms)
        g = QSeries.monomial(q, 4, 2, 0, 0.7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = qa.qmul(f, g)
        want = np.zeros((5, 5), dtype=complex)
        want[2, 1] = 2.0**600 * (0.7 * 2.0**-1040)
        assert 0 < abs(0.7 * 2.0**-1040) < 2.0**-1022
        assert np.array_equal(out.coeffs.view(np.int64), want.view(np.int64))
        assert not out.lossy

    def test_a_coefficient_whose_modulus_overflows(self, monkeypatch):
        # |1.3e308 (1 + i)| is about 2^1024.4, above the largest double,
        # though both parts are finite.  Times 2^-80 x at q = 2^-1000 the
        # vertex term is 2^-55.6, but b q = 2^-1080 rounds to 0 first,
        # so the formed outside cell is 0; at q = 1/2 it is kept
        big = [(1, 1, 1.3e308 + 1.3e308j)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, untruncated = self.steps(monkeypatch, [
                (1, 2.0**-1000, big, [(1, 0, 2.0**-80)]),
                (1, 0.5, big, [(1, 0, 2.0**-80)]),
            ])
        assert got == [False, True]
        assert untruncated == 1


class TestDecompose:
    def test_constant(self):
        f = QSeries.monomial(Q, 3, 0, 0, 5.0)
        fx, fxy, fy = qa.decompose(f)
        assert fx == f
        assert not fxy.terms() and not fy.terms()

    def test_one_monomial_each(self):
        f = QSeries.from_terms(Q, 3, [(1, 0, 1.0), (1, 1, 1.0), (0, 1, 1.0)])
        fx, fxy, fy = qa.decompose(f)
        assert fx.terms() == [(1, 0, 1 + 0j)]
        assert fxy.terms() == [(1, 1, 1 + 0j)]
        assert fy.terms() == [(0, 1, 1 + 0j)]

    def test_log_of_mixed_monomial(self):
        # ln(3/2 + xy): constant ln(3/2) in the x part, nothing in the
        # y part, and the n-th mixed coefficient
        # (-1)^(n+1)/n (2/3)^n q^(n(n-1)/2) at (n, n).
        d = 8
        xy = QSeries.monomial(Q, d, 1, 1)
        f = qa.log_shifted(1.5, xy)
        fx, fxy, fy = qa.decompose(f)
        assert fx.terms() == [(0, 0, complex(math.log(1.5)))]
        assert fy.terms() == []
        for n in range(1, d + 1):
            expected = (-1) ** (n + 1) / n * (2 / 3) ** n * Q ** (n * (n - 1) // 2)
            assert fxy.coeffs[n, n] == pytest.approx(expected, rel=1e-13)
        assert np.count_nonzero(fxy.coeffs) == d

    def test_reconstruction_and_idempotence(self, rng):
        f = random_qseries(rng, Q, 9, 12, 9)
        fx, fxy, fy = qa.decompose(f)
        assert (fx + fxy + fy) == f
        again = qa.decompose(fx)
        assert again.f_x == fx and not again.f_xy.terms() and not again.f_y.terms()

    def test_mixed_ideal_absorbs(self, rng):
        for _ in range(5):
            f = random_qseries(rng, Q, 10, 4, 4, mixed_only=True)
            g = random_qseries(rng, Q, 10, 6, 4)
            for prod in (qa.qmul(f, g), qa.qmul(g, f)):
                parts = qa.decompose(prod)
                assert not parts.f_x.terms()
                assert not parts.f_y.terms()


class TestSeminorms:
    def test_zero(self):
        assert qa.seminorm(QSeries.zero(Q, 4), 1.0) == 0.0
        assert qa.p_seminorm(QSeries.zero(Q, 4), 1.0, 1.0) == 0.0

    def test_monomial_contractive_regime(self):
        f = QSeries.monomial(Q, 4, 1, 1)
        assert qa.seminorm(f, 2.0) == pytest.approx(4.0)

    def test_monomial_expansive_regime(self):
        f = QSeries.monomial(2.0, 4, 1, 1)
        assert qa.seminorm(f, 2.0) == pytest.approx(2.0)

    def test_regimes_agree_on_unit_circle(self, rng):
        qv = complex(math.cos(1.1), math.sin(1.1))
        f = random_qseries(rng, qv, 6, 8, 6)
        plain = float(
            np.sum(np.abs(f.coeffs) * np.outer(1.3 ** np.arange(7), 1.3 ** np.arange(7)))
        )
        assert qa.seminorm(f, 1.3) == pytest.approx(plain, rel=1e-13)

    def test_p_seminorm_single_term(self):
        f = QSeries.monomial(Q, 4, 1, 1)
        assert qa.p_seminorm(f, 1.0, 3.0) == pytest.approx(3.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(PreconditionError):
            qa.seminorm(QSeries.one(Q, 2), -1.0)
        with pytest.raises(PreconditionError):
            qa.p_seminorm(QSeries.one(Q, 2), 1.0, 0.0)

    def test_sum_past_the_double_range_is_inf(self):
        f = QSeries.monomial(Q, 40, 0, 40)
        assert qa.seminorm(f, 1e20) == math.inf
        assert qa.p_seminorm(f, 1.0, 1e20) == math.inf  # 1e20**40 overflows in Python
        assert qa.p_seminorm(QSeries.monomial(Q, 40, 40, 0), 1e20, 1.0) == math.inf

    def test_overflowed_weights_never_give_nan(self):
        # rho^(i+k) overflows at the empty cells of the table, yet every
        # nonzero term is finite, so the seminorms are too
        xy = QSeries.monomial(Q, 40, 1, 1)
        assert qa.seminorm(xy, 1e20) == pytest.approx(1e40, rel=1e-12)
        assert qa.p_seminorm(xy, 1e20, 1e20) == pytest.approx(1e40, rel=1e-12)
        # |q| > 1: rho^16 = 1e320 overflows before |q|^(-64) brings it back
        f = QSeries.monomial(2.0, 16, 8, 8)
        assert qa.seminorm(f, 1e20) == pytest.approx(1e300 / 2.0**64 * 1e20, rel=1e-12)
        # an overflowed x-weight against an underflowed y-weight
        g = QSeries.monomial(Q, 4, 2, 2)
        assert qa.p_seminorm(g, 1e300, 1e-300) == pytest.approx(1.0, rel=1e-12)

    def test_zero_table_with_overflowed_weights_is_zero(self):
        # every weight past the double range meets a zero coefficient, so
        # the direct sum is NaN and the log-weights sum has no term
        assert HoloSeries.zero(400).norm(1e200) == 0.0
        for q in (Q, 2.0):
            assert qa.seminorm(QSeries.zero(q, 40), 1e20) == 0.0
        assert qa.p_seminorm(QSeries.zero(Q, 40), 1e300, 1.0) == 0.0

    def test_submultiplicative_contractive(self, rng):
        for _ in range(25):
            f = random_qseries(rng, Q, 16, 5, 7)
            g = random_qseries(rng, Q, 16, 5, 7)
            prod = qa.qmul(f, g)
            assert not prod.lossy
            rho = float(rng.uniform(0.5, 1.5))
            assert qa.seminorm(prod, rho) <= qa.seminorm(f, rho) * qa.seminorm(
                g, rho
            ) * (1 + 1e-12)
            assert qa.p_seminorm(prod, rho, 1.2) <= qa.p_seminorm(
                f, rho, 1.2
            ) * qa.p_seminorm(g, rho, 1.2) * (1 + 1e-12)


class TestDecayProfile:
    def test_pure_x_is_flat(self):
        f = QSeries.monomial(Q, 8, 1, 0)
        profile = qa.decay_profile(f, 1.0, 8)
        assert profile.values == pytest.approx([1.0] * 8)
        assert not profile.lossy

    def test_xy_hits_bound_with_equality(self):
        f = QSeries.monomial(Q, 8, 1, 1)
        profile = qa.decay_profile(f, 1.0, 3)
        assert profile.values[2] == pytest.approx(0.5, rel=1e-13)
        norm_f = qa.seminorm(f, 1.0)
        for s, value in enumerate(profile.values, start=1):
            assert value == pytest.approx(
                abs(Q) ** ((s - 1) / 2) * norm_f, rel=1e-12
            )

    def test_random_mixed_obeys_bound(self, rng):
        for _ in range(10):
            f = random_qseries(rng, Q, 24, 4, 3, mixed_only=True)
            norm_f = qa.seminorm(f, 1.0)
            profile = qa.decay_profile(f, 1.0, 8)
            assert not profile.lossy
            for s, value in enumerate(profile.values, start=1):
                assert value <= abs(Q) ** ((s - 1) / 2) * norm_f * (1 + 1e-12)

    def test_loss_flag_on_small_table(self):
        f = QSeries.monomial(Q, 3, 1, 1)
        profile = qa.decay_profile(f, 1.0, 5)
        assert profile.lossy

    def test_stops_multiplying_at_the_zero_power(self, monkeypatch):
        # (xy)^5 leaves the D = 4 box: four products reach the zero table
        calls = []
        qmul = qa.qmul
        monkeypatch.setattr(qa, "qmul", lambda f, g: calls.append(1) or qmul(f, g))
        profile = qa.decay_profile(QSeries.monomial(Q, 4, 1, 1), 1.0, 10**5)
        assert len(calls) <= 5
        assert len(profile.values) == len(profile.lossy_at) == 10**5
        assert profile.values[:4] == pytest.approx([Q ** ((s - 1) / 2) for s in range(1, 5)])
        assert set(profile.values[4:]) == {0.0}
        assert profile.lossy_at[:4] == [False] * 4 and set(profile.lossy_at[4:]) == {True}

    @pytest.mark.parametrize("lossy", [False, True])
    def test_zero_series_profile(self, lossy):
        profile = qa.decay_profile(QSeries(Q, QSeries.zero(Q, 3).coeffs, lossy=lossy), 1.0, 4)
        assert profile == ([0.0] * 4, [lossy] * 4)


class TestTwist:
    def test_involution(self, rng):
        f = random_qseries(rng, Q, 7, 9, 7)
        assert qa.twist(qa.twist(f)) == f

    def test_one_fixed(self):
        one = QSeries.one(Q, 3)
        assert qa.twist(one) == one

    def test_symmetric_monomial_fixed(self):
        xy = QSeries.monomial(Q, 3, 1, 1)
        assert qa.twist(xy) == xy

    def test_antihomomorphism(self, rng):
        for _ in range(20):
            f = random_qseries(rng, 0.5 + 0.25j, 12, 5, 5)
            g = random_qseries(rng, 0.5 + 0.25j, 12, 5, 5)
            lhs = qa.twist(qa.qmul(g, f))
            rhs = qa.qmul_opposite(qa.twist(f), qa.twist(g))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12


class TestSpecEval:
    def test_mixed_monomial_dies(self):
        xy = QSeries.monomial(Q, 3, 1, 1)
        assert qa.spec_eval(xy, (0.7, 0.0)) == 0
        assert qa.spec_eval(xy, (0.0, -2.3)) == 0

    def test_x_plus_y_on_x_axis(self):
        f = QSeries.from_terms(Q, 3, [(1, 0, 1.0), (0, 1, 1.0)])
        assert qa.spec_eval(f, (2.0, 0.0)) == 2.0

    def test_unital(self, rng):
        one = QSeries.one(Q, 5)
        assert qa.spec_eval(one, (0.3, 0.0)) == 1.0
        assert qa.spec_eval(one, (0.0, 0.9j)) == 1.0

    def test_multiplicative_on_both_axes(self, rng):
        for gamma in ((0.0, 0.3), (0.7, 0.0), (0.0, 0.0)):
            for _ in range(10):
                f = random_qseries(rng, Q, 12, 5, 5)
                g = random_qseries(rng, Q, 12, 5, 5)
                lhs = qa.spec_eval(qa.qmul(f, g), gamma)
                rhs = qa.spec_eval(f, gamma) * qa.spec_eval(g, gamma)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_off_axis_rejected(self):
        with pytest.raises(PreconditionError):
            qa.spec_eval(QSeries.one(Q, 2), (1.0, 1.0))


class TestLogShifted:
    def test_requires_zero_constant(self):
        with pytest.raises(PreconditionError):
            qa.log_shifted(1.5, QSeries.one(Q, 3))

    def test_pure_x_argument_matches_one_variable_log(self):
        # one rule for ln(c + z): the x column is log_series(c, D) bit for bit
        for c in (1.5, 0.5, 1e5):
            f = qa.log_shifted(c, QSeries.monomial(Q, 70, 1, 0))
            assert np.array_equal(f.coeffs[:, 0], log_series(c, 70).coeffs)
            assert np.count_nonzero(f.coeffs[:, 1:]) == 0

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("terms", [[(1, 0), (0, 1)], [(1, 0), (1, 1)]],
                             ids=["x+y", "x+xy"])
    def test_degree_one_term_sums_every_power_in_the_box(self, d, terms):
        # g^n reaches the box up to n = 2D when g has a degree-1 term;
        # the reference sums the powers to n = 2D + 1 with naive_qmul.
        c = 1.5
        g = QSeries.from_terms(Q, d, [(i, k, 1.0) for i, k in terms])
        expected = np.zeros((d + 1, d + 1), dtype=complex)
        expected[0, 0] = math.log(c)
        gn = np.array([[1.0 + 0j]])
        for n in range(1, 2 * d + 2):
            gn = naive_qmul(gn, g.coeffs, Q)[: d + 1, : d + 1]
            expected += (-1) ** (n + 1) / (n * c**n) * gn
        f = qa.log_shifted(c, g)
        assert np.allclose(f.coeffs, expected, rtol=1e-13, atol=1e-15)

    def test_large_offset_is_finite(self):
        # n 1e5^n leaves the double range from n = 62 on; at q = 1,
        # (xy)^n = x^n y^n, so the diagonal is ln(1e5 + z) term by term
        f = qa.log_shifted(1e5, QSeries.monomial(1.0, 70, 1, 1))
        assert np.all(np.isfinite(f.coeffs))
        assert np.array_equal(np.diag(f.coeffs), log_series(1e5, 70).coeffs)
        assert np.count_nonzero(f.coeffs) == 62

    def test_small_offset_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=r"z\^104 in ln\(0\.001 \+ z\)"):
                qa.log_shifted(1e-3, QSeries.monomial(Q, 400, 1, 1))

    def test_overflowing_terms_are_refused_without_a_warning(self):
        # a_n (1e10 x)^n = (1e13)^n / n leaves the double range from
        # n = 24 on, while (1e10 x)^n itself is finite up to n = 30 = D
        g = QSeries.monomial(Q, 30, 1, 0, 1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=r"ln\(0\.001 \+ g\) overflows"):
                qa.log_shifted(1e-3, g)

    def test_stops_multiplying_at_the_zero_power(self, monkeypatch):
        # x^65 leaves the D = 64 box, so the sum to n = 2D = 128 stops
        # after the 64 products x^2 .. x^65 (127 without the stop)
        calls = []
        qmul = qa.qmul
        monkeypatch.setattr(qa, "qmul", lambda f, g: calls.append(1) or qmul(f, g))
        f = qa.log_shifted(1.5, QSeries.monomial(Q, 64, 1, 0))
        assert len(calls) == 64
        assert np.array_equal(f.coeffs[:, 0], log_series(1.5, 64).coeffs)

    @pytest.mark.parametrize("d", [8, 32, 64])
    def test_keeps_the_loss_of_its_argument(self, d):
        xy = QSeries.monomial(Q, d, 1, 1)
        exact = qa.log_shifted(1.5, xy)
        lossy = qa.log_shifted(1.5, QSeries(Q, xy.coeffs, lossy=True))
        assert not exact.lossy and lossy.lossy
        assert np.array_equal(lossy.coeffs, exact.coeffs)


class TestOperators:
    """``*``, ``-`` and scalar products on series."""

    def test_star_is_qmul_and_keeps_loss(self, rng):
        f = random_qseries(rng, Q, 4, 6, 4)
        g = random_qseries(rng, Q, 4, 6, 4)
        x = QSeries.monomial(Q, 2, 1, 0)
        y = QSeries.monomial(Q, 2, 0, 1)
        lossy_x = QSeries(Q, x.coeffs, lossy=True)
        # f g drops mass past degree 4; x y does not; a lossy factor stays lossy
        for a, b, lossy in [(f, g, True), (x, y, False), (y, lossy_x, True)]:
            prod = a * b
            assert prod == qa.qmul(a, b)
            assert prod.lossy == qa.qmul(a, b).lossy == lossy

    def test_scalar_product_commutes(self, rng):
        f = QSeries(Q, random_qseries(rng, Q, 3, 5, 3).coeffs, lossy=True)
        assert 2 * f == f * 2 == QSeries(Q, 2 * f.coeffs)
        assert (2 * f).lossy and (f * 2).lossy

    def test_difference_with_itself_is_zero(self, rng):
        f = random_qseries(rng, Q, 3, 5, 3)
        assert f - f == QSeries.zero(Q, 3)
        assert not (f - f).lossy
        assert (QSeries(Q, f.coeffs, lossy=True) - f).lossy
