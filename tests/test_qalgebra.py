import itertools
import math

import numpy as np
import pytest

from qplane import _accel
from qplane import qalgebra as qa
from qplane.errors import PreconditionError
from qplane.qalgebra import QSeries

from oracles import naive_qmul, naive_qpow_formula, random_qseries

Q = 0.5


class TestIndexUtilities:
    def test_weight_and_inner(self):
        assert qa.weight((2, 0, 1)) == 3
        assert qa.inner((1, 2), (3, 4)) == 11
        with pytest.raises(PreconditionError):
            qa.inner((1,), (1, 2))

    def test_suffix_weights(self):
        assert qa.suffix_weights((2, 0, 1)) == (1, 1)
        assert qa.suffix_weights((5,)) == ()

    def test_q_exponent_single_factor_is_zero(self):
        assert qa.q_exponent((7,), (9,)) == 0

    def test_q_exponent_pair(self):
        assert qa.q_exponent((1, 1), (1, 1)) == 1

    def test_q_exponent_triple_by_hand(self):
        # suffix weights of (2,0,1) are (1,1); paired against (1,3): 1+3
        assert qa.q_exponent((2, 0, 1), (1, 3, 0)) == 4

    def test_q_exponent_length_mismatch(self):
        with pytest.raises(PreconditionError):
            qa.q_exponent((1, 2), (1,))


class TestNormalOrder:
    def test_y_times_x(self):
        assert qa.normal_order(0, 1, 1, 0) == (1, 1, 1)

    def test_already_ordered(self):
        assert qa.normal_order(3, 0, 2, 4) == (0, 5, 4)
        assert qa.normal_order(1, 2, 0, 3) == (0, 1, 5)

    def test_xy_squared(self):
        assert qa.normal_order(1, 1, 1, 1) == (1, 2, 2)


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

    def test_rejects_bad_power(self):
        with pytest.raises(PreconditionError):
            qa.qpow(QSeries.one(Q, 2), 0)


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


class TestKernels:
    @pytest.mark.parametrize("shape, d, q", KERNEL_CASES)
    def test_product_matches_naive_oracle(self, shape, d, q):
        rng = np.random.default_rng(1000 * d + len(shape))
        a, b = kernel_tables(rng, shape, d)
        assert_scaled_close(_accel.qmul_full(a, b, q), naive_qmul(a, b, q))

    def test_overflow_outside_the_table_only_sets_lossy(self):
        # x^10 y^30 * (x^35 + 1) at q = 2: the only twist that overflows,
        # 2^(35*30), belongs to the term at (45, 30), outside the D = 40 box
        f = QSeries.monomial(2.0, 40, 10, 30)
        g = QSeries.from_terms(2.0, 40, [(35, 0, 1.0), (0, 0, 1.0)])
        full = _accel.qmul_full(f.coeffs, g.coeffs, f.q)
        assert np.argwhere(~np.isfinite(full)).tolist() == [[45, 30]]
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

    def test_only_cells_an_overflowed_term_reaches_are_non_finite(self, rng):
        # |q|^e overflows exactly for e = i2*k1 > 20; every cell the other
        # terms reach stays finite and matches the loop over those terms
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
        got = _accel.qmul_full(a, b, q)
        assert np.array_equal(~np.isfinite(got), reached)
        assert_scaled_close(got[~reached], want[~reached])

    @pytest.mark.parametrize("q", [0.5, 2.0])
    @pytest.mark.parametrize(
        "case, m, s",
        [("below", 3, 6), ("equal", 2, 11), ("ragged", 3, 7), ("single", 1, 5)],
    )
    def test_formula_matches_tuple_loop(self, case, m, s, q):
        total = m**s
        assert {
            "below": total < _accel.CHUNK,
            "equal": total == _accel.CHUNK,
            "ragged": total > _accel.CHUNK and total % _accel.CHUNK != 0,
            "single": m == 1,
        }[case]
        rng = np.random.default_rng(10 * m + s)
        cells = rng.choice(16, size=m, replace=False)
        ii, kk = cells // 4, cells % 4
        aa = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert_scaled_close(
            _accel.qpow_formula(ii, kk, aa, s, q), naive_qpow_formula(ii, kk, aa, s, q)
        )


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
        from qplane.holo import log_series

        x = QSeries.monomial(Q, 10, 1, 0)
        f = qa.log_shifted(1.5, x)
        expected = log_series(1.5, 10)
        assert np.allclose(f.coeffs[:, 0], expected.coeffs, rtol=1e-12)
        assert np.count_nonzero(f.coeffs[:, 1:]) == 0
