import math
from fractions import Fraction

import numpy as np
import pytest

from qplane import holo
from qplane.errors import PreconditionError
from qplane.holo import HoloSeries, _weighted_l1, log_series, scale_coeffs

from oracles import conv_oracle

LOG32 = math.log(1.5)


def exact_l1(a, rho_x, rho_y, twist):
    """The weighted l1 sum in exact rationals, rounded once to a double."""
    total = sum(
        Fraction(abs(complex(v))) * Fraction(rho_x) ** i * Fraction(rho_y) ** k
        / Fraction(twist) ** (i * k)
        for (i, k), v in np.ndenumerate(a) if v != 0
    )
    try:
        return float(total)
    except OverflowError:
        return math.inf


def weights(shape, rho_x, rho_y, twist):
    i, k = np.indices(shape)
    return rho_x**i * rho_y**k * twist ** (-(i * k).astype(float))


def random_l1_table(rng, x_logs, y_logs, term_logs=(-300, 300)):
    """A table under random radii, and its ``(rho_x, rho_y, twist)``.

    ``log_10`` of the radii is uniform in the ranges ``x_logs``, ``y_logs``,
    that of the twist in (0, 30), the twist 1 half the time, and that of
    each term in ``term_logs``; a cell whose coefficient would leave
    1e+-300, and about a third of the rest, is 0.
    """
    shape = (int(rng.integers(3, 8)), int(rng.integers(1, 8)))
    logs = (rng.uniform(*x_logs), rng.uniform(*y_logs), rng.uniform(0, 30))
    rho_x, rho_y, twist = 10.0 ** np.array(logs)
    twist = 1.0 if rng.random() < 0.5 else twist
    i, k = np.indices(shape)
    scale = rng.uniform(*term_logs, shape) - i * logs[0] - k * logs[1]
    scale += i * k * math.log10(twist)
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** (
        np.clip(scale, -300, 300))
    a[(np.abs(scale) > 300) | (rng.random(shape) < 0.3)] = 0
    return a, (rho_x, rho_y, twist)


class TestLogSeries:
    def test_first_coefficient_at_three_halves(self):
        f = log_series(1.5, 4)
        assert f.coeffs[1] == pytest.approx(2.0 / 3.0)

    def test_mercator_second_coefficient(self):
        f = log_series(1.0, 4)
        assert f.coeffs[2] == pytest.approx(-0.5)

    def test_shifted_offset_first_coefficient(self):
        # coefficient of z at offset c is 1/c
        f = log_series(2.5, 4)
        assert f.coeffs[1] == pytest.approx(1.0 / 2.5)

    def test_known_prefix(self):
        f = log_series(1.5, 3)
        expected = [LOG32, 2.0 / 3.0, -2.0 / 9.0, 8.0 / 81.0]
        assert np.allclose(f.coeffs, expected, rtol=0, atol=1e-15)

    def test_rejects_nonpositive_offset(self):
        with pytest.raises(PreconditionError):
            log_series(0.0, 3)

    def test_terms_past_the_range_are_zero(self):
        # n * 1e5^n overflows from n = 62 on, without a warning
        f = log_series(1e5, 70)
        assert np.count_nonzero(f.coeffs) == 62
        assert f.coeffs[61] == pytest.approx(-1.0 / (61 * 1e5**61), rel=1e-15)

    @pytest.mark.parametrize(
        "c, degree, n", [(1e-3, 400, 104), (0.5, 1200, 1035), (math.inf, 3, 0)]
    )
    def test_coefficient_past_the_range_is_refused(self, c, degree, n):
        with pytest.raises(PreconditionError, match=rf"coefficient of z\^{n} in ln"):
            log_series(c, degree)


class TestMul:
    def test_identity(self, rng):
        one = HoloSeries.one(6)
        g = HoloSeries(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        assert (one * g) == g

    def test_z_times_z(self):
        z = HoloSeries.monomial(2, 1)
        assert (z * z) == HoloSeries.monomial(2, 2)

    def test_log_square_matches_convolution_oracle(self):
        f = log_series(1.5, 3)
        prod = f * f
        expected = conv_oracle(f.coeffs, f.coeffs)[:4]
        assert np.allclose(prod.coeffs, expected, rtol=0, atol=1e-15)
        # mass at degree > 3 was dropped
        assert prod.lossy

    def test_random_against_oracle(self, rng):
        for _ in range(20):
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            prod = HoloSeries(a) * HoloSeries(b)
            assert np.allclose(prod.coeffs, conv_oracle(a, b)[:5], atol=1e-14)

    def test_eval_multiplicative_when_loss_free(self, rng):
        for _ in range(20):
            a = np.zeros(9, dtype=complex)
            b = np.zeros(9, dtype=complex)
            a[:4] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            b[:5] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            f, g = HoloSeries(a), HoloSeries(b)
            z = complex(rng.standard_normal(), rng.standard_normal())
            assert (f * g)(z) == pytest.approx(f(z) * g(z), abs=1e-12 * (1 + abs(z)) ** 8)

    def test_min_degree_result(self):
        f = HoloSeries.monomial(8, 1)
        g = HoloSeries.monomial(3, 1)
        assert (f * g).trunc_degree == 3


class TestScaleArg:
    def test_identity_scale(self, rng):
        a = rng.standard_normal(6)
        assert np.array_equal(scale_coeffs(a, 1.0), a)

    def test_monomial_scaling(self):
        scaled = scale_coeffs(HoloSeries.monomial(4, 2).coeffs, 0.5)
        assert scaled[2] == pytest.approx(0.25)

    def test_geometric_termwise(self):
        q = 0.5 + 0.25j
        scaled = scale_coeffs(np.ones(9, dtype=np.complex128), q)
        for n in range(9):
            assert scaled[n] == q**n

    def test_composition_exact_on_dyadic_data(self):
        # every product is exactly representable, so the two routes
        # agree bit for bit
        a = np.array([1.5, -0.25, 3.0, 0.5 + 2j, -8.0, 0.0625, 1j])
        c, cp = 0.5 + 0.125j, -0.25 + 1j
        twice = scale_coeffs(scale_coeffs(a, c), cp)
        once = scale_coeffs(a, c * cp)
        assert np.array_equal(twice, once)

    def test_composition_generic(self, rng):
        a = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        c, cp = complex(rng.standard_normal(), 0.3), complex(0.8, rng.standard_normal())
        twice = scale_coeffs(scale_coeffs(a, c), cp)
        once = scale_coeffs(a, c * cp)
        assert np.allclose(twice, once, rtol=1e-14, atol=0)

    def test_overflow_left_to_the_caller(self):
        # 2^1100 overflows; the zero at degree 1100 is not turned into 0 * inf,
        # and no RuntimeWarning escapes (the suite turns those into errors)
        a = np.zeros(1102, dtype=np.complex128)
        a[[0, 1, 1101]] = 1.0
        scaled = scale_coeffs(a, 2.0)
        assert scaled[0] == 1 and scaled[1] == 2
        assert np.all(scaled[2:1101] == 0)
        assert not np.isfinite(scaled[1101])


class TestNorm:
    def test_zero(self):
        assert HoloSeries.zero(5).norm(1.0) == 0.0

    def test_one_plus_z_at_two(self):
        f = HoloSeries([1.0, 1.0])
        assert f.norm(2.0) == pytest.approx(3.0)

    def test_log_partial_sum(self):
        f = log_series(1.5, 8)
        expected = LOG32 + sum((1.0 / n) * (2.0 / 3.0) ** n for n in range(1, 9))
        assert f.norm(1.0) == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(PreconditionError):
            HoloSeries.one(2).norm(0.0)

    def test_integer_radius_reads_as_float(self):
        # 2**64 wraps around in int64 arithmetic
        f = HoloSeries(np.ones(70))
        assert f.norm(2) == f.norm(2.0) == pytest.approx(2.0**70 - 1)

    def test_weight_past_the_double_range(self):
        # 1e200^2 overflows: where it meets a zero the term is 0, not NaN,
        # and where it meets a nonzero coefficient the norm is inf
        assert HoloSeries([2.0, 0.0, 0.0]).norm(1e200) == 2.0
        assert HoloSeries([2.0, 0.0, 1e-300]).norm(1e200) == pytest.approx(2.0 + 1e100)
        assert HoloSeries([2.0, 0.0, 1.0]).norm(1e200) == math.inf

    def test_sum_past_the_double_range_matches_exact_fractions(self, rng):
        # A zero last row under rho_x^2 > 1e320 makes the direct sum NaN, so
        # each table takes the scaled sum; coefficients and radii span 1e+-300.
        finite = 0
        for _ in range(60):
            a, radii = random_l1_table(rng, (161, 300), (-300, 300))
            a[-1] = 0
            got, want = _weighted_l1(a, *radii), exact_l1(a, *radii)
            if 0 < want < math.inf:
                finite += 1
                assert got == pytest.approx(want, rel=2e-15, abs=0)
            else:
                assert got == want
        assert finite >= 40

    def test_twist_power_past_the_chunk_matches_exact_fractions(self, rng):
        # |q| > 1 and terms with i k >= 512: the scaled sum splits twist^(-i k)
        # in more than one chunk of _split_powers.  Radii near 1e10 push the
        # weights past the double range and the twists below it, so the
        # direct sum is NaN and every table takes the scaled sum.
        for _ in range(5):
            shape = (int(rng.integers(23, 29)), int(rng.integers(23, 29)))
            rho_x, rho_y = 10.0 ** rng.uniform(8, 12, 2)
            twist = 10.0 ** rng.uniform(0.5, 1.0)
            i, k = np.indices(shape)
            scale = rng.uniform(-300, 300, shape) + i * k * math.log10(twist)
            scale -= i * math.log10(rho_x) + k * math.log10(rho_y)
            a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** (
                np.clip(scale, -300, 300))
            a[(np.abs(scale) > 300) | (rng.random(shape) < 0.3)] = 0
            assert (i * k)[a != 0].max() >= 512
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                assert math.isnan(np.sum(np.abs(a) * weights(shape, rho_x, rho_y, twist)))
            want = exact_l1(a, rho_x, rho_y, twist)
            assert 0 < want < math.inf
            assert _weighted_l1(a, rho_x, rho_y, twist) == pytest.approx(want, rel=2e-15, abs=0)

    def test_weight_below_the_normal_range(self):
        # 1e-170^2 underflows to 0, where the term is 1e-40
        assert HoloSeries([0.0, 0.0, 1e300]).norm(1e-170) == pytest.approx(1e-40, rel=1e-15, abs=0)
        assert HoloSeries([0.0, 0.0, 1e300]).norm(1e-160) == pytest.approx(1e-20, rel=1e-15, abs=0)
        # a subnormal factor 1e-320 (four digits) inside a normal weight 1e-220
        a = np.zeros((3, 2))
        a[2, 1] = 1.0
        want = exact_l1(a, 1e-160, 1e100, 1.0)
        assert _weighted_l1(a, 1e-160, 1e100) == pytest.approx(want, rel=2e-15, abs=0)

    def test_underflowing_radii_match_exact_fractions(self, rng):
        # rho_x^2 < 1e-322 is 0 or subnormal, and coefficients up to 1e300
        # keep terms there at 1e-300 .. 1e-100, as large as the others; no
        # weight overflows, so the direct sum is finite but drops or blurs
        # those terms, and the scaled sum is taken.
        finite = dropped = 0
        for _ in range(60):
            a, radii = random_l1_table(rng, (-300, -161), (-40, 40), (-300, -100))
            got, want = _weighted_l1(a, *radii), exact_l1(a, *radii)
            if 0 < want < math.inf:
                finite += 1
                assert got == pytest.approx(want, rel=2e-15, abs=0)
                with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                    direct = float(np.sum(np.abs(a) * weights(a.shape, *radii)))
                dropped += math.isfinite(direct) and direct != pytest.approx(want, abs=0)
            else:
                assert got == want
        assert finite >= 40 and dropped >= 10

    def test_submultiplicative_loss_free(self, rng):
        for _ in range(30):
            a = np.zeros(13, dtype=complex)
            b = np.zeros(13, dtype=complex)
            a[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            b[:7] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            f, g = HoloSeries(a), HoloSeries(b)
            rho = float(rng.uniform(0.25, 2.0))
            assert (f * g).norm(rho) <= f.norm(rho) * g.norm(rho) * (1 + 1e-12)


class TestEval:
    def test_constant(self):
        assert HoloSeries.one(3)(1.7 + 2j) == 1.0

    def test_log_constant_term(self):
        assert log_series(1.5, 20)(0.0) == pytest.approx(LOG32)

    def test_log_converges_inside_disk(self):
        f = log_series(1.5, 40)
        assert f(0.1) == pytest.approx(math.log(1.6), abs=1e-10)


class TestEvalMatrix:
    def test_constant_gives_identity(self):
        m = np.arange(9, dtype=float).reshape(3, 3)
        out = HoloSeries.one(4).eval_matrix(m)
        assert np.array_equal(out, np.eye(3))

    def test_linear_gives_matrix(self):
        m = np.arange(9, dtype=float).reshape(3, 3)
        out = HoloSeries.monomial(4, 1).eval_matrix(m)
        assert np.allclose(out, m)

    def test_nilpotent_diagonal_is_constant_term(self):
        n = 6
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(1, n), np.arange(n - 1)] = 1.5
        out = log_series(1.5, 30).eval_matrix(m)
        assert np.allclose(np.diag(out), LOG32, atol=1e-14)

    def test_diagonal_matrix_pointwise(self, rng):
        d = rng.uniform(-0.4, 0.4, 5) + 1j * rng.uniform(-0.4, 0.4, 5)
        f = log_series(1.5, 25)
        out = f.eval_matrix(np.diag(d))
        expected = np.diag([f(z) for z in d])
        assert np.allclose(out, expected, atol=1e-12)

    def test_shift_places_each_coefficient_on_its_subdiagonal(self):
        n, f = 10, log_series(1.5, 6)
        shift = np.eye(n, k=-1, dtype=complex)
        want = sum(a * np.eye(n, k=-j) for j, a in enumerate(f.coeffs))
        out = f.eval_matrix(shift)
        assert np.array_equal(out, want)
        assert np.array_equal(out, holo._eval_dense(f.coeffs[None, :], shift, shift))

    def test_diagonal_matrix_against_dense_products(self, rng):
        # every orbit of a diagonal matrix stays on its own cell
        d = rng.uniform(-0.4, 0.4, 7) + 1j * rng.uniform(-0.4, 0.4, 7)
        f = log_series(1.5, 25)
        m = np.diag(d)
        out = f.eval_matrix(m)
        assert np.array_equal(out, np.diag(np.diag(out)))
        assert np.allclose(out, holo._eval_dense(f.coeffs[None, :], m, m), rtol=0, atol=1e-15)

    def test_empty_matrix(self):
        out = log_series(1.5, 4).eval_matrix(np.zeros((0, 0)))
        assert out.shape == (0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            HoloSeries.one(2).eval_matrix(np.zeros((2, 3)))


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            HoloSeries([1.0, float("nan")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HoloSeries([])

    def test_truncate_flags_loss(self):
        f = HoloSeries([1.0, 2.0, 3.0])
        assert f.truncate(1).lossy
        assert not f.truncate(5).lossy


def test_difference_truncates_to_the_smaller_degree():
    a = HoloSeries([1.0, 2.0, 3.0])
    b = HoloSeries([0.5, 1.0])
    d = a - b
    assert np.array_equal(d.coeffs, [0.5, 1.0])
    assert d.lossy  # the 3 x^2 of a was dropped
    assert b - b == HoloSeries.zero(1) and not (b - b).lossy
