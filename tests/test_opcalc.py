import itertools
import math
import sys

import numpy as np
import pytest

from qplane import holo
from qplane import opcalc as oc
from qplane import qalgebra as qa
from qplane.errors import PreconditionError
from qplane.holo import HoloSeries, log_series
from qplane.qalgebra import QSeries

from generate_inputs import log_xy_function, orbit_log_function
from oracles import model_y_spectrum, naive_calc, random_qseries

Q = 0.5
LOG32 = math.log(1.5)


class TestModelPair:
    def test_smallest_truncation(self):
        pair = oc.model_pair(Q, 1)
        assert np.array_equal(pair.t, [[0.0]])
        assert np.array_equal(pair.s, [[1.0]])

    def test_diagonal_entries(self):
        pair = oc.model_pair(Q, 3)
        assert np.allclose(np.diag(pair.s), [1.0, 0.5, 0.25])
        assert pair.t[1, 0] == 1.0 and pair.t[0, 0] == 0.0

    def test_relation_exact_at_64(self):
        pair = oc.model_pair(Q, 64)
        assert pair.residual() == 0.0

    def test_rejects_zero_dimension(self):
        with pytest.raises(PreconditionError):
            oc.model_pair(Q, 0)

    def test_complex_q(self):
        pair = oc.model_pair(0.3 + 0.4j, 16)
        scale = np.linalg.norm(pair.t) * np.linalg.norm(pair.s)
        assert pair.residual() <= 1e-15 * scale


class TestResidual:
    def test_commuting_pair_at_q_one(self):
        eye = np.eye(3)
        assert oc.OperatorPair(eye, eye, 1.0).residual() == 0.0

    def test_shift_does_not_q_commute_with_itself(self):
        # T S - 2 S T with S = T leaves -T^2, a single unit entry; on
        # T/||T||_F = T/sqrt(2) that is 1/2
        t = np.zeros((3, 3))
        t[1, 0] = t[2, 1] = 1.0
        with pytest.raises(PreconditionError, match="relative residual 5.000e-01 exceeds"):
            oc.OperatorPair(t, t, Q)

    def test_pair_constructor_rejects_violation(self):
        t = np.zeros((3, 3))
        t[1, 0] = t[2, 1] = 1.0
        with pytest.raises(PreconditionError, match="not q-commuting"):
            oc.OperatorPair(t, t, Q)

    def test_overflowing_norms_do_not_pass_the_check(self):
        # ||S||_F is about 2e160, but the sum of squares behind it overflows,
        # and so does the unscaled residual's: the check runs on T/||T||
        # and S/||S||
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PreconditionError, match="relative residual 9.487e-01 exceeds 1e-12"):
            oc.OperatorPair(t, np.diag([1e160, 2e160]), Q)

    def test_huge_q_model_pair_builds_without_warning(self):
        # q^2 = 1e200: ||S||_F^2 is past the double range, the relation is not
        pair = oc.model_pair(1e100, 3)
        assert pair.residual() <= 1e-15 * math.sqrt(2.0) * 1e200

    def test_non_finite_residual_is_rejected(self):
        # with q = nan nothing can be compared, so nothing is accepted
        with pytest.raises(PreconditionError, match="relative residual nan is not finite"):
            oc.OperatorPair([[0.0]], [[1.0]], complex(math.nan, 0.0))

    def test_subnormal_entries_are_measured(self):
        # numpy divides a complex array by the peak as a product with
        # 1/peak, which overflows when the peak is subnormal
        tiny = 2.0**-1070
        unit, norm = oc._unit(np.array([[3 * tiny, 4j * tiny]]))
        assert np.allclose(unit, [[0.6, 0.8j]], rtol=0, atol=1e-15) and norm == 5 * tiny
        pair = oc.OperatorPair(np.diag([1e-310, 2e-310]), np.eye(2), 1.0)
        assert pair.residual() == 0.0

    def test_residual_scales_with_the_pair(self):
        # the relation is homogeneous: scaling by a power of two leaves
        # T/||T|| and S/||S|| bit for bit, and the residual scales exactly,
        # past the point where ||T||_F^2 would overflow
        pair = oc.model_pair(0.5 + 0.3j, 6)
        assert pair.residual() > 0.0
        c = 2.0**500
        big = oc.OperatorPair(c * pair.t, c * pair.s, pair.q)
        assert big.residual() == c * c * pair.residual()


class TestCalc:
    def test_constant_gives_identity(self):
        rep = oc.QFunctionRep(Q, (HoloSeries.one(4),), 2.0, 2.0)
        pair = oc.model_pair(Q, 6)
        assert np.array_equal(oc.calc(rep, pair), np.eye(6))

    def test_log_example_diagonal(self):
        pair = oc.model_pair(Q, 32)
        a = oc.calc(log_xy_function(Q, 40, 40), pair)
        assert np.max(np.abs(np.diag(a) - LOG32)) <= 1e-12
        assert np.max(np.abs(np.triu(a, 1))) == 0.0

    def test_spectrum_precondition_names_y_radius(self):
        rep = oc.QFunctionRep(Q, (HoloSeries.one(4),), 2.0, 0.5)
        pair = oc.model_pair(Q, 8)
        with pytest.raises(PreconditionError, match="spectrum outside domain.*r_y"):
            oc.calc(rep, pair)

    def test_spectrum_precondition_names_x_radius(self):
        # swap the model: (S, T) q-commutes for 1/q, and its first slot
        # has spectral radius 1
        base = oc.model_pair(Q, 8)
        pair = oc.OperatorPair(base.s, base.t, 1.0 / Q)
        rep = oc.QFunctionRep(1.0 / Q, (HoloSeries.one(4),), 0.5, 2.0)
        with pytest.raises(PreconditionError, match="spectrum outside domain.*r_x"):
            oc.calc(rep, pair)

    def test_q_mismatch(self):
        rep = oc.QFunctionRep(0.25, (HoloSeries.one(4),), 2.0, 2.0)
        with pytest.raises(PreconditionError, match="q mismatch"):
            oc.calc(rep, oc.model_pair(Q, 4))

    def test_powers_past_the_double_range_are_refused(self):
        # T is nilpotent, so the domain check passes, but T^2 holds 1e400:
        # the monomial route refuses the orbit weight and the dense products
        # meet inf * 0.  Every caller of the evaluator raises, with no
        # RuntimeWarning on the way (the suite turns those into errors).
        n = 6
        t = np.diag(np.full(n - 1, 1e200), -1)
        pair = oc.OperatorPair(t, np.zeros((n, n)), Q)
        not_finite = "the matrix function leaves the double range: 24 of 36 entries"
        with pytest.raises(PreconditionError, match=not_finite):
            oc.calc(orbit_log_function(Q, 40, 40), pair)
        table = np.zeros((41, 41), dtype=complex)
        table[:, 0] = log_series(1.5, 40).coeffs
        with pytest.raises(PreconditionError, match="leaves the double range"):
            oc.calc_qseries(QSeries(Q, table), pair)
        with pytest.raises(PreconditionError, match="leaves the double range"):
            log_series(1.5, 40).eval_matrix(t)


class TestCalcQSeries:
    def test_x_maps_to_t(self):
        pair = oc.model_pair(Q, 5)
        x = QSeries.monomial(Q, 3, 1, 0)
        assert np.array_equal(oc.calc_qseries(x, pair), pair.t)

    def test_reordered_product_maps_to_st(self):
        pair = oc.model_pair(Q, 5)
        y = QSeries.monomial(Q, 3, 0, 1)
        x = QSeries.monomial(Q, 3, 1, 0)
        yx = qa.qmul(y, x)  # q * (x y)
        assert np.allclose(oc.calc_qseries(yx, pair), pair.s @ pair.t, atol=1e-15)

    def test_homomorphism_on_random_polynomials(self, rng):
        pair = oc.model_pair(Q, 16)
        for _ in range(10):
            f = random_qseries(rng, Q, 8, 4, 3)
            g = random_qseries(rng, Q, 8, 4, 3)
            lhs = oc.calc_qseries(qa.qmul(f, g), pair)
            rhs = oc.calc_qseries(f, pair) @ oc.calc_qseries(g, pair)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_agrees_with_function_route(self, rng):
        pair = oc.model_pair(Q, 12)
        f = random_qseries(rng, Q, 6, 5, 3)
        cols = tuple(f.series_in_x(k) for k in range(f.trunc_degree + 1))
        rep = oc.QFunctionRep(f.q, cols, 2.0, 2.0)
        assert np.allclose(oc.calc(rep, pair), oc.calc_qseries(f, pair), atol=1e-13)

    def test_triangular_diagonal_matches_character_values(self, rng):
        pair = oc.model_pair(Q, 12)
        f = random_qseries(rng, Q, 6, 6, 4)
        a = oc.calc_qseries(f, pair)
        for m in range(pair.n):
            expected = qa.spec_eval(f, (0.0, Q**m))
            assert a[m, m] == pytest.approx(expected, abs=1e-12)


def conjugated_pair(q, n, stretch=1.5):
    """A non-triangular q-commuting pair with ``||T|| > 1``: the model, T
    stretched, conjugated by a well-conditioned dense matrix."""
    base = oc.model_pair(q, n)
    gen = np.random.default_rng(n)
    noise = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    v = np.eye(n) + 0.3 * noise / np.sqrt(n)
    vinv = np.linalg.inv(v)
    return oc.OperatorPair(v @ (stretch * base.t) @ vinv, v @ base.s @ vinv, q)


def monomial_pair(kind, q, n):
    """A q-commuting pair whose factors hold at most one nonzero in every
    row and every column, other than the model pair itself."""
    base = oc.model_pair(q, n)
    if kind == "permuted":
        p = np.eye(n)[np.random.default_rng(n).permutation(n)]
        return oc.OperatorPair(p @ base.t @ p.T, p @ base.s @ p.T, q)
    if kind == "x_axis":
        # T = diag(d) with d_k = q d_(k+1), S a weighted shift: S T = q T S
        return oc.OperatorPair(np.diag(holo._powers(q, n)[::-1]), (0.8 + 0.6j) * base.t, q)
    if kind == "two_shifts":
        # S e_m = q^m e_(m+1) beside the shift T: S T = q T S, and S moves columns
        return oc.OperatorPair(base.t, base.t @ base.s, q)
    assert kind == "zero_t"
    s = base.s.copy()
    s[n // 2, n // 2] = 0.0
    return oc.OperatorPair(np.zeros((n, n)), s, q)


def coefficient_table(rep):
    width = max(fn.coeffs.size for fn in rep.f_list)
    cols = np.zeros((len(rep.f_list), width), dtype=complex)
    for m, fn in enumerate(rep.f_list):
        cols[m, : fn.coeffs.size] = fn.coeffs
    return cols


def assert_close_to_majorant(got, want, cols, pair, rtol=1e-12):
    """``|got - want|_F <= rtol * sum |c_mk| ||T||^k ||S||^m``."""
    nt, ns = np.linalg.norm(pair.t, 2), np.linalg.norm(pair.s, 2)
    k = np.arange(cols.shape[1])
    m = np.arange(cols.shape[0])[:, None]
    majorant = float(np.sum(np.abs(cols) * nt**k * ns**m))
    assert np.linalg.norm(got - want) <= rtol * max(majorant, 1e-300)


class TestCalcAgainstHorner:
    """Blocked evaluation against per-column Horner."""

    @staticmethod
    def functions(q):
        return {
            "log_xy": log_xy_function(q, 40, 40),
            "second": orbit_log_function(q, 40, 40),
            "zero": oc.QFunctionRep(q, (HoloSeries.zero(5), HoloSeries.zero(5)), 2.0, 2.0),
            "single_column": oc.QFunctionRep(q, (log_series(1.5, 17),), 2.0, 2.0),
            "top_zero": oc.QFunctionRep(
                q,
                (HoloSeries([0.0, 1.0]), HoloSeries([2.0, 0.0, -1.0]), HoloSeries.zero(4)),
                2.0,
                2.0,
            ),
        }

    @pytest.mark.parametrize("q", [Q, 0.5 + 0.25j])
    @pytest.mark.parametrize("n", [8, 32])
    @pytest.mark.parametrize(
        "kind", ["model", "conjugated", "permuted", "x_axis", "two_shifts", "zero_t"]
    )
    def test_calc(self, q, n, kind):
        if kind == "model":
            pair = oc.model_pair(q, n)
        elif kind == "conjugated":
            pair = conjugated_pair(q, n)
        else:
            pair = monomial_pair(kind, q, n)
        if kind == "conjugated":
            assert np.linalg.norm(pair.t, 2) > 1 and np.count_nonzero(np.triu(pair.t)) > 0
        for name, rep in self.functions(q).items():
            cols = coefficient_table(rep)
            got = oc.calc(rep, pair)
            assert_close_to_majorant(got, naive_calc(cols, pair.t, pair.s), cols, pair)
            if name == "zero":
                assert not got.any()

    def test_calc_at_128(self):
        pair = oc.model_pair(Q, 128)
        rep = orbit_log_function(Q, 40, 40)
        cols = coefficient_table(rep)
        assert_close_to_majorant(oc.calc(rep, pair), naive_calc(cols, pair.t, pair.s), cols, pair)

    @pytest.mark.parametrize("kind", ["model", "conjugated"])
    def test_calc_qseries(self, kind, rng):
        pair = oc.model_pair(Q, 12) if kind == "model" else conjugated_pair(Q, 12)
        for _ in range(5):
            f = random_qseries(rng, Q, 9, 12, 9)
            cols = f.coeffs.T
            assert_close_to_majorant(
                oc.calc_qseries(f, pair), naive_calc(cols, pair.t, pair.s), cols, pair
            )
        one_column = QSeries.from_terms(Q, 9, [(i, 0, 1.0 / (i + 1)) for i in range(10)])
        cols = one_column.coeffs.T
        assert_close_to_majorant(
            oc.calc_qseries(one_column, pair), naive_calc(cols, pair.t, pair.s), cols, pair
        )
        assert not oc.calc_qseries(QSeries.zero(Q, 4), pair).any()


def split_cost(degs, p):
    return (p - 1) + sum(-(-(d + 1) // p) - 1 for d in degs)


class TestRowBlocks:
    """The row-blocked evaluator on the shapes its bookkeeping must handle."""

    @staticmethod
    def tables(rng):
        high = np.zeros((1, 101), dtype=complex)
        high[0] = (rng.standard_normal(101) + 1j * rng.standard_normal(101)) * 0.9 ** np.arange(101)
        gaps = np.zeros((7, 12), dtype=complex)  # zero columns 1, 3, 4 and 6
        gaps[[0, 2, 5]] = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
        gaps[2, 9:] = 0.0  # a lower degree than its neighbours
        constant = np.zeros((3, 5), dtype=complex)
        constant[0, 0] = 2.5 - 1j
        return {
            "second": coefficient_table(orbit_log_function(Q, 40, 40)),
            "log_xy": coefficient_table(log_xy_function(Q, 40, 40)),
            "high_degree_column": high,
            "zero_columns": gaps,
            "constant": constant,
        }

    @staticmethod
    def row_height(cols, n, height):
        """A ``_BLOCK_ENTRIES`` that gives blocks of ``height`` rows."""
        live = cols[cols.any(axis=1)]
        degs = np.array([np.flatnonzero(c)[-1] for c in live])
        p = holo._power_split(degs)
        return height * (p + int(np.sum(-(-(degs + 1) // p)))) * n

    @pytest.mark.parametrize("height", [None, 1, 5])
    @pytest.mark.parametrize("kind", ["model", "conjugated"])
    def test_against_horner(self, height, kind, rng, monkeypatch):
        n = 23  # blocks of 5 rows leave a last block of 3
        pair = oc.model_pair(Q, n) if kind == "model" else conjugated_pair(Q, n)
        for name, cols in self.tables(rng).items():
            if height is not None:
                monkeypatch.setattr(holo, "_BLOCK_ENTRIES", self.row_height(cols, n, height))
            want = naive_calc(cols, pair.t, pair.s)
            # the model pair takes the monomial route; the row blocks are the dense one's
            for route in (holo._eval_columns, holo._eval_dense):
                assert_close_to_majorant(route(cols, pair.t, pair.s), want, cols, pair)

    @pytest.mark.parametrize("q", [Q, 0.6 + 0.3j])
    @pytest.mark.parametrize("kind", ["permuted", "x_axis", "two_shifts", "zero_t"])
    def test_monomial_pairs_against_horner(self, kind, q, rng):
        pair = monomial_pair(kind, q, 23)
        for name, cols in self.tables(rng).items():
            got, dense = both_routes(cols, pair.t, pair.s)
            assert_close_to_majorant(got, naive_calc(cols, pair.t, pair.s), cols, pair)
            assert_close_to_majorant(got, dense, cols, pair)

    def test_constant_is_a_multiple_of_the_identity(self):
        rep = oc.QFunctionRep(Q, (HoloSeries([2.5, 0.0]), HoloSeries.zero(1)), 2.0, 2.0)
        pair = conjugated_pair(Q, 9)
        assert np.array_equal(oc.calc(rep, pair), 2.5 * np.eye(9))

    @pytest.mark.parametrize(
        "degs, want",
        [([0], 1), ([1], 2), ([100], 13), ([40] * 41, 41), (list(range(41)), 41), ([3, 30], 8)],
    )
    def test_power_split(self, degs, want):
        ps = range(1, max(degs) + 2)
        best = min(split_cost(degs, p) for p in ps)
        assert want == max(p for p in ps if split_cost(degs, p) == best)
        assert holo._power_split(np.array(degs)) == want


def both_routes(cols, t, s):
    """``(_eval_columns, _eval_dense)``, checking that the first took the monomial route."""
    got = holo._eval_columns(cols, t, s)
    monomial = holo._eval_monomial(cols, holo._monomial(t), holo._monomial(s.T))
    assert monomial is not None and np.array_equal(got, monomial)
    return got, holo._eval_dense(cols, t, s)


class TestMonomialRoute:
    """``_eval_columns`` reads monomial factors off their zeros."""

    @pytest.mark.parametrize("q", [Q, 0.6 + 0.3j])
    @pytest.mark.parametrize("n", [8, 32, 64, 128])
    def test_model_pair(self, q, n):
        pair = oc.model_pair(q, n)
        for make in (log_xy_function, orbit_log_function):
            cols = coefficient_table(make(q, 40, 40))
            got, dense = both_routes(cols, pair.t, pair.s)
            assert_close_to_majorant(got, dense, cols, pair)
            if n != 64:
                assert_close_to_majorant(got, naive_calc(cols, pair.t, pair.s), cols, pair)
            if q == Q:
                # one nonzero term a cell and real scales: both routes are exact
                assert np.array_equal(got, dense)

    def test_cycle_revisits_cells(self):
        # a weighted cyclic permutation: T^8 = (prod w) I, so the orbit of
        # every row comes back to its cells from degree 8 on
        n, q = 8, 0.5
        t = np.zeros((n, n), dtype=complex)
        t[np.arange(n), (np.arange(n) + 1) % n] = 0.9 * np.exp(1j * np.arange(n))
        pair = oc.OperatorPair(t, np.zeros((n, n)), q)
        cols = np.stack([log_series(1.5, 30).coeffs, log_series(2.0, 30).coeffs])
        got, dense = both_routes(cols, pair.t, pair.s)
        want = naive_calc(cols, pair.t, pair.s)
        assert_close_to_majorant(got, want, cols, pair, rtol=1e-15)
        assert_close_to_majorant(got, dense, cols, pair, rtol=1e-15)

    def test_orbit_weight_past_the_double_range_goes_dense(self):
        # T^2 holds 1e400: the route is refused and the dense products
        # overflow, so the evaluator refuses the result, without warnings
        t = np.zeros((4, 4), dtype=complex)
        t[np.arange(1, 4), np.arange(3)] = 1e200
        cols = np.ones((2, 3), dtype=complex)
        assert holo._eval_monomial(cols, holo._monomial(t), holo._monomial(t.T)) is None
        with np.errstate(over="ignore", invalid="ignore"):
            dense = holo._eval_dense(cols, t, t)
        bad = np.count_nonzero(~np.isfinite(dense))
        assert bad
        with pytest.raises(PreconditionError, match=f"{bad} of 16 entries are not finite"):
            holo._eval_columns(cols, t, t)

    @pytest.mark.parametrize("q", [Q, 0.6 + 0.3j])
    def test_other_pairs_are_dense_bit_for_bit(self, q):
        # a random conjugate, and one monomial factor beside a dense one
        pair = conjugated_pair(q, 24)
        assert holo._monomial(pair.t) is None and holo._monomial(pair.s) is None
        others = ((pair.t, pair.s), (pair.t, np.diag(np.diag(pair.s))), (np.eye(24), pair.s))
        for make in (log_xy_function, orbit_log_function):
            cols = coefficient_table(make(q, 40, 40))
            for t, s in others:
                assert np.array_equal(holo._eval_columns(cols, t, s), holo._eval_dense(cols, t, s))

    @pytest.mark.parametrize(
        "m, want",
        [
            (np.diag([1.0, 0.0, 2.0]), ([0, 0, 2], [1.0, 0.0, 2.0])),
            (np.array([[0, 3j, 0], [0, 0, 0], [5.0, 0, 0]]), ([1, 0, 0], [3j, 0.0, 5.0])),
            (np.array([[1.0, 1.0], [0.0, 1.0]]), None),  # two nonzeros in a row
            (np.array([[1.0, 0.0], [1.0, 0.0]]), None),  # two nonzeros in a column
        ],
    )
    def test_monomial_is_read_off_zeros(self, m, want):
        got = holo._monomial(np.asarray(m, dtype=complex))
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestSpectralRadius:
    @pytest.mark.parametrize("q", [Q, 0.6 + 0.3j, 3.0])
    def test_model_pair_matches_lapack(self, q):
        pair = oc.model_pair(q, 128)
        for m in (pair.t, pair.s):
            assert oc.spectral_radius(m) == float(np.max(np.abs(np.linalg.eigvals(m))))

    def test_triangles_are_read_at_the_diagonal(self, rng):
        for n in (1, 5, 17):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for tri in (np.tril(m), np.triu(m)):
                want = float(np.max(np.abs(np.diag(tri))))
                assert oc.spectral_radius(tri) == want
                lapack = float(np.max(np.abs(np.linalg.eigvals(tri))))
                assert abs(lapack - want) <= 1e-15 * want

    def test_full_matrix_takes_lapack(self):
        # nilpotent but not triangular: the diagonal would say 1
        m = np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert oc.spectral_radius(m) <= 1e-7

    def test_empty_and_non_finite(self):
        assert oc.spectral_radius(np.zeros((0, 0))) == 0.0
        with pytest.raises(PreconditionError, match="finite"):
            oc.spectral_radius(np.diag([1.0, math.inf]))


class TestEigenvalues:
    def test_identity(self):
        assert np.allclose(oc.eigenvalues(np.eye(5)), np.ones(5))

    def test_model_diagonal(self):
        pair = oc.model_pair(Q, 4)
        ev = np.sort(oc.eigenvalues(pair.s).real)[::-1]
        assert np.allclose(ev, [1.0, 0.5, 0.25, 0.125])

    def test_truncated_shift_is_nilpotent(self):
        pair = oc.model_pair(Q, 4)
        assert np.allclose(oc.eigenvalues(pair.t), 0.0)


class TestHarteModelSpectrum:
    """The closed form ``oracles.model_y_spectrum`` that the mapping tests read."""

    def test_analytic_branches(self):
        points = model_y_spectrum(Q, 8)
        assert points == [Q**m for m in range(8)]
        assert np.array_equal(np.diag(oc.model_pair(Q, 8).s), points)

    def test_analytic_needs_contractive_q(self):
        with pytest.raises(ValueError):
            model_y_spectrum(2.0, 4)


class TestSpectralMapping:
    def test_constant_function(self):
        rep = oc.QFunctionRep(Q, (HoloSeries.monomial(4, 0, 2.5),), 2.0, 2.0)
        report = oc.spectral_mapping_check(rep, oc.model_pair(Q, 6))
        assert report.max_distance <= 1e-13
        assert all(abs(ev - 2.5) <= 1e-13 for ev in report.eigenvalues)

    def test_coordinate_function_y(self):
        # f = y: the matrix is S and the prediction is the orbit itself
        rep = oc.QFunctionRep(
            Q, (HoloSeries.zero(4), HoloSeries.one(4)), 2.0, 2.0
        )
        report = oc.spectral_mapping_check(rep, oc.model_pair(Q, 6))
        assert report.max_distance <= 1e-13

    def test_log_example_is_singleton(self):
        report = oc.spectral_mapping_check(log_xy_function(Q, 40, 40), oc.model_pair(Q, 32))
        assert report.max_distance <= 1e-8
        assert all(abs(p - LOG32) <= 1e-12 for p in report.predicted)

    def test_second_example_orbit_values(self):
        report = oc.spectral_mapping_check(orbit_log_function(Q, 40, 40), oc.model_pair(Q, 24))
        assert report.max_distance <= 1e-6
        predicted = sorted(p.real for p in report.predicted)
        expected = sorted(LOG32 + Q**m / (Q**m - 1.5) for m in range(24))
        assert np.allclose(predicted, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [120, 200])
    def test_prediction_is_read_at_the_diagonal_of_s(self, n):
        # past N = 100 the points q^m must be S's own entries, bit for bit
        q = 0.6 + 0.3j
        f, pair = orbit_log_function(q, 40, 40), oc.model_pair(q, n)
        report = oc.spectral_mapping_check(f, pair)
        constants = HoloSeries([fn.coeffs[0] for fn in f.f_list])
        want = [constants(s) for s in np.diag(pair.s)]
        assert np.array_equal(np.sort_complex(report.predicted), np.sort_complex(want))
        assert report.max_distance == 0.0

    def test_points_past_the_double_range_are_refused(self):
        # T = S = 0 satisfies the relation at any q, but q^2 = 1e400
        zero = np.zeros((3, 3))
        f = oc.QFunctionRep(1e200, (HoloSeries.zero(2), HoloSeries.one(2)), 2.0, 2.0)
        with pytest.raises(PreconditionError, match=r"q\^m overflows for some m < 3"):
            oc.spectral_mapping_check(f, oc.OperatorPair(zero, zero, 1e200))

    @pytest.mark.parametrize("n", [8, 24])
    @pytest.mark.parametrize(
        "make", [log_xy_function, orbit_log_function], ids=["log_xy_rep", "second_example_rep"]
    )
    def test_predicted_is_the_image_of_the_closed_form(self, make, n):
        f = make(Q, 40, 40)
        report = oc.spectral_mapping_check(f, oc.model_pair(Q, n))
        # f(0, mu) = sum_k f_k(0) mu^k, term by term
        image = [
            sum(complex(fn.coeffs[0]) * mu**k for k, fn in enumerate(f.f_list))
            for mu in model_y_spectrum(Q, n)
        ]
        assert np.allclose(
            np.sort_complex(report.predicted), np.sort_complex(image), rtol=0, atol=1e-12
        )


class TestPairing:
    def test_shuffled_multiset_has_zero_distance(self, rng):
        vals = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        shuffled = vals[rng.permutation(20)]
        perm, dist = oc.pair_eigenvalues(vals, shuffled)
        assert np.max(dist) == 0.0
        assert np.array_equal(np.sort(perm), np.arange(20))

    def test_self_pairing_beyond_64_is_exact(self, rng):
        vals = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        perm, dist = oc.pair_eigenvalues(vals, vals)
        assert np.max(dist) == 0.0

    def test_uncertified_beyond_64_is_optimal(self):
        # k + 0.6 and k + 1.7 are both nearest to the class k + 1, which
        # holds one value, so the solver runs.  On a line the sorted
        # matching is optimal: 0.6 + 0.7 per k, 52 in all (taking the
        # closest pair first gives 0.4 + 1.7 per k, 84).
        k = 10.0 * np.arange(40)
        predicted = np.concatenate([k, k + 1])
        actual = np.concatenate([k + 0.6, k + 1.7])
        perm, dist = oc.pair_eigenvalues(actual, predicted)
        assert np.array_equal(np.sort(perm), np.arange(80))
        assert np.array_equal(dist, np.abs(actual - predicted[perm]))
        assert dist.sum() == pytest.approx(52.0, abs=1e-9)

    def test_size_mismatch(self):
        with pytest.raises(PreconditionError):
            oc.pair_eigenvalues([1.0], [1.0, 2.0])

    @staticmethod
    def certified(rng, name):
        """``(actual, predicted)`` where each actual value has a strictly nearest class."""
        if name == "near_diagonal":
            orbit = Q ** np.arange(24) + 0j
            noise = 1e-10 * (rng.standard_normal(24) + 1j * rng.standard_normal(24))
            return orbit[rng.permutation(24)] + noise, orbit
        if name == "tied":
            tied = np.repeat([1.0, 0.5 + 0.5j, -2.0, 3j], [5, 1, 3, 2])
            noise = 1e-3 * (rng.standard_normal(11) + 1j * rng.standard_normal(11))
            return tied[rng.permutation(11)] + noise, tied
        return LOG32 + 1e-9 * rng.standard_normal(32) + 0j, np.full(32, LOG32 + 0j)

    @pytest.mark.parametrize("name", ["near_diagonal", "tied", "one_class"])
    def test_certified_pairing_matches_assignment(self, name, rng, monkeypatch):
        from scipy.optimize import linear_sum_assignment

        actual, predicted = self.certified(rng, name)
        cost = np.abs(actual[:, None] - predicted[None, :])
        rows, cols = linear_sum_assignment(cost)
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)  # importing it now fails
        perm, dist = oc.pair_eigenvalues(actual, predicted)
        assert np.array_equal(np.sort(perm), np.arange(actual.size))
        assert np.array_equal(predicted[perm], predicted[cols])
        assert np.array_equal(dist, cost[rows, cols])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_optimal_against_brute_force(self, n, rng):
        cases = [(np.array([0.1, 0.2]), np.array([0.0, 1.0]))] if n == 2 else []
        for _ in range(12):  # rounded predictions: ties and contested classes
            predicted = np.round(rng.standard_normal(n)) + 1j * np.round(rng.standard_normal(n))
            cases.append((rng.standard_normal(n) + 1j * rng.standard_normal(n), predicted))
        for actual, predicted in cases:
            cost = np.abs(actual[:, None] - predicted[None, :])
            best = min(
                sum(cost[i, j] for i, j in enumerate(p)) for p in itertools.permutations(range(n))
            )
            perm, dist = oc.pair_eigenvalues(actual, predicted)
            assert np.array_equal(np.sort(perm), np.arange(n))
            assert np.array_equal(dist, cost[np.arange(n), perm])
            assert dist.sum() <= best + 1e-12


class TestResolventTwist:
    def test_trivial_exponents_exact_zero(self):
        pair = oc.model_pair(Q, 8)
        assert oc.resolvent_twist_residual(pair, 0, 0, 3, 2.0) == 0.0

    def test_no_resolvent_reduces_to_reordering(self):
        pair = oc.model_pair(Q, 8)
        for i in range(3):
            for k in range(3):
                assert oc.resolvent_twist_residual(pair, i, k, 0, 2.0) <= 1e-14

    def test_derived_case(self):
        pair = oc.model_pair(Q, 16)
        res = oc.resolvent_twist_residual(pair, 2, 2, 2, 2.0, relative=True)
        assert res <= 1e-10

    def test_grid_of_exponents(self):
        pair = oc.model_pair(Q, 12)
        for lam in (2.0, -1.5, 3.0j):
            for i in range(3):
                for k in range(3):
                    for m in range(3):
                        assert (
                            oc.resolvent_twist_residual(pair, i, k, m, lam, relative=True)
                            <= 1e-10
                        )

    def test_powers_past_the_double_range_are_refused(self):
        # S^200 holds 100^200 and q^(ik) is 10^40000
        with pytest.raises(PreconditionError, match=r"S\^k is past the double range"):
            oc.resolvent_twist_residual(oc.model_pair(10, 3), 200, 200, 1, 2.0)
        with pytest.raises(PreconditionError, match=r"T\^i is past the double range"):
            pair = oc.OperatorPair(np.diag([1e200, 0.0]), np.zeros((2, 2)), 0.5)
            oc.resolvent_twist_residual(pair, 2, 0, 0, 2.0)
        with pytest.raises(PreconditionError, match=r"q\^\(ik\) is past the double range"):
            oc.resolvent_twist_residual(oc.model_pair(1e10, 1), 20, 20, 0, 2.0)

    def test_singular_resolvent_rejected(self):
        pair = oc.model_pair(Q, 4)
        with pytest.raises(PreconditionError, match="singular"):
            oc.resolvent_twist_residual(pair, 1, 1, 1, 0.0)


class TestRadicalDecay:
    def test_mixed_monomial_sits_on_envelope(self):
        # f = x y: f_1(x) = x
        rep = oc.QFunctionRep(
            Q, (HoloSeries.zero(4), HoloSeries.monomial(4, 1)), 2.0, 2.0
        )
        rows = oc.radical_decay_check(rep, oc.model_pair(Q, 16), 8)
        for row in rows:
            assert row.ratio == pytest.approx(1.0, rel=1e-10)

    def test_zero_function(self):
        rep = oc.QFunctionRep(Q, (HoloSeries.zero(3),), 1.0, 2.0)
        rows = oc.radical_decay_check(rep, oc.model_pair(Q, 8), 4)
        assert all(row.root_norm == 0.0 for row in rows)

    def test_quadratic_coefficient_bounded_envelope(self):
        # f_1(x) = x^2 decays strictly faster than the envelope
        rep = oc.QFunctionRep(
            Q, (HoloSeries.zero(6), HoloSeries.monomial(6, 2)), 2.0, 2.0
        )
        rows = oc.radical_decay_check(rep, oc.model_pair(Q, 24), 10)
        ratios = [row.ratio for row in rows]
        assert all(r <= 1.0 + 1e-12 for r in ratios)
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_rejects_unvanishing_coefficients(self):
        rep = oc.QFunctionRep(Q, (HoloSeries.one(3),), 2.0, 2.0)
        with pytest.raises(PreconditionError, match="f_0"):
            oc.radical_decay_check(rep, oc.model_pair(Q, 4), 3)
        rep = oc.QFunctionRep(
            Q, (HoloSeries.zero(3), HoloSeries.one(3)), 2.0, 2.0
        )
        with pytest.raises(PreconditionError, match="f_n"):
            oc.radical_decay_check(rep, oc.model_pair(Q, 4), 3)
