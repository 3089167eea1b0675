import itertools
import math

import numpy as np
import pytest

from qplane import koszul as kz
from qplane import opcalc as oc
from qplane.errors import PreconditionError

from oracles import naive_homology_dims, naive_spectrum_scan, oracle_homology

Q = 0.5


def conjugated_pair(rng, q, n):
    """A q-commuting pair that is not the bare model: scale and conjugate."""
    base = oc.model_pair(q, n)
    alpha = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
    beta = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
    d = np.diag(np.exp(rng.uniform(-0.3, 0.3, n)))
    dinv = np.linalg.inv(d)
    return oc.OperatorPair(d @ (alpha * base.t) @ dinv, d @ (beta * base.s) @ dinv, q)


def outside_class(pair):
    """A unitary conjugate of ``pair`` outside the bidiagonal class: indices 1 and 2 swapped.

    The conjugate has the same complexes up to unitaries on both sides, so
    the same members.  Index 0 stays put, so ``d0[0, 0]`` is unchanged,
    while the shift's chain ``e_0 -> e_1 -> e_2`` becomes ``e_0 -> e_2 ->
    e_1 -> e_3``, which leaves both bands.
    """
    p = np.eye(pair.n)
    p[[1, 2]] = p[[2, 1]]
    conjugate = oc.OperatorPair(p @ pair.t @ p.T, p @ pair.s @ p.T, pair.q)
    assert kz._scan_maps(conjugate, 1).forms == (None, None)
    return conjugate


class TestBuild:
    def test_blocks_at_origin(self):
        pair = oc.model_pair(Q, 4)
        comp = kz.build(pair, (0.0, 0.0))
        assert np.array_equal(comp.d0[:4], -Q * pair.s)
        assert np.array_equal(comp.d0[4:], pair.t)
        assert np.array_equal(comp.d1[:, :4], pair.t)
        assert np.array_equal(comp.d1[:, 4:], pair.s)
        assert np.max(np.abs(comp.d1 @ comp.d0)) == 0.0

    def test_blocks_equal_definition_at_random_characters(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            pair = conjugated_pair(rng, 0.5 + 0.3j, n)
            gx, gy = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
            comp = kz.build(pair, (gx, gy))
            eye = np.eye(n, dtype=complex)
            q, t, s = pair.q, pair.t, pair.s
            assert np.array_equal(comp.d0, np.vstack([gy * eye - q * s, t - q * gx * eye]))
            assert np.array_equal(comp.d1, np.hstack([t - gx * eye, s - gy * eye]))

    def test_composite_scalar_off_axis(self):
        # at gamma = (1, 1): d1 d0 = (q - 1) I
        pair = oc.model_pair(Q, 4)
        comp = kz.build(pair, (1.0, 1.0))
        prod = comp.d1 @ comp.d0
        assert np.allclose(prod, -0.5 * np.eye(4), atol=1e-14)
        assert np.linalg.norm(prod) == pytest.approx(0.5 * 2.0)  # 0.5 * sqrt(N)

    def test_defect_small_on_random_characters(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            pair = conjugated_pair(rng, Q, n)
            gamma = (
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            comp = kz.build(pair, gamma)
            scale = (
                np.linalg.norm(pair.t, 2)
                + np.linalg.norm(pair.s, 2)
                + abs(gamma[0])
                + abs(gamma[1])
            ) ** 2
            assert kz.composite_defect(comp) <= 1e-12 * scale

    @pytest.mark.parametrize("g", [1e160, 1e200])
    def test_product_past_the_double_range_is_rejected_without_warning(self, g):
        # (q - 1) gx gy overflows; the suite turns a RuntimeWarning into an error
        with pytest.raises(PreconditionError, match="composite identity violated"):
            kz.build(oc.model_pair(Q, 4), (g, g))

    def test_commutative_case_vanishes_everywhere(self):
        pair = oc.model_pair(1.0, 5)  # q = 1: S is the identity
        comp = kz.build(pair, (0.7, -1.3))
        assert kz.composite_defect(comp) <= 1e-14

    def test_image_of_d0_sits_in_kernel_of_d1_on_axes(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            pair = conjugated_pair(rng, Q, n)
            g = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            gamma = (g, 0j) if rng.random() < 0.5 else (0j, g)
            comp = kz.build(pair, gamma)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.linalg.norm(comp.d1 @ (comp.d0 @ v)) <= 1e-10 * np.linalg.norm(v)


class TestHomologyDims:
    def test_origin_is_exact(self):
        pair = oc.model_pair(Q, 4)
        hom = kz.homology_dims(kz.build(pair, (0.0, 0.0)))
        assert hom.dims == (0, 0, 0)
        assert hom.stable and not hom.member

    def test_resolvent_far_point_is_exact(self):
        pair = oc.model_pair(Q, 4)
        hom = kz.homology_dims(kz.build(pair, (5.0, 0.0)))
        assert hom.dims == (0, 0, 0)

    def test_orbit_point_y_equals_q(self):
        # gamma = (0, q): the shifted diagonal block kills e_0 but the
        # shift covers for it, so the complex stays exact.  Frozen from
        # the row-reduction oracle (see test_matches_oracle for the
        # systematic sweep).
        pair = oc.model_pair(Q, 4)
        comp = kz.build(pair, (0.0, Q))
        assert oracle_homology(comp.d0, comp.d1, 4) == (0, 0, 0)
        hom = kz.homology_dims(comp)
        assert hom.dims == (0, 0, 0)

    def test_top_of_orbit_is_member(self):
        # w = 1 = q^0: the range of [T, S - I] misses e_0
        pair = oc.model_pair(Q, 4)
        hom = kz.homology_dims(kz.build(pair, (0.0, 1.0)))
        assert hom.dims == (0, 1, 1)
        assert hom.member

    def test_first_dropped_weight_is_member(self):
        # w = q^N: the kernel of the shifted diagonal block meets ker T
        n = 4
        pair = oc.model_pair(Q, n)
        hom = kz.homology_dims(kz.build(pair, (0.0, Q**n)))
        assert hom.dims == (1, 1, 0)
        assert hom.member

    def test_off_axis_hard_error(self):
        pair = oc.model_pair(Q, 4)
        comp = kz.build(pair, (1.0, 1.0))
        with pytest.raises(PreconditionError, match="off both axes"):
            kz.homology_dims(comp)

    def test_bad_rank_tol(self):
        pair = oc.model_pair(Q, 4)
        comp = kz.build(pair, (0.0, 0.0))
        with pytest.raises(PreconditionError):
            kz.homology_dims(comp, rank_tol=0.0)

    def test_matches_oracle(self, rng):
        # systematic sweep: random axis points plus the structural ones
        checked = 0
        for n in range(1, 9):
            pair = oc.model_pair(Q, n)
            points = [
                (0.0 + 0.0j, complex(Q) ** m) for m in range(n + 2)
            ] + [(0.0 + 0.0j, 0.0 + 0.0j)]
            while len(points) < 14:
                g = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                points.append((g, 0j) if rng.random() < 0.5 else (0j, g))
            for gamma in points:
                comp = kz.build(pair, gamma)
                hom = kz.homology_dims(comp)
                assert hom.dims == oracle_homology(comp.d0, comp.d1, n), gamma
                checked += 1
        assert checked >= 50


class TestRadius:
    """The certified radius against a brute-force search on diagonal matrices."""

    @staticmethod
    def decision(sv, rank_tol):
        rank, stable = kz._ranks(np.sort(np.abs(sv), axis=-1)[..., ::-1], rank_tol)
        return rank, stable

    def flip_distance(self, s, rank_tol):
        """The smallest shift ``t`` of the diagonal, each entry by -t, 0 or +t, that
        changes rank or stability: a scan of log- and evenly spaced ``t`` up to
        ``3 s_0`` for the first flip, then bisection; ``inf`` if none flips."""
        signs = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=s.size)))
        want = self.decision(s, rank_tol)

        def flips(t):
            rank, stable = self.decision(s + np.multiply.outer(t, signs), rank_tol)
            return np.any((rank != want[0]) | (stable != want[1]), axis=-1)

        ts = s[0] * np.union1d(np.logspace(-16, 0.5, 2000), np.linspace(0, 3.2, 1001))
        flipped = flips(ts)
        if not flipped.any():
            return math.inf
        j = int(np.argmax(flipped))
        lo, hi = (ts[j - 1] if j else 0.0), ts[j]
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if flips(mid) else (mid, hi)
        return hi

    def radius(self, s, rank_tol):
        # the scan's slack, N u s_0 times _SLACK, for the rounding of the decision
        sv = np.sort(s)[::-1][None]
        rank, _ = kz._ranks(sv, rank_tol)
        slack = kz._SLACK * s.size * kz._UNIT_ROUNDOFF * sv[:, 0]
        return float(kz._radius(sv, rank, rank_tol, slack)[0])

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-3, 0.05])
    def test_never_past_the_first_flip(self, rank_tol, rng):
        positive = 0
        for _ in range(25):
            k = int(rng.integers(1, 5))
            # counted values at or above ten thresholds, dropped ones at or below
            # a tenth of one, some of them close to those bounds
            counted = 10 * rank_tol * (1 + rng.choice([1e-6, 1e-2, 1.0, 1e3], size=k))
            dropped = rank_tol / 10 * rng.choice([0.0, 0.5, 1 - 1e-6, 1 - 1e-2], size=k)
            s = np.where(rng.random(k) < 0.5, np.minimum(counted, 1.0), dropped)
            s[0] = 1.0
            rho = self.radius(s, rank_tol)
            assert rho <= self.flip_distance(s, rank_tol), s
            positive += rho > 0
        assert positive >= 12  # a margin below the slack gives 0

    @pytest.mark.parametrize("s, rank_tol", [
        ([1.0, 1.0, 0.0], 1e-3),  # the dropped s_r rises to a tenth of the threshold
        ([1.0, 2e-3], 1e-4),  # the counted s_{r-1} falls to ten thresholds
    ])
    def test_tight_where_one_value_decides(self, s, rank_tol):
        s = np.asarray(s)
        assert self.radius(s, rank_tol) == pytest.approx(self.flip_distance(s, rank_tol), rel=1e-9)

    @pytest.mark.parametrize("s", [[1.0, 5e-10], [1.0, 2e-11], [0.0, 0.0]])
    def test_zero_when_unstable_or_zero(self, s):
        assert self.radius(np.asarray(s), 1e-10) == 0.0


class TestGridSpec:
    def test_empty(self):
        assert kz.GridSpec(0, 1, 0, 1, 0).points() == []

    @pytest.mark.parametrize("steps", [-1, -3])
    def test_negative_steps_is_precondition(self, steps):
        with pytest.raises(PreconditionError, match=f"steps must be >= 0, got {steps}"):
            kz.GridSpec(0.0, 1.0, 0.0, 0.0, steps)

    def test_degenerate_imaginary_range(self):
        pts = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 3).points()
        assert pts == [0.0, 0.5, 1.0]

    def test_full_grid_row_major(self):
        pts = kz.GridSpec(0.0, 1.0, -1.0, 1.0, 2).points()
        assert pts == [complex(0, -1), complex(0, 1), complex(1, -1), complex(1, 1)]

    def test_finite_span_is_linspace(self):
        pts = kz.GridSpec(-1.3, 2.9, 0.0, 0.0, 17).points()
        assert pts == [complex(r, 0.0) for r in np.linspace(-1.3, 2.9, 17)]

    def test_span_wider_than_doubles_has_finite_nodes(self):
        # no RuntimeWarning on the way: the suite turns those into errors
        pts = kz.GridSpec(-1e308, 1e308, 0.0, 0.0, 5).points()
        assert pts == [-1e308, -5e307, 0.0, 5e307, 1e308]

    @pytest.mark.parametrize("steps", [0, 1, 3])
    @pytest.mark.parametrize("re", [(0.0, 1.0), (1.0, 1.0), (1.0, 0.0), (math.nan, 1.0),
                                    (-1e308, 1e308), (-math.inf, math.inf)])
    @pytest.mark.parametrize("im", [(0.0, 0.0), (-1.0, 1.0), (0.0, math.inf)])
    def test_size_counts_the_points(self, re, im, steps):
        grid = kz.GridSpec(*re, *im, steps)
        assert grid.size == len(grid.points())

    @pytest.mark.parametrize("bounds", [
        (-0.0, -0.0, -0.0, -0.0, 1),
        (-0.0, 1.0, -1.0, -0.0, 3),
        (0.5, 0.5, -1.0, math.inf, 3),
        (-math.inf, math.inf, -0.0, 0.0, 3),
        (math.inf, math.inf, math.nan, 1.0, 2),
        (-1e308, 1e308, -math.inf, -math.inf, 4),
    ])
    def test_points_keep_every_part(self, bounds):
        # each node's parts are its two axis nodes, a signed zero and an
        # infinite part included: r + 1j * i would turn inf into NaN parts
        grid = kz.GridSpec(*bounds)
        res = kz._axis_nodes(grid.re_min, grid.re_max, grid.steps)
        ims = kz._axis_nodes(grid.im_min, grid.im_max, grid.steps)
        want = [complex(r, i) for r in res for i in ims]
        assert [repr(p) for p in grid.points()] == [repr(p) for p in want]
        assert all(type(p) is complex for p in grid.points())

    def test_size_builds_no_node(self, monkeypatch):
        monkeypatch.setattr(np, "linspace", None)
        assert kz.GridSpec(0.0, 1.0, 0.0, 1.0, 10**6).size == 10**12

    @pytest.mark.parametrize("bounds", [(-1.0, math.inf), (-math.inf, math.inf), (math.inf, math.inf)])
    def test_infinite_bound_gives_error_rows(self, bounds):
        grid = kz.GridSpec(0.5, 0.5, *bounds, 3)
        rows = kz.spectrum_scan(oc.model_pair(Q, 4), "y", grid)
        assert rows and all("is not finite" in r.error for r in rows)


class TestSpectrumScan:
    def test_empty_grid(self):
        pair = oc.model_pair(Q, 4)
        assert kz.spectrum_scan(pair, "y", kz.GridSpec(0, 1, 0, 0, 0)) == []

    def test_far_field_is_silent(self):
        pair = oc.model_pair(Q, 6)
        rows = kz.spectrum_scan(pair, "y", kz.GridSpec(3.1, 4.0, 0.0, 0.0, 19))
        assert rows and not any(r.member for r in rows)
        rows = kz.spectrum_scan(pair, "x", kz.GridSpec(3.1, 4.0, 0.0, 0.0, 19))
        assert rows and not any(r.member for r in rows)

    def test_y_axis_membership_set(self):
        # the truncated pair's y-branch spectrum is {q^0, q^N}: grid
        # nodes at exactly those values go positive, nothing else does
        n = 5
        pair = oc.model_pair(Q, n)
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 33)  # spacing 1/32, hits 2^-k
        rows = kz.spectrum_scan(pair, "y", grid)
        members = {r.g_re for r in rows if r.member}
        assert members == {1.0, Q**n}

    def test_x_axis_stays_silent_on_model(self):
        pair = oc.model_pair(Q, 5)
        rows = kz.spectrum_scan(pair, "x", kz.GridSpec(0.0, 1.0, 0.0, 0.0, 33))
        assert not any(r.member for r in rows)

    def test_axis_validation(self):
        pair = oc.model_pair(Q, 4)
        with pytest.raises(PreconditionError):
            kz.spectrum_scan(pair, "z", kz.GridSpec(0, 1, 0, 0, 2))

    def test_deterministic_rows(self):
        pair = oc.model_pair(Q, 5)
        grid = kz.GridSpec(0.0, 1.2, 0.0, 0.0, 101)
        a = kz.spectrum_scan(pair, "y", grid)
        b = kz.spectrum_scan(pair, "y", grid)
        assert a == b


class TestBatchedScan:
    """Stacked chunks against the point-by-point rows."""

    # on the x-axis at N = 24 and 32 singular values sit next to the rank
    # threshold: there a changed rank or stability rule shows (at N = 24,
    # rank_tol = 1e-8 leaves 9 of the 129 rows stable)
    @pytest.mark.parametrize(
        "q, n, steps, rank_tol, axis",
        [
            pytest.param(Q, n, steps, rank_tol, axis, id=f"{n}-{steps}-{rank_tol}-{axis}")
            for n, steps, rank_tol in [(8, 1025, 1e-10), (24, 129, 1e-8), (32, 129, 1e-10),
                                       (64, 65, 1e-10)]
            for axis in ("x", "y")
        ] + [
            # every x-axis row is a pseudospectral member: sigma_min / sigma_max
            # of d0 is about 2^-40, a hundred times below the threshold
            pytest.param(Q, 40, 129, 1e-10, "x", id="40-129-1e-10-x"),
            # every x-axis row is an unstable member: 2^-36 sits within 10x of
            # the threshold, so no radius is positive and every node is ranked
            pytest.param(Q, 36, 129, 1e-10, "x", id="36-129-1e-10-x"),
            pytest.param(0.6 + 0.3j, 16, 129, 1e-10, "x", id="q0.6+0.3j-16-129-1e-10-x"),
            pytest.param(0.6 + 0.3j, 16, 129, 1e-10, "y", id="q0.6+0.3j-16-129-1e-10-y"),
        ],
    )
    def test_rows_equal_per_point(self, q, n, steps, rank_tol, axis):
        pair = oc.model_pair(q, n)
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, steps)
        rows = kz.spectrum_scan(pair, axis, grid, rank_tol)
        assert rows == naive_spectrum_scan(pair, axis, grid, rank_tol)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_complex_grid_on_conjugated_pair(self, axis, rng):
        pair = conjugated_pair(rng, 0.5 + 0.3j, 6)
        grid = kz.GridSpec(-1.5, 1.5, -1.0, 1.0, 23)
        rows = kz.spectrum_scan(pair, axis, grid, rank_tol=1e-8)
        assert rows == naive_spectrum_scan(pair, axis, grid, rank_tol=1e-8)

    @pytest.mark.parametrize("rank_tol", [0.0, -1.0, math.nan])
    def test_bad_rank_tol_raises_before_any_point(self, rank_tol, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a point was built")

        monkeypatch.setattr(kz.GridSpec, "points", unreachable)
        pair = oc.model_pair(Q, 4)
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 5)
        with pytest.raises(PreconditionError, match=f"rank_tol must be positive, got {rank_tol}"):
            kz.spectrum_scan(pair, "y", grid, rank_tol=rank_tol)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_point_is_an_error_row(self, value, axis):
        # no RuntimeWarning on the way: the suite turns those into errors
        pair = oc.model_pair(Q, 4)
        rows = kz.spectrum_scan(pair, axis, kz.GridSpec(value, value, 0.0, 0.0, 1))
        (row,) = rows
        assert "is not finite" in row.error
        assert (row.h0, row.h1, row.h2, row.member, row.stable) == (-1, -1, -1, False, False)
        gamma = (complex(value), 0j) if axis == "x" else (0j, complex(value))
        with pytest.raises(PreconditionError, match="is not finite"):
            kz.build(pair, gamma)

    def test_non_finite_point_keeps_its_place(self):
        class Listed:  # non-finite points between finite ones
            def points(self):
                return [0.5 + 0j, complex(math.nan, 0), 0.25 + 0j, complex(0, math.inf), 1 + 0j]

        pair = oc.model_pair(Q, 4)
        rows = kz.spectrum_scan(pair, "y", Listed())
        assert [bool(r.error) for r in rows] == [False, True, False, True, False]
        assert [r.member for r in rows] == [False, False, False, False, True]

    @pytest.mark.parametrize("g", [1e155, 1e200, complex(1e300, -1e300)])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_huge_character_without_overflow(self, g, axis):
        pair = oc.model_pair(Q, 4)
        grid = kz.GridSpec(g.real, g.real, g.imag, g.imag, 1) if isinstance(g, complex) \
            else kz.GridSpec(g, g, 0.0, 0.0, 1)
        (row,) = kz.spectrum_scan(pair, axis, grid)
        assert row.error == "" and (row.h0, row.h1, row.h2) == (0, 0, 0)
        assert [row] == naive_spectrum_scan(pair, axis, grid)

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("defect, rejected", [
        (0.0, [False, False]),
        # 1e305 exceeds 1e-12 * (1e155)^2 but not 1e-12 * (1e160)^2
        (1e305, [True, False]),
        (math.inf, [True, True]),
        (math.nan, [True, True]),
    ])
    def test_pair_defect_against_each_character_bound(self, axis, defect, rejected, monkeypatch):
        # The defect is one number per pair, and each character compares it
        # with its own 1e-12 (||T|| + ||S|| + |g|)^2.  That square overflows a
        # double from |g| ~ 1e154 on, and the bound must not turn into
        # "accept anything".  build and the scan run the same scalar test.
        monkeypatch.setattr(kz, "_pair_defect", lambda pair: defect)
        pair = oc.model_pair(Q, 4)
        grid = kz.GridSpec(1e155, 1e160, 0.0, 0.0, 2)
        rows = kz.spectrum_scan(pair, axis, grid)
        assert [r.error.startswith("composite identity violated") for r in rows] == rejected
        assert [r.h0 == -1 for r in rows] == rejected
        assert rows == naive_spectrum_scan(pair, axis, grid)

    def test_pair_defect_is_the_composite_defect_at_every_character(self, rng):
        # d1 d0 - (q-1) gx gy I = ST - qTS exactly, so a pair that q-commutes
        # only to about 1e-14 shows that one defect at every character
        base = oc.model_pair(Q, 6)
        e = rng.standard_normal((6, 6))
        pair = oc.OperatorPair(base.t, base.s + 1e-14 * e, Q)
        defect = kz._pair_defect(pair)
        assert defect == pytest.approx(1e-14 * np.linalg.norm(e @ base.t - Q * base.t @ e), rel=1e-2)
        for gamma in [(0.0, 0.3), (0.7, 0.0), (0.4, -0.9)]:
            assert kz.composite_defect(kz.build(pair, gamma)) == pytest.approx(defect, rel=1e-2)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_huge_q_scans_without_warning(self, axis):
        # q^2 = 1e200 leaves ||S||_F^2 past the double range.  The rows are
        # not pinned: the singular values span 300 decades against one
        # relative threshold.
        pair = oc.model_pair(1e100, 3)
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 3)
        rows = kz.spectrum_scan(pair, axis, grid)
        assert [r.error for r in rows] == ["", "", ""]
        assert rows == naive_spectrum_scan(pair, axis, grid)

    @pytest.mark.parametrize("q, n, g", [(2.0, 4, 1e308), (1e100, 3, 1e300)])
    def test_q_gx_past_the_double_range_is_an_error_row(self, q, n, g):
        # q gx overflows on the diagonal of d0 although gx and (q-1) gx gy = 0
        # are finite; the maps would hold inf, so that character has no complex
        pair = oc.model_pair(q, n)

        class Listed:
            def points(self):
                return [0.5 + 0j, complex(g), 1.0 + 0j]

        rows = kz.spectrum_scan(pair, "x", Listed())
        assert [r.error.startswith("composite identity violated") for r in rows] == [
            False, True, False,
        ]
        assert rows[1].h0 == -1
        assert rows == naive_spectrum_scan(pair, "x", Listed())
        with pytest.raises(PreconditionError, match="composite identity violated"):
            kz.build(pair, (g, 0.0))

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_modulus_past_the_double_range_is_an_error_row(self, axis):
        # both parts of g are finite, but |g| = 2.1e308 is not, so the defect
        # bound's scale ||T|| + ||S|| + |g| is inf and bounds nothing: no
        # complex there, where the maps are injective and surjective
        pair = oc.model_pair(Q, 4)
        grid = kz.GridSpec(1.5e308, 1.5e308, 1.5e308, 1.5e308, 1)
        (row,) = kz.spectrum_scan(pair, axis, grid)
        assert (row.h0, row.h1, row.h2, row.member) == (-1, -1, -1, False)
        assert "leaves the double range" in row.error
        assert [row] == naive_spectrum_scan(pair, axis, grid)
        g = complex(1.5e308, 1.5e308)
        match = "scale at character .* leaves the double range"
        with pytest.raises(PreconditionError, match=match):
            kz.build(pair, (g, 0j) if axis == "x" else (0j, g))

    def test_q_s_past_the_double_range_raises_before_any_point(self):
        pair = oc.model_pair(1e100, 4)  # q S holds 1e400
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 3)
        with pytest.raises(PreconditionError, match="q S leaves the double range"):
            kz.spectrum_scan(pair, "y", grid)
        with pytest.raises(PreconditionError, match="q S leaves the double range"):
            kz.build(pair, (0.0, 0.5))

    @pytest.mark.parametrize("defect", [0.0, 1e-14, 1e305, math.inf, math.nan])
    def test_errors_are_formatted_only_where_a_character_fails(self, defect):
        # every character's text equals that of the per-character rule, with
        # non-finite parts, signed zeros and characters past the double range
        def defect_error(defect, scale):
            if defect == 0 or defect / scale <= 1e-12 * scale:
                return ""
            return f"composite identity violated: defect {defect:.3e} exceeds 1e-12 * {scale:.3e}^2"

        def per_character(pair, gx, gy, diags, pair_defect, pair_scale):
            finite = np.isfinite(gx) & np.isfinite(gy)
            x, y = np.where(finite, gx, 0), np.where(finite, gy, 0)
            with np.errstate(over="ignore", invalid="ignore"):
                bounded = np.isfinite((pair.q - 1.0) * x * y)
                scales = pair_scale + np.abs(x) + np.abs(y)
            for diag in diags:
                bounded &= np.isfinite(diag).all(axis=1)
            return [
                f"character ({a}, {c}) is not finite" if not ok
                else f"the defect bound's scale at character ({a}, {c}) leaves the double range"
                if s == math.inf
                else defect_error(pair_defect if b else math.nan, s)
                for a, c, ok, b, s in zip(
                    gx.tolist(), gy.tolist(), finite.tolist(), bounded.tolist(), scales.tolist()
                )
            ]

        pair = oc.model_pair(2.0, 4)
        parts = [0.0, -0.0, 0.5, -1e155, 1e160, 1.5e308, math.inf, -math.inf, math.nan]
        g = np.array([complex(a, b) for a in parts for b in parts])
        zero = np.zeros_like(g)
        for gx, gy in ((g, zero), (zero, g), (g, g), (-zero, g)):
            diags = kz._diagonals(pair, gx, gy)
            got = kz._errors(pair, gx, gy, diags, defect, kz._pair_scale(pair))
            assert got == per_character(pair, gx, gy, diags, defect, kz._pair_scale(pair))
            assert got.count("") < len(got)

    def test_non_finite_points_between_ranked_nodes(self):
        # the ends and middles the scan ranks are counted over the points that
        # have a complex; error rows sit at an end, next to one and mid-gap
        points = list(np.linspace(0.0, 1.0, 65) + 0j)
        for i in (0, 2, 33, 34, 50, len(points)):
            points.insert(i, complex(math.inf, 0.0) if i % 2 else complex(0.5, -math.inf))

        class Listed:
            def points(self):
                return points

        pair = oc.model_pair(Q, 8)
        for axis in ("x", "y"):
            rows = kz.spectrum_scan(pair, axis, Listed())
            assert sum(bool(r.error) for r in rows) == 6
            assert rows == naive_spectrum_scan(pair, axis, Listed())

    def test_y_axis_scan_ranks_a_few_nodes(self, monkeypatch):
        # at N = 64 the two end nodes certify every other node of both maps:
        # the maps at (0, 1) and (0, 0) keep their ranks for a distance of
        # about 1, and the parent scan ranked all 2 x 257 of them
        pair = oc.model_pair(Q, 64)
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 257)
        real_svd = np.linalg.svd
        matrices = []

        def svd(a, *args, **kwargs):
            matrices.append(a.shape[0] if a.ndim == 3 else 1)
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        rows = kz.spectrum_scan(pair, "y", grid)
        assert sum(matrices) <= 8
        assert {r.g_re for r in rows if r.member} == {0.0, 1.0}

    def test_failed_stacked_svd_lands_in_its_own_rows(self, monkeypatch):
        # the complex route, on a conjugate of the model pair
        pair = outside_class(oc.model_pair(Q, 8))
        step = kz._STACK_ENTRIES // (2 * 8 * 8)  # points per chunk
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 2 * step + 1)  # two full chunks and one point
        want = naive_spectrum_scan(pair, "y", grid)
        bad = grid.points()[-1].real  # an end node, which the scan always ranks
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            if a.ndim > 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            if a.shape[0] > a.shape[1] and a[0, 0] == bad - Q:  # d0 at (0, bad)
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        rows = kz.spectrum_scan(pair, "y", grid)
        failed = [i for i, r in enumerate(rows) if r.error]
        assert [rows[i].g_re for i in failed] == [bad]
        assert rows[failed[0]].error == "SVD did not converge"
        (i,) = failed
        assert rows[:i] + rows[i + 1 :] == want[:i] + want[i + 1 :]

    def test_every_svd_takes_a_tall_matrix(self, monkeypatch):
        # on the complex route, here for a conjugate of the model pair, d1
        # (N x 2N) is ranked through its 2N x N transpose, in a stacked
        # chunk, in the one-at-a-time fallback and in homology_dims alike
        n, steps = 8, 9
        pair = outside_class(oc.model_pair(Q, n))
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, steps)
        want = naive_spectrum_scan(pair, "y", grid)  # ranks the wide d1 as built
        real_svd = np.linalg.svd
        shapes, fail_stacked = [], []

        def svd(a, *args, **kwargs):
            shapes.append(a.shape)
            if fail_stacked and a.ndim > 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        for axis in ("x", "y"):
            kz.spectrum_scan(pair, axis, grid)
        kz.homology_dims(kz.build(pair, (0.0, 0.5)))
        fail_stacked.append(True)
        assert kz.spectrum_scan(pair, "y", grid) == want
        assert {s[-2:] for s in shapes} == {(2 * n, n)}

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_refilled_chunk_arrays_equal_per_point(self, axis, monkeypatch):
        # One pair of chunk arrays serves the whole scan.  At rank_tol = 0.1
        # no map is certified (a kept singular value would have to exceed
        # 10 rank_tol s_0 = s_0), so every node is ranked: the levels of the
        # bisection fill the arrays 13 times, three of them with a full
        # chunk and most with a leading slice.  The members are the same
        # as at the default: 1 and q^8, placed at a different offset in
        # every stretch of a chunk's length, so a diagonal left over from
        # an earlier fill, or a skipped refill, shows as a row that
        # differs.  At the default two fills rank the two ends and one
        # middle node per map, and those certify every other node.  The
        # non-finite point is an error row that is never ranked.  The pairs
        # are conjugates of the model pair and of the swapped pair, which
        # take the complex route through the chunk arrays.
        n = 8
        base = oc.model_pair(Q, n)
        # the y axis of the model pair; the swapped pair has the same members on x
        pair = outside_class(base if axis == "y" else oc.OperatorPair(base.s, base.t, 1.0 / Q))
        step = kz._STACK_ENTRIES // (2 * n * n)
        size = 4 * step + 5
        points = list(np.linspace(0.3, 0.7, size) + 0j)
        for k, start in enumerate(range(0, size, step)):
            points[start + k] = 1.0 + 0j
            points[min(start + step, size) - 1 - k] = complex(Q**n)
        points[step + 7] = complex(math.nan, 0.0)

        class Listed:
            def points(self):
                return points

        chunk_sv, filled = kz._chunk_sv, []

        def counted(pair, gx, *args):
            filled.append(gx.size)
            return chunk_sv(pair, gx, *args)

        monkeypatch.setattr(kz, "_chunk_sv", counted)
        for rank_tol, fills in ((kz.DEFAULT_RANK_TOL, [2, 2]), (0.1, None)):
            filled.clear()
            rows = kz.spectrum_scan(pair, axis, Listed(), rank_tol)
            want = naive_spectrum_scan(pair, axis, Listed(), rank_tol)
            (i,) = [i for i, r in enumerate(rows) if r.error]  # its g_re is NaN, which is != itself
            assert i == step + 7 and rows[i].error == want[i].error
            assert rows[:i] + rows[i + 1 :] == want[:i] + want[i + 1 :]
            assert sum(r.member for r in rows) == 2 * 5
            if fills is not None:
                assert filled == fills
        assert len(filled) == 13 and filled.count(step) == 3 and sum(filled) == size - 1

    def test_failed_triangle_stack_lands_in_its_own_row(self, monkeypatch):
        # The bidiagonal route of the model pair.  At rank_tol = 0.5 every
        # map is unstable, so no radius certifies, and on the x-axis the
        # counts leave most d0 nodes undecided (a singular value lies within
        # the sqrt(2) bracket of the threshold): those take SVDs in stacks
        # of _STACK_ENTRIES / N^2 = 512 triangles, past the two end nodes.
        # Every stack fails, so every triangle is ranked alone, and the
        # first of those, d0 at the first end node, fails again.
        n = 8
        pair = oc.model_pair(Q, n)
        step = kz._STACK_ENTRIES // (n * n)  # triangles per stack
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 2 * step + 3)
        want = naive_spectrum_scan(pair, "x", grid, 0.5)
        real_svd = np.linalg.svd
        stacks, alone = [], []

        def svd(a, *args, **kwargs):
            if a.ndim > 2:
                stacks.append(a.shape[0])
                raise np.linalg.LinAlgError("SVD did not converge")
            alone.append(a.shape)
            if len(alone) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        rows = kz.spectrum_scan(pair, "x", grid, 0.5)
        assert [i for i, r in enumerate(rows) if r.error] == [0]
        assert rows[0].error == "SVD did not converge"
        assert rows[1:] == want[1:]
        assert stacks[:2] == [2, 2]  # the end nodes of d0, then of d1
        assert max(stacks) == step and sum(stacks[2:]) > step  # the counts' leftovers
        assert len(alone) == sum(stacks)

    def test_every_svd_takes_a_real_square_matrix_on_the_model_pair(self, monkeypatch):
        # both maps of the model pair are bidiagonal, so each is ranked
        # through its real N x N triangle: stacked, one at a time after a
        # failed stack, and in homology_dims alike
        n, steps = 8, 9
        pair = oc.model_pair(Q, n)
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, steps)
        want = naive_spectrum_scan(pair, "y", grid)
        real_svd = np.linalg.svd
        taken, fail_stacked = [], []

        def svd(a, *args, **kwargs):
            taken.append((a.dtype, a.shape[-2:]))
            if fail_stacked and a.ndim > 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        for axis in ("x", "y"):
            kz.spectrum_scan(pair, axis, grid)
        kz.homology_dims(kz.build(pair, (0.0, 0.5)))
        fail_stacked.append(True)
        assert kz.spectrum_scan(pair, "y", grid) == want
        assert set(taken) == {(np.dtype(np.float64), (n, n))}

    def test_benchmark_scans_rank_the_stated_nodes(self, monkeypatch):
        # README and ROADMAP state, for each map of the four benchmark scans
        # (d0 / d1), how many nodes take an SVD and how many the counts
        # decide; the end nodes' radii certify the rest
        chunk_sv, counted_ranks = kz._chunk_sv, kz._counted_ranks
        ranked, counted = [], []

        def svd_spy(pair, gx, gy, want, *args):
            ranked.append(want.sum(axis=0))
            return chunk_sv(pair, gx, gy, want, *args)

        def count_spy(pair, axis, g, k, *args):
            rank, stable = counted_ranks(pair, axis, g, k, *args)
            counted.append(np.eye(2, dtype=int)[k] * np.count_nonzero(rank >= 0))
            return rank, stable

        monkeypatch.setattr(kz, "_chunk_sv", svd_spy)
        monkeypatch.setattr(kz, "_counted_ranks", count_spy)
        got = {}
        for axis, n, steps in [("x", 8, 1025), ("y", 8, 1025), ("x", 64, 257), ("y", 64, 257)]:
            ranked.clear()
            counted.clear()
            kz.spectrum_scan(oc.model_pair(Q, n), axis, kz.GridSpec(0.0, 1.0, 0.0, 0.0, steps))
            got[axis, n] = (
                tuple(np.sum(ranked, axis=0).tolist()),
                tuple(np.sum(counted, axis=0).tolist()) if counted else (0, 0),
            )
        assert got == {
            ("x", 8): ((2, 2), (997, 0)),
            ("y", 8): ((2, 2), (1, 0)),
            ("x", 64): ((2, 2), (255, 0)),
            ("y", 64): ((2, 2), (0, 0)),
        }

    def test_built_maps_are_not_rewritten(self):
        pair = oc.model_pair(Q, 8)
        built = [kz.build(pair, (0.0, 0.25)), kz.build(pair, (0.5, 0.0))]
        before = [m.copy() for c in built for m in (c.d0, c.d1)]
        kz.build(pair, (0.0, 0.75))
        for axis in ("x", "y"):
            kz.spectrum_scan(pair, axis, kz.GridSpec(0.0, 1.0, 0.0, 0.0, 600))
        after = [m for c in built for m in (c.d0, c.d1)]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


class ListedGrid:
    """A grid of the given points, in order."""

    def __init__(self, points):
        self._points = [complex(g) for g in points]

    def points(self):
        return self._points


def weighted_shift_pair(rng, q, n, upper=False):
    """A weighted shift with random complex weights, about a third of them 0, beside
    ``S = c diag(q^j)`` (``c diag(q^-j)`` for the upper shift), which q-commutes with it."""
    w = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    w[rng.random(n - 1) < 0.3] = 0.0
    c = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    powers = complex(q) ** (-np.arange(n) if upper else np.arange(n))
    return oc.OperatorPair(np.diag(w, 1 if upper else -1), c * np.diag(powers), q)


def bidiagonal_pairs(rng):
    """Pairs in the bidiagonal class, by name."""
    base = oc.model_pair(Q, 6)
    four = oc.model_pair(Q, 4)
    pairs = {
        "direct sum": oc.OperatorPair(
            np.block([[four.t, np.zeros((4, 2))], [np.zeros((2, 4)), np.diag([0.2, 0.3])]]),
            np.block([[four.s, np.zeros((4, 2))], [np.zeros((2, 6))]]),
            Q,
        ),
        "T = 0": oc.OperatorPair(np.zeros((2, 2)), np.diag([0.2, 0.3]), Q),
        "swapped": oc.OperatorPair(base.s, base.t, 1.0 / Q),
    }
    for q in (2.0, 0.6 + 0.3j):
        for n in (1, 2, 5):
            pairs[f"model q={q} N={n}"] = oc.model_pair(q, n)
    for k, (q, n) in enumerate([(Q, 8), (0.6 + 0.3j, 7), (2.0, 5), (Q, 3)]):
        pairs[f"shift {k}"] = weighted_shift_pair(rng, q, n)
        pairs[f"upper shift {k}"] = weighted_shift_pair(rng, q, n, upper=True)
    for alpha, beta in [(1e-150, 1e150), (1e150, 1e-150), (1e100, 1e100), (1e-120, 1e-90)]:
        pairs[f"model scaled {alpha:.0e}, {beta:.0e}"] = oc.OperatorPair(
            alpha * base.t, beta * base.s, Q
        )
        shift = weighted_shift_pair(rng, 0.6 + 0.3j, 6)
        pairs[f"shift scaled {alpha:.0e}, {beta:.0e}"] = oc.OperatorPair(
            alpha * shift.t, beta * shift.s, shift.q
        )
    return pairs


class TestBidiagonalRoute:
    """Pairs in the bidiagonal class against the dense oracles."""

    @staticmethod
    def axis_scale(pair, axis):
        """The size of the characters where the pair's homology changes on ``axis``."""
        if axis == "x":
            return float(np.abs(pair.t).max(initial=0.0) / min(1.0, abs(pair.q))) or 1.0
        return float(np.abs(pair.s).max(initial=0.0) * max(1.0, abs(pair.q))) or 1.0

    @staticmethod
    def special_points(pair, axis):
        """Axis coordinates where a block of a map is exactly singular."""
        t, s = np.diag(pair.t), np.diag(pair.s)
        values = (t, t / pair.q) if axis == "x" else (s, pair.q * s)
        return np.unique(np.concatenate(values))

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("rank_tol", [kz.DEFAULT_RANK_TOL, 1e-6])
    def test_scan_rows_equal_the_dense_oracle(self, axis, rank_tol, rng):
        for name, pair in bidiagonal_pairs(rng).items():
            forms = kz._scan_maps(pair, 1).forms
            assert forms[0] is not None and forms[1] is not None, name
            c = self.axis_scale(pair, axis)
            grid = kz.GridSpec(-1.5 * c, 1.5 * c, -c, c, 9)
            special = ListedGrid(self.special_points(pair, axis))
            for points in (grid, special):
                rows = kz.spectrum_scan(pair, axis, points, rank_tol)
                assert rows == naive_spectrum_scan(pair, axis, points, rank_tol), name

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_modulus_past_the_double_range_as_the_dense_route(self, axis):
        # |g| near the top of the double range: the moduli are taken of
        # each map scaled by a power of two, so the triangle's singular
        # values leave the range only where the map's do.  A |g| past the
        # range, though its parts are finite, is an error row on both routes
        pair = oc.model_pair(Q, 4)
        grid = ListedGrid([
            complex(1.5e308, 1.5e308), complex(1.2e308, 1.2e308), complex(1e308, -1e308), 0.5,
        ])
        rows = kz.spectrum_scan(pair, axis, grid)
        assert ["leaves the double range" in r.error for r in rows] == [True, False, False, False]
        assert [r.error for r in rows[1:]] == ["", "", ""]
        assert rows == naive_spectrum_scan(pair, axis, grid)

    def test_homology_dims_equals_the_dense_oracle(self, rng):
        members = 0
        for name, pair in bidiagonal_pairs(rng).items():
            for axis in ("x", "y"):
                c = self.axis_scale(pair, axis)
                coords = list(self.special_points(pair, axis)) + [
                    c * complex(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)) for _ in range(4)
                ]
                for g in coords:
                    comp = kz.build(pair, (g, 0j) if axis == "x" else (0j, g))
                    hom = kz.homology_dims(comp)
                    assert hom == naive_homology_dims(comp, kz.DEFAULT_RANK_TOL), (name, g)
                    members += hom.member
        assert members >= 40

    def test_band_is_tested_by_counts(self, rng):
        # _outside_band counts nonzeros where the mask form took np.tril and
        # np.triu of the whole matrix; a single off-band entry, a corner
        # one included, still leaves the band
        def outside_by_masks(m, lo, hi):
            nz = m != 0
            return bool(np.tril(nz, lo - 1).any() or np.triu(nz, hi + 1).any())

        for n in (1, 2, 3, 6):
            off_band = [None, (n - 1, 0), (0, n - 1)] + [
                tuple(rng.integers(0, n, 2)) for _ in range(4)
            ]
            for lo, hi in ((0, 0), (-1, 0), (0, 1)):
                band = sum(np.diag(rng.standard_normal(n - abs(d)), d) for d in range(lo, hi + 1))
                band[rng.random((n, n)) < 0.3] = 0.0
                for entry in off_band:
                    m = band.astype(np.complex128)
                    if entry is not None:
                        m[entry] = 1e-300j
                    assert kz._outside_band(m, lo, hi) == outside_by_masks(m, lo, hi), (n, lo, entry)
        four = oc.model_pair(Q, 4)
        for corner in ((0, 3), (3, 0)):
            s = four.s.copy()
            s[corner] = 1e-300
            assert kz._bidiagonal(s, four.t) is None
        form = kz._bidiagonal(four.s, four.t)
        assert (form.diagonal_on_top, form.flip, form.e.tolist()) == (True, False, [1.0] * 3)


def bidiagonal_svd(rho, f):
    """Singular values of the upper bidiagonal with diagonal ``rho`` and superdiagonal ``f``."""
    return np.linalg.svd(np.diag(rho) + np.diag(f, 1), compute_uv=False)


class TestSturmCounts:
    """Counts of singular values below a point, against LAPACK's SVD."""

    @staticmethod
    def graded(rng, n):
        """A bidiagonal with entries from 1e-300 to 1e300, about a fifth of them 0,
        scaled by 2^-k as _reduced scales a map."""
        rho = 10.0 ** rng.uniform(-300, 300, n)
        f = 10.0 ** rng.uniform(-300, 300, n - 1)
        rho[rng.random(n) < 0.2] = 0.0
        f[rng.random(n - 1) < 0.2] = 0.0
        k = np.frexp(max(rho.max(), f.max(initial=0.0)))[1]
        return np.ldexp(rho, -k), np.ldexp(f, -k)

    @staticmethod
    def points_between(sv, rng):
        """Points that no singular value is near: the count there is exact.

        The count is exact for a bidiagonal within a few u of the given one,
        and squares below 2^-1022 flush, which moves a singular value by
        about 1e-154 at most."""
        sv = np.sort(sv)
        cuts = np.concatenate([[sv[0] / 2], np.sqrt(sv[:-1] * sv[1:]), [2 * sv[-1] + 1],
                               10.0 ** rng.uniform(-150, 1, 20)])
        gap = np.abs(cuts[:, None] - sv[None, :]).min(axis=1)
        return cuts[(cuts > 1e-140) & (gap > 1e-6 * cuts + 1e-150)]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
    def test_graded_entries_against_the_svd(self, n, rng):
        checked = 0
        for _ in range(40):
            rho, f = self.graded(rng, n)
            sv = bidiagonal_svd(rho, f)
            x = self.points_between(sv, rng)
            counts = kz._sturm_counts(rho[None], f[None], x[None])[0]
            assert counts.tolist() == [int(np.count_nonzero(sv < p)) for p in x], (rho, f)
            checked += x.size
        assert checked >= 400

    def test_zero_entries_split_the_matrix(self):
        # rho_1 = 0 and f_2 = 0: the blocks [[3, 1], [0, 0]] and [[1/2]] and [[2]]
        rho = np.array([3.0, 0.0, 0.5, 2.0])
        f = np.array([1.0, 0.0, 0.0])
        sv = bidiagonal_svd(rho, f)
        x = np.array([1e-300, 0.25, 0.75, 1.5, 2.5, 3.5, 1e300])
        counts = kz._sturm_counts(rho[None], f[None], x[None])[0]
        assert counts.tolist() == [int(np.count_nonzero(sv < p)) for p in x] == [1, 1, 2, 2, 3, 4, 4]

    def test_one_by_one(self):
        counts = kz._sturm_counts(np.array([[0.5], [0.0]]), np.zeros((2, 0)),
                                  np.array([[0.25, 0.75], [1e-300, 1.0]]))
        assert counts.tolist() == [[0, 1], [1, 1]]

    def test_points_at_or_below_zero_and_nan(self):
        rho, f = np.array([[1.0, 2.0]]), np.array([[0.5]])
        counts = kz._sturm_counts(rho, f, np.array([[0.0, -1.0, -math.inf, math.nan, 1e3]]))
        assert counts.tolist() == [[0, 0, 0, -1, 2]]

    def test_zero_over_zero_is_no_count(self):
        # at x = 1 the second pivot of diag(1, 1) is exactly 0, and the zero
        # superdiagonal then divides 0 by it
        counts = kz._sturm_counts(np.array([[1.0, 1.0]]), np.zeros((1, 1)), np.array([[1.0, 0.5, 2.0]]))
        assert counts.tolist() == [[-1, 0, 2]]


class TestCountWindow:
    """A singular value just inside or just outside the widened window of _count_points."""

    @staticmethod
    def decide(s, rank_tol):
        """diag(1, s): both row and column norms bracket s_0 = 1 exactly."""
        rho, f = np.array([[1.0, s]]), np.zeros((1, 1))
        scale, norms = np.zeros((1, 1), dtype=np.int32), np.array([1.0])
        rank, stable = kz._decide_by_counts(rho, f, scale, norms, rank_tol)
        points = kz._count_points(rho, f, scale, norms, rank_tol)[0]
        return int(rank[0]), bool(stable[0]), points

    @pytest.mark.parametrize("rank_tol", [1e-10, 1e-3])
    def test_each_end_of_each_window(self, rank_tol):
        _, _, points = self.decide(0.0, rank_tol)
        eta = kz._SLACK * 2 * kz._UNIT_ROUNDOFF
        assert points[2] < rank_tol * (1 - eta) < rank_tol * (1 + eta) < points[3]
        # lo = hi = s_0, so each window is the slack alone, wider than 1e-13
        # relatively; a count tells values 1e-13 apart
        below, above = 1 - 1e-13, 1 + 1e-13
        # (singular value, decided rank and stability); -1 for undecided
        cases = [
            (points[0] * below, (1, True)),  # under a tenth of every threshold
            (points[0] * above, (-1, None)),  # maybe within 10x of one
            (points[1] * below, (-1, None)),
            (points[1] * above, (1, False)),  # within 10x of every threshold
            (points[2] * below, (1, False)),
            (points[2] * above, (-1, None)),  # maybe counted
            (points[3] * below, (-1, None)),
            (points[3] * above, (2, False)),  # counted by every threshold
            (points[4] * below, (2, False)),
            (points[4] * above, (-1, None)),
            (points[5] * below, (-1, None)),
            (points[5] * above, (2, True)),  # over ten of every threshold
        ]
        for s, (rank, stable) in cases:
            got_rank, got_stable, _ = self.decide(s, rank_tol)
            assert got_rank == rank, s
            if rank >= 0:
                assert got_stable == stable, s
                sv = bidiagonal_svd(np.array([1.0, s]), np.zeros(1))
                assert (rank, stable) == tuple(v.item() for v in kz._ranks(sv[None], rank_tol))

    def test_unscaled_values_past_the_double_range_are_undecided(self):
        # s_0 = 1 times 2^k: past the top of the range, or so far down that the
        # subnormal step of the unscaled values is as large as the slack
        rho, f, norms = np.array([[1.0, 0.5]]), np.zeros((1, 1)), np.zeros(1)
        for k, decided in ((1000, True), (1023, True), (1024, False), (-1000, True), (-1074, False)):
            scale = np.full((1, 1), k, dtype=np.int32)
            rank, _ = kz._decide_by_counts(rho, f, scale, norms, 1e-10)
            assert (rank[0] >= 0) == decided, k


def model_rows(pair, axis, grid, rank_tol):
    """``(h0, h1, h2, member, stable)`` of ``homology_dims`` at each grid point."""
    rows = []
    for g in grid.points():
        h = kz.homology_dims(kz.build(pair, (g, 0j) if axis == "x" else (0j, g)), rank_tol)
        rows.append((h.h0, h.h1, h.h2, h.member, h.stable))
    return rows


class TestCountedScan:
    """Scans whose bidiagonal maps are decided by counts, against homology_dims point by point."""

    @pytest.mark.parametrize("n", [8, 32, 36, 40, 64])
    def test_rows_equal_homology_dims(self, n, monkeypatch):
        counted_ranks, left = kz._counted_ranks, []

        def spy(*args):
            rank, stable = counted_ranks(*args)
            left.append(int(np.count_nonzero(rank < 0)))
            return rank, stable

        monkeypatch.setattr(kz, "_counted_ranks", spy)
        grid = kz.GridSpec(0.0, 1.0, 0.0, 0.0, 17)
        for q in (0.5, 0.5 + 0.25j, 2.0, 1e-3):
            pair = oc.model_pair(q, n)
            for rank_tol in (1e-300, 1e-10, 0.5):
                for axis in ("x", "y"):
                    rows = kz.spectrum_scan(pair, axis, grid, rank_tol)
                    got = [(r.h0, r.h1, r.h2, r.member, r.stable) for r in rows]
                    assert got == model_rows(pair, axis, grid, rank_tol), (q, rank_tol, axis)
        assert left
        if n in (36, 40):
            # a singular value near a threshold leaves nodes to the SVD
            assert sum(left) > 0

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_unscaled_overflow_leaves_the_node_to_the_svd(self, axis, monkeypatch):
        # the middle node of test_modulus_past_the_double_range_as_the_dense_route:
        # its map's singular values pass the double range, so the counts
        # leave it to the SVD, without a warning on the way
        counted_ranks, seen = kz._counted_ranks, []

        def spy(*args):
            rank, stable = counted_ranks(*args)
            seen.append(rank.tolist())
            return rank, stable

        monkeypatch.setattr(kz, "_counted_ranks", spy)
        pair = oc.model_pair(Q, 4)
        grid = ListedGrid([complex(1.2e308, 1.2e308), complex(1e308, -1e308), 0.5])
        rows = kz.spectrum_scan(pair, axis, grid)
        assert -1 in sum(seen, [])
        assert rows == naive_spectrum_scan(pair, axis, grid)
