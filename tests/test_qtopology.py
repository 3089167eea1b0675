import cmath
import math

import numpy as np
import pytest

from qplane.errors import PreconditionError
from qplane.qtopology import (
    DiskUnion,
    QHull,
    is_q_spiraling,
    is_quasicompact_d,
    point_q_closure,
    spiral_neighborhood,
)

from oracles import naive_hull_contains, naive_is_q_spiraling

Q = 0.5


class PredicateRegion:
    """The set where ``pred`` holds, inside ``box``, asked one point at a time."""

    def __init__(self, pred, box):
        self.pred, self.box = pred, box

    def contains(self, z) -> bool:
        return bool(self.pred(complex(z)))

    def contains_many(self, zs) -> np.ndarray:
        return np.fromiter((self.contains(z) for z in zs), dtype=bool, count=len(zs))

    def bounding_box(self):
        return self.box


def base_disk():
    return DiskUnion.single(1.0, 0.1)


class TestQHullMembership:
    def test_origin_always_inside(self):
        hull = QHull(base_disk(), Q)
        assert hull.contains(0.0)

    def test_halved_point_inside(self):
        # n = 1 copy of B(1, 0.1) is B(0.5, 0.05)
        hull = QHull(base_disk(), Q)
        assert hull.contains(0.5)

    def test_point_between_copies_outside(self):
        # 0.3 misses B(1,.1), B(.5,.05), B(.25,.025), and every later
        # copy has reach below 0.3
        hull = QHull(base_disk(), Q)
        assert not hull.contains(0.3)

    def test_boundary_is_excluded(self):
        hull = QHull(base_disk(), Q)
        assert not hull.contains(1.1)
        assert hull.contains(1.0999999)

    def test_rotating_q_follows_spiral(self):
        q = 0.5j
        hull = QHull(base_disk(), q)
        assert hull.contains(0.5j)
        assert not hull.contains(0.5)

    def test_requires_contractive_q(self):
        with pytest.raises(PreconditionError):
            QHull(base_disk(), 1.5)
        with pytest.raises(PreconditionError):
            QHull(base_disk(), 0.0)

    def test_hull_over_hull_with_other_q_is_rejected(self):
        with pytest.raises(PreconditionError, match=r"base q = \(0\.5\+0j\), q = 0\.7j"):
            QHull(QHull(base_disk(), Q), 0.7j)

    def test_empty_base(self):
        hull = QHull(DiskUnion(), Q)
        assert hull.contains(0.0)
        assert not hull.contains(0.25)

    def test_idempotent_on_random_points(self, rng):
        hull = QHull(base_disk(), Q)
        hull2 = QHull(hull, Q)
        pts = rng.uniform(-1.2, 1.2, (1000, 2))
        for re, im in pts:
            z = complex(re, im)
            assert hull2.contains(z) == hull.contains(z)

    def test_q_stability_of_members(self, rng):
        hull = QHull(base_disk(), Q)
        pts = rng.uniform(-1.2, 1.2, (2000, 2))
        members = [complex(re, im) for re, im in pts if hull.contains(complex(re, im))]
        assert members
        for z in members:
            assert hull.contains(Q * z)


class TestSpiralNeighborhood:
    def test_example_disk_chain(self):
        du = spiral_neighborhood(1.0, 0.3, 0.1, Q)
        # base disk plus the m = 0, 1 orbit disks; (1/2)^2 * 1.1 <= 0.3
        assert len(du.disks) == 3
        assert du.disks[0].center == 0 and du.disks[0].radius == 0.3
        assert du.disks[1].center == 1.0 and du.disks[1].radius == 0.1
        assert du.disks[2].center == 0.5 and du.disks[2].radius == 0.05

    def test_covers_forward_orbit(self):
        du = spiral_neighborhood(1.0, 0.3, 0.1, Q)
        for m in range(11):
            assert du.contains(Q**m * 1.0)
        assert du.contains(0.0)

    def test_shrinking_delta_never_adds_points(self, rng):
        big = spiral_neighborhood(1.0, 0.3, 0.1, Q)
        small = spiral_neighborhood(1.0, 0.3, 0.02, Q)
        pts = rng.uniform(-1.2, 1.2, (500, 2))
        for re, im in pts:
            z = complex(re, im)
            if small.contains(z):
                assert big.contains(z)

    def test_bounded(self):
        du = spiral_neighborhood(1.0, 0.3, 0.1, Q)
        assert du.bounding_radius() <= max(1.0 + 0.1, 0.3) + 1e-15

    def test_rejects_zero_orbit_point(self):
        with pytest.raises(PreconditionError):
            spiral_neighborhood(0.0, 0.3, 0.1, Q)


class TestPointClosure:
    def test_zero_stays_zero(self):
        assert set(point_q_closure(0.0, 3, Q)) == {0.0}

    def test_real_doubling(self):
        assert point_q_closure(1.0, 2, Q) == [1.0, 2.0, 4.0]

    def test_complex_division(self):
        out = point_q_closure(1j, 1, 0.5j)
        assert out[0] == 1j
        assert out[1] == pytest.approx(2.0)

    def test_magnitudes_grow_exactly(self):
        out = point_q_closure(0.7 + 0.1j, 6, Q)
        mags = [abs(z) for z in out]
        for k, m in enumerate(mags):
            assert m == pytest.approx(abs(0.7 + 0.1j) * 2.0**k, rel=1e-14)


class TestQuasicompact:
    def test_empty_set(self):
        assert is_quasicompact_d(DiskUnion())

    def test_finite_union(self):
        assert is_quasicompact_d(DiskUnion([(0.0, 1.0), (5.0 + 1j, 0.3)]))

    def test_hull_of_bounded_base(self):
        assert is_quasicompact_d(QHull(base_disk(), Q))

    def test_point_list(self):
        assert is_quasicompact_d([0.0, 1.0 + 2j])
        assert is_quasicompact_d([])


class TestIsQSpiraling:
    def test_origin_disk_is_spiraling(self):
        assert is_q_spiraling(DiskUnion.single(0.0, 0.7), Q, samples=2000, seed=3)

    def test_off_origin_disk_is_not(self):
        assert not is_q_spiraling(base_disk(), Q, samples=100, seed=3)

    def test_hull_is_spiraling(self):
        hull = QHull(base_disk(), Q)
        assert is_q_spiraling(hull, Q, samples=10_000, seed=3)

    def test_spiral_neighborhood_union_is_spiraling(self):
        du = spiral_neighborhood(1.0, 0.3, 0.1, Q)
        assert is_q_spiraling(du, Q, samples=5000, seed=3)


HULLS = {
    "real_q": lambda: QHull(base_disk(), Q),
    "rotating_q": lambda: QHull(DiskUnion([(1.0, 0.1), (0.3 + 0.7j, 0.2)]), 0.6 * cmath.exp(0.7j)),
    "same_q_nested": lambda: QHull(QHull(QHull(base_disk(), Q), Q), Q),
    "disk_holds_0": lambda: QHull(DiskUnion([(0.2, 0.3), (1.0, 0.1)]), Q),
    "disk_touches_0": lambda: QHull(DiskUnion.single(0.4 + 0.3j, 0.5), 0.8),
    "empty_base": lambda: QHull(DiskUnion(), Q),
    # q^2 underflows to 0, so the stored powers stop at q^1
    "tiny_q": lambda: QHull(base_disk(), 1e-200),
}


class TestHullAgainstWalk:
    """Windowed membership against the copy-by-copy walk."""

    @staticmethod
    def cloud(rng):
        pts = rng.uniform(-1.3, 1.3, (300, 2)) @ np.array([1, 1j])
        boundary = [1.1, 1.0999999, 0.55, 0.5499999, 0.9, 0.9000001, 1.1j, -0.9, 0.0]
        return np.concatenate([pts, pts[:100] * 1e-3, pts[:50] * 1e-12, boundary])

    @pytest.mark.parametrize("name", sorted(HULLS))
    def test_contains_matches_walk(self, name, rng):
        hull = HULLS[name]()
        pts = self.cloud(rng)
        want = np.array([naive_hull_contains(hull, z) for z in pts])
        assert np.array_equal([hull.contains(z) for z in pts], want)

    def test_powers_of_a_tiny_q_stop_at_zero(self, rng):
        # points near the n = 1 copy ask for q^2, which is 0
        hull = HULLS["tiny_q"]()
        pts = self.cloud(rng) * 1e-200
        want = np.array([naive_hull_contains(hull, z) for z in pts])
        assert want.any() and not want.all()
        assert np.array_equal([hull.contains(z) for z in pts], want)
        assert hull._scales_upto(3) == [1.0, 1e-200]

    def test_subnormal_point_in_the_last_copy(self):
        # 5e-324 = 2^-1074 lies in the copy n = 1074, where |q^n| r rounds
        # 1.1 * 2^-1074 down to 2^-1074
        hull = QHull(DiskUnion.single(1, 0.1), 0.5)
        assert naive_hull_contains(hull, 5e-324)
        assert hull.contains(5e-324)

    def test_non_finite_points_are_outside(self):
        hull = QHull(QHull(base_disk(), Q), Q)
        bad = [complex(math.inf, 0), complex(0, -math.inf), complex(math.nan, 0.5)]
        for h in (hull, hull.base):
            assert not any(h.contains(z) for z in bad)

    def test_disk_union_many_matches_scalar(self, rng):
        du = spiral_neighborhood(1.0, 0.3, 0.1, Q)
        pts = rng.uniform(-1.2, 1.2, 500) + 1j * rng.uniform(-1.2, 1.2, 500)
        assert du.contains_many(pts).tolist() == [du.contains(z) for z in pts]


class TestHullDecision:
    """A hull is decided without a draw or a membership test.

    Asked about its own q it spirals into itself, ``qH ⊆ H``; asked about
    another q it is refused, as a hull over a hull with another q is.
    """

    @staticmethod
    def forbid_sampling(monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a point was drawn or asked")

        monkeypatch.setattr(np.random, "default_rng", unreachable)
        monkeypatch.setattr(QHull, "contains", unreachable)
        monkeypatch.setattr(DiskUnion, "contains", unreachable)
        monkeypatch.setattr(DiskUnion, "contains_many", unreachable)

    @pytest.mark.parametrize("name", sorted(HULLS))
    def test_own_q_is_true_without_drawing(self, name, monkeypatch):
        hull = HULLS[name]()
        self.forbid_sampling(monkeypatch)
        assert is_q_spiraling(hull, hull.q) is True
        assert is_q_spiraling(hull, hull.q, samples=10_000, seed=3) is True

    @pytest.mark.parametrize("name", sorted(HULLS))
    def test_other_q_is_refused_without_drawing(self, name, monkeypatch):
        hull = HULLS[name]()
        self.forbid_sampling(monkeypatch)
        other = 0.7j if hull.q != 0.7j else 0.5
        with pytest.raises(PreconditionError) as err:
            is_q_spiraling(hull, other, samples=300, seed=3)
        assert str(err.value) == (
            f"spiraling asked of a hull with another q: hull q = {hull.q}, q = {complex(other)}"
        )

    def test_the_q_of_the_question_is_checked_first(self):
        with pytest.raises(PreconditionError, match=r"need 0 < \|q\| < 1"):
            is_q_spiraling(QHull(base_disk(), Q), 1.5)


class TestSpiralingAgainstLoop:
    """Chunked draws give the per-draw loop's answer."""

    def test_chunked_draws_read_the_per_draw_stream(self):
        box = (-1.1, 0.7, -0.3, 1.9)
        chunked = np.random.default_rng(5).uniform(
            (box[0], box[2]), (box[1], box[3]), size=(5000, 2)
        )
        rng = np.random.default_rng(5)
        single = [(rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3])) for _ in range(5000)]
        assert np.array_equal(chunked, np.array(single))

    @pytest.mark.parametrize(
        "region, q, samples, seed",
        [
            (DiskUnion.single(0.0, 0.7), Q, 2000, 3),
            (base_disk(), Q, 100, 3),
            (spiral_neighborhood(1.0, 0.3, 0.1, Q), Q, 5000, 3),
            # B(0, 1) ∪ B(2, r) at q = 1/2 is q-invariant iff r >= sqrt(2);
            # at r = 1 the image B(1, 1/2) leaves it near 1 ± 0.45i
            (DiskUnion([(0.0, 1.0), (2.0, 1.0)]), Q, 300, 3),
            (DiskUnion([(0.0, 1.0), (2.0, 1.42)]), Q, 300, 4),
            (spiral_neighborhood(1.0, 0.3, 0.1, 0.7), 0.7, 300, 3),
            (spiral_neighborhood(0.4 + 0.3j, 0.2, 0.1, 0.8j), 0.8j, 300, 3),
            # no draws: only the origin is asked
            (DiskUnion.single(0.0, 0.7), Q, 0, 3),
            # the empty union: a zero box, and the origin is outside
            (DiskUnion(), Q, 100, 3),
        ],
    )
    def test_same_answer_as_per_draw_loop(self, region, q, samples, seed):
        want = naive_is_q_spiraling(region.contains, region.bounding_box(), q, samples, seed)
        assert is_q_spiraling(region, q, samples=samples, seed=seed) == want

    @pytest.mark.parametrize("radius, want", [(0.7, True), (None, False)])
    def test_scalar_predicate(self, radius, want):
        if radius is None:  # 0.8 is in, 0.4 is not
            def pred(z):
                return abs(z) < 0.2 or abs(z - 0.8) < 0.3
        else:
            def pred(z):
                return abs(z) < radius
        box = (-1.1, 1.1, -1.1, 1.1)
        oracle = naive_is_q_spiraling(pred, box, Q, 3000, 7)
        assert oracle == want
        assert is_q_spiraling(PredicateRegion(pred, box), Q, samples=3000, seed=7) == want

    def test_checks_q_times_exactly_the_first_members(self):
        calls = []

        def pred(z):
            calls.append(z)
            return abs(z) < 0.7

        box = (-1.1, 1.1, -1.1, 1.1)
        assert is_q_spiraling(PredicateRegion(pred, box), Q, samples=3000, seed=7)
        rng = np.random.default_rng(7)
        stream = [complex(rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1)) for _ in calls]
        drawn = set(stream)
        checked = [z for z in calls[1:] if z not in drawn]
        members = [z for z in stream if abs(z) < 0.7][:3000]
        assert calls[0] == 0 and sorted(checked, key=repr) == sorted((Q * z for z in members), key=repr)

    def test_no_member_draws_still_raise(self):
        from qplane.errors import NonConvergenceError

        with pytest.raises(NonConvergenceError):
            is_q_spiraling(
                PredicateRegion(lambda z: z == 0, (0.5, 1.0, 0.5, 1.0)),
                Q, samples=10, seed=0, retry_factor=3,
            )
