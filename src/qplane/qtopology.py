"""Computable pieces of the spiral (q-) and disk topologies on the plane.

Open sets are represented as finite unions of open disks, plus lazily
evaluated q-hulls of such unions.  Membership everywhere uses strict
inequalities: all the sets modelled here are open, so boundary points
are out.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import NonConvergenceError, PreconditionError

__all__ = [
    "Disk",
    "DiskUnion",
    "QHull",
    "spiral_neighborhood",
    "point_q_closure",
    "is_quasicompact_d",
    "is_q_spiraling",
]

# Safety stop for the geometric search in hull membership; reached only
# for |z| below ~|q|^_MAX_HULL_STEPS of the set radius.
_MAX_HULL_STEPS = 100_000

# Points drawn per batch by is_q_spiraling.
_DRAW_CHUNK = 4096


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius


@dataclass(frozen=True)
class DiskUnion:
    """Finite union of open disks; the empty union is the empty set."""

    disks: tuple[Disk, ...]

    def __init__(self, disks=()):
        object.__setattr__(
            self,
            "disks",
            tuple(d if isinstance(d, Disk) else Disk(complex(d[0]), float(d[1])) for d in disks),
        )

    @staticmethod
    def single(center: complex, radius: float) -> "DiskUnion":
        return DiskUnion([Disk(complex(center), float(radius))])

    def contains(self, z: complex) -> bool:
        return any(d.contains(z) for d in self.disks)

    def contains_many(self, zs) -> np.ndarray:
        """Membership of every point of ``zs``, as a boolean array of its shape."""
        z = np.asarray(zs, dtype=np.complex128)
        out = np.zeros(z.shape, dtype=bool)
        for d in self.disks:
            out |= np.abs(z - d.center) < d.radius
        return out

    def bounding_radius(self) -> float:
        """Radius of the smallest origin-centered disk covering the set."""
        if not self.disks:
            return 0.0
        return max(abs(d.center) + d.radius for d in self.disks)

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(re_lo, re_hi, im_lo, im_hi) covering the union."""
        if not self.disks:
            return (0.0, 0.0, 0.0, 0.0)
        re_lo = min(d.center.real - d.radius for d in self.disks)
        re_hi = max(d.center.real + d.radius for d in self.disks)
        im_lo = min(d.center.imag - d.radius for d in self.disks)
        im_hi = max(d.center.imag + d.radius for d in self.disks)
        return (re_lo, re_hi, im_lo, im_hi)


def _check_contractive(q: complex) -> complex:
    q = complex(q)
    if not 0 < abs(q) < 1:
        raise PreconditionError(f"need 0 < |q| < 1, got q = {q}")
    return q


def _copy_bounds(log_az, disk_logs: tuple[float, float | None], log_aq: float):
    """Real bounds ``(lo, hi)`` on the ``n`` whose copy ``q^n B(c, r)`` can hold ``z``.

    ``|z|`` must lie in ``(|q|^n (|c| - r), |q|^n (|c| + r))``, so
    ``lo < n < hi``.  ``disk_logs`` is ``(log(|c| + r), log(|c| - r))``,
    the second ``None`` when ``|c| <= r``: such a disk holds points of
    every small modulus and ``lo`` is 0.  ``log_az`` is a float or an array.
    """
    log_outer, log_inner = disk_logs
    hi = (log_az - log_outer) / log_aq
    lo = 0.0 if log_inner is None else (log_az - log_inner) / log_aq
    return lo, hi


@dataclass(frozen=True)
class QHull:
    """Lazy q-hull: the base set, all its q^n copies (n >= 0), and 0.

    Membership is decidable because the copies shrink geometrically.
    Starting the union at ``n = 0`` makes the hull a superset of its base
    and turns hulling into an idempotent operation, so a hull whose base
    is a hull with the same ``q`` tests that base's base directly.  A
    base that is a hull with another ``q`` is a
    :class:`~qplane.errors.PreconditionError`: the topology is built for
    one fixed ``q``.

    Only a window of copies is tested: ``z`` can lie in
    ``q^n B(c, r)`` only when ``|q|^n (|c| - r) < |z| < |q|^n (|c| + r)``,
    and for each base disk the ``n`` in that window, padded by one at
    each end against rounding, are tried (from ``n = 0`` when
    ``|c| <= r``; at most up to ``_MAX_HULL_STEPS``, which only a disk
    whose boundary passes through 0 can reach).  :meth:`contains` takes
    one point, :meth:`contains_many` an array; non-finite points are
    outside.
    """

    base: Union[DiskUnion, "QHull"]
    q: complex

    def __post_init__(self):
        object.__setattr__(self, "q", _check_contractive(self.q))
        if isinstance(self.base, QHull) and self.base.q != self.q:
            raise PreconditionError(
                f"hull over a hull with another q: base q = {self.base.q}, q = {self.q}"
            )

    @cached_property
    def _plan(self) -> list[tuple[Disk, tuple[float, float | None]]]:
        """``[(disk, (log(|c|+r), log(|c|-r) or None))]`` over the innermost disk union."""
        base = self.base
        while isinstance(base, QHull):
            base = base.base
        logs = []
        for d in base.disks:
            c = abs(d.center)
            inner = math.log(c - d.radius) if c > d.radius else None
            logs.append((d, (math.log(c + d.radius), inner)))
        return logs

    @cached_property
    def _scales(self) -> list[complex]:
        """``q^0, q^1, ...``, each the previous one times ``q``; grown by :meth:`_scales_upto`."""
        return [1.0 + 0.0j]

    def _scales_upto(self, n: int) -> list[complex]:
        """:attr:`_scales` through ``q^n``, or through the last power that is not 0."""
        pw = self._scales
        while len(pw) <= n:
            nxt = pw[-1] * self.q
            if nxt == 0:
                break
            pw.append(nxt)
        return pw

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if z == 0:
            return True
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return False
        log_az = math.log(abs(z))
        log_aq = math.log(abs(self.q))
        for d, logs in self._plan:
            lo, hi = _copy_bounds(log_az, logs, log_aq)
            scales = self._scales_upto(min(math.ceil(hi), _MAX_HULL_STEPS))
            for n in range(max(math.floor(lo), 0), min(math.ceil(hi), len(scales) - 1) + 1):
                if d.contains(z / scales[n]):
                    return True
        return False

    def contains_many(self, zs) -> np.ndarray:
        """Membership of every point of ``zs``, as a boolean array of its shape.

        The same windows as :meth:`contains`, stepped through for all
        points at once; a point leaves the loop once it is found or its
        window is used up.
        """
        z = np.asarray(zs, dtype=np.complex128)
        out = z == 0
        live = np.flatnonzero(~out & np.isfinite(z))
        if live.size == 0:
            return out
        zl = z.reshape(-1)[live]
        hit = np.zeros(zl.size, dtype=bool)
        log_az = np.log(np.abs(zl))
        log_aq = math.log(abs(self.q))
        for d, logs in self._plan:
            lo, hi = _copy_bounds(log_az, logs, log_aq)
            n_hi = np.minimum(np.ceil(hi), _MAX_HULL_STEPS).astype(np.int64)
            scales = np.asarray(self._scales_upto(int(n_hi.max())), dtype=np.complex128)
            np.minimum(n_hi, scales.size - 1, out=n_hi)
            n_lo = np.clip(np.floor(lo), 0, _MAX_HULL_STEPS + 1)
            n = np.broadcast_to(n_lo, n_hi.shape).astype(np.int64)
            todo = np.flatnonzero(~hit & (n <= n_hi))
            while todo.size:
                hit[todo] = np.abs(zl[todo] / scales[n[todo]] - d.center) < d.radius
                n[todo] += 1
                todo = todo[~hit[todo] & (n[todo] <= n_hi[todo])]
        out.reshape(-1)[live] = hit
        return out

    def bounding_radius(self) -> float:
        return self.base.bounding_radius()

    def bounding_box(self) -> tuple[float, float, float, float]:
        # The hull stays inside the origin-centered disk of the base's
        # bounding radius, and contains the base itself.
        r = self.base.bounding_radius()
        lo, hi = -r, r
        return (lo, hi, lo, hi)


def spiral_neighborhood(
    lam: complex, eps: float, delta: float, q: complex
) -> DiskUnion:
    """Disk chain covering the forward orbit ``{q^m lam} + {0}``.

    Returns ``B(0, eps)`` together with ``B(q^m lam, |q|^m delta)`` for
    ``m = 0..n``, where ``n`` is minimal with
    ``|q|^(n+1) (|lam| + delta) <= eps``; beyond that the orbit disks
    sit inside the base disk already.
    """
    q = _check_contractive(q)
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise PreconditionError(f"orbit point must be finite, got {lam}")
    if lam == 0:
        raise PreconditionError("orbit point must be nonzero; use the single disk B(0, eps)")
    if not (eps > 0 and delta > 0):
        raise PreconditionError(f"radii must be positive, got eps={eps}, delta={delta}")
    if not (eps < math.inf and delta < math.inf):
        raise PreconditionError(f"radii must be finite, got eps={eps}, delta={delta}")
    reach = abs(lam) + delta
    n = 0
    while abs(q) ** (n + 1) * reach > eps:
        n += 1
        if n > _MAX_HULL_STEPS:
            raise NonConvergenceError("orbit does not sink into the base disk")
    disks = [Disk(0.0, float(eps))]
    scale = 1.0 + 0.0j
    for m in range(n + 1):
        disks.append(Disk(scale * lam, abs(scale) * delta))
        scale *= q
    return DiskUnion(disks)


def point_q_closure(x: complex, k_max: int, q: complex) -> list[complex]:
    """Backward orbit prefix ``[x / q^k for k = 0..k_max]``.

    This is the closure of a point in the spiral topology, truncated to
    a finite prefix; magnitudes grow strictly for ``x != 0``.
    """
    q = _check_contractive(q)
    if k_max < 0:
        raise PreconditionError(f"k_max must be >= 0, got {k_max}")
    x = complex(x)
    out = []
    scale = 1.0 + 0.0j
    for _ in range(k_max + 1):
        out.append(x / scale)
        scale *= q
    return out


def is_quasicompact_d(region) -> bool:
    """Boundedness, which is quasicompactness for the disk topology.

    Accepts a :class:`DiskUnion`, a :class:`QHull`, or a plain sequence
    of points.  Finite disk unions are always bounded; hulls add only
    shrinking copies of their base.
    """
    if isinstance(region, (DiskUnion, QHull)):
        return bool(np.isfinite(region.bounding_radius()))
    pts = np.asarray(list(region), dtype=np.complex128)
    if pts.size == 0:
        return True
    return bool(np.all(np.isfinite(pts.view(np.float64))))


def is_q_spiraling(
    region,
    q: complex,
    samples: int = 1000,
    seed: int = 0,
    retry_factor: int = 50,
) -> bool:
    """Check that a set holds the origin and spirals into itself: ``qU ⊆ U``.

    ``region`` is any set with ``contains``, ``contains_many`` and
    ``bounding_box`` (a :class:`DiskUnion` or a :class:`QHull`).  The
    answer is exact for a :class:`QHull` asked about its own ``q``: the
    hull is ``H = {0} ∪ ⋃_{n>=0} q^n B``, so
    ``qH = {0} ∪ ⋃_{n>=1} q^n B ⊆ H`` and it is ``True`` without a draw.

    Any other region, and a hull asked about another ``q``, gets a
    one-sided sampled answer: points of the set are rejection-sampled
    inside its bounding box and ``q * z`` membership is tested, after
    membership of the origin.  Any counterexample returns ``False``;
    otherwise ``True`` (which can be a false positive, never a false
    negative).

    Draws come 4096 at a time from the seeded stream, each as
    ``(Re z, Im z)``, so the answer for a seed is that of drawing one
    point at a time; the region tests them with ``contains_many``.  At
    most ``samples * retry_factor`` points are drawn; the first
    ``samples`` members are checked.
    """
    q = _check_contractive(q)
    re_lo, re_hi, im_lo, im_hi = region.bounding_box()
    if not region.contains(0.0 + 0.0j):
        return False
    if samples < 1 or (isinstance(region, QHull) and region.q == q):
        return True
    rng = np.random.default_rng(seed)
    budget = samples * retry_factor
    drawn = accepted = 0
    while drawn < budget and accepted < samples:
        k = min(_DRAW_CHUNK, budget - drawn)
        drawn += k
        pts = rng.uniform((re_lo, im_lo), (re_hi, im_hi), size=(k, 2))
        z = pts.view(np.complex128)[:, 0]
        hits = z[region.contains_many(z)][: samples - accepted]
        accepted += hits.size
        if not region.contains_many(q * hits).all():
            return False
    if accepted == 0:
        raise NonConvergenceError(
            f"rejection sampling found no member points in {budget} draws"
        )
    return True
