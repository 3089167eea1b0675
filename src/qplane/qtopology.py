"""Computable pieces of the spiral (q-) and disk topologies on the plane.

Open sets are represented as finite unions of open disks, plus lazily
evaluated q-hulls of such unions, the basic open sets of the q-topology.
Membership everywhere uses strict inequalities: all the sets modelled
here are open, so boundary points are out.  A hull is q-invariant by
construction, so :func:`is_q_spiraling` decides it without a draw; only
the other sets are sampled.
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
    whose boundary passes through 0 can reach).  :meth:`contains` is the
    hull's one membership test, a point at a time; non-finite points are
    outside.  :func:`is_q_spiraling` decides a hull without asking it.
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
    def _plan(self) -> list[tuple[Disk, float, float | None]]:
        """``[(disk, log(|c|+r), log(|c|-r) or None)]`` over the innermost disk union."""
        base = self.base
        while isinstance(base, QHull):
            base = base.base
        logs = []
        for d in base.disks:
            c = abs(d.center)
            inner = math.log(c - d.radius) if c > d.radius else None
            logs.append((d, math.log(c + d.radius), inner))
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
        for d, log_outer, log_inner in self._plan:
            # the window of the class docstring, rounded outwards
            hi = math.ceil((log_az - log_outer) / log_aq)
            lo = 0 if log_inner is None else max(math.floor((log_az - log_inner) / log_aq), 0)
            scales = self._scales_upto(min(hi, _MAX_HULL_STEPS))
            for n in range(lo, min(hi, len(scales) - 1) + 1):
                if d.contains(z / scales[n]):
                    return True
        return False

    def bounding_radius(self) -> float:
        return self.base.bounding_radius()


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

    A :class:`QHull` is decided before any sampling, without a draw or a
    membership test.  Asked about its own ``q`` it is ``True``: the hull
    is ``H = {0} ∪ ⋃_{n>=0} q^n B``, so ``qH = {0} ∪ ⋃_{n>=1} q^n B ⊆ H``.
    Asked about another ``q`` it is a
    :class:`~qplane.errors.PreconditionError`, as a hull over a hull with
    another ``q`` is: the topology is built for one fixed ``q``.

    Any other ``region`` (a :class:`DiskUnion`, or any set with
    ``contains``, ``contains_many`` and ``bounding_box``) gets a
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
    if isinstance(region, QHull):
        if region.q != q:
            raise PreconditionError(
                f"spiraling asked of a hull with another q: hull q = {region.q}, q = {q}"
            )
        return True
    re_lo, re_hi, im_lo, im_hi = region.bounding_box()
    if not region.contains(0.0 + 0.0j):
        return False
    if samples < 1:
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
