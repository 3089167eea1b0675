"""Parametrized two-step complex of a q-commuting pair and its homology.

At a character ``gamma`` on one of the two axes the maps

    d0 = [ gamma_y I - q S ]          d1 = [ T - gamma_x I , S - gamma_y I ]
         [ T - q gamma_x I ]

form a complex ``X -> X (+) X -> X`` (written as a 2N x N and an
N x 2N matrix).  For any pair ``d1 d0 = ST - qTS + (q - 1) gamma_x
gamma_y I`` exactly, so for a q-commuting pair the composite collapses
to a scalar: ``d1 d0 = (q - 1) gamma_x gamma_y I``, which vanishes
exactly on the axes -- homology is therefore only defined there, and
off-axis requests are a hard error rather than a silent zero.  The
defect ``||ST - qTS||_F`` belongs to the pair, so it is computed once
and checked against each character's bound as a scalar.

Ranks come from singular values with a relative threshold; a rank jump
is exactly what joint-spectrum membership means, so near-threshold
singular values flag the answer as unstable instead of being hidden.

Scan results describe the *truncated* pair.  No claim is made that they
converge to the spectrum of the untruncated model (the truncated shift
is nilpotent; the full one is not), so CSV output labels them as the
truncation spectrum.

On the y-axis the model pair (``opcalc.model_pair``) has closed-form
homology.  At ``(0, mu)`` the maps are ``d0 = [mu I - qS; T]`` and
``d1 = [T, S - mu I]``:

* ``ker d0 = ker T ∩ ker(mu - qS)`` is ``span e_{N-1}`` when
  ``mu = q^N`` and zero otherwise, so ``h0 = [mu = q^N]``;
* ``im T = span(e_1..e_{N-1})`` and ``(S - mu) e_0 = (1 - mu) e_0``, so
  ``h2 = [mu = 1]``;
* the Euler characteristic is 0, so ``h1 = h0 + h2``.

The y-axis membership set is therefore ``{1, q^N}``: ``(0, 1, 1)`` at
``1``, ``(1, 1, 0)`` at ``q^N`` and exact everywhere else, the orbit
interior ``q^m`` (``1 <= m < N``) included.  For the untruncated shift
on l^2, ``T`` is an isometry and ``T*(S - mu)T = qS - mu``, so the same
argument leaves ``{1}`` alone; ``q^N`` comes from ``T e_{N-1} = 0``.

On the x-axis the same pair shows its pseudospectrum.  At ``(gamma, 0)``,
``d0 = [-qS; T - q gamma I]``, and ``T - q gamma`` is a Jordan-like
block: ``v`` with ``v_{N-1-k} = (q gamma)^k`` leaves a residual of about
``|q gamma|^N``, and ``qS`` maps it to a vector of norm about
``|q|^N``.  So the smallest singular value of ``d0`` is about ``|q|^N``
times the largest for every ``|gamma| <= 1``.  For ``model_pair(1/2, N)`` and 257 nodes on
``[0, 1]`` that is ``2^-N`` against the relative threshold ``1e-10``:
at N = 32 no row is a member and every row is unstable; from N = 36 on
every row is a member ``(1, 1, 0)``, unstable at N = 36 and stable at
N = 40, 48 and 64.  A yes/no ``stable`` flag cannot show how near the
threshold a row sits; the graded columns planned in ROADMAP item 5
would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .errors import PreconditionError
from .opcalc import OperatorPair, _unit

__all__ = [
    "KoszulComplexAt",
    "build",
    "composite_defect",
    "Homology",
    "homology_dims",
    "GridSpec",
    "ScanRow",
    "spectrum_scan",
    "DEFAULT_RANK_TOL",
]

DEFAULT_RANK_TOL = 1e-10

# Invariant tolerance for the composite identity at build time.
_BUILD_TOL = 1e-12

# A scan builds the differentials of this many complex entries at a time.
_STACK_ENTRIES = 2**15


@dataclass(frozen=True)
class KoszulComplexAt:
    """The two differentials of the complex at a fixed character."""

    gamma: tuple[complex, complex]
    d0: np.ndarray
    d1: np.ndarray
    n: int


def _pair_scale(pair: OperatorPair) -> float:
    """``||T||_2 + ||S||_2``, the pair's part of the defect bound."""
    return float(np.linalg.norm(pair.t, 2) + np.linalg.norm(pair.s, 2))


def _pair_defect(pair: OperatorPair) -> float:
    """``||ST - qTS||_F = |q| * residual``, the composite defect at every character.

    Expanding the product gives ``d1 d0 = ST - qTS + (q-1) gx gy I``
    exactly, so the defect is a property of the pair.  It comes from the
    pair's overflow-safe residual; ``inf`` only past the double range.
    """
    return abs(pair.q) * pair.residual()


def _defect_error(defect: float, scale: float) -> str:
    """The error text when ``defect`` exceeds ``1e-12 * scale^2``, else ``""``.

    Compared as ``defect / scale <= 1e-12 * scale`` so that a huge
    character cannot overflow the bound; a NaN defect fails it.
    """
    if defect == 0 or defect / scale <= _BUILD_TOL * scale:
        return ""
    return (
        f"composite identity violated: defect {defect:.3e} "
        f"exceeds {_BUILD_TOL:.0e} * {scale:.3e}^2"
    )


def _blocks(pair: OperatorPair, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays for ``m`` characters holding the constant blocks of the maps.

    Every ``d0[i]`` holds ``[-qS; T]`` and every ``d1[i]`` holds
    ``[T, S]``; :func:`_complexes` writes a character's diagonals over
    them, which is all that depends on the character.  A ``qS`` past the
    double range concerns every character, so it is a
    :class:`PreconditionError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        qs = pair.q * pair.s
    if not np.all(np.isfinite(qs)):
        raise PreconditionError(f"q S leaves the double range at q = {pair.q}")
    n = pair.n
    d0 = np.empty((m, 2 * n, n), dtype=np.complex128)
    d1 = np.empty((m, n, 2 * n), dtype=np.complex128)
    d0[:, :n] = 0.0 - qs
    d0[:, n:] = pair.t
    d1[:, :, :n] = pair.t
    d1[:, :, n:] = pair.s
    return d0, d1


def _complexes(
    pair: OperatorPair,
    gx: np.ndarray,
    gy: np.ndarray,
    d0: np.ndarray,
    d1: np.ndarray,
    pair_defect: float,
    pair_scale: float,
) -> list[str]:
    """Write the maps at the characters ``(gx[i], gy[i])`` into ``d0[i]``, ``d1[i]``.

    ``d0`` and ``d1`` come from :func:`_blocks` with at least ``len(gx)``
    rows; only the 2N diagonal entries of each map are written, so the
    constant blocks are built once however many characters reuse them.
    Returns one string per character, ``""`` or why it has no complex: a
    non-finite coordinate (its maps are built at 0), or a composite
    ``d1 d0`` more than ``1e-12 * (pair_scale + |gx| + |gy|)^2`` from
    ``(q-1) gx gy I``.  That distance is ``pair_defect`` wherever
    ``(q-1) gx gy`` and the written diagonals are finite and NaN where
    they are not, so each character takes a scalar test and no matrix
    product is formed.
    """
    finite = np.isfinite(gx) & np.isfinite(gy)
    x, y = np.where(finite, gx, 0), np.where(finite, gy, 0)
    n, m = pair.n, x.size
    t_ii, s_ii = np.diag(pair.t), np.diag(pair.s)
    # a diagonal entry or product past the double range leaves no defect
    # to bound: that character is an error row, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        diags = (
            y[:, None] - pair.q * s_ii,
            t_ii - (pair.q * x)[:, None],
            t_ii - x[:, None],
            s_ii - y[:, None],
        )
        bounded = np.isfinite((pair.q - 1.0) * x * y)
        scales = pair_scale + np.abs(x) + np.abs(y)
    for diag in diags:
        bounded &= np.isfinite(diag).all(axis=1)
    flat0, flat1 = d0[:m].reshape(m, -1), d1[:m].reshape(m, -1)
    flat0[:, : n * n : n + 1], flat0[:, n * n :: n + 1] = diags[:2]
    flat1[:, :: 2 * n + 1], flat1[:, n :: 2 * n + 1] = diags[2:]
    return [
        _defect_error(pair_defect if b else math.nan, s)
        if ok else f"character ({a}, {c}) is not finite"
        for a, c, ok, b, s in zip(
            gx.tolist(), gy.tolist(), finite.tolist(), bounded.tolist(), scales.tolist()
        )
    ]


def build(pair: OperatorPair, gamma: tuple[complex, complex]) -> KoszulComplexAt:
    """Assemble the differentials at ``gamma`` and verify the composite.

    ``d1 @ d0`` must equal ``(q-1) gamma_x gamma_y I`` up to
    ``1e-12 * (||T|| + ||S|| + |gamma|)^2``; a violation means the pair
    does not satisfy the commutation relation to working precision.  The
    distance is the pair's ``||ST - qTS||_F``, whatever ``gamma``, so it
    is checked as a scalar against this character's bound; a character
    whose coordinates, ``(q-1) gamma_x gamma_y`` or map entries are not
    finite is a :class:`PreconditionError`.  The maps are those a scan
    ranks, from the same builder on one character, in arrays of their own.
    """
    gx, gy = complex(gamma[0]), complex(gamma[1])
    d0, d1 = _blocks(pair, 1)
    (error,) = _complexes(
        pair, np.asarray([gx]), np.asarray([gy]), d0, d1,
        _pair_defect(pair), _pair_scale(pair),
    )
    if error:
        raise PreconditionError(error)
    return KoszulComplexAt((gx, gy), d0[0], d1[0], pair.n)


def composite_defect(comp: KoszulComplexAt, q: complex) -> float:
    """Frobenius distance of ``d1 d0`` from its scalar value.

    Returns ``|| d1 d0 - (q-1) gamma_x gamma_y I ||_F``; in particular
    ``d1 d0`` itself vanishes (within tolerance) exactly when ``gamma``
    lies on an axis.  Up to the rounding of the product this is the
    pair's ``||ST - qTS||_F`` at every character, the number
    :func:`build` checks; here it is recomputed from the maps as a
    diagnostic, with the norm taken without overflow.
    """
    gx, gy = comp.gamma
    # entries past the double range give an infinite or NaN defect, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        target = (complex(q) - 1.0) * gx * gy * np.eye(comp.n, dtype=np.complex128)
        return _unit(comp.d1 @ comp.d0 - target)[1]


class Homology(NamedTuple):
    h0: int
    h1: int
    h2: int
    stable: bool

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)

    @property
    def member(self) -> bool:
        return _member(self.h0, self.h1, self.h2)


def _member(h0: int, h1: int, h2: int) -> bool:
    """Joint-spectrum membership: some homology is nonzero."""
    return h0 > 0 or h1 > 0 or h2 > 0


def _ranks(sv: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Rank and stability from singular values sorted along the last axis.

    A singular value counts when it exceeds ``rank_tol`` times the
    largest; the answer is unstable when one sits within 10x of that
    threshold.  A zero matrix has rank 0 and is stable.
    """
    threshold = rank_tol * sv[..., :1]
    rank = np.count_nonzero(sv > threshold, axis=-1)
    near = np.any((sv > threshold / 10.0) & (sv < threshold * 10.0), axis=-1)
    return rank, ~near


def _sv(a: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, or of each matrix of a stack, largest first.

    A wide matrix is ranked through its transpose, a view without
    conjugation: the singular values are the same in exact arithmetic,
    and LAPACK ``gesdd`` on the tall ``2N x N`` orientation of ``d1``
    costs about half what it costs on the wide ``N x 2N`` one (OpenBLAS,
    one thread).  Every SVD of this module goes through here, so ``d0``,
    ``d1``, stacked chunks and single characters all take that rule.
    """
    if a.shape[-2] < a.shape[-1]:
        a = a.swapaxes(-1, -2)
    return np.linalg.svd(a, compute_uv=False)


def _homology(
    sv0: np.ndarray, sv1: np.ndarray, n: int, rank_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(h0, h1, h2)`` rows and stability from stacked singular values of d0, d1."""
    r0, stable0 = _ranks(sv0, rank_tol)
    r1, stable1 = _ranks(sv1, rank_tol)
    dims = np.stack([n - r0, (2 * n - r1) - r0, n - r1], axis=-1)
    return dims, stable0 & stable1


def _check_rank_tol(rank_tol: float) -> None:
    if not rank_tol > 0:
        raise PreconditionError(f"rank_tol must be positive, got {rank_tol}")


def homology_dims(
    comp: KoszulComplexAt, rank_tol: float = DEFAULT_RANK_TOL
) -> Homology:
    """Numerical homology of the complex at an axis character.

    ``h0 = dim ker d0``, ``h2 = codim im d1`` and
    ``h1 = dim ker d1 - rank d0`` via SVD ranks with relative threshold
    ``rank_tol``.  Both ranks are at most ``N`` (``d0`` has ``N`` columns,
    ``d1`` has ``N`` rows), so ``h1 = 2N - r0 - r1 = h0 + h2 >= 0`` by
    construction, whatever the ranks.
    """
    gx, gy = comp.gamma
    if gx != 0 and gy != 0:
        raise PreconditionError(
            f"gamma = ({gx}, {gy}) is off both axes; the composite does not "
            "vanish there and homology is undefined"
        )
    _check_rank_tol(rank_tol)
    dims, stable = _homology(_sv(comp.d0), _sv(comp.d1), comp.n, rank_tol)
    return Homology(int(dims[0]), int(dims[1]), int(dims[2]), bool(stable))


# ---------------------------------------------------------------------------
# axis scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid in one axis coordinate.

    ``steps`` points span each of the real and imaginary ranges
    (a degenerate range, one without ``max > min``, contributes a
    single point); ``steps = 0`` gives the empty grid and a negative
    count is a :class:`PreconditionError`.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    steps: int

    def __post_init__(self):
        if self.steps < 0:
            raise PreconditionError(f"steps must be >= 0, got {self.steps}")

    @property
    def size(self) -> int:
        """The number of grid points, counted without building them."""
        if self.steps == 0:
            return 0
        re_n = self.steps if _is_open(self.re_min, self.re_max) else 1
        im_n = self.steps if _is_open(self.im_min, self.im_max) else 1
        return re_n * im_n

    def points(self) -> list[complex]:
        if self.size == 0:
            return []
        res = _axis_nodes(self.re_min, self.re_max, self.steps)
        ims = _axis_nodes(self.im_min, self.im_max, self.steps)
        return [complex(r, i) for r in res for i in ims]


def _is_open(lo: float, hi: float) -> bool:
    """Whether a range spans ``steps`` nodes; otherwise it is the single node ``lo``."""
    return float(hi) > float(lo)


def _axis_nodes(lo: float, hi: float, steps: int) -> np.ndarray:
    """``steps`` evenly spaced nodes from ``lo`` to ``hi``; ``[lo]`` unless ``hi > lo``.

    A span wider than the double range is built from the halved bounds,
    so its nodes stay finite.  An infinite bound gives non-finite nodes,
    which a scan records as error rows.
    """
    lo, hi = float(lo), float(hi)
    if not _is_open(lo, hi):
        return np.asarray([lo])
    if math.isfinite(hi - lo):
        return np.linspace(lo, hi, steps)
    if math.isfinite(lo) and math.isfinite(hi):
        return 2.0 * np.linspace(lo / 2.0, hi / 2.0, steps)
    with np.errstate(invalid="ignore", over="ignore"):
        return np.linspace(lo, hi, steps)


@dataclass(frozen=True)
class ScanRow:
    g_re: float
    g_im: float
    axis: str
    h0: int
    h1: int
    h2: int
    member: bool
    stable: bool
    error: str = ""


def _chunk_homology(
    pair: OperatorPair,
    gx: np.ndarray,
    gy: np.ndarray,
    d0: np.ndarray,
    d1: np.ndarray,
    pair_defect: float,
    pair_scale: float,
    rank_tol: float,
) -> tuple[list[list[int]], np.ndarray, list[str]]:
    """``(dims, stable, errors)`` at the characters ``(gx[i], gy[i])``.

    The complexes are written into the leading rows of ``d0`` and ``d1``
    by :func:`_complexes` and ranked by one stacked SVD of each map, on
    those rows themselves when no character is an error, else on the
    rows that are not; if LAPACK fails, one SVD per character.  Where
    ``errors[i]`` is set, ``dims[i]`` is ``[-1, -1, -1]``.
    """
    errors = _complexes(pair, gx, gy, d0, d1, pair_defect, pair_scale)
    m = len(errors)
    d0, d1 = d0[:m], d1[:m]
    ok = np.flatnonzero([not e for e in errors])
    dims = np.full((m, 3), -1, dtype=np.int64)
    stable = np.zeros(m, dtype=bool)
    if ok.size:
        rows = slice(None) if ok.size == m else ok
        try:
            dims[rows], stable[rows] = _homology(
                _sv(d0[rows]), _sv(d1[rows]), pair.n, rank_tol
            )
        except np.linalg.LinAlgError:
            for i in ok:
                try:
                    dims[i], stable[i] = _homology(_sv(d0[i]), _sv(d1[i]), pair.n, rank_tol)
                except np.linalg.LinAlgError as exc:
                    errors[i] = str(exc)
    return dims.tolist(), stable, errors


def spectrum_scan(
    pair: OperatorPair,
    axis: Literal["x", "y"],
    grid: GridSpec,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> list[ScanRow]:
    """Sweep one axis and report homology at every grid character.

    Membership (any nonzero homology) marks the truncation-level joint
    spectrum on that axis.  Rows come out in row-major grid order, so
    identical inputs produce identical tables; a numerical failure at
    one point is recorded in its row instead of aborting the sweep, and
    a non-finite grid point is an error row.  A ``rank_tol`` that is not
    positive concerns every point, so it raises before any is built.

    The pair's composite defect ``||ST - qTS||_F`` and
    ``||T||_2 + ||S||_2`` are computed once per scan; each character
    checks the defect against its own bound as a scalar.  One pair of
    chunk arrays, for as many points as fit in 2^15 complex entries,
    gets the constant blocks of the maps once; chunk by chunk only the
    diagonals are rewritten and the maps are ranked by one stacked SVD
    each, ``d0`` as built and ``d1`` through its tall transpose (see
    :func:`_sv`).  The rows equal those of :func:`build` and
    :func:`homology_dims` point by point.  When LAPACK fails on a chunk
    its rows are ranked one SVD at a time, and a row that fails again
    holds the LAPACK error.
    """
    if axis not in ("x", "y"):
        raise PreconditionError(f"axis must be 'x' or 'y', got {axis!r}")
    _check_rank_tol(rank_tol)
    points = grid.points()
    g = np.asarray(points, dtype=np.complex128).reshape(-1)
    zero = np.zeros_like(g)
    gx, gy = (g, zero) if axis == "x" else (zero, g)
    pair_defect, pair_scale = _pair_defect(pair), _pair_scale(pair)
    step = max(1, _STACK_ENTRIES // (2 * pair.n * pair.n))
    d0, d1 = _blocks(pair, min(step, g.size))
    rows: list[ScanRow] = []
    for start in range(0, g.size, step):
        chunk = slice(start, start + step)
        dims, stable, errors = _chunk_homology(
            pair, gx[chunk], gy[chunk], d0, d1, pair_defect, pair_scale, rank_tol
        )
        for j, (h0, h1, h2) in enumerate(dims):
            g_j = points[start + j]
            rows.append(ScanRow(
                g_j.real, g_j.imag, axis, h0, h1, h2,
                _member(h0, h1, h2), bool(stable[j]), errors[j],
            ))
    return rows
