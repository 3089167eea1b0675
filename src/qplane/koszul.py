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

The singular values of a map come by one of two routes, chosen once
per pair by the exact zeros of its blocks (:func:`_scan_maps`): a map
in the bidiagonal class, such as either map of the model pair, is
reduced in ``O(N)`` to a real ``N x N`` triangle (:func:`_reduced`),
and any other takes the complex SVD of the map itself.
:func:`homology_dims` and the scans rank through the same step
(:func:`_chunk_sv`).  A scan does not take an SVD at every grid
character: one SVD settles a map's rank and stability within a radius
of its character (:func:`_radius`), and the scan ranks coarse to fine
(:func:`_certified_ranks`).  A map in the bidiagonal class needs no SVD
where counts of its triangle's singular values below a few points
settle the answer (:func:`_count_points`), which they do wherever no
singular value sits near a threshold.

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
at N = 8 and 24 no row is a member and every row is stable; at N = 32
no row is a member and every row is unstable; from N = 36 on every row
is a member ``(1, 1, 0)``, unstable at N = 36 and stable at N = 40, 48
and 64.  Such a ``d0`` drops a singular value, so its radius
(:func:`_radius`) certifies no neighbour, and a scan decides it at
every node by counts.  A yes/no ``stable`` flag cannot show how
near the threshold a row sits; the graded columns planned in ROADMAP
item 5 would.
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

# The certified radius of a ranked map gives up _SLACK * N * u times the
# norm of the maps (u the unit roundoff); see _radius.
_SLACK = 8
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2

# A scan certifies and writes the rows of this many grid points at a
# time, so its per-point arrays stay a few MiB whatever the grid size.
_SCAN_BLOCK = 2**15


@dataclass(frozen=True)
class KoszulComplexAt:
    """The two differentials of the complex at a fixed character, and the pair they came from."""

    pair: OperatorPair
    gamma: tuple[complex, complex]
    d0: np.ndarray
    d1: np.ndarray

    @property
    def n(self) -> int:
        return self.pair.n


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


def _q_s(pair: OperatorPair) -> np.ndarray:
    """``qS``; past the double range it concerns every character, so it is a
    :class:`PreconditionError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        qs = pair.q * pair.s
    if not np.all(np.isfinite(qs)):
        raise PreconditionError(f"q S leaves the double range at q = {pair.q}")
    return qs


def _blocks(pair: OperatorPair, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays for ``m`` characters holding the constant blocks of the maps.

    Every ``d0[i]`` holds ``[-qS; T]`` and every ``d1[i]`` holds
    ``[T, S]``; :func:`_write_diagonals` writes a character's diagonals over
    them, which is all that depends on the character.
    """
    qs = _q_s(pair)
    n = pair.n
    d0 = np.empty((m, 2 * n, n), dtype=np.complex128)
    d1 = np.empty((m, n, 2 * n), dtype=np.complex128)
    d0[:, :n] = 0.0 - qs
    d0[:, n:] = pair.t
    d1[:, :, :n] = pair.t
    d1[:, :, n:] = pair.s
    return d0, d1


def _diagonals(pair: OperatorPair, gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, ...]:
    """The diagonals of the maps at the characters ``(gx[i], gy[i])``.

    Returns ``d0``'s top and bottom and ``d1``'s left and right diagonal,
    one row of N entries per character.  A non-finite coordinate is
    taken as 0, and an entry past the double range is left non-finite
    without a warning (:func:`_errors` makes that character an error).
    """
    finite = np.isfinite(gx) & np.isfinite(gy)
    x, y = np.where(finite, gx, 0), np.where(finite, gy, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        return _map_diagonals(pair, 0, x, y) + _map_diagonals(pair, 1, x, y)


def _map_diagonals(
    pair: OperatorPair, k: int, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map ``k``'s two diagonals at the finite characters ``(x[i], y[i])``; see :func:`_diagonals`."""
    if k == 0:
        return y[:, None] - pair.q * np.diag(pair.s), np.diag(pair.t) - (pair.q * x)[:, None]
    return np.diag(pair.t) - x[:, None], np.diag(pair.s) - y[:, None]


def _errors(
    pair: OperatorPair,
    gx: np.ndarray,
    gy: np.ndarray,
    diags: tuple[np.ndarray, ...],
    pair_defect: float,
    pair_scale: float,
) -> list[str]:
    """One string per character, ``""`` or why it has no complex.

    ``diags`` are the character's :func:`_diagonals`.  A character has no
    complex when a coordinate is not finite, when the bound's scale
    ``pair_scale + |gx| + |gy|`` is not (a coordinate's modulus can pass
    the double range though its parts do not), or when the composite
    ``d1 d0`` is more than ``1e-12 * scale^2`` from ``(q-1) gx gy I``.
    That distance is ``pair_defect`` wherever ``(q-1) gx gy`` and the
    diagonals are finite and NaN where they are not, so each character
    takes a scalar test and no matrix product is formed.
    """
    finite = np.isfinite(gx) & np.isfinite(gy)
    x, y = np.where(finite, gx, 0), np.where(finite, gy, 0)
    # a diagonal entry or product past the double range leaves no defect
    # to bound: that character is an error row, without a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bounded = np.isfinite((pair.q - 1.0) * x * y)
        scales = pair_scale + np.abs(x) + np.abs(y)
        for diag in diags:
            bounded &= np.isfinite(diag).all(axis=1)
        defect = np.where(bounded, pair_defect, math.nan)
        # compared as defect / scale <= 1e-12 * scale, so that a huge
        # character cannot overflow the bound; a NaN defect fails it
        ok = finite & (scales != math.inf) & (
            (defect == 0) | (defect / scales <= _BUILD_TOL * scales)
        )
    errors = [""] * gx.size
    for i in np.flatnonzero(~ok).tolist():
        a, c, s = gx[i].item(), gy[i].item(), scales[i].item()
        errors[i] = (
            f"character ({a}, {c}) is not finite" if not finite[i]
            else f"the defect bound's scale at character ({a}, {c}) leaves the double range"
            if s == math.inf
            else f"composite identity violated: defect {defect[i].item():.3e} "
            f"exceeds {_BUILD_TOL:.0e} * {s:.3e}^2"
        )
    return errors


def _write_diagonals(
    pair: OperatorPair, diags: tuple[np.ndarray, ...], d0: np.ndarray, d1: np.ndarray
) -> None:
    """Write :func:`_diagonals` over the leading rows of the chunk arrays ``d0``, ``d1``.

    ``d0`` and ``d1`` come from :func:`_blocks`; only the 2N diagonal
    entries of each map are written, so the constant blocks are built
    once however many characters reuse them.
    """
    n, m = pair.n, diags[0].shape[0]
    flat0, flat1 = d0[:m].reshape(m, -1), d1[:m].reshape(m, -1)
    flat0[:, : n * n : n + 1], flat0[:, n * n :: n + 1] = diags[:2]
    flat1[:, :: 2 * n + 1], flat1[:, n :: 2 * n + 1] = diags[2:]


def build(pair: OperatorPair, gamma: tuple[complex, complex]) -> KoszulComplexAt:
    """Assemble the differentials at ``gamma`` and verify the composite.

    ``d1 @ d0`` must equal ``(q-1) gamma_x gamma_y I`` up to
    ``1e-12 * (||T|| + ||S|| + |gamma|)^2``; a violation means the pair
    does not satisfy the commutation relation to working precision.  The
    distance is the pair's ``||ST - qTS||_F``, whatever ``gamma``, so it
    is checked as a scalar against this character's bound; a character
    whose coordinates, ``(q-1) gamma_x gamma_y``, bound or map entries
    are not finite is a :class:`PreconditionError`.  The maps are those a
    scan ranks, from the same builder on one character, in arrays of
    their own.
    """
    gx, gy = np.asarray([complex(gamma[0])]), np.asarray([complex(gamma[1])])
    d0, d1 = _blocks(pair, 1)
    diags = _diagonals(pair, gx, gy)
    (error,) = _errors(pair, gx, gy, diags, _pair_defect(pair), _pair_scale(pair))
    if error:
        raise PreconditionError(error)
    _write_diagonals(pair, diags, d0, d1)
    return KoszulComplexAt(pair, (complex(gx[0]), complex(gy[0])), d0[0], d1[0])


def composite_defect(comp: KoszulComplexAt) -> float:
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
        target = (comp.pair.q - 1.0) * gx * gy * np.eye(comp.n, dtype=np.complex128)
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
    one thread).  Every SVD of this module goes through here: the maps
    of the complex route, tall, and the real ``N x N`` triangles of the
    bidiagonal route (:func:`_reduced`), square.
    """
    if a.shape[-2] < a.shape[-1]:
        a = a.swapaxes(-1, -2)
    return np.linalg.svd(a, compute_uv=False)


def _stacked_sv(
    maps: np.ndarray, rows: np.ndarray, errors: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """``(kept, sv)`` for the stack ``maps``, whose matrix ``j`` is that of row ``rows[j]``.

    One stacked :func:`_sv`; if LAPACK fails, one :func:`_sv` per
    matrix, and a matrix that fails again is left out of the indices
    ``kept`` into the stack, with its LAPACK error in ``errors[rows[j]]``.
    """
    try:
        return np.arange(len(maps)), _sv(maps)
    except np.linalg.LinAlgError:
        kept, svs = [], []
        for j, i in enumerate(rows):
            try:
                svs.append(_sv(maps[j]))
            except np.linalg.LinAlgError as exc:
                errors[i] = str(exc)
            else:
                kept.append(j)
        return np.asarray(kept, dtype=np.intp), np.reshape(svs, (len(kept), min(maps.shape[-2:])))


class _Bidiagonal(NamedTuple):
    """How a tall map ``[top; bottom]`` reduces; see :func:`_bidiagonal`."""

    diagonal_on_top: bool
    flip: bool
    e: np.ndarray


def _outside_band(m: np.ndarray, lo: int, hi: int) -> bool:
    """Whether ``m`` has a nonzero outside its diagonals ``lo .. hi`` (0 the main one).

    It does when it has more nonzeros than those diagonals hold, so no
    ``N x N`` mask is formed.
    """
    inside = sum(np.count_nonzero(np.diagonal(m, d)) for d in range(lo, hi + 1))
    return np.count_nonzero(m) > inside


def _bidiagonal(top: np.ndarray, bottom: np.ndarray) -> _Bidiagonal | None:
    """The form of the tall map ``[top; bottom]``, read off the exact zeros of its blocks.

    A map is in the bidiagonal class when one ``N x N`` block is
    diagonal and the other is zero outside its diagonal and one
    neighbouring diagonal; else this is ``None``.  ``e`` holds the
    other block's off-diagonal as the subdiagonal of ``L`` in
    ``[diag(a); L]``: as read for a lower bidiagonal block, reversed
    for an upper one, which reversing the index order of rows and
    columns (``flip``) makes lower.  Only the diagonals of the maps
    change between characters, so the form read off the constant blocks
    of a pair is that of each of its complexes.
    """
    for diagonal_on_top, diag, band in ((True, top, bottom), (False, bottom, top)):
        if _outside_band(diag, 0, 0):
            continue
        if not _outside_band(band, -1, 0):
            e = np.diagonal(band, -1)
            return _Bidiagonal(diagonal_on_top, False, e.astype(np.complex128))
        if not _outside_band(band, 0, 1):
            e = np.diagonal(band, 1)[::-1]
            return _Bidiagonal(diagonal_on_top, True, e.astype(np.complex128))
    return None


def _reduced(
    form: _Bidiagonal, top: np.ndarray, bottom: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rho, f, k)``: a real upper-bidiagonal ``R`` with the singular values of each map.

    ``top[i]`` and ``bottom[i]`` are the diagonals of the blocks of map
    ``i``, whose off-diagonal is ``form.e``.  After a row permutation,
    and the reversal ``form.flip``, the map is ``[diag(a); L]``, ``L``
    lower bidiagonal with diagonal ``b`` and subdiagonal ``e``.  The
    graph that joins row ``r`` to column ``c`` where the entry is
    nonzero is a forest, so diagonal unitaries on both sides turn every
    entry into its modulus and the singular values are those of ``|d|``.
    Each map's moduli are scaled by ``2^-k[i]``, ``k[i]`` the exponent of
    its largest real or imaginary part, so no step below overflows, and
    ``R`` holds the singular values times ``2^-k[i]``.  Givens rotations
    on the rows give ``R`` (Golub & Kahan, 1965): from ``x_0 = b_0``,
    ``r_j = hypot(a_j, x_j)``, ``rho_j = hypot(r_j, e_j)``, ``R_jj =
    rho_j``, ``R_{j,j+1} = f_j = (e_j / rho_j) b_{j+1}`` and ``x_{j+1} =
    (r_j / rho_j) b_{j+1}``; where ``rho_j = 0``, ``f_j = 0`` and
    ``x_{j+1} = b_{j+1}``.  The N steps run on all maps at once.

    Backward error, against the ``4N u`` times the norm that the
    certified radius allots to each SVD (see :func:`_radius`): each
    modulus is one rounding from the exact one, and the scaling is exact
    but for parts ``2^-1022`` below the peak; every row takes part in at
    most three rotations, each a few ``u`` relative to the two rows it
    mixes (so a few ``u sqrt(N)`` times the norm in all); and the real
    SVD of the ``N x N`` triangle is about ``N u`` times the norm where
    the complex one of the ``2N x N`` map is about ``4N u``.
    """
    e = form.e.view(np.float64)
    peak = np.abs(e).max(initial=0.0)
    for d in (top, bottom):
        peak = np.maximum(peak, np.abs(d.view(np.float64)).max(axis=1, initial=0.0))
    k = np.frexp(peak)[1][:, None]
    top, bottom, e = (np.abs(np.ldexp(d, -k).view(np.complex128)).T for d in (
        top.view(np.float64), bottom.view(np.float64), e[None, :]
    ))
    a, b = (top, bottom) if form.diagonal_on_top else (bottom, top)
    if form.flip:
        a, b = a[::-1], b[::-1]
    n, m = b.shape
    rho, f = np.empty((n, m)), np.empty((n - 1, m))
    x = b[0]
    # where rho_j = 0, 0 / 0 is NaN, which fmax and fmin drop for 0 and 1
    with np.errstate(invalid="ignore"):
        for j in range(n - 1):
            r = np.hypot(a[j], x)
            np.hypot(r, e[j], out=rho[j])
            np.fmax(np.divide(e[j], rho[j], out=f[j]), 0.0, out=f[j])
            f[j] *= b[j + 1]
            x = np.fmin(np.divide(r, rho[j], out=r), 1.0, out=r)
            x *= b[j + 1]
    rho[n - 1] = np.hypot(a[n - 1], x)
    return rho.T, f.T, k


def _triangles(rho: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The real upper-bidiagonal ``N x N`` matrices with diagonals ``rho[i]`` and ``f[i]``."""
    m, n = rho.shape
    r = np.zeros((m, n * n))
    r[:, :: n + 1], r[:, 1 :: n + 1] = rho, f
    return r.reshape(m, n, n)


def _unscale(sv: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``sv * 2^k``, ``inf`` past the double range without a warning."""
    with np.errstate(over="ignore"):
        return np.ldexp(sv, k)


class _ScanMaps(NamedTuple):
    """How a pair's two maps are ranked; see :func:`_scan_maps`."""

    forms: tuple[_Bidiagonal | None, _Bidiagonal | None]
    chunks: tuple[np.ndarray, np.ndarray] | None
    size: int


def _scan_maps(pair: OperatorPair, points: int) -> _ScanMaps:
    """Each map's :func:`_bidiagonal` form, the chunk arrays, and the characters a chunk takes.

    ``d0`` is ``[y - qS; T - q x]`` and ``d1`` is ranked as ``d1^T = [T^T
    - x; S^T - y]``, so their forms come from the blocks ``qS``, ``T`` and
    ``T^T``, ``S^T``.  A map with no form is ranked as built, through the
    chunk arrays of :func:`_blocks` (``chunks``, ``None`` when both maps
    have a form), and then a chunk takes as many characters as those
    hold, at most ``points``.  Else a chunk takes as many characters as
    have ``_STACK_ENTRIES`` diagonal entries (4N a character).
    """
    n = pair.n
    forms = (_bidiagonal(_q_s(pair), pair.t), _bidiagonal(pair.t.T, pair.s.T))
    if forms[0] is not None and forms[1] is not None:
        return _ScanMaps(forms, None, max(1, _STACK_ENTRIES // (4 * n)))
    size = min(max(1, _STACK_ENTRIES // (2 * n * n)), points)
    return _ScanMaps(forms, _blocks(pair, size), size)


def _chunk_sv(
    pair: OperatorPair,
    gx: np.ndarray,
    gy: np.ndarray,
    want: np.ndarray,
    maps: _ScanMaps,
    errors: list[str],
):
    """Yield ``(k, rows, sv)``: the singular values of map ``k`` at the characters ``rows``.

    Every character ``(gx[i], gy[i])`` has a complex, and ``want[i, k]``
    says whether map ``k`` (0 for ``d0``, 1 for ``d1``) is wanted there.
    A map with a :func:`_bidiagonal` form is reduced to triangles by one
    :func:`_reduced`, which go to LAPACK as many at a time as hold
    ``_STACK_ENTRIES`` entries.  Any other is written into the leading
    rows of the chunk arrays (:func:`_write_diagonals`) and takes one
    stacked SVD, on those rows themselves when every character wants it,
    else on the rows that do.  If LAPACK fails on a stack, its matrices
    take one SVD each (:func:`_stacked_sv`); a character whose SVD fails
    again is left out of ``rows``, with its LAPACK error in ``errors``.
    """
    diags = _diagonals(pair, gx, gy)
    if maps.chunks is not None:
        _write_diagonals(pair, diags, *maps.chunks)
    m = gx.size
    for k, form in enumerate(maps.forms):
        rows = np.flatnonzero(want[:, k])
        if not rows.size:
            continue
        if form is None:
            built = maps.chunks[k][:m]
            kept, sv = _stacked_sv(built if rows.size == m else built[rows], rows, errors)
            yield k, rows[kept], sv
            continue
        rho, f, scale = _reduced(form, diags[2 * k][rows], diags[2 * k + 1][rows])
        step = max(1, _STACK_ENTRIES // pair.n**2)
        for start in range(0, rows.size, step):
            part = slice(start, start + step)
            kept, sv = _stacked_sv(_triangles(rho[part], f[part]), rows[part], errors)
            yield k, rows[part][kept], _unscale(sv, scale[part][kept])


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
    construction, whatever the ranks.  Both maps are ranked from
    ``comp.pair`` at ``comp.gamma`` by the step a scan ranks with
    (:func:`_chunk_sv`); an SVD that fails raises LAPACK's ``LinAlgError``.
    """
    gx, gy = comp.gamma
    if gx != 0 and gy != 0:
        raise PreconditionError(
            f"gamma = ({gx}, {gy}) is off both axes; the composite does not "
            "vanish there and homology is undefined"
        )
    _check_rank_tol(rank_tol)
    errors = [""]
    svs = [sv for _, _, sv in _chunk_sv(
        comp.pair, np.asarray([gx]), np.asarray([gy]), np.ones((1, 2), dtype=bool),
        _scan_maps(comp.pair, 1), errors,
    )]
    if errors[0]:
        raise np.linalg.LinAlgError(errors[0])
    (r0, r1), stable = _ranks(np.concatenate(svs), rank_tol)
    h0, h2 = comp.n - int(r0), comp.n - int(r1)
    return Homology(h0, h0 + h2, h2, bool(stable.all()))


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
        # parts assigned, not r + 1j * i, which turns an infinite part into NaN parts
        nodes = np.empty((res.size, ims.size), dtype=np.complex128)
        nodes.real, nodes.imag = res[:, None], ims
        return nodes.ravel().tolist()


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


def _radius(sv: np.ndarray, rank: np.ndarray, rank_tol: float, slack: np.ndarray) -> np.ndarray:
    """How far each matrix of a stack may move and keep its rank and stability.

    ``sv`` holds the singular values of each matrix, largest first, and
    ``rank`` is what :func:`_ranks` read from them.  By Weyl's inequality
    a perturbation ``E`` moves every singular value, and so the threshold
    ``rank_tol * s_0``, by at most ``||E||_2``.  The counted ``s_{r-1}``
    stays at or above ten thresholds while ``||E||_2 <= (s_{r-1} - 10
    rank_tol s_0) / (1 + 10 rank_tol)``, and the dropped ``s_r`` at or
    below a tenth of one while ``||E||_2 <= (rank_tol s_0 / 10 - s_r) / (1 +
    rank_tol / 10)``; a term whose index does not exist is dropped.  The
    radius is the smaller term less ``slack``, or 0 where that is not
    positive.  An unstable matrix has a singular value within 10x of the
    threshold, which makes one term negative, and a zero matrix has a
    zero term, so both get 0.

    A scan passes ``slack = _SLACK N u (s_0 + (1 + |q|) scale)``, ``u``
    the unit roundoff and ``scale = ||T||_2 + ||S||_2 + |gx| + |gy|``, so
    that ``(1 + |q|) scale`` bounds the norm of both maps.  It covers the
    backward error of the ranked SVD and of the SVD a nearby character
    would take, each about ``2N u`` times the norm on the ``2N`` rows of
    the tall orientation and doubled for complex arithmetic (the moduli,
    rotations and real SVD of the bidiagonal route stay inside it, see
    :func:`_reduced`), and the rounding of the written diagonals.  A map
    that drops a singular value keeps its rank only within ``rank_tol s_0
    / 10`` (about ``1e-11 s_0`` at the default), less than any coarser
    grid step, so its radius certifies no neighbour; so too a map whose
    counted ``s_{r-1}`` sits within a grid step of ten thresholds.  A scan
    decides such a map at every node, by counts where it has a
    :func:`_bidiagonal` form (:func:`_count_points`) and by an SVD where
    it has none or where the counts do not settle it.
    """
    rows, k = np.arange(sv.shape[0]), sv.shape[1]
    s0 = sv[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        counted = np.where(
            rank > 0, (sv[rows, rank - 1] - 10.0 * rank_tol * s0) / (1.0 + 10.0 * rank_tol), np.inf
        )
        dropped = np.where(
            rank < k,
            (rank_tol * s0 / 10.0 - sv[rows, np.minimum(rank, k - 1)]) / (1.0 + rank_tol / 10.0),
            np.inf,
        )
        rho = np.minimum(counted, dropped) - slack
    return np.where(rho > 0, rho, 0.0)


def _count_points(
    rho: np.ndarray, f: np.ndarray, k: np.ndarray, norms: np.ndarray, rank_tol: float
) -> np.ndarray:
    """Where to count the singular values of each triangle to decide its map without an SVD.

    ``rho[i]``, ``f[i]`` and ``k[i]`` are a map's :func:`_reduced`
    triangle ``R`` and scale, and ``norms[i]`` bounds the map's norm.
    Returns ``(A_c (1 - eta), B_c (1 + eta))`` for ``c = 1/10, 1, 10``,
    six points a row, or NaN where no count decides.  A singular value
    counted outside ``[A_c (1 - eta), B_c (1 + eta)]`` falls on the same
    side of the threshold ``c rank_tol s_0`` in :func:`_ranks` as the SVD
    of ``R`` would put it, the SVD that :func:`homology_dims` takes.

    In the scale of ``R``, the ``2^-k`` of :func:`_reduced`:

    * ``s_0`` is bracketed without an SVD: ``lo``, the largest row or
      column 2-norm of ``R``, is at most ``s_0``, and ``hi =
      sqrt(||R||_1 ||R||_inf)`` at least; ``hi <= sqrt(2) lo``.
    * The slack ``E = _SLACK N u (hi + 2^-k norms)`` is that of
      :func:`_radius` with ``s_0`` raised to ``hi``.  It covers the
      backward error of the SVD of ``R``, and that of :func:`_reduced`,
      so every singular value the SVD returns is within ``E`` of an exact
      one.  ``2^(-1070 - k)`` is added to ``E`` for the subnormal step of the
      unscaled values and thresholds that :func:`_ranks` compares.
    * ``eta = _SLACK N u`` covers relatively the roundings of ``lo``,
      ``hi`` and the thresholds, and the count: the count of
      :func:`_sturm_counts` is exact for a bidiagonal within a few ``u``
      of ``R`` entry by entry, whose singular values are within ``(2N -
      1)`` times that of ``R``'s (Demmel & Kahan, 1990).
    * So the SVD's ``s_0`` lies in ``[lo (1 - eta) - E, hi (1 + eta) +
      E]``, its threshold in ``[c rank_tol (lo (1 - eta) - E) (1 - eta)
      - E, c rank_tol (hi (1 + eta) + E) (1 + eta) + E]``, and only a
      singular value within ``E`` of that, in ``[A_c, B_c]``, can fall on
      either side of it; counted, that is ``[A_c (1 - eta), B_c (1 +
      eta)]``.

    A row whose unscaled ``s_0`` or largest threshold may leave the double
    range, where :func:`_ranks` compares ``inf``, is NaN.
    """
    m, n = rho.shape
    k = k.reshape(m)
    eta = _SLACK * n * _UNIT_ROUNDOFF
    in_row, in_col = np.zeros((m, n)), np.zeros((m, n))  # f_i in row i, f_{j-1} in column j
    in_row[:, :-1], in_col[:, 1:] = f, f
    lo = np.maximum(np.hypot(rho, in_row).max(axis=1), np.hypot(rho, in_col).max(axis=1))
    hi = np.sqrt((rho + in_col).max(axis=1) * (rho + in_row).max(axis=1))
    c = rank_tol * np.array([0.1, 1.0, 10.0])
    with np.errstate(all="ignore"):
        slack = eta * (hi + np.ldexp(norms, -k)) + np.ldexp(1.0, -1070 - k)
        s_lo, s_hi = lo * (1 - eta) - slack, hi * (1 + eta) + slack
        a = (c * (s_lo * (1 - eta))[:, None] - 2 * slack[:, None]) * (1 - eta)
        b = (c * (s_hi * (1 + eta))[:, None] + 2 * slack[:, None]) * (1 + eta)
        top = np.ldexp(np.maximum(s_hi, b[:, 2]), k)
    points = np.stack([a, b], axis=2).reshape(m, 6)
    points[~np.isfinite(top)] = np.nan
    return points


def _sturm_counts(rho: np.ndarray, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``counts[i, j]``: how many singular values of triangle ``i`` lie below ``x[i, j]``.

    The triangle is upper bidiagonal with diagonal ``rho[i]`` and
    superdiagonal ``f[i]``; its Golub-Kahan matrix, tridiagonal with zero
    diagonal and off-diagonal ``rho_0, f_0, rho_1, ..., rho_{N-1}``, has
    the eigenvalues ``+-s_j``.  The ``2N`` pivots of its ``LDL^T`` less
    ``x`` run over all points at once, and ``N`` less than their negatives
    counts the ``s_j < x`` (Sturm; Demmel & Kahan, 1990).  A point at or
    below 0 counts nothing.  A pivot that is exactly 0 is taken as
    ``+0``, which IEEE division turns into an infinite next pivot, and a
    0 / 0 on the way leaves NaN to the last pivot: that count is -1, as
    is the count at a NaN point.
    """
    m, n = rho.shape
    b2 = np.empty((2 * n - 1, m))
    np.square(rho.T, out=b2[0::2])
    np.square(f.T, out=b2[1::2])
    x = x.T
    with np.errstate(all="ignore"):
        shift = -np.where(x > 0, x, 1.0)
        d = shift.copy()
        ratio = np.empty_like(d)
        negative = np.ones(d.shape, dtype=np.int32)
        below = np.empty(d.shape, dtype=bool)
        for b in b2:
            np.divide(b, d, out=ratio)
            np.subtract(shift, ratio, out=d)
            negative += np.less(d, 0.0, out=below)
    counts = np.where(x > 0, negative - n, 0)
    counts[np.isnan(d) | np.isnan(x)] = -1
    return counts.T


def _decide_by_counts(
    rho: np.ndarray, f: np.ndarray, k: np.ndarray, norms: np.ndarray, rank_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rank and stability that :func:`_ranks` would read off each triangle's SVD, or rank -1.

    The counts below the :func:`_count_points` ``A_c (1 - eta)`` and
    ``B_c (1 + eta)`` decide the rank where none lies between the pair
    for ``c = 1``: then it is ``N`` less the count below that pair.  The
    map is stable where no singular value lies between ``A_{1/10}`` and
    ``B_10``, and unstable where one lies between ``B_{1/10}`` and
    ``A_10``, so within 10x of every threshold in the bracket.  A
    triangle that is not decided both ways gets rank -1 and is not
    stable.
    """
    counts = _sturm_counts(rho, f, _count_points(rho, f, k, norms, rank_tol))
    lo_10th, hi_10th, lo_1, hi_1, lo_10, hi_10 = counts.T
    stable = hi_10 == lo_10th
    decided = (counts >= 0).all(axis=1) & (hi_1 == lo_1) & (stable | (lo_10 > hi_10th))
    return np.where(decided, rho.shape[1] - hi_1, -1), stable & decided


def _map_norms(pair: OperatorPair, gx: np.ndarray, gy: np.ndarray, pair_scale: float) -> np.ndarray:
    """``(1 + |q|) scale``, a bound on the norm of both maps at each character; see :func:`_radius`."""
    with np.errstate(over="ignore"):
        return (1.0 + abs(pair.q)) * (pair_scale + np.abs(gx) + np.abs(gy))


def _counted_ranks(
    pair: OperatorPair,
    axis: Literal["x", "y"],
    g: np.ndarray,
    k: int,
    form: _Bidiagonal,
    pair_scale: float,
    rank_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank and stability of map ``k`` at the axis characters ``g`` by counts, rank -1 undecided.

    Map ``k`` has the :func:`_bidiagonal` form ``form``; its triangles
    are counted by :func:`_decide_by_counts`.  A chunk takes as many
    characters as 512 KiB holds at ``2N + 6`` reals a character: the
    ``2N - 1`` squared entries of a triangle and its six points (the
    pivots and counts take a few more rows of six).
    """
    rank = np.empty(g.size, dtype=np.int32)
    stable = np.empty(g.size, dtype=bool)
    step = max(1, 2 * _STACK_ENTRIES // (2 * pair.n + 6))
    for start in range(0, g.size, step):
        at = slice(start, start + step)
        gx, gy = _on_axis(axis, g[at])
        rho, f, scale = _reduced(form, *_map_diagonals(pair, k, gx, gy))
        rank[at], stable[at] = _decide_by_counts(
            rho, f, scale, _map_norms(pair, gx, gy, pair_scale), rank_tol
        )
    return rank, stable


def _on_axis(axis: Literal["x", "y"], g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(gx, gy)`` of the characters with coordinate ``g`` on ``axis``."""
    zero = np.zeros_like(g)
    return (g, zero) if axis == "x" else (zero, g)


def _certified_ranks(
    pair: OperatorPair,
    axis: Literal["x", "y"],
    g: np.ndarray,
    maps: _ScanMaps,
    pair_scale: float,
    rank_tol: float,
) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Rank and stability of ``d0`` and ``d1`` at axis characters that all have a complex.

    ``g`` holds the characters' coordinate on ``axis``.  Returns ``(m, 2)``
    arrays and the LAPACK errors by index.  Each map is ranked coarse to
    fine over the given order: first the two end characters; then, level
    by level, a character within the radius (:func:`_radius`) of its
    nearest ranked neighbour on either side takes that neighbour's rank
    and stability, and in every gap that still holds an undecided
    character its middle undecided one is ranked, by :func:`_chunk_sv`
    on ``maps.size`` characters at a time.  Between two characters on one
    axis only the diagonals differ: ``d0`` moves by ``|q| |dg|`` on the
    x-axis and ``|dg|`` on the y-axis, and ``d1`` by ``|dg|``, in the
    spectral norm.  A map with a :func:`_bidiagonal` form takes no
    middles: after the end characters every character it leaves
    undecided goes through one pass of counts (:func:`_counted_ranks`),
    and those the counts do not decide are ranked at the next level.
    """
    m = g.size
    rank = np.full((m, 2), -1, dtype=np.int32)
    stable = np.zeros((m, 2), dtype=bool)
    radius = np.zeros((m, 2))
    failed: dict[int, str] = {}
    if not m:
        return rank, stable, failed
    weights = (abs(pair.q), 1.0) if axis == "x" else (1.0, 1.0)
    ranked = np.zeros((m, 2), dtype=bool)
    wanted = np.zeros((m, 2), dtype=bool)  # the maps this level ranks
    wanted[[0, m - 1]] = True
    while wanted.any():
        rank[wanted] = 0  # a map whose SVD fails again keeps rank 0 and radius 0
        level = np.flatnonzero(wanted.any(axis=1))
        for start in range(0, level.size, maps.size):
            at = level[start : start + maps.size]
            gx, gy = _on_axis(axis, g[at])
            norms = _map_norms(pair, gx, gy, pair_scale)
            errors = [""] * at.size
            for k, rows, sv in _chunk_sv(pair, gx, gy, wanted[at], maps, errors):
                i = at[rows]
                rank[i, k], stable[i, k] = _ranks(sv, rank_tol)
                with np.errstate(over="ignore"):
                    slack = _SLACK * pair.n * _UNIT_ROUNDOFF * (sv[:, 0] + norms[rows])
                radius[i, k] = _radius(sv, rank[i, k], rank_tol, slack)
            failed.update((int(i), e) for i, e in zip(at, errors) if e)
        ranked |= wanted
        wanted[:] = False
        for k, form in enumerate(maps.forms):
            middles = _undecided_middles(
                rank[:, k], stable[:, k], radius[:, k], np.flatnonzero(ranked[:, k]), g, weights[k]
            )
            if form is None or not middles.size:
                wanted[middles, k] = True
                continue
            left = np.flatnonzero(rank[:, k] < 0)
            rank[left, k], stable[left, k] = _counted_ranks(
                pair, axis, g[left], k, form, pair_scale, rank_tol
            )
            wanted[left[rank[left, k] < 0], k] = True
    return rank, stable, failed


def _undecided_middles(
    rank: np.ndarray,
    stable: np.ndarray,
    radius: np.ndarray,
    ranked: np.ndarray,
    g: np.ndarray,
    weight: float,
) -> np.ndarray:
    """Certify one map where a nearest ranked neighbour covers; return the gaps' middles.

    ``ranked`` lists the ranked indices in order, the two ends among them.
    An undecided index (``rank < 0``) closer than its left, else its
    right, ranked neighbour's radius, at distance ``weight * |dg|``, takes
    that neighbour's rank and stability, in place.  Returns, for every gap
    between ranked neighbours that still holds an undecided index, the
    middle one of those.
    """
    undecided = np.flatnonzero(rank < 0)
    gap = np.searchsorted(ranked, undecided)
    left, right = ranked[gap - 1], ranked[gap]
    # a difference past the double range is an infinite distance
    with np.errstate(over="ignore", invalid="ignore"):
        by_left = weight * np.abs(g[undecided] - g[left]) < radius[left]
        by_right = weight * np.abs(g[undecided] - g[right]) < radius[right]
    hit = by_left | by_right
    near = np.where(by_left, left, right)[hit]
    rank[undecided[hit]], stable[undecided[hit]] = rank[near], stable[near]
    undecided, gap = undecided[~hit], gap[~hit]
    if not undecided.size:
        return undecided
    first = np.flatnonzero(np.diff(gap, prepend=-1))
    last = np.append(first[1:], undecided.size) - 1
    return undecided[(first + last) // 2]


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
    a grid point that is not finite, or whose bound's scale
    ``||T|| + ||S|| + |gamma|`` is not, is an error row.  A ``rank_tol``
    that is not positive concerns every point, so it raises before any
    is built.

    The pair's composite defect ``||ST - qTS||_F`` and
    ``||T||_2 + ||S||_2`` are computed once per scan; each character
    checks the defect against its own bound as a scalar.  The characters
    that have a complex are then ranked map by map, coarse to fine over
    the grid order (:func:`_certified_ranks`), and not every one takes
    an SVD: a character within the certified radius (:func:`_radius`) of
    a ranked neighbour takes that neighbour's rank and stability, which
    its own SVD would give.  A map in the bidiagonal class is decided at
    the other characters by counts of its singular values below six
    points (:func:`_count_points`), which give what its own SVD would
    give wherever they decide, and an SVD ranks the rest.  So the rows
    equal those of :func:`build` and :func:`homology_dims` point by
    point.

    The grid is taken 2^15 points at a time, each block with its own two
    ends, so the per-point arrays stay a few MiB however large the grid.
    The maps of a level's characters are ranked by :func:`_chunk_sv`, by
    the route the pair's zeros choose (:func:`_scan_maps`): a map in the
    bidiagonal class, such as either map of the model pair, through real
    ``N x N`` triangles in stacks of 2^15 entries, and any other in
    chunks of as many characters as fit in 2^15 complex entries, through
    one pair of chunk arrays that gets the constant blocks of the maps
    once and has only its diagonals rewritten.  When LAPACK fails on a
    stack its matrices are ranked one SVD at a time, and a row that
    fails again holds the LAPACK error.
    """
    if axis not in ("x", "y"):
        raise PreconditionError(f"axis must be 'x' or 'y', got {axis!r}")
    _check_rank_tol(rank_tol)
    points = grid.points()
    pair_defect, pair_scale = _pair_defect(pair), _pair_scale(pair)
    maps = _scan_maps(pair, len(points))
    rows: list[ScanRow] = []
    for start in range(0, len(points), _SCAN_BLOCK):
        block = points[start : start + _SCAN_BLOCK]
        for g_j, (h0, h2), st, e in zip(block, *_block_homology(
            pair, axis, block, maps, pair_defect, pair_scale, rank_tol
        )):
            if e:
                rows.append(ScanRow(g_j.real, g_j.imag, axis, -1, -1, -1, False, False, e))
            else:
                rows.append(ScanRow(
                    g_j.real, g_j.imag, axis, h0, h0 + h2, h2, _member(h0, h0 + h2, h2), st
                ))
    return rows


def _block_homology(
    pair: OperatorPair,
    axis: Literal["x", "y"],
    points: list[complex],
    maps: _ScanMaps,
    pair_defect: float,
    pair_scale: float,
    rank_tol: float,
) -> tuple[list[list[int]], list[bool], list[str]]:
    """``(h0, h2)``, stability and error of each point of one block of a scan.

    Where ``errors[i]`` is set, ``h[i]`` is ``[-1, -1]``.  The errors are
    found for a quarter of ``_STACK_ENTRIES`` diagonal entries at a time
    (4N a point), so that pass holds no more than a chunk of the ranking,
    and the points that have a complex are ranked by
    :func:`_certified_ranks` as ``maps`` says.
    """
    g = np.asarray(points, dtype=np.complex128).reshape(-1)
    errors: list[str] = []
    step = max(1, _STACK_ENTRIES // (16 * pair.n))
    for start in range(0, g.size, step):
        gx, gy = _on_axis(axis, g[start : start + step])
        errors += _errors(pair, gx, gy, _diagonals(pair, gx, gy), pair_defect, pair_scale)
    ok = np.flatnonzero([not e for e in errors])
    rank, stable, failed = _certified_ranks(
        pair, axis, g if ok.size == g.size else g[ok], maps, pair_scale, rank_tol
    )
    for i, e in failed.items():
        errors[ok[i]] = e
    h = np.full((g.size, 2), -1, dtype=rank.dtype)
    h[ok] = pair.n - rank
    fine = np.zeros(g.size, dtype=bool)
    fine[ok] = stable.all(axis=1)
    return h.tolist(), fine.tolist(), errors
