"""Finite matrix models of the q-commuting plane and their calculus.

The reference pair truncates the weighted-shift model: ``T`` shifts the
basis down one slot (the last vector maps to zero, which keeps the
commutation relation exact) and ``S`` is diagonal with entries ``q^n``.
On top of it live the two-variable holomorphic calculus
``f |-> sum_n f_n(T) S^n``, the polynomial bridge from
:class:`~qplane.qalgebra.QSeries`, the spectral mapping check of the
truncation and the resolvent/decay identity checks.  Everything here
describes the N x N matrices it computes with, not the untruncated
model on l^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import NonConvergenceError, PreconditionError
from .holo import HoloSeries, _eval_columns, _powers

# calc_qseries reads only ``f.q`` and ``f.coeffs``, so the operator layer
# stands on holo alone and loads no series algebra.
if TYPE_CHECKING:
    from .qalgebra import QSeries

__all__ = [
    "OperatorPair",
    "QFunctionRep",
    "model_pair",
    "calc",
    "calc_qseries",
    "eigenvalues",
    "pair_eigenvalues",
    "SpectralMappingReport",
    "spectral_mapping_check",
    "resolvent_twist_residual",
    "DecayCheckRow",
    "radical_decay_check",
]

# Relative Frobenius tolerance for accepting a pair as q-commuting.
PAIR_RESIDUAL_TOL = 1e-12


def _as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise PreconditionError("matrix entries must be finite")
    return arr.copy()


def _unit(m: np.ndarray) -> tuple[np.ndarray, float]:
    """``(m / ||m||_F, ||m||_F)``; ``(m, 0.0)`` for a zero matrix.

    The norm is taken of ``m`` divided by its largest real or imaginary
    part, so no step overflows; the returned norm is ``inf`` only when
    ``||m||_F`` itself lies past the double range.  numpy divides a
    complex array by ``peak`` as a product with ``1/peak``, which
    overflows for a subnormal ``peak``; such an ``m`` is first scaled by
    the exact power of two ``2^600``.
    """
    peak = float(np.max(np.abs(m.view(np.float64)), initial=0.0))
    if peak == 0:
        return m, 0.0
    if peak < sys.float_info.min:
        unit, norm = _unit(m * 2.0**600)
        return unit, norm * 2.0**-600
    m = m / peak
    norm = float(np.linalg.norm(m))
    return m / norm, peak * norm


@dataclass(frozen=True)
class OperatorPair:
    """A pair of N x N matrices with ``T S = (1/q) S T``.

    The relation is homogeneous in ``T`` and ``S``, so it is verified at
    construction on ``T/||T||_F`` and ``S/||S||_F``, whose products stay
    in the double range whatever the size of the entries: that relative
    residual must be finite and at most ``1e-12``.  The relation holds
    exactly for :func:`model_pair`.
    """

    t: np.ndarray
    s: np.ndarray
    q: complex
    _residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.q == 0:
            raise PreconditionError("q must be nonzero")
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "t", _as_matrix(self.t))
        object.__setattr__(self, "s", _as_matrix(self.s))
        if self.t.shape != self.s.shape:
            raise PreconditionError(
                f"dimension mismatch: {self.t.shape} vs {self.s.shape}"
            )
        (t, norm_t), (s, norm_s) = _unit(self.t), _unit(self.s)
        # ||TS - ST/q|| = ||ST - qTS|| / |q|; the second form has no 1/q
        # to overflow, and a product past the double range is refused
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = float(np.linalg.norm(s @ t - self.q * (t @ s))) / abs(self.q)
        if not math.isfinite(scaled):
            raise PreconditionError(
                f"pair is not q-commuting: relative residual {scaled} is not finite"
            )
        if scaled > PAIR_RESIDUAL_TOL:
            raise PreconditionError(
                f"pair is not q-commuting: relative residual {scaled:.3e} "
                f"exceeds {PAIR_RESIDUAL_TOL:.0e}"
            )
        residual = norm_t * norm_s * scaled if scaled else 0.0
        object.__setattr__(self, "_residual", residual)

    @property
    def n(self) -> int:
        return self.t.shape[0]

    def residual(self) -> float:
        """``||T S - (1/q) S T||_F``, from the check at construction.

        ``inf`` only when the residual itself lies past the double range.
        """
        return self._residual


def model_pair(q: complex, n: int) -> OperatorPair:
    """Truncated shift/diagonal model on basis vectors ``e_0..e_{n-1}``.

    ``T e_m = e_{m+1}`` (and ``T e_{n-1} = 0``: the truncation drops the
    overflow instead of wrapping, so the relation stays exact), while
    ``S e_m = q^m e_m``.
    """
    if n < 1:
        raise PreconditionError(f"dimension must be >= 1, got {n}")
    t = np.zeros((n, n), dtype=np.complex128)
    for m in range(n - 1):
        t[m + 1, m] = 1.0
    # q = 0 and a q^m past the double range are left to OperatorPair to reject
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.diag(_powers(complex(q), n))
    return OperatorPair(t, s, complex(q))


# ---------------------------------------------------------------------------
# two-variable function representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QFunctionRep:
    """A function ``sum_n f_n(x) y^n`` with a declared polydisk domain.

    ``f_list[n]`` is the one-variable coefficient series ``f_n``;
    ``r_x``/``r_y`` are the radii the series is claimed to live on,
    which the calculus checks against the spectra of the pair.
    """

    q: complex
    f_list: tuple[HoloSeries, ...]
    r_x: float
    r_y: float

    def __post_init__(self):
        if self.q == 0:
            raise PreconditionError("q must be nonzero")
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "f_list", tuple(self.f_list))
        if not self.f_list:
            raise PreconditionError("need at least the n = 0 coefficient series")
        if not (self.r_x > 0 and self.r_y > 0):
            raise PreconditionError(
                f"domain radii must be positive, got ({self.r_x}, {self.r_y})"
            )


# ---------------------------------------------------------------------------
# the calculus
# ---------------------------------------------------------------------------


def spectral_radius(m: np.ndarray) -> float:
    """``max |lambda|`` over the spectrum of ``m``; 0.0 for an empty matrix.

    A triangular ``m``, read off exact zeros, has its diagonal for
    spectrum, so the radius is ``max |m_ii|`` with no eigenvalue
    iteration; any other ``m`` takes :func:`eigenvalues`.
    """
    m = _as_matrix(m)
    if not np.triu(m, 1).any() or not np.tril(m, -1).any():
        return float(np.max(np.abs(np.diagonal(m)), initial=0.0))
    return float(np.max(np.abs(eigenvalues(m))))


def calc(f: QFunctionRep, pair: OperatorPair) -> np.ndarray:
    """Evaluate ``sum_n f_n(T) S^n`` on the pair.

    The domain condition is checked on every call: the (numerical,
    truncation-level) spectra must sit strictly inside the declared
    radii, ``sr(T) < r_x`` and ``sr(S) < r_y``, else
    :class:`~qplane.errors.PreconditionError`.  The truncated shift is
    nilpotent, so these spectra can lie far inside those of the
    untruncated model, and passing this check says nothing about it.

    Evaluation order: right Horner in ``S`` over the coefficient
    functions, ``acc = acc @ S + f_n(T)`` from the top ``n`` down, by
    one of two routes (``holo._eval_columns``), chosen by the exact zeros
    of the pair alone:

    - when ``T`` and ``S`` both hold at most one nonzero in every row and
      every column, as the model pair's shift and diagonal do, row ``r``
      of ``T^j`` is one weight at one column, so each ``f_n(T)`` is put
      cell by cell from ``T``'s orbits, and ``acc @ S`` is a gather and
      scale of columns;
    - any other pair, or one whose orbit weights leave the double range,
      is multiplied dense, block of rows by block of rows.  Each block
      forms its rows of ``T^0 .. T^(p-1)`` once and gets its rows of
      every ``f_n(T)`` from one product with the coefficient table, plus
      Horner in ``T^p`` for degrees ``>= p``; ``p`` minimises the matrix
      products, so a table of many columns stores every power.

    A result with an entry that is not finite, as where powers of ``T``
    pass the double range, is a :class:`~qplane.errors.PreconditionError`.
    """
    if f.q != pair.q:
        raise PreconditionError(f"q mismatch: function {f.q} vs pair {pair.q}")
    sr_t = spectral_radius(pair.t)
    if not sr_t < f.r_x:
        raise PreconditionError(
            f"spectrum outside domain: r_x = {f.r_x} but spectral radius of T is {sr_t}"
        )
    sr_s = spectral_radius(pair.s)
    if not sr_s < f.r_y:
        raise PreconditionError(
            f"spectrum outside domain: r_y = {f.r_y} but spectral radius of S is {sr_s}"
        )
    width = max(fn.coeffs.size for fn in f.f_list)
    cols = np.zeros((len(f.f_list), width), dtype=np.complex128)
    for m, fn in enumerate(f.f_list):
        cols[m, : fn.coeffs.size] = fn.coeffs
    return _eval_columns(cols, pair.t, pair.s)


def calc_qseries(f: QSeries, pair: OperatorPair) -> np.ndarray:
    """Evaluate a polynomial table: ``sum_ik a_ik T^i S^k``.

    This is the representation ``x -> T``, ``y -> S``; because the pair
    satisfies the same rewriting rule as the plane, it is an algebra
    homomorphism on tables (products map to products).  The evaluator
    is that of :func:`calc`, column ``k`` of the table being the
    coefficient function of ``S^k``, and so is the
    :class:`~qplane.errors.PreconditionError` on a result that is not
    finite.
    """
    if f.q != pair.q:
        raise PreconditionError(f"q mismatch: series {f.q} vs pair {pair.q}")
    return _eval_columns(f.coeffs.T, pair.t, pair.s)


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Numerical spectrum of a dense matrix.

    Delegates to LAPACK (balancing, Hessenberg reduction, shifted QR),
    which is backward stable; a failed QR sweep surfaces as
    :class:`~qplane.errors.NonConvergenceError`.
    """
    m = _as_matrix(m)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def pair_eigenvalues(
    actual: Sequence[complex], predicted: Sequence[complex]
) -> tuple[np.ndarray, np.ndarray]:
    """Match two eigenvalue multisets and report the pair distances.

    Multisets of nearly coincident eigenvalues make naive index pairing
    meaningless, so this solves the assignment problem exactly (SciPy's
    ``linear_sum_assignment``) at every size.  Returns
    ``(perm, distances)`` where ``predicted[perm[i]]`` is the partner of
    ``actual[i]``.

    The solver is skipped when the answer is certified without it: group
    ``predicted`` into classes of equal values; if every actual value's
    nearest class is strictly nearer than all others and no class is
    nearest to more values than it holds, each row takes its own column
    of its nearest class.  That reaches the sum of the row minima, a
    lower bound for every assignment, and every optimal assignment gives
    each row the same partner value and distance.
    """
    a = np.asarray(actual, dtype=np.complex128)
    p = np.asarray(predicted, dtype=np.complex128)
    if a.size != p.size:
        raise PreconditionError(f"multiset size mismatch: {a.size} vs {p.size}")
    if a.size == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    values, cls, counts = np.unique(p, return_inverse=True, return_counts=True)
    gap = np.abs(a[:, None] - values[None, :])
    nearest = np.argmin(gap, axis=1)
    second = np.partition(gap, 1, axis=1)[:, 1] if values.size > 1 else np.inf
    strict = gap[np.arange(a.size), nearest] < second
    if strict.all() and np.all(np.bincount(nearest, minlength=values.size) <= counts):
        # The r-th row nearest to a class takes the class's r-th column.
        rows = np.argsort(nearest, kind="stable")
        rank = np.empty(a.size, dtype=np.intp)
        rank[rows] = np.arange(a.size) - np.searchsorted(nearest[rows], nearest[rows])
        columns = np.argsort(cls, kind="stable")
        perm = columns[np.searchsorted(cls[columns], nearest) + rank]
        return perm, np.abs(a - p[perm])
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - p[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cols, cost[rows, cols]


@dataclass(frozen=True)
class SpectralMappingReport:
    eigenvalues: tuple[complex, ...]
    predicted: tuple[complex, ...]
    distances: tuple[float, ...]
    max_distance: float


def spectral_mapping_check(f: QFunctionRep, pair: OperatorPair) -> SpectralMappingReport:
    """Compare the spectrum of ``f(T, S)`` with its predicted image.

    The prediction is the multiset of character values ``f(0, q^m)``,
    ``m < N``, from the constants ``f_n(0)`` of the coefficient series,
    at the points ``q^m`` of :func:`model_pair`'s ``S`` (a point past the
    double range is a :class:`PreconditionError`); the report pairs it
    optimally against the computed eigenvalues.

    That multiset is the spectrum of ``f(T, S)`` only for
    :func:`model_pair` and its conjugates, where ``f(T, S)`` is (similar
    to) a lower-triangular matrix with diagonal ``f(0, q^m)``.  It is
    predicted whatever the pair, so for any other pair the distances say
    nothing about spectral mapping.  On ``T = 0``, ``S = diag(0.2, 0.3)``,
    ``q = 1/2`` with ``f = y``, the eigenvalues 0.2, 0.3 are paired with
    the predictions 0.5, 1 and ``max_distance`` is 0.7, though spectral
    mapping holds exactly there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        points = _powers(pair.q, pair.n)
    if not np.isfinite(points).all():
        raise PreconditionError(f"q^m overflows for some m < {pair.n} at |q| = {abs(pair.q):g}")
    ev = eigenvalues(calc(f, pair))
    constants = HoloSeries([fn.coeffs[0] for fn in f.f_list])
    predicted = np.asarray([constants(z) for z in points], dtype=np.complex128)
    perm, distances = pair_eigenvalues(ev, predicted)
    return SpectralMappingReport(
        tuple(map(complex, ev)),
        tuple(complex(predicted[j]) for j in perm),
        tuple(map(float, distances)),
        float(np.max(distances)) if distances.size else 0.0,
    )


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def _right_resolvent(a: np.ndarray, m: np.ndarray, lam: complex, power: int) -> np.ndarray:
    """Right-multiply ``a`` by ``(m - lam)^(-power)`` via sequential solves."""
    n = m.shape[0]
    shifted = m - lam * np.eye(n, dtype=np.complex128)
    out = a
    try:
        for _ in range(power):
            out = np.linalg.solve(shifted.T, out.T).T
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"singular resolvent at lambda = {lam}") from exc
    return out


def resolvent_twist_residual(
    pair: OperatorPair,
    i: int,
    k: int,
    m: int,
    lam: complex,
    relative: bool = False,
) -> float:
    """Residual of the twisted resolvent identity.

    Measures ``|| S^k T^i (T - lam)^(-m)
    - q^(ik) T^i (q^k T - lam)^(-m) S^k ||_F``.  For ``m = 0`` this
    degenerates to the plain reordering rule.  ``relative`` divides by
    the Frobenius norm of the left-hand side.  A power ``T^i``, ``S^k``,
    ``q^k`` or ``q^(ik)`` past the double range is a
    :class:`PreconditionError`.
    """
    if min(i, k, m) < 0:
        raise PreconditionError("exponents must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        powers = {
            "T^i": np.linalg.matrix_power(pair.t, i),
            "S^k": np.linalg.matrix_power(pair.s, k),
            "q^k": np.power(pair.q, k),
            "q^(ik)": np.power(pair.q, i * k),
        }
    for name, value in powers.items():
        if not np.isfinite(value).all():
            raise PreconditionError(f"{name} is past the double range at i = {i}, k = {k}")
    t_i, s_k, q_k, twist = powers.values()
    lhs = _right_resolvent(s_k @ t_i, pair.t, lam, m)
    rhs = twist * _right_resolvent(t_i, q_k * pair.t, lam, m) @ s_k
    res = float(np.linalg.norm(lhs - rhs))
    if relative:
        scale = float(np.linalg.norm(lhs))
        return res / scale if scale > 0 else res
    return res


@dataclass(frozen=True)
class DecayCheckRow:
    s: int
    root_norm: float
    ratio: float


def radical_decay_check(
    f: QFunctionRep, pair: OperatorPair, s_max: int
) -> list[DecayCheckRow]:
    """Power-decay profile of a mixed-term function of the pair.

    Requires ``f_0 = 0`` and ``f_n(0) = 0`` (every term carries both an
    x and a y factor); then ``A = f(T, S)`` should be quasinilpotent for
    ``|q| < 1``, with ``||A^s||^(1/s)`` dominated by a constant times
    ``|q|^((s-1)/2)``.  Each row reports the root norm (spectral norm)
    and its ratio against that envelope.
    """
    if s_max < 1:
        raise PreconditionError(f"s_max must be >= 1, got {s_max}")
    if f.f_list[0].max_degree >= 0:
        raise PreconditionError("mixed-term check needs f_0 = 0")
    for n, fn in enumerate(f.f_list):
        if n >= 1 and fn.coeffs[0] != 0:
            raise PreconditionError(
                f"mixed-term check needs f_n(0) = 0, violated at n = {n}"
            )
    a = calc(f, pair)
    aq = abs(pair.q)
    rows = []
    acc = a.copy()
    for s in range(1, s_max + 1):
        if s > 1:
            acc = acc @ a
        root = float(np.linalg.norm(acc, 2)) ** (1.0 / s)
        envelope = aq ** ((s - 1) / 2.0)
        rows.append(DecayCheckRow(s, root, root / envelope))
    return rows
