"""Truncated bivariate series on the q-commuting plane.

Everything is written in the ordered basis ``x^i y^k`` with
``0 <= i, k <= D``.  The single rewriting rule

    y^k x^i = q^(i*k) x^i y^k

drives the product, the power formula, the seminorms and the decay
estimates.  A table ``coeffs[i, k]`` holds the coefficient of
``x^i y^k``; the slice ``coeffs[:, k]`` is the one-variable series
multiplying ``y^k``, which ties this module to :mod:`qplane.holo`.

Two series compose only when they share ``q`` and the truncation
degree.  Products are truncated back to the common degree and flag
(rather than raise on) discarded nonzero mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _accel
from .errors import PreconditionError
from .holo import HoloSeries

__all__ = [
    "weight",
    "inner",
    "suffix_weights",
    "q_exponent",
    "normal_order",
    "QSeries",
    "qmul",
    "qmul_rowwise",
    "qmul_opposite",
    "qpow",
    "QPOW_FORMULA_CAP",
    "Decomposition",
    "decompose",
    "seminorm",
    "p_seminorm",
    "DecayProfile",
    "decay_profile",
    "twist",
    "spec_eval",
    "log_shifted",
]


# ---------------------------------------------------------------------------
# multi-index utilities
# ---------------------------------------------------------------------------


def weight(index: Sequence[int]) -> int:
    """Total weight ``|I| = sum(I)`` of a multi-index."""
    return int(sum(index))


def inner(left: Sequence[int], right: Sequence[int]) -> int:
    """Pairing ``<I, J> = sum_t i_t j_t`` (indices of equal length)."""
    if len(left) != len(right):
        raise PreconditionError(
            f"index length mismatch: {len(left)} vs {len(right)}"
        )
    return int(sum(i * j for i, j in zip(left, right)))


def suffix_weights(index: Sequence[int]) -> tuple[int, ...]:
    """The (s-1)-tuple of strict suffix weights of an s-tuple.

    Entry ``t`` (0-based) is ``i_{t+1} + ... + i_s``, the weight of
    everything to the right of position ``t``.
    """
    if len(index) < 1:
        raise PreconditionError("multi-indices have length >= 1")
    out = []
    suffix = 0
    for i in reversed(index[1:]):
        suffix += int(i)
        out.append(suffix)
    return tuple(reversed(out))


def q_exponent(index_i: Sequence[int], index_k: Sequence[int]) -> int:
    """Exponent collected when normal-ordering an s-fold product.

    Equals ``sum_{t=1}^{s-1} (i_{t+1}+...+i_s) * k_t``: each y-block of
    weight ``k_t`` must cross the x-blocks of all later factors.  Zero
    for ``s = 1``.
    """
    if len(index_i) != len(index_k):
        raise PreconditionError(
            f"index length mismatch: {len(index_i)} vs {len(index_k)}"
        )
    if len(index_i) == 1:
        return 0
    return inner(suffix_weights(index_i), tuple(index_k[:-1]))


def normal_order(i1: int, k1: int, i2: int, k2: int) -> tuple[int, int, int]:
    """Order the product of two ordered monomials.

    ``x^i1 y^k1 * x^i2 y^k2 = q^(i2*k1) x^(i1+i2) y^(k1+k2)``; returns
    the exponent and the combined degrees.
    """
    return i2 * k1, i1 + i2, k1 + k2


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------


def _as_table(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).copy()
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"coefficient table must be square, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("coefficients must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class QSeries:
    """Normal-ordered series ``sum a_ik x^i y^k`` over a fixed ``q``."""

    q: complex
    coeffs: np.ndarray
    lossy: bool = field(default=False)

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("q must be nonzero")
        object.__setattr__(self, "q", complex(self.q))
        object.__setattr__(self, "coeffs", _as_table(self.coeffs))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(q: complex, degree: int) -> "QSeries":
        return QSeries(q, np.zeros((degree + 1, degree + 1)))

    @staticmethod
    def one(q: complex, degree: int) -> "QSeries":
        return QSeries.monomial(q, degree, 0, 0)

    @staticmethod
    def monomial(q: complex, degree: int, i: int, k: int, c: complex = 1.0) -> "QSeries":
        if not (0 <= i <= degree and 0 <= k <= degree):
            raise ValueError(f"monomial ({i},{k}) outside the degree-{degree} table")
        a = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
        a[i, k] = c
        return QSeries(q, a)

    @staticmethod
    def from_terms(
        q: complex, degree: int, terms: Iterable[tuple[int, int, complex]]
    ) -> "QSeries":
        a = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
        for i, k, c in terms:
            if not (0 <= i <= degree and 0 <= k <= degree):
                raise ValueError(f"term ({i},{k}) outside the degree-{degree} table")
            a[i, k] += c
        return QSeries(q, a)

    # -- queries ----------------------------------------------------------

    @property
    def trunc_degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def terms(self) -> list[tuple[int, int, complex]]:
        """Nonzero entries as ``(i, k, value)``, sorted by (i, k)."""
        ii, kk = np.nonzero(self.coeffs)
        return [(int(i), int(k), complex(self.coeffs[i, k])) for i, k in zip(ii, kk)]

    def series_in_x(self, k: int) -> HoloSeries:
        """Coefficient of ``y^k`` as a one-variable series in x."""
        return HoloSeries(self.coeffs[:, k], lossy=self.lossy)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.q == other.q
            and self.coeffs.shape == other.coeffs.shape
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        _check_compatible(self, other)
        return QSeries(
            self.q, self.coeffs + other.coeffs, lossy=self.lossy or other.lossy
        )

    def __sub__(self, other: "QSeries") -> "QSeries":
        _check_compatible(self, other)
        return QSeries(
            self.q, self.coeffs - other.coeffs, lossy=self.lossy or other.lossy
        )

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return QSeries(self.q, self.coeffs * other, lossy=self.lossy)
        if isinstance(other, QSeries):
            return qmul(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return QSeries(self.q, self.coeffs * other, lossy=self.lossy)
        return NotImplemented


def _check_compatible(f: QSeries, g: QSeries) -> None:
    if f.q != g.q:
        raise PreconditionError(f"q mismatch: {f.q} vs {g.q}")
    if f.trunc_degree != g.trunc_degree:
        raise PreconditionError(
            f"truncation mismatch: {f.trunc_degree} vs {g.trunc_degree}"
        )


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def _finite(table: np.ndarray, q: complex, d: int, what: str) -> np.ndarray:
    """``table`` itself, or a :class:`PreconditionError` if it overflowed."""
    if not np.all(np.isfinite(table)):
        raise PreconditionError(
            f"the {what} overflows at |q| = {abs(q):g} inside the degree-{d} table"
        )
    return table


def qmul(f: QSeries, g: QSeries) -> QSeries:
    """Normal-ordered product, truncated back to the shared degree.

    The coefficient rule is the twisted convolution

        (fg)[n, m] = sum q^(i2*k1) f[i1, k1] g[i2, k2]

    over ``i1+i2 = n``, ``k1+k2 = m``.  The full product table is
    formed (:func:`qplane._accel.qmul_full`) so that discarded nonzero
    mass beyond the truncation degree sets ``lossy``; a twist that
    overflows there only sets ``lossy``, one that overflows inside the
    table raises :class:`PreconditionError`.
    """
    _check_compatible(f, g)
    d = f.trunc_degree
    full = _accel.qmul_full(f.coeffs, g.coeffs, f.q)
    out = _finite(full[: d + 1, : d + 1], f.q, d, "product")
    lost = bool(np.any(full[d + 1 :, :] != 0)) or bool(np.any(full[:, d + 1 :] != 0))
    return QSeries(f.q, out, lossy=f.lossy or g.lossy or lost)


def qmul_rowwise(f: QSeries, g: QSeries) -> QSeries:
    """Reference product through one-variable operations.

    Groups the sum as ``sum_n ( sum_{i+j=n} f_i(x) * g_j(q^i x) ) y^n``
    and runs it entirely on :class:`HoloSeries` arithmetic.  Kept as an
    independent route for cross-checking :func:`qmul`.
    """
    _check_compatible(f, g)
    d = f.trunc_degree
    cols = [HoloSeries.zero(d) for _ in range(d + 1)]
    lost = False
    for i in range(d + 1):
        fi = f.series_in_x(i)
        if fi.max_degree < 0:
            continue
        for j in range(d + 1):
            gj = g.series_in_x(j)
            if gj.max_degree < 0:
                continue
            term = fi * gj.scale_arg(f.q**i)
            if i + j > d:
                lost = lost or term.lossy or term.max_degree >= 0
                continue
            lost = lost or term.lossy
            cols[i + j] = cols[i + j] + term
    table = np.column_stack([c.coeffs for c in cols])
    return QSeries(f.q, table, lossy=f.lossy or g.lossy or lost)


def qmul_opposite(f: QSeries, g: QSeries) -> QSeries:
    """Product in the swapped-variable layout ``sum x^n f_n(y)``.

    There the y-part of the left factor crosses the x-powers of the
    right factor, so rows combine as
    ``sum_n x^n ( sum_{i+j=n} f_i(q^j y) g_j(y) )``.  This is the
    multiplication twisted series live under; see :func:`twist`.
    """
    _check_compatible(f, g)
    d = f.trunc_degree
    q = f.q
    rows = np.zeros((d + 1, d + 1), dtype=np.complex128)
    lost = False
    ydeg = np.arange(d + 1)
    for i in range(d + 1):
        fi = f.coeffs[i, :]
        if not fi.any():
            continue
        for j in range(d + 1):
            gj = g.coeffs[j, :]
            if not gj.any():
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = np.where(fi != 0, fi * np.power(q, ydeg * j), 0)
            conv = np.convolve(scaled, gj)
            if i + j > d:
                lost = lost or bool(np.any(conv != 0))
                continue
            rows[i + j, :] += conv[: d + 1]
            lost = lost or bool(np.any(conv[d + 1 :] != 0))
    return QSeries(q, rows, lossy=f.lossy or g.lossy or lost)


QPOW_FORMULA_CAP = 10**6


def qpow(f: QSeries, s: int, method: str = "repeated") -> QSeries:
    """``f**s`` for ``s >= 1``.

    ``repeated`` multiplies left to right.  ``formula`` enumerates all
    s-tuples drawn from the support of ``f``: the tuple with x-degrees I
    and y-degrees K contributes its coefficient product times
    ``q**q_exponent(I, K)`` to cell ``(|I|, |K|)``.  The enumeration is
    refused above :data:`QPOW_FORMULA_CAP` tuples.  Either method raises
    :class:`PreconditionError` when a twist overflows inside the table.
    """
    if s < 1:
        raise PreconditionError(f"power must be >= 1, got {s}")
    if s == 1:
        return f
    if method == "repeated":
        acc = f
        for _ in range(s - 1):
            acc = qmul(acc, f)
        return acc
    if method != "formula":
        raise ValueError(f"unknown method {method!r}")

    ii, kk = np.nonzero(f.coeffs)
    m = ii.size
    if m == 0:
        return f
    if m**s > QPOW_FORMULA_CAP:
        raise PreconditionError(
            f"formula method would enumerate {m}**{s} > {QPOW_FORMULA_CAP} "
            "index tuples; use method='repeated'"
        )
    aa = f.coeffs[ii, kk]
    full = _accel.qpow_formula(ii.astype(np.int64), kk.astype(np.int64), aa, s, f.q)
    d = f.trunc_degree
    out = np.zeros((d + 1, d + 1), dtype=np.complex128)
    ci = min(d + 1, full.shape[0])
    ck = min(d + 1, full.shape[1])
    out[:ci, :ck] = _finite(full[:ci, :ck], f.q, d, "power")
    lost = bool(np.any(full[ci:, :] != 0)) or bool(np.any(full[:, ck:] != 0))
    return QSeries(f.q, out, lossy=f.lossy or lost)


# ---------------------------------------------------------------------------
# decomposition, seminorms, decay
# ---------------------------------------------------------------------------


class Decomposition(NamedTuple):
    f_x: QSeries
    f_xy: QSeries
    f_y: QSeries


def decompose(f: QSeries) -> Decomposition:
    """Split into the x-subalgebra, mixed-ideal and y-subalgebra parts.

    ``f_x`` keeps column ``k = 0`` (including the constant), ``f_y`` the
    rest of row ``i = 0``, and ``f_xy`` everything with both degrees
    positive.  The three parts add back to ``f`` exactly and the
    projections are idempotent.
    """
    a = f.coeffs
    x_part = np.zeros_like(a)
    x_part[:, 0] = a[:, 0]
    y_part = np.zeros_like(a)
    y_part[0, 1:] = a[0, 1:]
    xy_part = np.zeros_like(a)
    xy_part[1:, 1:] = a[1:, 1:]
    return Decomposition(
        QSeries(f.q, x_part, lossy=f.lossy),
        QSeries(f.q, xy_part, lossy=f.lossy),
        QSeries(f.q, y_part, lossy=f.lossy),
    )


def seminorm(f: QSeries, rho: float) -> float:
    """Weighted l1 seminorm at radius ``rho``.

    ``sum |a_ik| rho^(i+k)`` for ``|q| <= 1``; for ``|q| > 1`` each term
    additionally carries ``|q|^(-i*k)`` (the regime is picked from
    ``|q|`` and the two formulas agree at ``|q| = 1``).  Multiplicative
    on the algebra, hence submultiplicative on truncations.
    """
    if not rho > 0:
        raise PreconditionError(f"seminorm radius must be positive, got {rho}")
    d = f.trunc_degree
    deg = np.arange(d + 1)
    w = np.power(float(rho), deg)
    weights = np.outer(w, w)
    aq = abs(f.q)
    if aq > 1:
        with np.errstate(under="ignore"):
            weights = weights * np.power(aq, -np.outer(deg, deg).astype(float))
    return float(np.sum(np.abs(f.coeffs) * weights))


def p_seminorm(f: QSeries, rho_x: float, rho_y: float) -> float:
    """Two-radius seminorm ``sum_k ||f_k||_{rho_x} rho_y^k``.

    ``f_k`` is the one-variable series multiplying ``y^k`` and its norm
    is the weighted l1 norm (an upper bound for the sup on the disk of
    radius ``rho_x``).  Submultiplicative for ``|q| <= 1``.
    """
    if not (rho_x > 0 and rho_y > 0):
        raise PreconditionError(
            f"seminorm radii must be positive, got ({rho_x}, {rho_y})"
        )
    d = f.trunc_degree
    total = 0.0
    for k in range(d + 1):
        col = np.abs(f.coeffs[:, k])
        if col.any():
            total += float(col @ np.power(float(rho_x), np.arange(d + 1))) * rho_y**k
    return total


class DecayProfile(NamedTuple):
    values: list[float]
    lossy: bool


def decay_profile(f: QSeries, rho: float, s_max: int) -> DecayProfile:
    """Root-power norms ``||f^s||_rho^(1/s)`` for ``s = 1..s_max``.

    For mixed-ideal series at ``|q| < 1`` the entries obey the bound
    ``|q|^((s-1)/2) ||f||_rho``, with equality for the single monomial
    ``x y``; a flat profile signals a non-quasinilpotent element.  The
    ``lossy`` field reports whether some power overflowed the truncation
    degree (making later entries underestimates).
    """
    if s_max < 1:
        raise PreconditionError(f"s_max must be >= 1, got {s_max}")
    values = []
    acc = f
    lossy = f.lossy
    for s in range(1, s_max + 1):
        if s > 1:
            acc = qmul(acc, f)
        lossy = lossy or acc.lossy
        values.append(seminorm(acc, rho) ** (1.0 / s))
    return DecayProfile(values, lossy)


# ---------------------------------------------------------------------------
# twist and characters
# ---------------------------------------------------------------------------


def twist(f: QSeries) -> QSeries:
    """Transpose into the swapped-variable layout.

    Sends ``sum_n f_n(x) y^n`` to ``sum_n x^n f_n(y)``, i.e. transposes
    the coefficient table.  An involution; it reverses products up to
    the opposite-layout multiplication:
    ``twist(qmul(g, f)) == qmul_opposite(twist(f), twist(g))``.
    """
    return QSeries(f.q, f.coeffs.T, lossy=f.lossy)


def spec_eval(f: QSeries, gamma: tuple[complex, complex]) -> complex:
    """Evaluate at a character, i.e. a point on one of the two axes.

    Characters kill every mixed monomial (``x*y`` maps to 0 because
    ``(1 - 1/q) gamma_x gamma_y = 0``), so only the axis values
    ``(z, 0) -> sum_i a_i0 z^i`` and ``(0, w) -> sum_k a_0k w^k``
    exist.  Off-axis points are rejected.
    """
    z, w = complex(gamma[0]), complex(gamma[1])
    if z != 0 and w != 0:
        raise PreconditionError(
            f"({z}, {w}) is not on an axis; characters live on the two axes"
        )
    if w == 0:
        return HoloSeries(f.coeffs[:, 0])(z)
    return HoloSeries(f.coeffs[0, :])(w)


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------


def log_shifted(c: float, g: QSeries, n_terms: int | None = None) -> QSeries:
    """Truncated ``ln(c + g)`` for a series ``g`` without constant term.

    Sums ``ln c + sum_{n>=1} (-1)^(n+1)/(n c^n) g^n``; with ``g``
    lacking a constant term the sum stabilizes inside the truncation
    box once ``n`` exceeds the degree.
    """
    if not c > 0:
        raise PreconditionError(f"log offset must be positive, got {c}")
    if g.coeffs[0, 0] != 0:
        raise PreconditionError("log_shifted needs a series with zero constant term")
    d = g.trunc_degree
    if n_terms is None:
        n_terms = d
    acc = QSeries.monomial(g.q, d, 0, 0, np.log(c)).coeffs.copy()
    gn = g
    for n in range(1, n_terms + 1):
        if n > 1:
            gn = qmul(gn, g)
        acc += ((-1.0) ** (n + 1) / (n * c**n)) * gn.coeffs
    return QSeries(g.q, acc)
