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

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import _accel
from .errors import PreconditionError
from .holo import HoloSeries, _powers as _power_table, _weighted_l1, log_series, scale_coeffs

__all__ = [
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

    @cached_property
    def _degrees(self) -> tuple[int, int]:
        """Highest x- and y-degree of a nonzero coefficient; ``(-1, -1)`` for none."""
        held = np.flatnonzero(self.coeffs.astype(bool))
        if not held.size:
            return -1, -1
        n = self.coeffs.shape[1]
        return int(held[-1]) // n, int((held % n).max())

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


def _finite(
    table: np.ndarray, q: complex, d: int, what: str, untwisted: Callable[[], np.ndarray]
) -> np.ndarray:
    """``table`` itself, or a :class:`PreconditionError` naming why it overflowed.

    ``untwisted()`` gives the same cells with every twist ``q^e`` set to
    1; it is formed only on this error path.  If it overflows too, the
    coefficients leave the double range by themselves and the error says
    so; otherwise the twist is the cause and the error names ``|q|``.
    """
    if np.all(np.isfinite(table)):
        return table
    if not np.all(np.isfinite(untwisted())):
        raise PreconditionError(
            f"the {what} overflows inside the degree-{d} table with every twist "
            "set to 1: its coefficients leave the double range"
        )
    raise PreconditionError(
        f"the {what} overflows at |q| = {abs(q):g} inside the degree-{d} table"
    )


def qmul(f: QSeries, g: QSeries) -> QSeries:
    """Normal-ordered product, truncated back to the shared degree.

    The coefficient rule is the twisted convolution

        (fg)[n, m] = sum q^(i2*k1) f[i1, k1] g[i2, k2]

    over ``i1+i2 = n``, ``k1+k2 = m``.  :func:`qplane._accel.qmul_full`
    forms the product truncated to the table where its column route
    runs, and the whole table where it scatters term pairs.  ``lossy``
    says whether the untruncated table has a nonzero or non-finite cell
    outside the truncation box: read from those cells when they were
    formed, and decided by :func:`_lost_outside` otherwise, so a twist
    that overflows there only sets ``lossy``.  A cell inside the table
    that overflows raises :class:`PreconditionError`, which names
    ``|q|`` unless the coefficients overflow without any twist
    (:func:`_finite`).
    """
    _check_compatible(f, g)
    d = f.trunc_degree
    full = _accel.qmul_full(f.coeffs, g.coeffs, f.q, d)
    out = _finite(
        full[: d + 1, : d + 1], f.q, d, "product",
        lambda: _accel.qmul_full(f.coeffs, g.coeffs, 1.0, d)[: d + 1, : d + 1],
    )
    if full.shape[0] > d + 1:  # the pair route formed the whole table
        lost = bool(full[d + 1 :, :].any() or full[:, d + 1 :].any())
    else:
        lost = _lost_outside(f, g)
    return QSeries(f.q, out, lossy=f.lossy or g.lossy or lost)


# log2 thresholds of the lossy decision, from the roundings in _lost_outside
_KEPT_LOG2 = -1000.0  # partial products all at least this: a normal nonzero term
_OVER_LOG2 = 1025.0  # one at least this: non-finite


def _lost_outside(f: QSeries, g: QSeries) -> bool:
    """Whether the untruncated product of ``f`` and ``g`` has a nonzero
    or non-finite cell outside the truncation box, forming it only when
    that is not certain.

    The thresholds come from the roundings of the routes.  Both routes
    of :func:`qplane._accel.qmul_full` form each term as ``a·(b·q^e)``,
    with ``q^e`` multiplied out from powers of ``q``
    (:func:`qplane._accel._twist`).  A rounding moves a value of at
    least 2^-1022 by a relative 2^-53, so a term whose exact partial
    products all reach 2^-1000 (and so do the powers inside ``q^e``,
    which lie between ``q^e`` and 1) comes out a nonzero double; one
    whose twist, ``b·q^e`` or whole term reaches 2^1025 comes out
    non-finite.  Three steps, in order:

    1. the highest x-degrees of ``a`` and ``b`` sum to at most ``d``,
       and so do the highest y-degrees: no term lies outside (False).
       Only ``g``'s degrees are found (and kept on ``g``); ``f``'s rows
       above ``d - xb`` and columns above ``d - yb`` are tested;
    2. a vertex cell of the support sum lies outside and holds a single
       term, for instance ``(Ia+Ib, kmin_a(Ia)+kmin_b(Ib))`` with ``Ia``
       the highest x-degree of ``a`` and ``kmin_a(Ia)`` the lowest
       y-degree in that row, whose twist is ``q^(Ib·kmin_a(Ia))``.  No
       sum can cancel it, so if each of its partial products reaches
       2^-1000, or one overflows, the cell is nonzero (True);
    3. otherwise the untruncated table is formed and its outside cells
       read.

    A cell decided in step 2 holds one term, so it cannot cancel; the
    formed table of step 3 reads 0 where the terms of a cell cancel
    exactly, as ``qmul`` always has.
    """
    a, b, q, d = f.coeffs, g.coeffs, f.q, f.trunc_degree
    xb, yb = g._degrees  # the right factor is the fixed one in a run of powers
    if not (a[d + 1 - xb :].any() or a[:, d + 1 - yb :].any()):
        return False
    xa, ya = f._degrees
    lq = math.log2(abs(q))
    if xa + xb > d:
        ka, kb = _first(a[xa]), _first(b[xb])
        if _term_kept(a[xa, ka], b[xb, kb], xb * ka * lq):
            return True
    if ya + yb > d:
        ia, ib = _first(a[:, ya]), _first(b[:, yb])
        if _term_kept(a[ia, ya], b[ib, yb], ib * ya * lq):
            return True
    full = _accel.qmul_full(a, b, q)
    return bool(full[d + 1 :, :].any() or full[:, d + 1 :].any())


def _first(line: np.ndarray) -> int:
    """Index of the first nonzero entry of ``line``."""
    return int(np.flatnonzero(line)[0])


def _log2_abs(c: complex) -> float:
    """``log2|c|`` of a finite nonzero ``c``, also where ``|c|`` itself overflows."""
    small, large = sorted((abs(c.real), abs(c.imag)))
    return math.log2(large) + 0.5 * math.log2(1 + (small / large) ** 2)


def _term_kept(ca: complex, cb: complex, t: float) -> bool:
    """Whether ``ca·(cb·q^e)``, with ``t = e·log2|q|``, is formed nonzero or non-finite."""
    scaled = _log2_abs(cb) + t
    whole = _log2_abs(ca) + scaled
    return min(t, scaled, whole) >= _KEPT_LOG2 or max(t, scaled, whole) >= _OVER_LOG2


def _drop_overflow(
    scaled: np.ndarray, partner: np.ndarray, row: int, q: complex, d: int
) -> tuple[np.ndarray, bool]:
    """Zero the twisted coefficients of ``scaled`` that overflowed.

    ``scaled`` (indexed by degree) is convolved with ``partner`` into row
    ``row`` of the product; the cells its non-finite entries reach are
    where :func:`qmul` meets an overflowed twist.  Returns the cleaned
    coefficients and whether any were dropped; raises
    :class:`PreconditionError` when a dropped one reaches the degree-``d``
    table, as :func:`qmul` does.
    """
    over = ~np.isfinite(scaled)
    if not over.any():
        return scaled, False
    nz = np.flatnonzero(partner)
    if nz.size and row <= d and int(np.flatnonzero(over)[0]) + int(nz[0]) <= d:
        raise PreconditionError(
            f"the product overflows at |q| = {abs(q):g} inside the degree-{d} table"
        )
    return np.where(over, 0, scaled), True


def qmul_rowwise(f: QSeries, g: QSeries) -> QSeries:
    """Reference product through one-variable operations.

    Groups the sum as ``sum_n ( sum_{i+j=n} f_i(x) * g_j(q^i x) ) y^n``
    and runs it entirely on :class:`HoloSeries` arithmetic.  Kept as an
    independent route for cross-checking :func:`qmul`, including at
    ``|q| > 1``: a twisted coefficient that overflows is dropped and sets
    ``lossy`` when its cells lie outside the table, and raises
    :class:`PreconditionError` when they lie inside.
    """
    _check_compatible(f, g)
    d = f.trunc_degree
    cols = [HoloSeries.zero(d) for _ in range(d + 1)]
    lost = False
    with np.errstate(over="ignore", invalid="ignore"):
        twists = _power_table(f.q, d + 1)  # q^i; past the double range not finite
    for i in range(d + 1):
        fi = f.series_in_x(i)
        if fi.max_degree < 0:
            continue
        for j in range(d + 1):
            gj = g.series_in_x(j)
            if gj.max_degree < 0:
                continue
            # gj(q^i x), with overflowed coefficients taken apart
            scaled, dropped = _drop_overflow(
                scale_coeffs(gj.coeffs, twists[i]), fi.coeffs, i + j, f.q, d
            )
            term = fi * HoloSeries(scaled, lossy=gj.lossy)
            if i + j > d:
                lost = lost or dropped or term.lossy or term.max_degree >= 0
                continue
            lost = lost or dropped or term.lossy
            cols[i + j] = cols[i + j] + term
    table = np.column_stack([c.coeffs for c in cols])
    return QSeries(f.q, table, lossy=f.lossy or g.lossy or lost)


def qmul_opposite(f: QSeries, g: QSeries) -> QSeries:
    """Product in the swapped-variable layout ``sum x^n f_n(y)``.

    There the y-part of the left factor crosses the x-powers of the
    right factor, so rows combine as
    ``sum_n x^n ( sum_{i+j=n} f_i(q^j y) g_j(y) )``.  This is the
    multiplication twisted series live under; see :func:`twist`.  At
    ``|q| > 1`` overflowed twists are handled as in :func:`qmul_rowwise`.
    """
    _check_compatible(f, g)
    d = f.trunc_degree
    q = f.q
    rows = np.zeros((d + 1, d + 1), dtype=np.complex128)
    lost = False
    with np.errstate(over="ignore", invalid="ignore"):
        twists = _power_table(q, d + 1)  # q^j; past the double range not finite
    for i in range(d + 1):
        fi = f.coeffs[i, :]
        if not fi.any():
            continue
        for j in range(d + 1):
            gj = g.coeffs[j, :]
            if not gj.any():
                continue
            scaled, dropped = _drop_overflow(scale_coeffs(fi, twists[j]), gj, i + j, q, d)
            conv = np.convolve(scaled, gj)
            if i + j > d:
                lost = lost or dropped or bool(np.any(conv != 0))
                continue
            rows[i + j, :] += conv[: d + 1]
            lost = lost or dropped or bool(np.any(conv[d + 1 :] != 0))
    return QSeries(q, rows, lossy=f.lossy or g.lossy or lost)


def _powers(f: QSeries, count: int) -> Iterator[QSeries]:
    """``f, f^2, ...`` through ``f^count``, each product through :func:`qmul`.

    Stops after the first zero table: every later power is that table.
    """
    acc = f
    for n in range(count):
        if n:
            acc = qmul(acc, f)
        yield acc
        if not acc.coeffs.any():
            return


QPOW_FORMULA_CAP = 10**6


def qpow(f: QSeries, s: int, method: str = "repeated") -> QSeries:
    """``f**s`` for ``s >= 1``.

    ``repeated`` multiplies left to right and stops once the truncated
    power is the zero table.  ``formula`` enumerates all
    s-tuples drawn from the support of ``f``: the tuple with x-degrees
    ``i_1..i_s`` and y-degrees ``k_1..k_s`` contributes its coefficient
    product times ``q**e`` to cell ``(i_1+...+i_s, k_1+...+k_s)``, where

        e = sum_{t=1}^{s-1} (i_{t+1} + ... + i_s) * k_t

    collects each y-block crossing the x-blocks of all later factors
    (:func:`qplane._accel.qpow_formula`).  The enumeration is
    refused above :data:`QPOW_FORMULA_CAP` tuples, and so is its
    untruncated table above that many cells.  Either method raises
    :class:`PreconditionError` when a cell inside the table overflows,
    as :func:`qmul` does.
    """
    if s < 1:
        raise PreconditionError(f"power must be >= 1, got {s}")
    if s == 1:
        return f
    if method == "repeated":
        for acc in _powers(f, s):
            pass
        return acc
    if method != "formula":
        raise ValueError(f"unknown method {method!r}")

    ii, kk = np.nonzero(f.coeffs)
    m = ii.size
    if m == 0:
        return f
    # m**s passes the cap from s = bit_length on, unless m is 1
    if m ** min(s, QPOW_FORMULA_CAP.bit_length()) > QPOW_FORMULA_CAP:
        raise PreconditionError(
            f"formula method would enumerate {m}**{s} > {QPOW_FORMULA_CAP} "
            "index tuples; use method='repeated'"
        )
    rows, cols = s * int(ii.max()) + 1, s * int(kk.max()) + 1
    if rows * cols > QPOW_FORMULA_CAP:
        raise PreconditionError(
            f"formula method would form a {rows} x {cols} table > {QPOW_FORMULA_CAP} "
            "cells; use method='repeated'"
        )
    ii, kk, aa = ii.astype(np.int64), kk.astype(np.int64), f.coeffs[ii, kk]
    full = _accel.qpow_formula(ii, kk, aa, s, f.q)
    d = f.trunc_degree
    out = np.zeros((d + 1, d + 1), dtype=np.complex128)
    ci = min(d + 1, full.shape[0])
    ck = min(d + 1, full.shape[1])
    out[:ci, :ck] = _finite(
        full[:ci, :ck], f.q, d, "power",
        lambda: _accel.qpow_formula(ii, kk, aa, s, 1.0)[:ci, :ck],
    )
    lost = bool(full[ci:, :].any() or full[:, ck:].any())
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
    on the algebra, hence submultiplicative on truncations.  ``rho``
    must be finite; a sum that leaves the double range is ``inf``.
    """
    if not 0 < rho < math.inf:
        raise PreconditionError(f"seminorm radius must be positive and finite, got {rho}")
    aq = abs(f.q)
    return _weighted_l1(f.coeffs, rho, rho, twist=aq if aq > 1 else 1.0)


def p_seminorm(f: QSeries, rho_x: float, rho_y: float) -> float:
    """Two-radius seminorm ``sum_k ||f_k||_{rho_x} rho_y^k``.

    ``f_k`` is the one-variable series multiplying ``y^k`` and its norm
    is the weighted l1 norm (an upper bound for the sup on the disk of
    radius ``rho_x``).  Submultiplicative for ``|q| <= 1``.  The radii
    must be finite; a sum that leaves the double range is ``inf``.
    """
    if not (0 < rho_x < math.inf and 0 < rho_y < math.inf):
        raise PreconditionError(
            f"seminorm radii must be positive and finite, got ({rho_x}, {rho_y})"
        )
    return _weighted_l1(f.coeffs, rho_x, rho_y)


class DecayProfile(NamedTuple):
    values: list[float]
    lossy_at: list[bool]

    @property
    def lossy(self) -> bool:
        """Whether some power up to ``s_max`` lost mass to truncation."""
        return self.lossy_at[-1]


def decay_profile(f: QSeries, rho: float, s_max: int) -> DecayProfile:
    """Root-power norms ``||f^s||_rho^(1/s)`` for ``s = 1..s_max``.

    For mixed-ideal series at ``|q| < 1`` the entries obey the bound
    ``|q|^((s-1)/2) ||f||_rho``, with equality for the single monomial
    ``x y``; a flat profile signals a non-quasinilpotent element.
    ``lossy_at[s - 1]`` reports whether some power up to ``f^s``
    overflowed the truncation degree (making that entry an
    underestimate); ``lossy`` is its last entry.  Once a power is the
    zero table every later one is too, so the products stop there and
    the remaining entries are ``0.0`` with that power's flag.
    """
    if s_max < 1:
        raise PreconditionError(f"s_max must be >= 1, got {s_max}")
    values, lossy_at = [], []
    for s, acc in enumerate(_powers(f, s_max), 1):
        lossy_at.append(acc.lossy)
        values.append(seminorm(acc, rho) ** (1.0 / s))
    rest = s_max - len(values)
    return DecayProfile(values + [0.0] * rest, lossy_at + [acc.lossy] * rest)


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


def log_shifted(c: float, g: QSeries) -> QSeries:
    """Truncated ``ln(c + g)`` for a series ``g`` without constant term.

    Sums ``a_0 + sum_{n=1..M} a_n g^n`` with the coefficients ``a_n`` of
    :func:`~qplane.holo.log_series` (``ln c`` and ``(-1)^(n+1)/(n c^n)``;
    a ``c`` that is not positive, or whose ``a_n`` leave the double
    range, is a :class:`~qplane.errors.PreconditionError`).
    ``M = floor(2D / m)``, ``D`` the truncation degree and ``m`` the
    smallest total degree in the support of ``g``.  Every term of
    ``g^n`` has total degree at least ``n m``, and the box holds total
    degrees up to ``2D``, so the powers beyond ``M`` leave the box and
    the truncated sum is exact.  For ``xy``, ``M = D``; for a ``g`` with
    a degree-1 term, ``M = 2D``.  The powers stop at the first zero
    table, since it and every later power add nothing.  The result is
    ``lossy`` when ``g`` is.
    A sum whose terms ``a_n g^n`` leave the double range is a
    :class:`~qplane.errors.PreconditionError`.
    """
    if g.coeffs[0, 0] != 0:
        raise PreconditionError("log_shifted needs a series with zero constant term")
    d = g.trunc_degree
    i, k = np.nonzero(g.coeffs)
    top = 2 * d // int((i + k).min()) if i.size else 0
    a = log_series(c, top).coeffs
    acc = np.zeros_like(g.coeffs)
    acc[0, 0] = a[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for n, gn in enumerate(_powers(g, top), 1):
            acc += a[n] * gn.coeffs
    if not np.all(np.isfinite(acc)):
        raise PreconditionError(
            f"ln({c:g} + g) overflows: a term a_n g^n leaves the double range"
        )
    return QSeries(g.q, acc, lossy=g.lossy)
