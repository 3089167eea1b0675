"""One-variable truncated analytic series with weighted-l1 disk norms.

A series is kept as its first ``D+1`` Taylor coefficients at the
origin.  The norm ``sum_n |a_n| rho^n`` controls the series on the disk
of radius ``rho`` and is submultiplicative for the Cauchy product, which
is what makes these usable as coefficient algebras for the bivariate
layer and as inputs to the matrix functional calculus.

The module holds the one weighted-l1 sum behind every norm and
seminorm (:func:`_weighted_l1`) and the one matrix evaluator
``sum_m c_m(T) S^m`` (:func:`_eval_columns`), which serves
:meth:`HoloSeries.eval_matrix` and the calculus in :mod:`qplane.opcalc`.
The evaluator has two routes, chosen by the exact zeros of ``T`` and
``S``: when both hold at most one nonzero in every row and every column
it follows ``T``'s orbits and scales columns for ``S``
(:func:`_eval_monomial`); any other pair is multiplied dense
(:func:`_eval_dense`).

Truncation never errors: any operation that would push mass beyond the
kept degree returns a result with ``lossy=True`` instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError

__all__ = [
    "HoloSeries",
    "log_series",
    "scale_coeffs",
]

# The matrix evaluator works on blocks of rows whose stored powers and
# coefficient blocks fit in this many complex entries (4 MiB).
_BLOCK_ENTRIES = 2**18


def _as_coeffs(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).reshape(-1).copy()
    if arr.size == 0:
        raise ValueError("a series needs at least the constant coefficient")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("series coefficients must be finite")
    arr.flags.writeable = False
    return arr


def _powers(z: complex, n: int) -> np.ndarray:
    """``z^0, z^1, ..., z^(n-1)``: the package's one table of complex powers.

    numpy multiplies out a complex power whose integer exponent is below
    100 and calls ``cpow`` from 100 on, at about 80 ns an entry against
    25.  So longer runs are rows of 100 low powers times the powers of
    ``z^100``.  Powers past the double range are the caller's to catch.
    """
    if n <= 100:
        return np.power(z, np.arange(n))
    low = np.power(z, np.arange(100))
    return (_powers(low[-1] * z, -(-n // 100))[:, None] * low).ravel()[:n]


def scale_coeffs(coeffs: np.ndarray, c: complex) -> np.ndarray:
    """``a_n -> c^n a_n``: the coefficients of the substituted series
    ``z -> c*z``.

    Exact zeros stay zero (``0 * inf`` is never formed).  A product that
    overflows is left non-finite, without a warning, for the caller to
    drop or reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _powers(complex(c), coeffs.size)
        return np.where(coeffs != 0, coeffs * powers, 0)


def _weighted_l1(
    coeffs: np.ndarray, rho_x: float, rho_y: float = 1.0, twist: float = 1.0
) -> float:
    """``sum |a_ik| rho_x^i rho_y^k twist^(-i*k)``; a vector is one column.

    The bases are positive and finite.  The direct sum is tried first.
    It is redone when it is not finite (a weight past the double range,
    or ``0 * inf``), or when a nonzero ``a`` meets a weight, or a factor
    of one, below the smallest normal double, which would drop or blur
    that term.  The redone sum runs over the nonzero ``a`` with every
    factor split into a mantissa and a power of two
    (:func:`_split_powers`), so no step leaves the double range: the
    terms are scaled by the power of two of the largest, summed, and
    scaled back.  It costs about ten direct sums, so it is only the
    fallback.  An all-zero table is 0.0 and a sum that does leave the
    range is ``inf``, not NaN.
    """
    a = coeffs.reshape(coeffs.shape[0], -1)
    i, k = np.arange(a.shape[0]), np.arange(a.shape[1])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        px, py = np.power(float(rho_x), i), np.power(float(rho_y), k)
        weights = np.outer(px, py)
        factors = [px[:, None], py]
        # each factor is 1 at index 0 and monotone, so the product of
        # their smallest values bounds every factor and weight from below
        smallest = min(px[0], px[-1]) * min(py[0], py[-1])
        if twist != 1:
            factors.append(np.power(float(twist), -np.outer(i, k).astype(float)))
            weights = weights * factors[-1]
            smallest *= min(1.0, factors[-1][-1, -1])
        total = float(np.sum(np.abs(a) * weights))
    if math.isfinite(total):
        tiny = np.finfo(np.float64).tiny
        if smallest >= tiny:
            return total
        low = functools.reduce(np.logical_or, [w < tiny for w in (weights, *factors)])
        if not (low & (a != 0)).any():
            return total
    nz = a != 0
    if not nz.any():
        return 0.0
    i, k = np.nonzero(nz)
    mant, expo = np.frexp(np.abs(a[nz]))
    for base, n in ((rho_x, i), (rho_y, k), (twist, -i * k)):
        m, e = _split_powers(float(base), n)
        mant, expo = mant * m, expo + e  # four mantissas in [1/2, 1): at least 1/16
    top = int(expo.max())
    lim = 2**20  # ldexp takes 32-bit exponents; past 2^20 it gives 0 or inf all the same
    scaled = np.ldexp(mant, np.maximum(expo - top, -lim).astype(np.int32))
    with np.errstate(over="ignore", under="ignore"):
        return float(np.ldexp(np.sum(scaled), min(max(top, -lim), lim)))


# A power of a mantissa in [1/2, 1) is taken this many factors at a time,
# so it stays between 2^-512 and 2^512.
_POW_CHUNK = 512


def _split_powers(base: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``base ** n`` for integers ``n`` as ``mantissa * 2 ** exponent``.

    ``base`` is positive and finite, the mantissas lie in ``[1/2, 1)`` and
    the exponents are integers.  With ``base = m 2^e`` (``math.frexp``),
    ``m^n = m^(n mod C) (m^C)^(n div C)`` for ``C = _POW_CHUNK`` (``n`` taken
    by its absolute value, the sign put on the exponent), and ``m^C`` is
    split again, so each ``np.power`` stays in the normal range and a
    power costs a few roundings, however large ``n`` is.
    """
    m, e = math.frexp(base)
    sign, count = np.sign(n), np.abs(n)
    mant, expo = np.frexp(np.power(m, sign * (count % _POW_CHUNK)))
    expo = expo + n * e
    count = count // _POW_CHUNK
    while count.any():
        m, e = math.frexp(m**_POW_CHUNK)
        expo = expo + sign * count * e
        low, low_expo = np.frexp(np.power(m, sign * (count % _POW_CHUNK)))
        mant, carry = np.frexp(mant * low)
        expo = expo + low_expo + carry
        count = count // _POW_CHUNK
    return mant, expo


@dataclass(frozen=True)
class HoloSeries:
    """Coefficients ``a_0 .. a_D`` of a truncated power series.

    Immutable; arithmetic returns new values.  ``lossy`` records whether
    some earlier operation discarded nonzero coefficients above the
    truncation degree.
    """

    coeffs: np.ndarray
    lossy: bool = field(default=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(degree: int) -> "HoloSeries":
        return HoloSeries(np.zeros(degree + 1))

    @staticmethod
    def one(degree: int) -> "HoloSeries":
        return HoloSeries.monomial(degree, 0)

    @staticmethod
    def monomial(degree: int, n: int, c: complex = 1.0) -> "HoloSeries":
        """The single term ``c * z^n`` kept to ``degree``."""
        if not 0 <= n <= degree:
            raise ValueError(f"monomial degree {n} outside 0..{degree}")
        a = np.zeros(degree + 1, dtype=np.complex128)
        a[n] = c
        return HoloSeries(a)

    # -- basic queries ------------------------------------------------

    @property
    def trunc_degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def max_degree(self) -> int:
        """Largest degree carrying a nonzero coefficient (-1 for zero)."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, HoloSeries):
            return NotImplemented
        return (
            self.coeffs.size == other.coeffs.size
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    # -- arithmetic ---------------------------------------------------

    def truncate(self, degree: int) -> "HoloSeries":
        """Re-truncate to ``degree``; extension pads exact zeros."""
        if degree >= self.trunc_degree:
            out = np.zeros(degree + 1, dtype=np.complex128)
            out[: self.coeffs.size] = self.coeffs
            return HoloSeries(out, lossy=self.lossy)
        dropped = self.coeffs[degree + 1 :]
        return HoloSeries(
            self.coeffs[: degree + 1],
            lossy=self.lossy or bool(np.any(dropped != 0)),
        )

    def __add__(self, other: "HoloSeries") -> "HoloSeries":
        if not isinstance(other, HoloSeries):
            return NotImplemented
        d = min(self.trunc_degree, other.trunc_degree)
        a, b = self.truncate(d), other.truncate(d)
        return HoloSeries(a.coeffs + b.coeffs, lossy=a.lossy or b.lossy)

    def __sub__(self, other: "HoloSeries") -> "HoloSeries":
        if not isinstance(other, HoloSeries):
            return NotImplemented
        return self + HoloSeries(-other.coeffs, lossy=other.lossy)

    def __mul__(self, other):
        """Cauchy product truncated at the smaller kept degree.

        Coefficient ``n`` of the product is ``sum_{i+j=n} a_i b_j``; the
        full convolution is formed first so discarded nonzero mass can
        set the loss flag.
        """
        if isinstance(other, (int, float, complex)):
            return HoloSeries(self.coeffs * other, lossy=self.lossy)
        if not isinstance(other, HoloSeries):
            return NotImplemented
        d = min(self.trunc_degree, other.trunc_degree)
        full = np.convolve(self.coeffs, other.coeffs)
        out = full[: d + 1]
        lost = bool(np.any(full[d + 1 :] != 0))
        return HoloSeries(out, lossy=self.lossy or other.lossy or lost)

    __rmul__ = __mul__

    # -- norms and evaluation ------------------------------------------

    def norm(self, rho: float) -> float:
        """Weighted l1 norm ``sum_n |a_n| rho^n`` (requires finite rho > 0).

        ``inf`` when the sum leaves the double range.
        """
        if not 0 < rho < math.inf:
            raise PreconditionError(f"norm radius must be positive and finite, got {rho}")
        return _weighted_l1(self.coeffs, rho)

    def __call__(self, z: complex) -> complex:
        """Horner evaluation of the kept polynomial."""
        acc = 0.0 + 0.0j
        for a in self.coeffs[::-1]:
            acc = acc * z + a
        return complex(acc)

    def eval_matrix(self, m: np.ndarray) -> np.ndarray:
        """``sum_n a_n M^n`` on a square matrix, by :func:`_eval_columns`.

        A result with an entry past the double range is a
        :class:`~qplane.errors.PreconditionError`.
        """
        m = np.asarray(m, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
        return _eval_columns(self.coeffs[None, :], m, m)


def log_series(c: float, degree: int) -> HoloSeries:
    """Expansion of ``ln(c + z)`` about the origin, truncated.

    The coefficients are ``ln c`` and ``(-1)^(n+1) / (n c^n)`` for
    ``n >= 1``; they converge on ``|z| < c``, so callers should keep
    their evaluation radii below ``c``.  :func:`qplane.qalgebra.log_shifted`
    takes its coefficients from here.  A term whose ``n c^n`` passes the
    double range is 0; a coefficient past it (``c`` near 0 or ``inf``)
    is a :class:`~qplane.errors.PreconditionError`.
    """
    if not c > 0:
        raise PreconditionError(f"log offset must be positive, got {c}")
    a = np.zeros(degree + 1, dtype=np.complex128)
    a[0] = math.log(c)
    n = np.arange(1, degree + 1)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        a[1:] = (-1.0) ** (n + 1) / (n * np.power(float(c), n))
    bad = np.flatnonzero(~np.isfinite(a.real))
    if bad.size:
        raise PreconditionError(
            f"the coefficient of z^{bad[0]} in ln({c} + z) is past the double range"
        )
    return HoloSeries(a)


def _power_split(degs: np.ndarray) -> int:
    """The ``p`` that minimises ``(p - 1) + sum_m (ceil((deg_m + 1) / p) - 1)``.

    ``degs`` holds the top degree of every nonzero column.  ``p - 1``
    products form the stored powers; column ``m`` then takes
    ``ceil((deg_m + 1) / p) - 1`` Horner steps in ``T^p``.  Ties go to the
    larger ``p``, which stores more powers and takes fewer steps.
    """
    p = np.arange(1, int(degs.max()) + 2)
    cost = (p - 1) + (-(-(degs[None, :] + 1) // p[:, None]) - 1).sum(axis=1)
    return int(p[::-1][np.argmin(cost[::-1])])


def _eval_dense(cols: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """:func:`_eval_columns` by dense matrix products, for any pair.

    Every step multiplies on the right, so each block of rows of the
    result needs only the same rows of the left factors.  The
    coefficients of ``c_m`` split into blocks of ``p`` (see
    :func:`_power_split`).  For each block of rows the evaluator forms
    those rows of ``T^0 .. T^(p-1)``, ``T^j = T^(j-1) T``, and gets those
    rows of every coefficient block of every ``c_m(T)`` from one product
    of the coefficient blocks with the stored powers.  It combines the
    blocks of each ``c_m`` by Horner in ``T^p``, ``val = val T^p + block``
    (only when some column has degree ``>= p``), and the columns by
    right Horner in ``S`` from the top nonzero column down,
    ``acc = acc S + c_m(T)``.  The row-block height keeps the stored
    powers and blocks within ``_BLOCK_ENTRIES`` complex entries.
    """
    n = t.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    nonzero = cols.any(axis=1)
    live = cols[nonzero]
    degs = live.shape[1] - 1 - np.argmax(live[:, ::-1] != 0, axis=1)
    p = _power_split(degs)
    nblocks = -(-(degs + 1) // p)
    most = int(nblocks.max())
    padded = np.zeros((live.shape[0], most * p), dtype=np.complex128)
    width = min(padded.shape[1], live.shape[1])  # past it every entry is zero
    padded[:, :width] = live[:, :width]
    # (block count, p): column by column, low blocks first
    coef = padded.reshape(-1, most, p)[np.arange(most) < nblocks[:, None]]
    first = np.cumsum(nblocks) - nblocks
    t_p = np.linalg.matrix_power(t, p) if p <= degs.max() else None
    top = int(np.flatnonzero(nonzero)[-1])
    slot = np.cumsum(nonzero) - 1  # index of column m among the nonzero ones
    height = max(1, _BLOCK_ENTRIES // ((p + coef.shape[0]) * n))
    for r0 in range(0, n, height):
        rows = slice(r0, min(r0 + height, n))
        h = rows.stop - r0
        powers = np.zeros((p, h, n), dtype=np.complex128)
        powers[0, :, r0 : rows.stop] = np.eye(h)
        if p > 1:
            powers[1] = t[rows]
        for j in range(2, p):
            np.matmul(powers[j - 1], t, out=powers[j])
        vals = (coef @ powers.reshape(p, h * n)).reshape(-1, h, n)
        acc = None
        for m in range(top, -1, -1):
            if acc is not None:
                acc = acc @ s
            if not nonzero[m]:
                continue
            lo, nb = first[slot[m]], nblocks[slot[m]]
            val = vals[lo + nb - 1]
            for b in range(lo + nb - 2, lo - 1, -1):
                val = val @ t_p + vals[b]
            acc = val if acc is None else acc + val
        out[rows] = acc
    return out


def _monomial(m: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(col, w)`` with row ``r`` of ``m`` equal to ``w[r] e_col[r]``.

    Read off exact zeros: ``None`` unless every row and every column of
    ``m`` holds at most one nonzero entry.  An empty row has ``w = 0``.
    """
    nz = m != 0
    if (np.count_nonzero(nz, axis=0) > 1).any() or (np.count_nonzero(nz, axis=1) > 1).any():
        return None
    col = np.argmax(nz, axis=1)
    return col, m[np.arange(m.shape[0]), col]


def _eval_monomial(cols: np.ndarray, t: tuple, s: tuple) -> np.ndarray | None:
    """:func:`_eval_columns` for monomial factors, given by :func:`_monomial`
    as ``t`` for the rows of ``T`` and ``s`` for the columns of ``S``.

    Row ``r`` of ``T^j`` is ``w_j(r) e_{pi^j(r)}``: the orbit table is
    one gather and one product per degree.  ``c_m(T)`` is ``c_mj w_j(r)``
    put into the cells ``(r, pi^j(r))`` of nonzero weight, summed by
    ``np.add.at`` only where a cycle of nonzero weights revisits a cell.
    ``S`` enters by the right Horner of :func:`_eval_dense`,
    ``acc = acc S + c_m(T)``.  Column ``c`` of ``acc S`` is the column of
    ``acc`` that ``S`` moves to ``c``, times its weight.  For a diagonal
    ``S`` nothing moves, so ``acc`` is kept on the cells of ``T``'s orbits
    alone (those of every nilpotent ``T`` are distinct, and each
    ``c_m(T)`` adds in place); otherwise on every cell, gathered each
    step.  The scale is written in real parts,
    ``(ar sr - ai si, ar si + ai sr)``, which rounds as Python's complex
    product does; numpy's complex ``*`` may fuse a multiply and an add.
    ``None`` when an orbit weight is not finite.
    """
    (t_col, t_w), (s_row, s_w) = t, s
    n = t_col.size
    nonzero = cols.any(axis=1)
    top = int(np.flatnonzero(nonzero)[-1])
    deg = int(np.flatnonzero(cols.any(axis=0))[-1])
    pos = np.empty((deg + 1, n), dtype=np.intp)
    w = np.empty((deg + 1, n), dtype=np.complex128)
    pos[0], w[0] = np.arange(n), 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, deg + 1):
            pos[j] = t_col[pos[j - 1]]
            np.multiply(w[j - 1], t_w[pos[j - 1]], out=w[j])
    if not np.isfinite(w.view(np.float64)).all():
        return None
    j, r = np.nonzero(w)
    cell = r * n + pos[j, r]
    weight = w[j, r]
    seen = np.zeros(n * n, dtype=bool)
    seen[cell] = True
    revisits = np.count_nonzero(seen) < cell.size
    src = np.where(s_w != 0, s_row, np.arange(n))
    moves = bool((src != np.arange(n)).any())
    if moves:
        cells, slot = np.arange(n * n), cell
    elif revisits:
        cells = np.flatnonzero(seen)
        slot = np.searchsorted(cells, cell)
    else:
        cells, slot = cell, None
    col = cells % n
    gather = cells - col + src[col] if moves else None
    sr, si = s_w.real[col], s_w.imag[col]
    acc = np.zeros((2, cells.size))  # real and imaginary parts
    prod = np.empty_like(acc)
    for m in range(top, -1, -1):
        if m < top:
            if gather is not None:
                acc = acc[:, gather]
            np.multiply(acc, si, out=prod)
            acc *= sr
            acc[0] -= prod[1]
            acc[1] += prod[0]
        if not nonzero[m]:
            continue
        v = (cols[m, j] * weight).view(np.float64).reshape(-1, 2).T
        if revisits:
            np.add.at(acc, (slice(None), slot), v)
        elif slot is None:
            acc += v
        else:
            acc[:, slot] += v
    out = np.zeros(n * n, dtype=np.complex128)
    out.real[cells], out.imag[cells] = acc
    return out.reshape(n, n)


def _eval_columns(cols: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_m c_m(T) S^m`` for the coefficient table ``cols[m] = c_m``.

    Two routes, chosen by the exact zeros of the factors alone.  When
    ``T`` and ``S`` are both monomial, at most one nonzero in every row
    and every column (the shift and the diagonal of the model pair, and
    their permutations), :func:`_eval_monomial` follows ``T``'s orbits and
    gathers and scales the columns for ``S``.  Every other pair, and a
    monomial one whose orbit weights leave the double range, goes to
    :func:`_eval_dense`.  A zero table or an empty matrix gives zeros.
    Both routes run without numpy's warnings, and a result with an entry
    that is not finite (a power or product past the double range, or the
    ``inf * 0`` such a product meets in a matrix product) is a
    :class:`PreconditionError`.
    """
    if not (cols.any() and t.size):
        return np.zeros(t.shape, dtype=np.complex128)
    t_rows = _monomial(t)
    s_cols = _monomial(s.T) if t_rows is not None else None
    with np.errstate(over="ignore", invalid="ignore"):
        out = _eval_monomial(cols, t_rows, s_cols) if s_cols is not None else None
        if out is None:
            out = _eval_dense(cols, t, s)
    if not np.isfinite(out).all():
        bad = np.count_nonzero(~np.isfinite(out))
        raise PreconditionError(
            f"the matrix function leaves the double range: {bad} of {out.size} entries "
            "are not finite"
        )
    return out
