"""Hot numeric kernels: the twisted product and the power formula.

The power formula, and the product of sparse tables, cost what their
term pairs cost.  A term is a monomial ``x^wi y^wk`` with coefficient
``c`` and a twist exponent ``e`` it already carries.  A head term times
a tail term is

    c_h c_t q^(e_h + e_t + wk_h*wi_t)  at cell  (wi_h + wi_t, wk_h + wk_t),

since the tail's x-degrees cross the head's y-degrees.
:func:`_scatter_pairs` forms every head×tail pair, at most :data:`CHUNK`
pairs at a time (a block of head rows times the whole tail), and adds
each term into its cell with ``np.add.at``.

* ``qmul_full`` scatters the support of ``a`` (head) against the
  support of ``b`` (tail), or runs one Toeplitz matmul per nonzero
  column of ``a`` over ``b``'s nonzero bounding box, whichever
  :data:`PAIR_COST` prices lower.  Given a degree, the matmuls form
  only the cells of the truncation box.
* ``qpow_formula`` splits each index s-tuple into a head of ``s // 2``
  factors and a tail of the rest, so that
  ``e = e_head + e_tail + K_head*I_tail``; it enumerates each half once
  and joins the two blocks through :func:`_scatter_pairs`.

:mod:`qplane.qalgebra` calls both through the module attributes
``qmul_full`` and ``qpow_formula``.

Every twist ``q^e`` comes from :func:`_twist`, and both routes form a
term as ``c_h·(c_t·q^e)``, so it rounds alike on either.  At ``|q| > 1``
a twist can overflow: every cell its term lands in is non-finite, and
no other: ``0 * inf`` never spreads a NaN to its neighbours.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .holo import _powers

CHUNK = 2048  # term pairs per step of _scatter_pairs
# The price of one term pair of the pair route in scaled-box cells of
# the column route.  At D = 32 and 64 (2 vCPUs, x86-64, numpy 2.4, one
# BLAS thread) a pair cost 22-37 ns on banded, random-sparse and dense
# tables; a cell cost 12-20 ns where every column of the left factor
# holds one term (diagonal tables) and 37-86 ns where its columns need a
# matmul (banded, random-sparse, dense).
PAIR_COST = 1


def _toeplitz(v: np.ndarray, width: int, rows: int) -> np.ndarray:
    """The first ``rows`` rows of the banded Toeplitz matrix ``T[r, j] = v[r - j]``.

    ``T`` has ``width`` columns and at most ``len(v)+width-1`` rows;
    ``T @ m`` convolves ``v`` with every column of ``m``.
    """
    pad = np.zeros(width - 1, dtype=v.dtype)
    windows = sliding_window_view(np.concatenate([pad, v, pad]), width)[:rows]
    return np.ascontiguousarray(windows[:, ::-1])


def _support(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries, in row-major order."""
    return np.divmod(np.flatnonzero(table.astype(bool)), table.shape[1])


def _twist(q: complex, emax: int):
    """``e -> q^e`` on integer arrays with ``0 <= e <= emax``.

    ``q^e = q^(base*(e // base)) * q^(e % base)`` with ``base`` about
    ``sqrt(emax)``: two tables of about ``sqrt(emax)`` powers each, not
    one of ``emax``.  Call it, and the function it returns, under
    ``np.errstate(over="ignore", invalid="ignore")``: at ``|q| > 1``
    powers overflow, and the callers find those entries.
    """
    base = math.isqrt(emax) + 1
    fine = _powers(q, base)
    coarse = _powers(fine[-1] * q, emax // base + 1)

    def power(e: np.ndarray) -> np.ndarray:
        hi, lo = np.divmod(e, base)
        return coarse[hi] * fine[lo]

    return power


def _scatter_pairs(out: np.ndarray, head, tail, q: complex) -> None:
    """Add the product of every head term with every tail term into ``out``.

    ``head`` and ``tail`` are ``(wi, wk, e, c)`` arrays; the pair
    ``(h, t)`` adds ``c_h·(c_t·q^(e_h + e_t + wk_h*wi_t))`` to cell
    ``(wi_h + wi_t, wk_h + wk_t)``.  Each step takes as many head rows
    as fit :data:`CHUNK` pairs against the whole tail (a tail longer
    than :data:`CHUNK` is taken in slices), so no temporary holds more
    than :data:`CHUNK` pairs.  ``np.add.at`` adds a step's terms into
    the flat table; its cost does not grow with the table, unlike a
    ``np.bincount`` over the step's cell span (2048 pairs into a
    129 x 129 table: 6-9 us against 16-43 us for the real and imaginary
    bincounts).
    """
    hi, hk, he, hc = head
    ti, tk, te, tc = tail
    width = out.shape[1]
    flat = out.reshape(-1)  # a view: out is C-contiguous
    hcell = hi * width + hk
    tcell = ti * width + tk
    step_t = min(ti.size, CHUNK)
    step_h = CHUNK // step_t
    with np.errstate(over="ignore", invalid="ignore"):
        twist = _twist(q, int(he.max() + te.max() + hk.max() * ti.max()))
        for t0 in range(0, ti.size, step_t):
            t = slice(t0, t0 + step_t)
            for h0 in range(0, hi.size, step_h):
                h = slice(h0, h0 + step_h)
                e = (he[h, None] + te[t]) + hk[h, None] * ti[t]
                term = twist(e)  # a fresh array, scaled in place
                term *= tc[t]
                term *= hc[h, None]
                # 1-D operands keep np.add.at on its fast path
                np.add.at(flat, (hcell[h, None] + tcell[t]).ravel(), term.ravel())


def qmul_full(
    a: np.ndarray, b: np.ndarray, q: complex, degree: int | None = None
) -> np.ndarray:
    """Normal-ordered product of two coefficient tables.

    ``a[i, k]`` is the coefficient of the monomial with x-degree ``i``
    and y-degree ``k``.  Reordering the middle factors costs the twist
    q^(i2*k1), so

        out[n, m] = sum_{i1+i2=n, k1+k2=m} q^(i2*k1) a[i1,k1] b[i2,k2].

    Untruncated, the result has shape ``(da+db+1, ka+kb+1)``.  Each
    operand's support is found once, and one of two routes forms the
    table:

    * pairs: the support of ``a`` (head) against that of ``b`` (tail)
      through :func:`_scatter_pairs`, with ``e = k1*i2``;
    * columns: column ``k1`` of ``a``, trimmed to its nonzero span,
      convolves every column of ``b``'s nonzero bounding box with rows
      scaled by q^(i2*k1).  Scaled entries that overflow stay out of
      that matmul, and the cells their terms reach are set to NaN.

    The pair route is taken when ``PAIR_COST * nnz(a) * nnz(b)`` is below
    the column route's scaled-box cells, ``cols(a) * box(b)``, counted
    untruncated.

    ``degree`` truncates the column route: it returns exactly the
    ``(degree+1, degree+1)`` box, and for each column ``k1`` forms only
    the Toeplitz rows of output rows ``<= degree``, the rows
    ``i2 <= degree - first`` of ``b``'s box (``first`` the column's
    lowest x-degree) and its columns ``k2 <= degree - k1``, and marks
    overflowed terms only there.  The pair route ignores ``degree`` and
    returns the untruncated table, so a caller that passes ``degree``
    tells the two apart by the shape and truncates itself.  A zero
    operand runs neither route: the result is the zero table, the box
    when ``degree`` is given.
    """
    q = complex(q)
    whole = (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1)
    shape = whole if degree is None else (degree + 1, degree + 1)
    k1, i1 = _support(a.T)  # column by column
    i2, k2 = _support(b)
    if i1.size == 0 or i2.size == 0:
        return np.zeros(shape, dtype=np.complex128)
    # a's nonzero columns are runs of equal k1; b's rows come sorted
    bounds = [0, *(np.flatnonzero(k1[1:] != k1[:-1]) + 1).tolist(), k1.size]
    r0, r1 = int(i2[0]), int(i2[-1]) + 1
    c0, c1 = int(k2.min()), int(k2.max()) + 1
    if PAIR_COST * i1.size * i2.size < (len(bounds) - 1) * (r1 - r0) * (c1 - c0):
        out = np.zeros(whole, dtype=np.complex128)
        _scatter_pairs(
            out,
            (i1, k1, np.zeros_like(i1), a[i1, k1]),
            (i2, k2, np.zeros_like(i2), b[i2, k2]),
            q,
        )
        return out
    out = np.zeros(shape, dtype=np.complex128)
    top, right = shape[0] - 1, shape[1] - 1  # the highest x- and y-degree kept
    cols = k1[bounds[:-1]]
    with np.errstate(over="ignore", invalid="ignore"):
        twist = _twist(q, (r1 - 1) * int(cols[-1]))(np.arange(r0, r1)[:, None] * cols)
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            col, first, last = int(cols[j]), int(i1[lo]), int(i1[hi - 1])
            inner = min(r1, top - first + 1) - r0  # rows i2 < r0 + inner of b's box
            width = min(c1, right - col + 1) - c0  # columns k2 < c0 + width
            if inner <= 0 or width <= 0:
                continue
            span = a[first : min(last, top - r0) + 1, col]
            box = b[r0 : r0 + inner, c0 : c0 + width]
            scaled = box * twist[:inner, j, None]
            overflowed = ~np.isfinite(scaled)
            if overflowed.any():
                scaled[overflowed] = 0
                overflowed &= box != 0  # a zero entry times inf is no term
            rows = min(top - first - r0 + 1, span.size + inner - 1)  # output rows kept
            block = out[first + r0 : first + r0 + rows, col + c0 : col + c0 + width]
            if span.size == 1:  # the Toeplitz matrix would be a multiple of I
                block += span[0] * scaled
            else:
                block += _toeplitz(span, inner, rows) @ scaled
            if overflowed.any():
                hits = _toeplitz((span != 0).astype(float), inner, rows) @ overflowed
                block[hits > 0] = np.nan
    return out


def _tuple_block(ii: np.ndarray, kk: np.ndarray, aa: np.ndarray, n: int):
    """``(wi, wk, e, c)`` of every n-tuple of support terms, in lexicographic order.

    Each tuple's base-``m`` digits are peeled off its rank from the last
    factor to the first, so the running x-weight is the suffix sum that
    the next y-degree couples to.
    """
    m = len(ii)
    rank = np.arange(m**n)
    coeff = np.ones(rank.size, dtype=np.complex128)
    wi, wk, e = np.zeros((3, rank.size), dtype=np.int64)
    for _ in range(n):
        rank, digit = np.divmod(rank, m)
        k = kk[digit]
        e += wi * k
        wi += ii[digit]
        wk += k
        coeff *= aa[digit]
    return wi, wk, e, coeff


def qpow_formula(
    ii: np.ndarray, kk: np.ndarray, aa: np.ndarray, s: int, q: complex
) -> np.ndarray:
    """s-th power of a sparse table by direct multi-index enumeration.

    ``(ii[t], kk[t], aa[t])`` lists the support monomials.  Every
    s-tuple drawn from the support contributes its coefficient product
    times q^e to the cell (sum of x-degrees, sum of y-degrees), where e
    couples each y-degree with the x-degrees of all later factors:

        e = sum_{t=1}^{s-1} (i_{t+1} + ... + i_s) * k_t.

    A tuple is a head of ``s // 2`` factors followed by a tail of the
    rest, so ``e = e_head + e_tail + K_head*I_tail``.  Both blocks are
    enumerated once and every head×tail pair is formed on its own before
    it is summed (:func:`_scatter_pairs`).
    """
    shape = (s * int(ii.max()) + 1, s * int(kk.max()) + 1)
    out = np.zeros(shape, dtype=np.complex128)
    head = _tuple_block(ii, kk, aa, s // 2)
    tail = _tuple_block(ii, kk, aa, s - s // 2)
    _scatter_pairs(out, head, tail, complex(q))
    return out
