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
  support of ``b`` (tail), or contracts ``a``'s nonzero columns with
  ``b``'s nonzero bounding box in a few blocked GEMMs
  (:func:`_column_blocks`), whichever :data:`PAIR_COST` prices lower.
  Given a degree, the GEMMs form only the cells of the truncation box.
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

import bisect
import math

import numpy as np

from .holo import _powers

CHUNK = 2048  # term pairs per step of _scatter_pairs
# The price of one term pair of the pair route in scaled-box cells of
# the column route.  At D = 32 and 64 (2 vCPUs, x86-64, numpy 2.4, one
# BLAS thread, q = 0.5+0.25j) a pair cost 29-37 ns on banded,
# random-sparse and dense tables, and a cell of the blocked GEMMs 9-18
# ns on diagonal, banded, random-sparse and dense ones.
PAIR_COST = 3
BLOCK = 2**14  # complex entries in one GEMM operand of the column route
_LIFT = 2.0**600  # exact lift of the twisted rows near the subnormal range
_NEAR = 2.0**-960  # a row below this may hold subnormal parts: a part can be far below |c|
_LIFTABLE = 2.0**-800  # a row below this stays below 2^-200 when lifted
_HUGE = 2.0**1022  # a row below this forms no non-finite entry


def _support(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries, in row-major order.

    The table goes through ``astype(bool)`` first: numpy finds the
    nonzeros of a bool array 2-5 times faster than of a complex one, so
    the two passes beat one (a one-term 65 x 65 table: 5 against 24 us).
    """
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


def _column_blocks(out, a, b, q: complex, cols, firsts, lasts, box) -> None:
    """Add ``a[n-i2, k1]·(b[i2, k2]·q^(i2·k1))`` into ``out[n, k1+k2]`` over every term.

    ``cols`` are the nonzero columns of ``a`` (ascending), ``firsts`` and
    ``lasts`` their lowest and highest nonzero rows, and ``box`` is
    ``(r0, r1, c0, c1)``, the rows and columns of ``b``'s nonzero
    bounding box.  Only the cells of ``out`` are formed: the rows of the
    box, output rows and columns that cannot reach them are trimmed.

    The sum over ``(k1, i2)`` runs as one GEMM per block of at most
    ``per`` consecutive columns ``k1`` (a block also ends where its
    columns start to reach rows near the subnormal range, below):

    * the left operand ``A[n, (i2, k1)] = a[n-i2, k1]`` is a strided
      Toeplitz view of the block's columns, ``i2`` descending;
    * the right operand holds the box's rows times ``q^(i2·k1)``, each
      shifted right by ``k1``.

    ``per`` keeps each operand within :data:`BLOCK` complex entries, and
    one workspace holds both for every block.  Before any row is formed,
    it is bounded by ``|q^(i2·k1)|·max|b[i2, :]|``:

    * in a block whose columns reach rows below 2^-960 (within 2^62 of
      the subnormal range, where an entry's real or imaginary part may
      be subnormal), the trailing rows bounded below 2^-800 in every
      column of the block go to their own GEMM, each lifted by an exact
      :data:`_LIFT` once formed and the result moved back down: BLAS,
      which takes 2-8x longer on subnormal operands, sees normal numbers.
      Rows past the block's last nonzero bound drop out;
    * a row not bounded below 2^1022 may overflow: its non-finite entries
      stay out of the GEMM, and the cells their terms reach are set to
      NaN (a 0 entry times an infinite twist is no term).
    """
    r0, r1, c0, c1 = box
    top, right = out.shape[0] - 1, out.shape[1] - 1
    emax = (r1 - 1) * int(cols[-1])  # so q^e splits as on the pair route
    landing = (cols <= right - c0) & (firsts <= top - r0)
    if not landing.all():
        cols, firsts, lasts = cols[landing], firsts[landing], lasts[landing]
        if not cols.size:
            return
    low = int(firsts.min())
    inner = min(r1, top - low + 1) - r0  # rows of the box in use
    wide = min(c1, right - int(cols[0]) + 1) - c0  # its columns in use
    rows = min(top, int(lasts.max()) + r1 - 1) - low - r0 + 1  # output rows reached
    # per columns: at most rows*inner*per and inner*per*(wide+per-1) entries
    per = (math.isqrt((wide - 1) ** 2 + 4 * (BLOCK // inner)) - wide + 1) // 2
    per = max(1, min(per, BLOCK // (rows * inner), int(cols[-1] - cols[0]) + 1))
    span = per - 1  # the farthest a block shifts a row of b
    colist, firstl, lastl = cols.tolist(), firsts.tolist(), lasts.tolist()
    # a block ends where a's columns skip one, so its shifts step by 1
    breaks = np.diff(cols) != 1
    with np.errstate(over="ignore", invalid="ignore"):
        twist = _twist(q, emax)(np.arange(r0, r0 + inner)[:, None] * cols)
        bound = np.abs(twist)
        bound *= np.abs(b[r0 : r0 + inner, c0 : c0 + wide]).max(axis=1)[:, None]
        held = None  # per column: rows up to its last nonzero bound
        if not (bound >= _NEAR).all():  # near subnormal, 0 or NaN somewhere
            nonzero = bound != 0
            held = np.where(nonzero.any(axis=0), inner - nonzero[::-1].argmax(axis=0), 0)
            liftable = bound < _LIFTABLE
            tail = np.where(liftable.all(axis=0), inner, (~liftable[::-1]).argmax(axis=0))
            held, lifted = held.tolist(), (inner - tail).tolist()  # lifted: its tail's first row
            near = (bound < _NEAR).any(axis=0)
            breaks |= np.diff(near) != 0  # and where they start to reach _NEAR
            near = near.tolist()
        ends = [*(np.flatnonzero(breaks) + 1).tolist(), cols.size]
        risky = ~(bound < _HUGE)
        risky = risky.any(axis=0).tolist() if risky.any() else None
        # one workspace: b's box with span zero columns each side, then per
        # block a's padded columns, both operands and the GEMM's result.
        # Taken after the twist's temporaries are freed: before them, glibc
        # trimmed and regrew the heap on every dense D = 64 product (about
        # 210 minor page faults each in a fresh process, 0 after them)
        sizes = [inner * (wide + 2 * span), (rows + inner - 1) * per, rows * inner * per,
                 inner * per * (wide + span), rows * (wide + span)]
        offsets = np.cumsum([0, *sizes]).tolist()
        work = np.empty(offsets[-1], dtype=np.complex128)
        ext = work[: sizes[0]].reshape(inner, -1)
        ext[:, :span] = 0
        ext[:, span + wide :] = 0
        ext[:, span : span + wide] = b[r0 : r0 + inner, c0 : c0 + wide]
        e0, e1 = ext.strides
        j = 0
        while j < cols.size:
            stop = min(
                bisect.bisect_right(colist, colist[j] + span, j),
                ends[bisect.bisect_right(ends, j)],
            )
            first, last = min(firstl[j:stop]), max(lastl[j:stop])
            n = lift = min(r1, top - first + 1) - r0  # rows i2 < r0 + n of the box
            if held is not None:
                n = lift = min(n, max(held[j:stop]))
                if any(near[j:stop]):
                    lift = min(n, max(lifted[j:stop]))
            if n <= 0:
                j = stop
                continue
            lo, hi = first + r0, min(top, last + r0 + n - 1) + 1  # output rows
            mlo, mhi = colist[j] + c0, min(right + 1, colist[stop - 1] + c1)  # output columns
            m, w, nj = hi - lo, mhi - mlo, stop - j
            # lhs[u, (t, j)] = pad[u + t, j] = a[lo + u - i2, k1] with t = n-1 - (i2-r0)
            base = lo - r0 - n + 1  # the row of a in pad's first row
            pad = work[offsets[1] : offsets[1] + (m + n - 1) * nj].reshape(-1, nj)
            x0, x1 = max(base, 0), min(base + m + n - 1, a.shape[0])
            pad[: x0 - base] = 0
            pad[x1 - base :] = 0
            pad[x0 - base : x1 - base] = a[x0:x1, colist[j] : colist[stop - 1] + 1]
            lhs = work[offsets[2] : offsets[2] + m * n * nj].reshape(m, -1)
            np.copyto(lhs, np.ndarray(lhs.shape, lhs.dtype, pad, 0, pad.strides))
            # rhs[(t, j), c] = b[i2, mlo + c - k1]·q^(i2·k1), from ext
            rhs = work[offsets[3] : offsets[3] + n * nj * w].reshape(n, nj, w)
            corner = (n - 1) * e0 + span * e1  # ext[n-1, span]: t = 0, j = 0, c = 0
            shifted = np.ndarray(rhs.shape, rhs.dtype, work, corner, (-e0, -e1, e1))
            np.multiply(shifted, twist[n - 1 :: -1, j:stop, None], out=rhs)
            rhs = rhs.reshape(-1, w)
            res = work[offsets[4] : offsets[4] + m * w].reshape(m, w)
            block = out[lo:hi, mlo:mhi]
            split = (n - lift) * nj  # the lifted rows i2 >= r0 + lift come first
            if split:
                rhs[:split] *= _LIFT
                np.matmul(lhs[:, :split], rhs[:split], out=res)
                res *= 1 / _LIFT
                block += res
                lhs, rhs = lhs[:, split:], rhs[split:]
            bad = None
            if risky is not None and any(risky[j:stop]):
                bad = ~np.isfinite(rhs)
                rhs[bad] = 0
                bad &= shifted.reshape(-1, w)[split:] != 0
            if rhs.size:
                block += np.matmul(lhs, rhs, out=res)
            if bad is not None and bad.any():
                block[(lhs != 0).astype(float) @ bad > 0] = np.nan
            j = stop


def _monomial_times(out, c, i: int, k: int, b, q: complex, box) -> None:
    """Add ``c x^i y^k`` times ``b`` into ``out``.

    The term ``c·(b[i2, k2]·q^(i2·k))`` lands at ``(i+i2, k+k2)``;
    ``box``, ``b``'s nonzero bounding box, is trimmed to the cells of
    ``out``.  A twisted entry that overflows stays out, and its cell is
    set to NaN (a 0 entry times an infinite twist is no term).
    """
    r0, r1, c0, c1 = box
    emax = (r1 - 1) * k  # so q^e splits as on the pair route
    r1, c1 = min(r1, out.shape[0] - i), min(c1, out.shape[1] - k)
    if r1 <= r0 or c1 <= c0:
        return
    part = b[r0:r1, c0:c1]
    block = out[i + r0 : i + r1, k + c0 : k + c1]
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = part * _twist(q, emax)(np.arange(r0, r1) * k)[:, None]
        overflowed = ~np.isfinite(scaled)
        hit = overflowed.any()
        if hit:
            scaled[overflowed] = 0
        block += c * scaled
        if hit:
            block[overflowed & (part != 0)] = np.nan


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
    * columns: the sum over ``(k1, i2)`` of ``a``'s nonzero columns
      times ``b``'s nonzero bounding box, its rows scaled by
      q^(i2*k1), as a few blocked GEMMs (:func:`_column_blocks`); a
      one-term ``a`` scales and shifts the box instead
      (:func:`_monomial_times`).  Scaled entries that overflow stay out
      of the GEMMs, and the cells their terms reach are set to NaN.

    The pair route is taken when ``PAIR_COST * nnz(a) * nnz(b)`` is below
    the column route's scaled-box cells, ``cols(a) * box(b)``, counted
    untruncated.

    ``degree`` truncates the column route: it returns exactly the
    ``(degree+1, degree+1)`` box, and each block of columns forms only
    output rows and columns ``<= degree`` and the rows
    ``i2 <= degree - first`` of ``b``'s box (``first`` the block's
    lowest x-degree), and marks overflowed terms only there.  The pair route ignores ``degree`` and
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
    if i1.size == 1:  # a monomial: b's box shifted and twisted, no GEMM
        _monomial_times(out, a[i1[0], k1[0]], int(i1[0]), int(k1[0]), b, q, (r0, r1, c0, c1))
        return out
    starts = bounds[:-1]
    _column_blocks(
        out, a, b, q, k1[starts], i1[starts], i1[np.subtract(bounds[1:], 1)], (r0, r1, c0, c1)
    )
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
