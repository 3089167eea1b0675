"""Hot numeric kernels: the untruncated twisted product and power formula.

One numpy implementation each.  The product is one Toeplitz matmul per
nonzero column of the left factor; the power formula enumerates its
index tuples :data:`CHUNK` at a time, which keeps its temporaries small
(well below 1 MiB).  :mod:`qplane.qalgebra` calls both through the
module attributes ``qmul_full`` and ``qpow_formula``.

For ``|q| > 1`` a twist ``q^e`` can overflow.  Every cell that a term
with an overflowed twist lands in is non-finite, and no other cell is
touched by it: ``0 * inf`` never spreads a NaN to its neighbours.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CHUNK = 2048  # index tuples per step of qpow_formula


def _toeplitz(v: np.ndarray, width: int) -> np.ndarray:
    """Banded Toeplitz matrix ``T[r, j] = v[r - j]`` of shape ``(len(v)+width-1, width)``.

    ``T @ m`` convolves ``v`` with every column of ``m``.
    """
    pad = np.zeros(width - 1, dtype=v.dtype)
    windows = sliding_window_view(np.concatenate([pad, v, pad]), width)
    return np.ascontiguousarray(windows[:, ::-1])


def qmul_full(a: np.ndarray, b: np.ndarray, q: complex) -> np.ndarray:
    """Untruncated normal-ordered product of two coefficient tables.

    ``a[i, k]`` is the coefficient of the monomial with x-degree ``i``
    and y-degree ``k``.  Reordering the middle factors costs the twist
    q^(i2*k1), so

        out[n, m] = sum_{i1+i2=n, k1+k2=m} q^(i2*k1) a[i1,k1] b[i2,k2].

    The result has shape ``(da+db+1, ka+kb+1)``; truncation (and the
    loss flag) is the caller's business.  Column ``k1`` of ``a``,
    trimmed to its nonzero span, convolves every column of ``b``'s
    nonzero bounding box with rows scaled by q^(i2*k1).  Scaled entries
    that overflow stay out of that matmul, and the cells their terms
    reach are set to NaN.
    """
    q = complex(q)
    out = np.zeros(
        (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
        dtype=np.complex128,
    )
    rows = np.flatnonzero(b.any(axis=1))
    cols = np.flatnonzero(b.any(axis=0))
    if rows.size == 0:
        return out
    r0, r1, c0, c1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    box = b[r0:r1, c0:c1]
    i2 = np.arange(r0, r1)
    with np.errstate(over="ignore", invalid="ignore"):
        for k1 in np.flatnonzero(a.any(axis=0)):
            nz = np.flatnonzero(a[:, k1])
            span = a[nz[0] : nz[-1] + 1, k1]
            scaled = box * np.power(q, i2 * k1)[:, None]
            overflowed = ~np.isfinite(scaled)
            if overflowed.any():
                scaled[overflowed] = 0
                overflowed &= box != 0  # a zero entry times inf is no term
            block = out[nz[0] + r0 : nz[-1] + r1, k1 + c0 : k1 + c1]
            if nz.size == 1:  # the Toeplitz matrix would be a multiple of I
                block += span[0] * scaled
            else:
                block += _toeplitz(span, r1 - r0) @ scaled
            if overflowed.any():
                hits = _toeplitz((span != 0).astype(float), r1 - r0) @ overflowed
                block[hits > 0] = np.nan
    return out


def qpow_formula(
    ii: np.ndarray, kk: np.ndarray, aa: np.ndarray, s: int, q: complex
) -> np.ndarray:
    """s-th power of a sparse table by direct multi-index enumeration.

    ``(ii[t], kk[t], aa[t])`` lists the support monomials.  Every
    s-tuple drawn from the support contributes its coefficient product
    times q^e to the cell (sum of x-degrees, sum of y-degrees), where e
    couples each y-degree with the x-degrees of all later factors:

        e = sum_{t=1}^{s-1} (i_{t+1} + ... + i_s) * k_t.

    Tuples are taken in lexicographic order, :data:`CHUNK` at a time.
    Each tuple's base-``m`` digits are peeled off its rank from the last
    factor to the first, so the running x-weight is the suffix sum that
    the next y-degree couples to.
    """
    q = complex(q)
    m = len(ii)
    mi, mk = int(ii.max()), int(kk.max())
    shape = (s * mi + 1, s * mk + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.power(q, np.arange(mi * mk * s * (s - 1) // 2 + 1))
    total = m**s
    re = np.zeros(shape[0] * shape[1])
    im = np.zeros_like(re)
    for start in range(0, total, CHUNK):
        rank = np.arange(start, min(start + CHUNK, total))
        coeff = np.ones(rank.size, dtype=np.complex128)
        wi, wk, e = np.zeros((3, rank.size), dtype=np.int64)
        for _ in range(s):
            rank, digit = np.divmod(rank, m)
            k = kk[digit]
            e += wi * k
            wi += ii[digit]
            wk += k
            coeff *= aa[digit]
        with np.errstate(over="ignore", invalid="ignore"):
            term = coeff * powers[e]
        cell = wi * shape[1] + wk
        base = cell.min()
        for acc, part in ((re, term.real), (im, term.imag)):
            seg = np.bincount(cell - base, weights=part)
            acc[base : base + seg.size] += seg
    out = np.empty(shape, dtype=np.complex128)
    out.real = re.reshape(shape)
    out.imag = im.reshape(shape)
    return out
