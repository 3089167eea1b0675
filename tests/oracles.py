"""Independent brute-force reference implementations for the tests.

Everything here is deliberately written against the definitions, not
against the library: plain nested loops in python complex arithmetic
and Gaussian elimination for ranks, so disagreements point at the
library, not a shared bug.
"""

from __future__ import annotations

import itertools

import numpy as np

from qplane.qalgebra import QSeries


def conv_oracle(a, b):
    """Cauchy product coefficients by explicit double loop."""
    out = [0j] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += complex(ai) * complex(bj)
    return out


def naive_qmul(fa: np.ndarray, fb: np.ndarray, q: complex) -> np.ndarray:
    """Twisted product table by quadruple loop over all monomial pairs."""
    da, ka = fa.shape[0] - 1, fa.shape[1] - 1
    db, kb = fb.shape[0] - 1, fb.shape[1] - 1
    out = np.zeros((da + db + 1, ka + kb + 1), dtype=complex)
    for i1 in range(da + 1):
        for k1 in range(ka + 1):
            if fa[i1, k1] == 0:
                continue
            for i2 in range(db + 1):
                for k2 in range(kb + 1):
                    if fb[i2, k2] == 0:
                        continue
                    out[i1 + i2, k1 + k2] += (
                        complex(q) ** (i2 * k1) * fa[i1, k1] * fb[i2, k2]
                    )
    return out


def naive_qpow_formula(ii, kk, aa, s: int, q: complex) -> np.ndarray:
    """Untruncated s-th power by a plain loop over every s-tuple of support terms.

    The tuple drawing monomials ``(ii[t], kk[t])`` with coefficients
    ``aa[t]`` adds its coefficient product times
    ``q^(sum_t (i_{t+1} + ... + i_s) k_t)`` to cell ``(|I|, |K|)``.
    """
    m = len(ii)
    out = np.zeros((s * int(max(ii)) + 1, s * int(max(kk)) + 1), dtype=complex)
    for idx in itertools.product(range(m), repeat=s):
        coeff = 1 + 0j
        for t in idx:
            coeff *= complex(aa[t])
        if coeff == 0:
            continue
        exp = 0
        suffix = 0
        for t in range(s - 1, 0, -1):
            suffix += int(ii[idx[t]])
            exp += suffix * int(kk[idx[t - 1]])
        wi = sum(int(ii[t]) for t in idx)
        wk = sum(int(kk[t]) for t in idx)
        out[wi, wk] += coeff * complex(q) ** exp
    return out


def gauss_rank(m: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Rank by Gaussian elimination with partial pivoting.

    A pivot counts when it exceeds ``rel_tol`` times the largest entry
    of the input matrix.
    """
    a = np.array(m, dtype=complex)
    rows, cols = a.shape
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale == 0.0:
        return 0
    threshold = rel_tol * scale
    rank = 0
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[pivot, col]) <= threshold:
            continue
        a[[row, pivot]] = a[[pivot, row]]
        a[row] = a[row] / a[row, col]
        for r in range(rows):
            if r != row and a[r, col] != 0:
                a[r] = a[r] - a[r, col] * a[row]
        row += 1
        rank += 1
    return rank


def oracle_homology(d0: np.ndarray, d1: np.ndarray, n: int,
                    rel_tol: float = 1e-8) -> tuple[int, int, int]:
    """Homology dimensions from row-reduction ranks.

    kernel/cokernel dimensions follow from rank-nullity:
    ``h0 = n - rank d0``, ``h1 = (2n - rank d1) - rank d0``,
    ``h2 = n - rank d1``.
    """
    r0 = gauss_rank(d0, rel_tol)
    r1 = gauss_rank(d1, rel_tol)
    return (n - r0, (2 * n - r1) - r0, n - r1)


def random_qseries(rng, q, degree, nterms, maxdeg, mixed_only=False) -> QSeries:
    """Random sparse series with ``nterms`` support monomials."""
    table = np.zeros((degree + 1, degree + 1), dtype=complex)
    lo = 1 if mixed_only else 0
    for _ in range(nterms):
        i = int(rng.integers(lo, maxdeg + 1))
        k = int(rng.integers(lo, maxdeg + 1))
        table[i, k] = complex(rng.standard_normal(), rng.standard_normal())
    return QSeries(q, table)
