"""Independent brute-force reference implementations for the tests.

Everything here is deliberately written against the definitions, not
against the library: plain nested loops in python complex arithmetic
and Gaussian elimination for ranks, so disagreements point at the
library, not a shared bug.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qplane.errors import NonConvergenceError
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


# ---------------------------------------------------------------------------
# the per-point loops the geometry layer used before it worked on arrays
# ---------------------------------------------------------------------------


def naive_calc(cols, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_m c_m(T) S^m``: per-column matrix Horner times explicit ``S^m``.

    ``cols[m]`` is the coefficient vector of ``c_m``; each ``c_m(T)`` is
    built by Horner in ``T`` and multiplied by ``S^m`` formed by repeated
    products, one column at a time.
    """
    n = t.shape[0]
    eye = np.eye(n, dtype=complex)
    acc = np.zeros((n, n), dtype=complex)
    s_pow = eye.copy()
    for m, c in enumerate(cols):
        if m > 0:
            s_pow = s_pow @ s
        c = np.asarray(c, dtype=complex)
        nz = np.flatnonzero(c)
        if nz.size == 0:
            continue
        val = np.zeros((n, n), dtype=complex)
        for a in c[nz[-1]::-1]:
            val = val @ t
            if a != 0:
                val += a * eye
        acc += val @ s_pow
    return acc


def model_y_spectrum(q: complex, n: int) -> list[complex]:
    """The y-branch ``{(0, q^m) : m < n}`` of the spectrum of ``model_pair(q, n)``.

    The pair generates the lower-triangular matrices, and relative to
    that algebra ``aT + b(S - mu) = I`` has a solution exactly when
    ``mu`` is none of the diagonal entries ``q^m`` of ``S``.  Returns the
    points ``q^m``; the closed form is stated for ``0 < |q| < 1`` only.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 < abs(q) < 1:
        raise ValueError(f"closed form needs 0 < |q| < 1, got q = {q}")
    return [complex(q) ** m for m in range(n)]


def _disk_union_contains(du, z: complex) -> bool:
    return any(abs(z - d.center) < d.radius for d in du.disks)


def naive_hull_contains(hull, z: complex, max_steps: int = 100_000) -> bool:
    """Hull membership by walking every copy ``q^n`` of the base from ``n = 0``.

    A base that is itself a hull is asked the same way, copy by copy;
    the walk stops once the shrinking copies can no longer reach ``z``
    (``|z / q^n| >= r``, tested on the quotient so that ``|q^n| r`` is
    not rounded first at the bottom of the double range), or once
    ``q^n`` underflows to 0.
    """
    z = complex(z)
    if z == 0:
        return True
    base = hull.base
    member = (
        (lambda w: naive_hull_contains(base, w, max_steps))
        if isinstance(base, type(hull))
        else (lambda w: _disk_union_contains(base, w))
    )
    r = base.bounding_radius()
    if r == 0.0 or abs(z) >= r:
        return member(z) if abs(z) < r else False
    n_stop = min(int(math.log(abs(z) / r) / math.log(abs(hull.q))) + 2, max_steps)
    scale = 1.0 + 0.0j
    for _ in range(n_stop + 1):
        if member(z / scale):
            return True
        scale *= hull.q
        if scale == 0 or abs(z / scale) >= r:
            break
    return False


def naive_is_q_spiraling(member, box, q: complex, samples: int, seed: int,
                         retry_factor: int = 50) -> bool:
    """The spiraling check one draw at a time.

    Each draw takes ``Re z`` then ``Im z`` from the seeded stream; the
    first ``samples`` members must keep ``q z`` in the set.
    """
    re_lo, re_hi, im_lo, im_hi = box
    if not member(0.0 + 0.0j):
        return False
    if samples < 1:
        return True
    rng = np.random.default_rng(seed)
    accepted = 0
    budget = samples * retry_factor
    for _ in range(budget):
        z = complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))
        if not member(z):
            continue
        accepted += 1
        if not member(q * z):
            return False
        if accepted >= samples:
            break
    if accepted == 0:
        raise NonConvergenceError(f"rejection sampling found no member points in {budget} draws")
    return True


def _naive_rank_with_stability(m: np.ndarray, rank_tol: float) -> tuple[int, bool]:
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0, True
    threshold = rank_tol * sv[0]
    rank = int(np.count_nonzero(sv > threshold))
    near = np.any((sv > threshold / 10.0) & (sv < threshold * 10.0))
    return rank, not bool(near)


def naive_homology_dims(comp, rank_tol: float):
    """``(h0, h1, h2, stable)`` of one complex, ranking ``d0`` and ``d1`` one SVD each."""
    from qplane.errors import PreconditionError

    if not rank_tol > 0:
        raise PreconditionError(f"rank_tol must be positive, got {rank_tol}")
    r0, stable0 = _naive_rank_with_stability(comp.d0, rank_tol)
    r1, stable1 = _naive_rank_with_stability(comp.d1, rank_tol)
    n = comp.n
    h0, h1, h2 = n - r0, (2 * n - r1) - r0, n - r1
    stable = stable0 and stable1
    if h1 < 0:
        h1, stable = 0, False
    return h0, h1, h2, stable


def naive_spectrum_scan(pair, axis: str, grid, rank_tol: float = 1e-10) -> list:
    """Scan rows one grid point at a time: ``build``, then :func:`naive_homology_dims`."""
    from qplane import koszul as kz

    rows = []
    for g in grid.points():
        gamma = (g, 0j) if axis == "x" else (0j, g)
        try:
            h0, h1, h2, stable = naive_homology_dims(kz.build(pair, gamma), rank_tol)
        except Exception as exc:
            rows.append(kz.ScanRow(g.real, g.imag, axis, -1, -1, -1, False, False, str(exc)))
        else:
            rows.append(kz.ScanRow(g.real, g.imag, axis, h0, h1, h2,
                                   h0 > 0 or h1 > 0 or h2 > 0, stable))
    return rows
