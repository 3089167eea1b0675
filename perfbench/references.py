"""Independent references the benchmark checks qplane's outputs against.

Each one is written from the definition, not from the library's code
path: a dictionary-based twisted product, the closed form of the worked
logarithm, a Toeplitz assembly of the calculus on the shift model, and a
direct enumeration of hull copies.  The dense product is also checked
against the library's own cross-check routes (``qmul_rowwise``) and the
test suite's quadruple-loop oracle, imported by the workloads.
"""

from __future__ import annotations

import math

import numpy as np


def terms(table: np.ndarray) -> dict[tuple[int, int], complex]:
    ii, kk = np.nonzero(table)
    return {(int(i), int(k)): complex(table[i, k]) for i, k in zip(ii, kk)}


def sparse_qmul(a: dict, b: dict, q: complex, degree: int) -> tuple[dict, bool]:
    """Twisted product ``x^i1 y^k1 * x^i2 y^k2 = q^(i2 k1) x^(i1+i2) y^(k1+k2)``.

    Truncated to ``degree``; the flag says whether nonzero mass was cut.
    """
    out: dict[tuple[int, int], complex] = {}
    lost = False
    for (i1, k1), c1 in a.items():
        for (i2, k2), c2 in b.items():
            c = q ** (i2 * k1) * c1 * c2
            if i1 + i2 > degree or k1 + k2 > degree:
                lost = lost or c != 0
                continue
            key = (i1 + i2, k1 + k2)
            out[key] = out.get(key, 0j) + c
    return out, lost


def to_table(t: dict, degree: int) -> np.ndarray:
    table = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    for (i, k), c in t.items():
        table[i, k] = c
    return table


def weighted_l1(t: dict, rho_x: float, rho_y: float) -> float:
    return float(sum(abs(c) * rho_x**i * rho_y**k for (i, k), c in t.items()))


def log_xy_table(q: complex, c: float, degree: int) -> np.ndarray:
    """``ln(c + xy)``: ``(xy)^n = q^(n(n-1)/2) x^n y^n`` in normal order."""
    table = np.zeros((degree + 1, degree + 1), dtype=np.complex128)
    table[0, 0] = math.log(c)
    for n in range(1, degree + 1):
        table[n, n] = (-1) ** (n + 1) / (n * c**n) * q ** (n * (n - 1) // 2)
    return table


def decay_values(f: dict, q: complex, degree: int, rho: float, s_max: int):
    """Root-power seminorms ``||f^s||_rho^(1/s)`` and the truncation flag."""
    values = [weighted_l1(f, rho, rho)]
    acc, lossy = f, False
    for s in range(2, s_max + 1):
        acc, lost = sparse_qmul(acc, f, q, degree)
        lossy = lossy or lost
        values.append(weighted_l1(acc, rho, rho) ** (1.0 / s))
    return values, lossy


def calc_on_shift_model(rep, n: int) -> np.ndarray:
    """``sum_m f_m(T) S^m`` for the truncated shift ``T`` and ``S = diag(q^j)``.

    ``f_m(T)`` is lower-triangular Toeplitz with the coefficients of
    ``f_m`` down its subdiagonals, and ``S^m`` scales column ``j`` by
    ``q^(m j)``: no matrix powers involved.
    """
    q = complex(rep.q)
    rows, cols = np.indices((n, n))
    lag = rows - cols
    out = np.zeros((n, n), dtype=np.complex128)
    for m, fm in enumerate(rep.f_list):
        c = np.zeros(n, dtype=np.complex128)
        k = min(n, fm.coeffs.size)
        c[:k] = fm.coeffs[:k]
        toeplitz = np.where(lag >= 0, c[np.clip(lag, 0, n - 1)], 0)
        out += toeplitz * q ** (m * np.arange(n))[None, :]
    return out


def hull_members(points: np.ndarray, disks, q: complex) -> np.ndarray:
    """Membership of ``points`` in ``{0} + union_n q^n * (union of disks)``.

    Enumerates the copies ``B(q^n c, |q|^n r)`` directly for every ``n``
    up to the first copy that lies wholly inside ``|w| < |z|``.  A hull of
    a hull with the same ``q`` is the same set, so this serves both.
    """
    z = np.asarray(points, dtype=np.complex128)
    reach = max(abs(c) + r for c, r in disks)
    out = z == 0
    aq = abs(q)
    nonzero = np.abs(z[~out])
    n_max = int(np.max(np.ceil(np.log(nonzero / reach) / np.log(aq)))) + 1 if nonzero.size else 0
    for n in range(max(n_max, 0) + 1):
        scale = q**n
        for c, r in disks:
            out |= np.abs(z - scale * c) < abs(scale) * r
    return out


def spiral_disks(lam: complex, eps: float, delta: float, q: complex):
    """Disks ``B(0, eps)`` and ``B(q^m lam, |q|^m delta)``, ``m = 0..n``.

    ``n`` is the least with ``|q|^(n+1) (|lam| + delta) <= eps``.
    """
    n = 0
    while abs(q) ** (n + 1) * (abs(lam) + delta) > eps:
        n += 1
    return [(0j, eps)] + [(q**m * lam, abs(q) ** m * delta) for m in range(n + 1)]
