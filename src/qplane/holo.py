"""One-variable truncated analytic series with weighted-l1 disk norms.

A series is kept as its first ``D+1`` Taylor coefficients at the
origin.  The norm ``sum_n |a_n| rho^n`` controls the series on the disk
of radius ``rho`` and is submultiplicative for the Cauchy product, which
is what makes these usable as coefficient algebras for the bivariate
layer and as inputs to the matrix functional calculus.

Truncation never errors: any operation that would push mass beyond the
kept degree returns a result with ``lossy=True`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError

__all__ = [
    "HoloSeries",
    "log_series",
    "scale_coeffs",
    "sup_norm_on_circle",
]


def _as_coeffs(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).reshape(-1).copy()
    if arr.size == 0:
        raise ValueError("a series needs at least the constant coefficient")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError("series coefficients must be finite")
    arr.flags.writeable = False
    return arr


def scale_coeffs(coeffs: np.ndarray, c: complex) -> np.ndarray:
    """``a_n -> c^n a_n``: the coefficients of the substituted series
    ``z -> c*z``.

    Exact zeros stay zero (``0 * inf`` is never formed).  A product that
    overflows is left non-finite, without a warning, for the caller to
    drop or reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.power(complex(c), np.arange(coeffs.size))
        return np.where(coeffs != 0, coeffs * powers, 0)


def _l1_from_logs(coeffs: np.ndarray, log_weights: np.ndarray) -> float:
    """``sum |a| w`` over the nonzero ``a``, from the logs of the weights.

    The fallback for a weighted norm whose direct sum came out
    non-finite: no ``0 * inf`` is formed for a weight past the double
    range, and a sum that does leave the range is ``inf``, not NaN.
    """
    nz = coeffs != 0
    if not nz.any():
        return 0.0
    with np.errstate(over="ignore", under="ignore"):
        logs = np.log(np.abs(coeffs[nz])) + log_weights[nz]
        top = logs.max()
        if not np.isfinite(top):
            return math.inf
        return float(np.exp(top) * np.sum(np.exp(logs - top)))


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
        deg = np.arange(self.coeffs.size)
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(np.abs(self.coeffs) * float(rho) ** deg))
        if math.isfinite(total):
            return total
        return _l1_from_logs(self.coeffs, deg * math.log(rho))

    def __call__(self, z: complex) -> complex:
        """Horner evaluation of the kept polynomial."""
        acc = 0.0 + 0.0j
        for a in self.coeffs[::-1]:
            acc = acc * z + a
        return complex(acc)

    def eval_matrix(self, m: np.ndarray) -> np.ndarray:
        """Horner evaluation ``sum_n a_n M^n`` on a square matrix."""
        m = np.asarray(m, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
        n = m.shape[0]
        top = self.max_degree
        if top < 0:
            return np.zeros((n, n), dtype=np.complex128)
        acc = np.zeros((n, n), dtype=np.complex128)
        eye = np.eye(n, dtype=np.complex128)
        for a in self.coeffs[top::-1]:
            acc = acc @ m
            if a != 0:
                acc += a * eye
        return acc


def log_series(c: float, degree: int) -> HoloSeries:
    """Expansion of ``ln(c + z)`` about the origin, truncated.

    The coefficients are ``ln c`` and ``(-1)^(n+1) / (n c^n)`` for
    ``n >= 1``; they converge on ``|z| < c``, so callers should keep
    their evaluation radii below ``c``.
    """
    if not c > 0:
        raise PreconditionError(f"log offset must be positive, got {c}")
    a = np.zeros(degree + 1, dtype=np.complex128)
    a[0] = math.log(c)
    n = np.arange(1, degree + 1)
    a[1:] = (-1.0) ** (n + 1) / (n * np.power(float(c), n))
    return HoloSeries(a)


def sup_norm_on_circle(f: HoloSeries, rho: float, samples: int = 256) -> float:
    """Estimated sup of ``|f|`` on the circle of radius ``rho``.

    Samples equally spaced boundary points only, so this is a lower
    estimate of the true sup norm; the sampling density needed for a
    guaranteed bound is not pinned down here.
    """
    if not 0 < rho < math.inf:
        raise PreconditionError(f"circle radius must be positive and finite, got {rho}")
    if samples < 1:
        raise PreconditionError("need at least one sample point")
    theta = 2.0 * np.pi * np.arange(samples) / samples
    z = rho * np.exp(1j * theta)
    values = np.polyval(f.coeffs[::-1], z)  # polyval wants highest degree first
    return float(np.max(np.abs(values)))
