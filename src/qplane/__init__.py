"""Desk-scale computations on the q-commuting plane xy = (1/q) yx.

Truncated series arithmetic in the ordered monomial basis, seminorms
and quasinilpotent decay profiles, spiral/disk topology predicates, a
matrix model with a two-variable holomorphic calculus, and an axis
scanner for the joint spectrum of the parametrized complex.
"""

from .errors import (
    InputFormatError,
    NonConvergenceError,
    PreconditionError,
    QPlaneError,
)

__version__ = "0.1.0"

__all__ = [
    "QPlaneError",
    "InputFormatError",
    "PreconditionError",
    "NonConvergenceError",
    "__version__",
]
