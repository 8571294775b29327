"""Exact rational tools for weighted binary digit sums, Takagi-Landsberg
curves, summatory closed forms, and limiting curves of dyadic-odometer
ergodic sums.

Everything assertable is computed in stdlib Fractions; floats appear
only in explicitly certified approximations and in plot output.

The top level exports the documented API listed in README's "Library
API" section; every other name is imported from its submodule.
"""

from .digitsum import (
    OracleBudgetError,
    QParam,
    partial_sum_bruteforce_at,
    partial_sum_fast,
    partial_sum_pow2,
    weighted_digit_sum,
)
from .limiting_curve import theorem1_experiment
from .odometer import NoStabilizingLevelError, RegisterOverflowError
from .takagi import (
    DeRhamSystem,
    InconsistentSystemError,
    derham_eval,
    takagi_dyadic_exact,
    takagi_series,
)
from .trollope_delange import g_profile, td_generalized

__version__ = "0.1.0"

__all__ = [
    "QParam",
    "weighted_digit_sum",
    "partial_sum_fast",
    "partial_sum_pow2",
    "partial_sum_bruteforce_at",
    "DeRhamSystem",
    "derham_eval",
    "takagi_dyadic_exact",
    "takagi_series",
    "td_generalized",
    "g_profile",
    "theorem1_experiment",
    "OracleBudgetError",
    "InconsistentSystemError",
    "NoStabilizingLevelError",
    "RegisterOverflowError",
]
