"""Resource budgets shared across the package.

All enumerative and dense-linear-algebra routines check these caps up
front and fail loudly instead of thrashing.  The dense budget may be
raised for a one-off run through the environment, everything else is a
hard package constant.
"""

from __future__ import annotations

import os

# Largest internal (fiber) dimension N accepted anywhere.
MAX_MATRIX_DIM = 16

# Joint-spectral enumeration cap: time_ordered_apply walks N**n index
# tuples and refuses to start past this many.
ENUMERATION_BUDGET = 10**6

# Largest power accepted by time_ordered_monomial.
MONOMIAL_MAX_POWER = 12

# Largest matrix order sent to a dense eigensolver / factorization.
DEFAULT_DENSE_BUDGET = 4096
DENSE_BUDGET_ENV = "CLRLAB_DENSE_BUDGET"


def dense_budget() -> int:
    """Dense-solve order cap, overridable via CLRLAB_DENSE_BUDGET."""
    raw = os.environ.get(DENSE_BUDGET_ENV)
    if raw is None:
        return DEFAULT_DENSE_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{DENSE_BUDGET_ENV} must be an integer, got {raw!r}"
        ) from exc
    if value <= 0:
        raise ValueError(f"{DENSE_BUDGET_ENV} must be positive, got {value}")
    return value
