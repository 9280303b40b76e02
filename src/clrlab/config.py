"""Resource budgets shared across the package, and the rule for using more CPUs.

All enumerative and dense-linear-algebra routines check these caps up
front and fail loudly instead of thrashing.  The dense budget may be
raised for a one-off run through the environment, everything else is a
hard package constant.  parallel_cpus() says how many CPUs the package
may keep busy at once (h_and_k_spectra's second thread, the forked
workers that take an experiment's trials from one queue).
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


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _serial_blas(environ) -> bool:
    """Whether the environment pins BLAS to one thread.

    True when at least one of the BLAS thread variables is set and every one
    that is set equals "1"; an unpinned BLAS may use every core already.
    """
    values = [environ[k].strip() for k in _BLAS_THREAD_VARS if k in environ]
    return bool(values) and all(v == "1" for v in values)


_SERIAL_BLAS = _serial_blas(os.environ)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_cpus() -> int:
    """CPUs the package may keep busy at once: the usable CPUs when BLAS is
    pinned to one thread (read once at import), else 1."""
    return _usable_cpus() if _SERIAL_BLAS else 1
