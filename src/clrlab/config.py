"""Resource budgets shared across the package, and the rule for using more CPUs.

All enumerative and dense-linear-algebra routines check these caps up
front and fail loudly instead of thrashing.  The dense budget may be
raised for a one-off run through the environment, everything else is a
hard package constant.  Each wheel OpenBLAS runs on one thread
(wheel_openblas), whatever the shell says.  parallel_cpus() says how many
CPUs the package may keep busy at once (h_and_k_spectra's second thread,
the forked workers that take an experiment's trials from one queue).
"""

from __future__ import annotations

import ctypes
import glob
import importlib
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


# The OpenBLAS that Linux wheels of numpy and scipy ship in numpy.libs and
# scipy.libs, and the suffix of its symbols (numpy's is ILP64).
_WHEEL_OPENBLAS = {"numpy": ("libscipy_openblas64_-*.so", "64_"),
                   "scipy": ("libscipy_openblas-*.so", "")}
_OPENBLAS: dict = {}  # package: its wheel's OpenBLAS, None where it has no setter


def wheel_openblas(package: str):
    """The OpenBLAS of package's wheel, set to one thread by the first call
    (two threads racing on it both set it).  None where it exports no
    scipy_openblas_set_num_threads (MKL, Accelerate, another wheel layout):
    that BLAS keeps the threads its environment gives it."""
    if package in _OPENBLAS:
        return _OPENBLAS[package]
    pattern, suffix = _WHEEL_OPENBLAS[package]
    root = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
    for path in sorted(glob.glob(os.path.join(root, package + ".libs", pattern))):
        try:
            lib = ctypes.CDLL(path)
            setter = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            getter = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(1)
        break
    else:
        lib = None
    _OPENBLAS[package] = lib
    return lib


def blas_threads() -> dict:
    """{"numpy": threads read back from numpy's wheel OpenBLAS}, or "not set
    by clrlab" where it has no setter.  import clrlab sets it in every
    process; scipy's is opened only by the routines that use it, so listing
    it would make the value depend on what ran before in the process."""
    lib = wheel_openblas("numpy")
    return {"numpy": "not set by clrlab" if lib is None
            else lib.scipy_openblas_get_num_threads64_()}


wheel_openblas("numpy")  # numpy has loaded it, so it is set before any call


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parallel_cpus() -> int:
    """CPUs the package may keep busy at once: the usable CPUs, or 1 where a
    BLAS the lab looked up could not be set to one thread (wheel_openblas)."""
    return 1 if None in _OPENBLAS.values() else _usable_cpus()
