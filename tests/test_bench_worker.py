"""The benchmark worker's cold start (bench/worker.py).

Before every operation the worker clears each cache it finds in the
package (_package_caches), so every round costs what a fresh ``clrlab``
command does.  These tests load the worker read-only and pin that it
finds the lattice's LAPACKE routine cache and that clearing everything
it lists leaves each cache empty.
"""

import importlib.util
from pathlib import Path

from clrlab import lattice

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def _worker():
    spec = importlib.util.spec_from_file_location("worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_clears_the_package_caches_before_each_operation():
    caches = _worker()._package_caches()
    assert lattice._lapacke_routines in caches
    lattice._lapacke_routines()
    assert lattice._lapacke_routines.cache_info().currsize == 1
    for cache in caches:  # what the worker does before each operation
        cache.cache_clear()
    assert all(cache.cache_info().currsize == 0 for cache in caches)
