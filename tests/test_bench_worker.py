"""The benchmark worker's cold start (bench/worker.py).

Before every operation the worker clears each cache it finds in the
package (_package_caches), so every round costs what a fresh ``clrlab``
command does.  These tests load the worker read-only and pin that it
finds the lattice's shape cache and can clear everything it lists.
"""

import importlib.util
from pathlib import Path

from clrlab import lattice
from clrlab.lattice import GridSpec, _axis_modes

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def _worker():
    spec = importlib.util.spec_from_file_location("worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worker_clears_the_shape_cache_before_each_operation():
    caches = _worker()._package_caches()
    assert lattice._shape_cached in caches
    _axis_modes(5, 0.5)
    lattice._unit_columns_in_modes(GridSpec(d=1, points_per_axis=(5,), h=0.5), [0, 2])
    assert lattice._shape_entries
    for cache in caches:  # what the worker does before each operation
        cache.cache_clear()
    assert not lattice._shape_entries and lattice._shape_bytes == 0
