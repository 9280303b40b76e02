"""The benchmark's workloads: fixed, seeded lists of ``run_experiment`` calls.

Every configuration field is written out, so a later change to an
experiment's defaults cannot silently change what a workload runs.  The
benchmark seed only picks the experiment seeds; sizes and trial counts are
fixed here.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib

import numpy as np

from clrlab.harness.reports import ExperimentConfig, derive_seed


def _sub_seed(workload: str, op: str, seed: int, attempt: int = 0) -> int:
    """Experiment seed for one operation, a 32-bit hash of its coordinates."""
    key = f"{workload}/{op}/{seed}/{attempt}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")


def _config(experiment: str, seed: int, trials: int, *, n_max: int = 4,
            N_max: int = 3, grid_points=None, options=None) -> ExperimentConfig:
    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        trials=trials,
        n_max=n_max,
        N_max=N_max,
        grid_points=grid_points,
        tolerances={},
        out=None,
        options=dict(options or {}),
    )


def bs_fiber_dims(seed: int, trials: int) -> list[int]:
    """Fiber dimension N of each first draw of bs-equivalence on a 3-D box.

    Mirrors the experiment's draw order for a pinned grid: the per-trial
    generator first draws the spacing h, then N in {1, 2}.  A redraw (an
    eigenvalue inside the zero band) can still change N; the realised mix
    is read back from the records and reported.
    """
    dims = []
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(seed, trial << 8))
        rng.uniform(0.4, 0.8)
        dims.append(int(rng.integers(1, 3)))
    return dims


def enumeration_terms(seed: int, trials: int, n_min: int, n_max: int, N_max: int) -> int:
    """Sum of N**n over the trials of a timeorder-consistency or jensen run.

    Mirrors the first two draws of each trial, n in [n_min, n_max] and then
    N in [1, N_max]; N**n is the size of the joint-spectral enumeration the
    trial runs, the part of its cost that varies most between trials.
    """
    total = 0
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(seed, trial))
        n = int(rng.integers(n_min, n_max + 1))
        total += int(rng.integers(1, N_max + 1)) ** n
    return total


def trotter_quadrature_cube(seed: int) -> int:
    """Sum of dim**3 over the ten t-quadrature instances of a trotter run.

    Mirrors the first draws of the experiment's instance ``20000 + i``
    (sites m in [6, 12], spacing, then N in {1, 2}); each instance
    integrates 256-step Trotter traces of a dim x dim matrix, dim = m N.
    """
    total = 0
    for i in range(10):
        rng = np.random.default_rng(derive_seed(seed, 20_000 + i))
        m = int(rng.integers(6, 13))
        rng.uniform(0.3, 0.7)
        total += (m * int(rng.integers(1, 3))) ** 3
    return total


def bs_default_dims(seed: int, trials: int) -> list[int]:
    """Order dim = sites * N of each first draw of bs-equivalence's default mix.

    Mirrors the experiment's draw order with no pinned grid: every fourth
    trial is a 3x3x3 box with N in {1, 2}; the others draw a 1-D grid of
    8-14 sites, then the spacing h, then N in {1, 2, 3}.
    """
    dims = []
    for trial in range(trials):
        rng = np.random.default_rng(derive_seed(seed, trial << 8))
        if trial % 4 == 3:
            sites, cap = 27, 2
        else:
            sites, cap = int(rng.integers(8, 15)), 3
        rng.uniform(0.4, 0.8)
        dims.append(sites * int(rng.integers(1, cap + 1)))
    return dims


def _steered_seed(workload: str, op: str, seed: int, accept) -> int:
    """First candidate experiment seed whose instance sizes pass ``accept``.

    The seed still decides the inputs; the target only fixes how much work
    they make, so that the workload's cost depends on the code rather than
    on which seed the benchmark was given.
    """
    for attempt in range(10_000):
        s = _sub_seed(workload, op, seed, attempt)
        if accept(s):
            return s
    raise RuntimeError(f"no {workload}/{op} seed meets its size target")


def _near_mean(value: float, samples: list, count: int, tol: float) -> bool:
    """Whether a sum of ``count`` uniform draws from ``samples`` is near its mean."""
    mean = count * sum(samples) / len(samples)
    return abs(value / mean - 1.0) <= tol


# The 9x9x9 bs-equivalence trials draw N = 1 and N = 2: an N = 2 trial
# costs about eight times an N = 1 trial.
BS3D_FIBERS = [1, 2]


def _grid3d(seed: int) -> list[ExperimentConfig]:
    bs_seed = _steered_seed(
        "grid3d", "bs-equivalence", seed,
        lambda s: bs_fiber_dims(s, len(BS3D_FIBERS)) == BS3D_FIBERS)
    return [
        _config("clr-survey", _sub_seed("grid3d", "clr-survey", seed), 3,
                options={"refinements": [7, 11, 15], "amplitude": 600.0}),
        _config("bs-equivalence", bs_seed, len(BS3D_FIBERS), N_max=2,
                grid_points=(9, 9, 9)),
    ]


BS_TRIALS = 300


def _small_grids(seed: int) -> list[ExperimentConfig]:
    # The trotter operation's time varied about twofold between free seeds;
    # with sum(dim**3) of its quadrature instances within 5 % of the mean
    # it varies little.
    cubes = [(m * n) ** 3 for m in range(6, 13) for n in (1, 2)]
    trotter_seed = _steered_seed(
        "small-grids", "trotter", seed,
        lambda s: _near_mean(trotter_quadrature_cube(s), cubes, 10, 0.05))
    # The bs-equivalence operation's cost follows the trials' orders: the
    # scalar loops over eigenvalues go with sum(dim), the dense spectra with
    # sum(dim**3).  Both moved by 5-10 % between free seeds; steered to
    # within 2 % of their means they move little.
    line_dims = [m * n for m in range(8, 15) for n in (1, 2, 3)]
    box_dims = [27, 54]

    def typical_bs(s):
        dims = bs_default_dims(s, BS_TRIALS)
        boxes = BS_TRIALS // 4
        lines = BS_TRIALS - boxes
        return all(
            abs(sum(d**p for d in dims)
                / (lines * np.mean(np.power(line_dims, p))
                   + boxes * np.mean(np.power(box_dims, p))) - 1.0) <= 0.02
            for p in (1, 3))

    bs_seed = _steered_seed("small-grids", "bs-equivalence", seed, typical_bs)
    return [
        _config("bs-equivalence", bs_seed, BS_TRIALS),
        _config("trotter", trotter_seed, 50),
    ]


def _timeorder_op(experiment: str, seed: int, trials: int, n_min: int,
                  n_max: int = 8, N_max: int = 4) -> ExperimentConfig:
    # A few trials with N = 4 and n = 8 (65536 terms each) dominate the
    # enumeration; a free draw moves the cost by tens of percent.
    sizes = [N**n for n in range(n_min, n_max + 1) for N in range(1, N_max + 1)]
    steered = _steered_seed(
        "timeorder", experiment, seed,
        lambda s: _near_mean(enumeration_terms(s, trials, n_min, n_max, N_max),
                             sizes, trials, 0.02))
    return _config(experiment, steered, trials, n_max=n_max, N_max=N_max)


def _timeorder(seed: int) -> list[ExperimentConfig]:
    # timeorder-consistency draws n in [2, n_max], jensen n in [1, n_max].
    return [
        _timeorder_op("timeorder-consistency", seed, 300, 2),
        _timeorder_op("jensen", seed, 600, 1),
    ]


# The reference kernel (worker.py) that each workload's times are scaled by.
REFERENCE_KIND = {
    "grid3d": "dense",
    "small-grids": "small",
    "timeorder": "small",
}

WORKLOADS = {
    "grid3d": _grid3d,
    "small-grids": _small_grids,
    "timeorder": _timeorder,
}


def build(workload: str, seed: int) -> list[ExperimentConfig]:
    """The operations of one round of ``workload`` at benchmark seed ``seed``."""
    configs = WORKLOADS[workload](seed)
    for cfg in configs:
        cfg.validate()
    return configs
