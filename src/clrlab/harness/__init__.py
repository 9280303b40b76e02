"""Experiment harness: seeded generators, orchestration, reports, CLI."""

from .generators import (
    POTENTIAL_STYLES,
    generate_potential,
    random_admissible_function,
    random_psd_tuple,
    rng_from,
)
from .reports import ExperimentConfig, ExperimentReport, derive_seed
from .experiments import EXPERIMENT_NAMES, EXPERIMENTS, run_experiment

__all__ = [
    "EXPERIMENTS",
    "EXPERIMENT_NAMES",
    "POTENTIAL_STYLES",
    "ExperimentConfig",
    "ExperimentReport",
    "derive_seed",
    "generate_potential",
    "random_admissible_function",
    "random_psd_tuple",
    "rng_from",
    "run_experiment",
]
