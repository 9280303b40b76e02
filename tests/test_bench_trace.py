"""The benchmark's call tracer (bench/tracing.py) over real experiment runs.

The tracer wraps the package's layer boundaries by module attribute and
reads arguments of the wrapped calls by name or position, so these runs
pin that the package's call forms stay readable by it: hamiltonian's V in
particular, from which the bs-equivalence spectra tally takes H's order.
"""

import importlib.util
from pathlib import Path

from clrlab.harness import ExperimentConfig, run_experiment
from clrlab.harness import experiments

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_experiments_fill_the_lattice_metrics(serial_trials):
    # serial_trials: a forked share's spans never reach this process's tracer
    tracing = _tracing()
    tracer = tracing.Tracer()
    cfgs = [ExperimentConfig(experiment="bs-equivalence", trials=8),
            ExperimentConfig(experiment="trotter", trials=2),
            ExperimentConfig(experiment="lt-moments", trials=1)]
    hamiltonian = experiments.hamiltonian
    with tracing.installed(tracer):
        reports = [tracer.experiment_call(run_experiment, cfg) for cfg in cfgs]
    assert experiments.hamiltonian is hamiltonian  # the wrappers are removed again
    assert all(report.passed for report in reports)
    metrics = tracer.metrics()
    assert metrics["lattice.hamiltonian_s"] > 0.0
    # one dense spectrum of H and one of K per trial, as a full-support K has H's order
    assert metrics["harness.bs_spectra_per_trial"] == 2.0
