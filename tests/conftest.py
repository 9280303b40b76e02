import numpy as np
import pytest


@pytest.fixture
def decomposition_counts(monkeypatch, serial_trials):
    """Count the matrices matcore validates and decomposes, and its eigh calls.

    ``validated`` and ``decomposed`` count matrices, the sum of the stack
    sizes passed to the tuple check and to ``np.linalg.eigh``; ``eigh``
    counts calls, one per stack.
    """
    import clrlab.matcore as matcore

    counts = {"validated": 0, "decomposed": 0, "eigh": 0}
    check, eigh = matcore._require_hermitian_tuple, np.linalg.eigh

    def counted_check(*args, **kwargs):
        stack = check(*args, **kwargs)
        counts["validated"] += len(stack)
        return stack

    def counted_eigh(a, *args, **kwargs):
        counts["eigh"] += 1
        counts["decomposed"] += int(np.prod(np.shape(a)[:-2], dtype=int))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(matcore, "_require_hermitian_tuple", counted_check)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return counts


@pytest.fixture
def serial_trials(monkeypatch):
    """Keep every experiment's trials in this process.

    With a pinned BLAS and two usable CPUs the trial maps fork, and the
    calls a forked worker makes never reach counters or tracers installed
    here; tests that count calls across a run take this fixture.
    """
    from clrlab.harness import experiments

    monkeypatch.setattr(experiments, "_forkable", lambda: False)
