"""Trial maps: an experiment's independent trials spread over forked processes.

The forked path is forced by monkeypatching the CPU rule (config.parallel_cpus
reads _SERIAL_BLAS and _usable_cpus), so it runs on any Linux host.  Every
case must leave no child behind and no pipe open.
"""

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import clrlab
from clrlab import config
from clrlab.errors import ClrlabError, SpectralDomainError
from clrlab.harness import ExperimentConfig, experiments, run_experiment

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="trial maps fork on Linux only")

PINNED = dict.fromkeys(["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"], "1")

# Each mapped experiment at a small trial count (trotter maps 1 + 13 instances).
MAPPED = {
    "jensen": 7,
    "holder": 7,
    "timeorder-consistency": 7,
    "trotter": 1,
    "bs-equivalence": 5,
    "clr-survey": 3,
    "lt-moments": 3,
    "remark-probe": 20,
}


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def no_child_left():
    fds = _open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _cpus(monkeypatch, n):
    """Make the CPU rule grant n CPUs, and count the forks that follow."""
    monkeypatch.setattr(config, "_SERIAL_BLAS", True)
    monkeypatch.setattr(config, "_usable_cpus", lambda: n)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _canonical(report) -> str:
    return json.dumps({"records": report.records, "summary": report.summary})


@pytest.mark.parametrize("name", sorted(MAPPED))
def test_forked_records_equal_serial(monkeypatch, name):
    cfg = ExperimentConfig(experiment=name, trials=MAPPED[name])
    _cpus(monkeypatch, 1)
    serial = _canonical(run_experiment(cfg))
    forks = _cpus(monkeypatch, 3)
    assert _canonical(run_experiment(cfg)) == serial
    assert len(forks) == 2


def test_constants_stays_serial(monkeypatch):
    forks = _cpus(monkeypatch, 2)
    assert run_experiment(ExperimentConfig(experiment="constants")).passed
    assert forks == []


def _pids(cfg, i):
    return i, os.getpid()


def _logged(log):
    """_pids that also appends "position pid" to the file log, one line per call."""
    def trial(cfg, i):
        with open(log, "a") as fh:  # one short O_APPEND write per call
            fh.write(f"{i} {os.getpid()}\n")
        return i, os.getpid()

    return trial


def _by_process(calls) -> dict:
    """The positions each process computed, in the order it computed them."""
    positions = {}
    for p, pid in calls:
        positions.setdefault(pid, []).append(p)
    return positions


@pytest.mark.parametrize("workers", [2, 3, 8])  # 8: more workers than most CI hosts' cores
@pytest.mark.parametrize("n", [5, 2500])
def test_workers_drain_one_queue_and_merge_by_position(monkeypatch, tmp_path, workers, n):
    forks = _cpus(monkeypatch, workers)
    log = tmp_path / "calls"
    got = experiments._map_trials(_logged(log), None, range(n))
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert sorted(p for p, _ in calls) == list(range(n))  # each position once
    assert got == sorted(calls)  # merged by position
    assert len(forks) == min(workers, n) - 1
    positions = _by_process(calls)
    assert set(positions) <= {os.getpid(), *forks}
    chunks = min(n, experiments._MAX_CHUNKS)
    for k, pid in enumerate([os.getpid(), *forks]):
        # worker k starts with chunk k: position k when no chunk holds two
        assert positions[pid][0] == k * n // chunks
    for ps in positions.values():
        assert ps == sorted(ps)


def test_a_slow_first_trial_leaves_the_rest_to_the_other_worker(monkeypatch):
    """Position 0 waits until the last position is computed in the child."""
    forks = _cpus(monkeypatch, 2)
    done, done_end = os.pipe()
    n = 5

    def skewed(cfg, i):
        if i == n - 1:
            os.write(done_end, b"x")
        if i == 0:
            ready, _, _ = select.select([done], [], [], 10.0)
            assert ready, "the last position was not computed in another process"
        return i, os.getpid()

    try:
        got = experiments._map_trials(skewed, None, range(n))
    finally:
        os.close(done)
        os.close(done_end)
    assert [i for i, _ in got] == list(range(n))
    assert _by_process(got) == {os.getpid(): [0], forks[0]: list(range(1, n))}


def test_serial_without_a_second_cpu_or_with_few_trials(monkeypatch):
    forks = _cpus(monkeypatch, 1)
    assert experiments._map_trials(_pids, None, range(4)) == [(i, os.getpid()) for i in range(4)]
    forks = _cpus(monkeypatch, 4)
    assert experiments._map_trials(_pids, None, range(1)) == [(0, os.getpid())]
    assert experiments._map_trials(_pids, None, []) == []
    assert forks == []
    # an unpinned BLAS grants one CPU whatever the host has
    monkeypatch.setattr(config, "_SERIAL_BLAS", config._serial_blas({}))
    assert config.parallel_cpus() == 1
    assert experiments._map_trials(_pids, None, range(4)) == [(i, os.getpid()) for i in range(4)]
    assert forks == []


def test_serial_while_another_thread_is_alive(monkeypatch):
    forks = _cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        got = experiments._map_trials(_pids, None, range(4))
    finally:
        release.set()
        thread.join()
    assert got == [(i, os.getpid()) for i in range(4)] and forks == []


def _nested(cfg, i):
    return experiments._map_trials(_pids, cfg, range(3))


def test_a_forked_share_maps_its_own_trials_serially(monkeypatch):
    forks = _cpus(monkeypatch, 2)
    got = experiments._map_trials(_nested, None, range(2))
    assert len(forks) == 1
    for inner, pid in zip(got, [os.getpid(), forks[0]]):
        assert inner == [(i, pid) for i in range(3)]


def _failing_at(*bad):
    trial = experiments._jensen_trial

    def failing(cfg, i):
        if i in bad:
            raise SpectralDomainError(f"trial {i} failed")
        return trial(cfg, i)

    return failing


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("bad", [(3, 6), (4, 5), (0, 7)])
def test_the_lowest_failing_trial_raises_as_in_the_serial_loop(monkeypatch, workers, bad):
    monkeypatch.setattr(experiments, "_jensen_trial", _failing_at(*bad))
    cfg = ExperimentConfig(experiment="jensen", trials=9)
    _cpus(monkeypatch, 1)
    with pytest.raises(Exception) as serial:
        run_experiment(cfg)
    forks = _cpus(monkeypatch, workers)
    with pytest.raises(Exception) as forked:
        run_experiment(cfg)
    assert len(forks) == workers - 1
    assert type(forked.value) is type(serial.value) is SpectralDomainError
    assert str(forked.value) == str(serial.value) == f"trial {bad[0]} failed"


@pytest.mark.parametrize("workers", [2, 3])
def test_the_lowest_failure_of_a_map_of_several_positions_per_chunk(monkeypatch, workers):
    def failing(cfg, i):
        if i in (1500, 2999):
            raise SpectralDomainError(f"trial {i} failed")
        return i

    forks = _cpus(monkeypatch, workers)
    with pytest.raises(SpectralDomainError, match="^trial 1500 failed$"):
        experiments._map_trials(failing, None, range(3000))
    assert len(forks) == workers - 1


@pytest.mark.parametrize("death, status", [
    (lambda: os._exit(3), "3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "-9"),
])
def test_a_dead_child_raises_naming_its_exit_status(monkeypatch, death, status):
    forks = _cpus(monkeypatch, 2)
    parent = os.getpid()

    def dies_in_the_child(cfg, i):
        if os.getpid() != parent and i == 1:
            death()
        return i

    with pytest.raises(ClrlabError, match=f"died with exit status {status}$"):
        experiments._map_trials(dies_in_the_child, None, range(8))
    assert len(forks) == 1


def test_the_children_are_killed_when_the_parent_is_interrupted(monkeypatch):
    forks = _cpus(monkeypatch, 3)
    parent = os.getpid()

    def slow_children(cfg, i):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        experiments._map_trials(slow_children, None, range(6))
    assert len(forks) == 2
    assert time.monotonic() - start < 30


# The CLI in a fresh interpreter.  The line printed before the run sits in the
# stdout buffer when the trials fork (stdout is a pipe, and PYTHONUNBUFFERED
# is cleared): a child that flushed its copy on exit would print it twice.
CLI = """
import sys
from clrlab.harness.cli import main
print("before the run")
code = main(sys.argv[1:])
print("after the run")
sys.exit(code)
"""


def test_cli_report_same_pinned_and_unpinned(tmp_path):
    root = str(Path(clrlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items()
            if k not in PINNED and k != "PYTHONUNBUFFERED"}
    reports = []
    for side, env in (("pinned", PINNED), ("unpinned", {})):
        out = tmp_path / side
        proc = subprocess.run(
            [sys.executable, "-c", CLI, "bs-equivalence", "--trials", "8", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**base, "PYTHONPATH": path, **env})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["before the run", "after the run"]
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("[PASS] bs-equivalence: 32 records")
        assert len(lines) == len(set(lines)) == 2, proc.stderr
        report = json.loads((out / "report.json").read_text())
        del report["timestamp"]
        del report["config"]["out"]
        reports.append(report)
    assert reports[0] == reports[1]
