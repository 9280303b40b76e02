"""clrlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload grid3d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the one that holds ``src/clrlab``).  The
workload runs in a worker process (bench/worker.py) with BLAS and OpenMP
pinned to one thread.  ``--trace 0`` starts the worker several times to
time set-up, then times whole rounds of the workload for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced rounds and prints the per-layer metrics.  Either way the outputs
are checked (checks.py) and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with machine and version information and the spans of a traced run, is
written to bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("grid3d", "small-grids", "timeorder")

# One BLAS/OpenMP thread: on a shared two-core machine a second thread
# made the small-operator workloads slower and their timings less steady,
# and did not speed up the 3-D ones.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Set-up samples of a --trace 0 run: worker starts before the measured
# worker, the measured worker itself, and worker starts after it.  Spacing
# them around the run keeps a short slow spell of the machine from
# setting the median.
SETUP_BEFORE, SETUP_AFTER = 2, 3
# Hard limit on one invocation, start to finish.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment() -> dict:
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def _spawn(cmd, env, deadline: float):
    """Start a worker and wait for ``ready``; returns (process, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not start (exit code {proc.poll()})")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, elapsed


def _finish(proc, command: str, deadline: float) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=_remaining(deadline))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "clrlab" / "__init__.py").is_file():
        raise BenchError(f"no clrlab sources under {ROOT / 'src'}")
    env = _environment()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]

    def last_json(out: str) -> dict:
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def probe():
        proc, elapsed = _spawn(cmd, env, deadline)
        return elapsed, last_json(_finish(proc, "ref", deadline))

    probes = 0 if args.trace else SETUP_BEFORE
    setup = [probe() for _ in range(probes)]
    proc, elapsed = _spawn(cmd, env, deadline)
    result = last_json(_finish(proc, "go", deadline))
    setup.append((elapsed, result["setup_reference"]))
    setup += [probe() for _ in range(0 if args.trace else SETUP_AFTER)]
    # Each set-up time at the reference speed, as wall_s is (worker.py).
    scaled_setup = [t * ref["nominal_s"] / ref["reference_s"] for t, ref in setup]

    metrics = result["metrics"]
    if not args.trace:
        metrics = {
            "wall_s": metrics["wall_s"],
            "setup_s": {"value": statistics.median(scaled_setup), "unit": "s"},
            "peak_rss_mb": metrics["peak_rss_mb"],
        }
    result.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": [t for t, _ in setup],
        "setup_reference_s": [ref["reference_s"] for _, ref in setup],
        "scaled_setup_samples_s": scaled_setup,
        "machine": {
            "threads": THREADS,
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
        },
        "summary": {
            "correct": not result["problems"],
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        },
    })
    return result


def _write(result: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / (f"{result['workload']}-seed{result['seed']}"
                      f"-trace{result['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
        fh.write("\n")
    return path


def _terminated(signum, frame):
    # Raised where the run waits on a worker, whose handlers then kill it.
    raise BenchError(f"stopped by signal {signum}")


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminated)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    path = _write(result)
    summary = result["summary"]
    machine, versions = result["machine"], result["versions"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {machine['threads']}  nproc {machine['nproc']}  "
          f"cpu {machine['cpu']!r}")
    print("# " + "  ".join(f"{k} {v}" for k, v in versions.items()))
    for error in result["errors"]:
        print(f"# OPERATION FAILED: {error}")
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")
    if args.trace:
        detail = result["detail"]
        print(f"# traced rounds {detail['pairs']}  residual outside spans "
              f"{statistics.median(detail['residual_s']):.4f} s of traced wall "
              f"{statistics.median(detail['traced_wall_s']):.4f} s")
    else:
        detail = result["detail"]
        print(f"# rounds {detail['rounds']}  unscaled wall {detail['unscaled_wall_s']:.4f} s  "
              f"unscaled set-up {statistics.median(result['setup_samples_s']):.4f} s  "
              f"reference kernel median {detail['reference_median_s']:.4f} s")
    for name, entry in summary["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(f"# attempted {summary['attempted']}  failed {summary['failed']}  "
          f"correct {summary['correct']}  result file {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
