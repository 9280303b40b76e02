"""One benchmark process: import clrlab, say ``ready``, run one workload.

Started by run.py with the workload arguments.  After the imports it
prints ``ready`` and reads one line from stdin: ``ref`` times the
reference kernel and prints the time as JSON (a set-up sample), ``go``
does the same, then runs the workload and prints one JSON object as its
last stdout line; anything else, or end of input, ends the process.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import clrlab
from clrlab.harness.experiments import run_experiment

# Everything above is the program's set-up; what follows is the benchmark.


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _package_caches() -> list:
    """Every functools cache defined in a clrlab module.

    Cleared before each operation, so each run_experiment call starts as
    cold as a fresh ``clrlab`` command does, and repeated rounds do not
    reuse each other's factorizations.
    """
    caches = []
    for name, module in list(sys.modules.items()):
        if name != "clrlab" and not name.startswith("clrlab."):
            continue
        for obj in vars(module).values():
            if (callable(getattr(obj, "cache_clear", None))
                    and getattr(obj, "__module__", None) == name):
                caches.append(obj)
    return caches


def _canonical(report) -> str:
    return json.dumps({"records": report.records, "summary": report.summary},
                      sort_keys=True)


# The reference kernels: fixed pieces of work built from numpy and scipy
# alone, so nothing in clrlab can change their cost.  The host's speed
# drifts by up to 1.6x over seconds to minutes; timing a kernel right
# before and right after each operation measures the speed the operation
# ran at.  Each workload is scaled by the kernel most like its own work
# (workloads.REFERENCE_KIND):
#   "small": in small what the small-operator workloads do: sparse
#       Kronecker-sum assembly and a SuperLU solve, dense eigvalsh and LDL
#       of order 27 and 54, a scalar Python loop over eigenvalues and 3x3
#       products in a Python loop; six passes, about 20-30 ms.
#   "dense": eigvalsh and LDL of one symmetric matrix of order 600, about
#       40 ms, like the large dense solves of grid3d.
# On the small-operator workloads "small" followed the operations' times
# more closely than a pure Python loop or eigvalsh of order 160 did; on
# grid3d "dense" followed them more closely than "small" (see README.md).
SMALL_PASSES = 6
DENSE_ORDER = 600
REFERENCE_REPEATS = 3
# Each kernel's median time on the machine of README.md's figures.  An
# operation's time is scaled by the nominal time over its reference time,
# i.e. to the speed at which the kernel takes its nominal time.
REFERENCE_NOMINAL_S = {"small": 0.025, "dense": 0.042}


class Reference:
    """One reference kernel, with inputs made once from a fixed seed."""

    def __init__(self, kind: str):
        # Imported here, after ``ready``, so that set-up time is clrlab's.
        import scipy.linalg
        import scipy.sparse
        import scipy.sparse.linalg

        self.kind, self.nominal_s = kind, REFERENCE_NOMINAL_S[kind]
        self.ldl, self.sparse, self.splu = (
            scipy.linalg.ldl, scipy.sparse, scipy.sparse.linalg.splu)
        rng = np.random.default_rng(12345)
        orders = (27, 54) if kind == "small" else (DENSE_ORDER,)
        self.dense = [a + a.T for a in (rng.standard_normal((k, k)) for k in orders)]
        self.small = [a @ a.T for a in (rng.standard_normal((3, 3)) for _ in range(6))]

    def _small_pass(self, dense):
        sp = self.sparse
        stencil = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(3, 3), format="csr")
        eye = sp.identity(3)
        lap = (sp.kron(sp.kron(stencil, eye), eye) + sp.kron(sp.kron(eye, stencil), eye)
               + sp.kron(sp.kron(eye, eye), stencil)).tocsc()
        self.splu(lap).solve(np.ones(27))
        self.ldl(dense)
        total = 0.0
        for x in np.linalg.eigvalsh(dense):
            total += math.exp(-abs(x)) * math.log1p(abs(x))
        m = np.eye(3)
        for a in self.small:
            for b in self.small:
                m = m @ a @ b
                m = m / np.abs(m).max()
        return total

    def _once(self) -> float:
        t0 = time.perf_counter()
        if self.kind == "small":
            for i in range(SMALL_PASSES):
                self._small_pass(self.dense[i % 2])
        else:
            np.linalg.eigvalsh(self.dense[0])
            self.ldl(self.dense[0])
        return time.perf_counter() - t0

    def time(self) -> float:
        """Seconds the reference kernel takes now.

        The median of REFERENCE_REPEATS timings: a single timing now and
        then read twice its neighbours, a blip that an operation lasting
        seconds averages out.
        """
        return statistics.median(self._once() for _ in range(REFERENCE_REPEATS))


class Round:
    """Times and reports of one pass over the workload's operations.

    With a ``Reference``, the reference kernel is timed before the
    first operation and after each one: ``refs[i]`` and ``refs[i + 1]``
    bracket operation ``i``.
    """

    def __init__(self, configs, caches, call, reference=None):
        self.times, self.reports, self.errors, self.refs = [], [], [], []
        start = time.perf_counter()
        for cfg in configs:
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            if reference is not None and not self.refs:
                self.refs.append(reference.time())
            t0 = time.perf_counter()
            try:
                report = call(cfg)
            except Exception as exc:  # counted as a failed operation
                report = None
                self.errors.append(f"{cfg.experiment}: {type(exc).__name__}: {exc}")
            self.times.append(time.perf_counter() - t0)
            self.reports.append(report)
            if reference is not None:
                self.refs.append(reference.time())
        self.wall = time.perf_counter() - start

    def scaled_times(self, nominal_s: float) -> list[float]:
        """Operation times at the reference speed."""
        return [t * 2.0 * nominal_s / (before + after)
                for t, before, after in zip(self.times, self.refs, self.refs[1:])]

    @property
    def failed(self) -> int:
        return sum(r is None for r in self.reports)


def _rounds(seconds: float, run_one) -> list:
    """Whole rounds while the next one is expected to end within ``seconds``."""
    done = []
    start = time.perf_counter()
    while True:
        done.append(run_one())
        elapsed = time.perf_counter() - start
        if elapsed * (len(done) + 1) / len(done) > seconds:
            return done


def _compare(first: Round, other: Round, what: str) -> list[str]:
    problems = []
    for a, b in zip(first.reports, other.reports):
        if a is not None and b is not None and _canonical(a) != _canonical(b):
            problems.append(f"{a.experiment}: {what} records/summary differ")
    return problems


def _check(first: Round) -> list[str]:
    """Output checks of the operations that did not fail."""
    from checks import check_report

    problems = []
    for report in first.reports:
        if report is not None:
            problems += check_report(report)
    return problems


def _fiber_mix(configs, first: Round) -> list:
    """Realised N of each bs-equivalence trial on a 3-D box (dim / nsites)."""
    mix = []
    for cfg, report in zip(configs, first.reports):
        if report is None or cfg.experiment != "bs-equivalence" or not cfg.grid_points:
            continue
        nsites = int(np.prod(cfg.grid_points))
        mix.append([r["dim"] // nsites for r in report.records
                    if r["kind"] == "count-equivalence"])
    return mix


def _timed(args, configs, caches) -> dict:
    import workloads

    reference = Reference(workloads.REFERENCE_KIND[args.workload])
    rounds = _rounds(args.seconds,
                     lambda: Round(configs, caches, run_experiment, reference))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = _check(rounds[0])
    for r in rounds[1:]:
        problems += _compare(rounds[0], r, "repeated round")

    def per_op(times):
        return [[times(r)[i] for r in rounds] for i in range(len(configs))]

    def round_time(samples):
        return sum(float(np.median(s)) for s in samples)

    raw = per_op(lambda r: r.times)
    scaled = per_op(lambda r: r.scaled_times(reference.nominal_s))
    refs = [t for r in rounds for t in r.refs]
    return {
        "metrics": {
            "wall_s": {"value": round_time(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        },
        "problems": problems,
        "attempted": len(rounds) * len(configs),
        "failed": sum(r.failed for r in rounds),
        "errors": sorted({e for r in rounds for e in r.errors}),
        "detail": {
            "rounds": len(rounds),
            "round_wall_s": [r.wall for r in rounds],
            "unscaled_wall_s": round_time(raw),
            "reference_kind": reference.kind,
            "reference_median_s": float(np.median(refs)),
            "reference_s": [r.refs for r in rounds],
            "op_times_s": raw,
            "scaled_op_times_s": scaled,
            "bs3d_fibers": _fiber_mix(configs, rounds[0]),
        },
    }


def _traced(args, configs, caches) -> dict:
    from tracing import PER_LAYER_UNITS, Tracer, installed

    pairs = []

    def one_pair():
        plain = Round(configs, caches, run_experiment)
        tracer = Tracer()
        with installed(tracer) as hooks:
            traced = Round(configs, caches,
                           lambda cfg: tracer.experiment_call(run_experiment, cfg))
        pairs.append((plain, traced, tracer, hooks.missing))
        return plain

    _rounds(args.seconds, one_pair)
    problems = _check(pairs[0][0])
    for plain, traced, _, _ in pairs:
        problems += _compare(plain, traced, "traced vs timed")
    layers = [tracer.metrics() for _, _, tracer, _ in pairs]
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        if PER_LAYER_UNITS[name] == "s":
            metrics[name] = float(np.median([m[name] for m in layers]))
        else:
            metrics[name] = layers[0][name]
    plain_wall = float(np.median([p.wall for p, _, _, _ in pairs]))
    traced_wall = float(np.median([t.wall for _, t, _, _ in pairs]))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    # Self times add up to the time inside run_experiment; the residual is
    # the traced round's time outside it (cache clearing, the loop).
    self_sums = [sum(v for k, v in m.items() if PER_LAYER_UNITS[k] == "s")
                 for m in layers]
    residuals = [t.wall - s for (_, t, _, _), s in zip(pairs, self_sums)]
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER_UNITS.items()},
        "problems": problems,
        "attempted": 2 * len(pairs) * len(configs),
        "failed": sum(p.failed + t.failed for p, t, _, _ in pairs),
        "errors": sorted({e for p, t, _, _ in pairs for e in p.errors + t.errors}),
        "detail": {
            "pairs": len(pairs),
            "untraced_wall_s": [p.wall for p, _, _, _ in pairs],
            "traced_wall_s": [t.wall for _, t, _, _ in pairs],
            "self_time_sum_s": self_sums,
            "residual_s": residuals,
            "unwrapped": pairs[0][3],
            "spans": pairs[0][2].dump(),
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    print("ready", flush=True)
    command = sys.stdin.readline().strip()
    if command not in ("go", "ref"):
        return 0
    # The machine's speed right after set-up, to scale the set-up time.
    # Set-up is imports, Python-heavy on every workload: the small kernel.
    reference = Reference("small")
    setup_reference = {"reference_s": reference.time(),
                       "nominal_s": reference.nominal_s}
    if command == "ref":
        print(json.dumps(setup_reference))
        return 0

    import workloads

    configs = workloads.build(args.workload, args.seed)
    caches = _package_caches()
    result = (_traced if args.trace else _timed)(args, configs, caches)
    result["versions"] = {
        "clrlab": clrlab.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }
    result["configs"] = [cfg.to_dict() for cfg in configs]
    result["setup_reference"] = setup_reference
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
