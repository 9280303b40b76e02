"""Spans around the calls clrlab's layers make into one another.

The tracer replaces, for the length of one traced round, the module
attributes through which the harness and the layers call each other: a
function imported by name into a caller's module (``count_negative`` in
the experiments module, ``build_laplacian`` in the lattice module), and
the ``np`` / ``scipy`` names of the modules that call LAPACK, which are
swapped for copies whose ``linalg`` holds timed ``eigvalsh`` / ``ldl``.
Nothing inside the package changes.  Spans stay in memory and are
aggregated (and written out) after the round.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans in a round add up to the time
spent inside ``run_experiment``.
"""

from __future__ import annotations

import importlib
import math
import time
import types
from collections import Counter

import numpy as np
import scipy
import scipy.linalg

_EXPERIMENTS = "clrlab.harness.experiments"
_LATTICE = "clrlab.lattice"
_TIMEORDER = "clrlab.timeorder"
_MATCORE = "clrlab.matcore"
_GENERATORS = "clrlab.harness.generators"

ROOT = "harness.experiment"

# (module, attribute, span name).  The same function is wrapped in every
# namespace it is called through.
FUNCTION_SPANS = [
    (_EXPERIMENTS, "generate_potential", "harness.generate_potential"),
    (_EXPERIMENTS, "hamiltonian", "lattice.hamiltonian"),
    (_LATTICE, "hamiltonian", "lattice.hamiltonian"),
    (_LATTICE, "build_laplacian", "lattice.build_laplacian"),
    (_EXPERIMENTS, "count_negative", "lattice.count_negative"),
    (_EXPERIMENTS, "birman_schwinger", "lattice.birman_schwinger"),
    (_EXPERIMENTS, "trotter_trace", "lattice.trotter_trace"),
    (_EXPERIMENTS, "resolvent_trace", "lattice.resolvent_trace"),
    (_EXPERIMENTS, "semigroup_sandwich_trace", "lattice.semigroup_sandwich_trace"),
    (_EXPERIMENTS, "f_a_transform", "transforms.f_a_transform"),
    (_EXPERIMENTS, "time_ordered_apply", "timeorder.time_ordered_apply"),
    (_TIMEORDER, "time_ordered_apply", "timeorder.time_ordered_apply"),
    (_EXPERIMENTS, "time_ordered_monomial", "timeorder.time_ordered_monomial"),
    (_EXPERIMENTS, "time_ordered_exponential", "timeorder.time_ordered_exponential"),
    (_EXPERIMENTS, "time_ordered_mu_exp", "timeorder.time_ordered_mu_exp"),
    (_EXPERIMENTS, "averaged_trace", "timeorder.averaged_trace"),
    (_TIMEORDER, "averaged_trace", "timeorder.averaged_trace"),
    (_TIMEORDER, "require_hermitian", "matcore.require_hermitian"),
    (_MATCORE, "require_hermitian", "matcore.require_hermitian"),
    (_TIMEORDER, "eig_hermitian", "matcore.eig_hermitian"),
    (_MATCORE, "eig_hermitian", "matcore.eig_hermitian"),
]

# Modules whose ``np`` name is swapped so their eigvalsh calls are timed.
NUMPY_CALLERS = [_LATTICE, _EXPERIMENTS, _GENERATORS, _TIMEORDER, _MATCORE]

# Self-time metric of each span name; several spans may feed one metric.
SELF_TIME_METRIC = {
    ROOT: "harness.experiment_self_s",
    "harness.generate_potential": "harness.generate_potential_s",
    "lattice.hamiltonian": "lattice.hamiltonian_s",
    "lattice.build_laplacian": "lattice.hamiltonian_s",
    "lattice.count_negative": "lattice.count_negative_s",
    "lattice.birman_schwinger": "lattice.birman_schwinger_s",
    "lattice.trotter_trace": "lattice.trotter_trace_s",
    "lattice.resolvent_trace": "lattice.resolvent_trace_s",
    "lattice.semigroup_sandwich_trace": "lattice.semigroup_sandwich_trace_s",
    "linalg.eigvalsh": "linalg.eigvalsh_s",
    "linalg.ldl": "linalg.ldl_s",
    "linalg.splu": "linalg.splu_s",
    "transforms.f_a_transform": "transforms.f_a_transform_s",
    "timeorder.time_ordered_apply": "timeorder.time_ordered_apply_s",
    "timeorder.time_ordered_monomial": "timeorder.time_ordered_monomial_s",
    "timeorder.time_ordered_exponential": "timeorder.time_ordered_exponential_s",
    "timeorder.time_ordered_mu_exp": "timeorder.time_ordered_mu_exp_s",
    "timeorder.averaged_trace": "timeorder.averaged_trace_s",
    "matcore.require_hermitian": "matcore.require_hermitian_s",
    "matcore.eig_hermitian": "matcore.eig_hermitian_s",
}

# Call-count metrics: metric name -> span name.
CALL_METRIC = {
    "lattice.build_laplacian_calls": "lattice.build_laplacian",
    "lattice.trotter_trace_calls": "lattice.trotter_trace",
    "linalg.eigvalsh_calls": "linalg.eigvalsh",
    "transforms.f_a_transform_calls": "transforms.f_a_transform",
    "timeorder.time_ordered_apply_calls": "timeorder.time_ordered_apply",
    "matcore.require_hermitian_calls": "matcore.require_hermitian",
}

# Per-layer metrics: name -> unit.  Times are self times in seconds.
PER_LAYER_UNITS = {
    "lattice.hamiltonian_s": "s",
    "lattice.build_laplacian_calls": "count",
    "lattice.count_negative_s": "s",
    "lattice.count_negative_fallbacks": "count",
    "lattice.birman_schwinger_s": "s",
    "lattice.trotter_trace_s": "s",
    "lattice.trotter_trace_calls": "count",
    "lattice.resolvent_trace_s": "s",
    "lattice.semigroup_sandwich_trace_s": "s",
    "linalg.eigvalsh_s": "s",
    "linalg.eigvalsh_calls": "count",
    "linalg.eigvalsh_order_sum": "count",
    "linalg.ldl_s": "s",
    "linalg.splu_s": "s",
    "linalg.dense_bytes_max": "bytes",
    "harness.bs_spectra_per_trial": "ratio",
    "harness.bs_draws_per_trial": "ratio",
    "harness.generate_potential_s": "s",
    "harness.experiment_self_s": "s",
    "transforms.f_a_transform_s": "s",
    "transforms.f_a_transform_calls": "count",
    "timeorder.time_ordered_apply_s": "s",
    "timeorder.time_ordered_apply_calls": "count",
    "timeorder.enumeration_terms": "count",
    "timeorder.time_ordered_monomial_s": "s",
    "timeorder.monomial_words": "count",
    "timeorder.time_ordered_exponential_s": "s",
    "timeorder.time_ordered_mu_exp_s": "s",
    "timeorder.averaged_trace_s": "s",
    "matcore.require_hermitian_s": "s",
    "matcore.require_hermitian_calls": "count",
    "matcore.eig_hermitian_s": "s",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """In-memory span recorder plus the counters taken at span boundaries.

    Counters are keyed by their metric name, except the two bs-equivalence
    tallies that are divided by the trial count.

    A span is ``[name, parent, root, start, end, tag]``: ``parent`` and
    ``root`` index into ``spans`` (a root has parent -1 and is its own
    root, so the spans of one experiment call share ``root``); ``tag``
    holds what a child needs to know (the method of a count_negative call).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.experiment = ""
        self.h_order = -1
        self.bs_trials = 0

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, on_call=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = spans[parent][2] if parent >= 0 else idx
            span = [name, parent, root, 0.0, 0.0, None]
            spans.append(span)
            if on_call is not None:
                on_call(span, args, kwargs)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                span[3] = start
                stack.pop()

        return traced

    def experiment_call(self, run_experiment, cfg):
        """Run one experiment as a root span."""
        self.experiment = cfg.experiment
        if cfg.experiment == "bs-equivalence":
            self.bs_trials += int(cfg.trials)
        try:
            return self.wrap(ROOT, run_experiment)(cfg)
        finally:
            self.experiment = ""

    # -- hooks -----------------------------------------------------------

    def _dense(self, a) -> None:
        if isinstance(a, np.ndarray):
            nbytes = int(math.prod(a.shape)) * a.dtype.itemsize
            key = "linalg.dense_bytes_max"
            self.counts[key] = max(self.counts[key], nbytes)

    def _on_eigvalsh(self, span, args, kwargs) -> None:
        a = _arg(args, kwargs, 0, "a")
        shape = np.shape(a)
        if len(shape) >= 2:
            self.counts["linalg.eigvalsh_order_sum"] += math.prod(shape[:-1])
        self._dense(a)
        parent = span[1]
        if (parent >= 0 and self.spans[parent][0] == "lattice.count_negative"
                and self.spans[parent][5] == "auto"):
            self.counts["lattice.count_negative_fallbacks"] += 1
        if (self.experiment == "bs-equivalence" and len(shape) == 2
                and shape[0] == self.h_order):
            self.counts["bs_spectra"] += 1

    def _on_ldl(self, span, args, kwargs) -> None:
        self._dense(_arg(args, kwargs, 0, "A"))

    def _on_splu_solve(self, span, args, kwargs) -> None:
        self._dense(_arg(args, kwargs, 0, "rhs"))

    def _on_count_negative(self, span, args, kwargs) -> None:
        span[5] = _arg(args, kwargs, 1, "method", "auto")

    def _on_hamiltonian(self, span, args, kwargs) -> None:
        potential = _arg(args, kwargs, 1, "V")
        self.h_order = int(potential.dim)

    def _on_generate_potential(self, span, args, kwargs) -> None:
        if self.experiment == "bs-equivalence":
            self.counts["bs_draws"] += 1

    def _on_time_ordered_apply(self, span, args, kwargs) -> None:
        mats = _arg(args, kwargs, 1, "matrices")
        self.counts["timeorder.enumeration_terms"] += np.shape(mats[0])[0] ** len(mats)

    def _on_time_ordered_monomial(self, span, args, kwargs) -> None:
        k = int(_arg(args, kwargs, 0, "k"))
        n = len(_arg(args, kwargs, 1, "matrices"))
        self.counts["timeorder.monomial_words"] += math.comb(k + n - 1, n - 1)

    def _hook(self, span_name: str):
        hooks = {
            "lattice.count_negative": self._on_count_negative,
            "lattice.hamiltonian": self._on_hamiltonian,
            "harness.generate_potential": self._on_generate_potential,
            "timeorder.time_ordered_apply": self._on_time_ordered_apply,
            "timeorder.time_ordered_monomial": self._on_time_ordered_monomial,
        }
        return hooks.get(span_name)

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        own = [s[4] - s[3] for s in self.spans]
        for s, dur in zip(self.spans, list(own)):
            if s[1] >= 0:
                own[s[1]] -= dur
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            metric = SELF_TIME_METRIC[s[0]]
            totals[metric] = totals.get(metric, 0.0) + t
        return totals

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded, except trace.overhead_s."""
        out = {name: 0.0 if unit in ("s", "ratio") else 0
               for name, unit in PER_LAYER_UNITS.items() if name != "trace.overhead_s"}
        out.update(self.self_times())
        calls = Counter(s[0] for s in self.spans)
        for metric, span_name in CALL_METRIC.items():
            out[metric] = calls[span_name]
        out.update((k, v) for k, v in self.counts.items() if k in out)
        if self.bs_trials:
            out["harness.bs_spectra_per_trial"] = self.counts["bs_spectra"] / self.bs_trials
            out["harness.bs_draws_per_trial"] = self.counts["bs_draws"] / self.bs_trials
        return out

    def dump(self) -> dict:
        """Spans in a compact form for the result file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "parent", "root", "start", "end"],
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        }


def _module_with(module, **overrides) -> types.ModuleType:
    """A module object with ``module``'s namespace plus ``overrides``."""
    copy = types.ModuleType(module.__name__, module.__doc__)
    copy.__dict__.update(module.__dict__)
    copy.__dict__.update(overrides)
    return copy


class _TracedLU:
    """SuperLU factorization whose solves are spans too."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class installed:
    """Context manager: wrap the layer boundaries for ``tracer``, then restore.

    Attributes that a later version of the package no longer has are
    skipped and listed in ``missing``.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _swap(self, module, attr: str, value) -> None:
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def __enter__(self) -> "installed":
        tracer = self.tracer
        for mod_name, attr, span_name in FUNCTION_SPANS:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(module, attr)
            self._swap(module, attr, tracer.wrap(span_name, fn, tracer._hook(span_name)))

        eigvalsh = tracer.wrap("linalg.eigvalsh", np.linalg.eigvalsh, tracer._on_eigvalsh)
        numpy_copy = _module_with(np, linalg=_module_with(np.linalg, eigvalsh=eigvalsh))
        for mod_name in NUMPY_CALLERS:
            module = importlib.import_module(mod_name)
            if getattr(module, "np", None) is np:
                self._swap(module, "np", numpy_copy)
            else:
                self.missing.append(f"{mod_name}.np")

        lattice = importlib.import_module(_LATTICE)
        if getattr(lattice, "scipy", None) is scipy:
            ldl = tracer.wrap("linalg.ldl", scipy.linalg.ldl, tracer._on_ldl)
            self._swap(lattice, "scipy",
                       _module_with(scipy, linalg=_module_with(scipy.linalg, ldl=ldl)))
        else:
            self.missing.append(f"{_LATTICE}.scipy")
        if hasattr(lattice, "splu"):
            splu = lattice.splu

            def factor(*args, **kwargs):
                lu = splu(*args, **kwargs)
                return _TracedLU(lu, tracer.wrap("linalg.splu", lu.solve,
                                                 tracer._on_splu_solve))

            self._swap(lattice, "splu", tracer.wrap("linalg.splu", factor))
        else:
            self.missing.append(f"{_LATTICE}.splu")
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self.saved):
            setattr(module, attr, value)
        self.saved.clear()
