"""Experiment implementations, their registry and the run_experiment dispatcher.

EXPERIMENTS declares each experiment once: its runner, default trials,
tolerance and option keys with their defaults, and the config fields it
reads.  A runner takes the config with those defaults resolved and returns
its records, CSV columns and summary extras.

Every experiment draws its instances from per-trial derived seeds, emits
one record per checked statement, and reduces the records into a summary
whose pass/fail is derivable from the records alone.  Independent trials
run through _map_trials, which may fork workers on the usable CPUs that
take them in chunks from one queue; the records are the same either way,
whichever process computes a trial.  Hard gates are
exact finite-dimensional statements; records with gate == "monitor"
carry continuum-comparison data and never affect the exit status.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np
import scipy

from ..config import parallel_cpus
from ..errors import ClrlabError, ConfigError
from ..lattice import (
    ZERO_BAND_RTOL,
    GridSpec,
    MatrixPotential,
    bs_bound,
    clr_rhs,
    count_negative,
    h_and_k_spectra,
    hamiltonian,
    k_spectrum,
    potential_digest,
    resolvent_trace,
    riesz_mean,
    semigroup_sandwich_trace,
    trotter_sandwich,
)
from ..matcore import apply_spectral, eig_hermitian_tuple, holder_trace_product
from ..timeorder import (
    ScalarFunctionClass,
    _hinge_sides,
    _jensen_sides,
    _ordered_series,
    _require_power,
    time_ordered_apply,
)
from ..transforms import (
    classical_constant,
    exp_integral_E1,
    f_a_transform,
    lt_rhs,
    lw_product_check,
    minimize_R,
    r_bound,
    r_of_a,
)
from .generators import (
    generate_potential,
    random_admissible_function,
    random_psd_tuple,
    rng_from,
)
from .reports import (
    ExperimentConfig,
    ExperimentReport,
    _is_int,
    _is_number,
    derive_seed,
    inputs_digest,
)


# Rounding slack of a time-ordered Jensen gap, relative to 1 + |averaged side|.
JENSEN_GAP_RTOL = 1e-9


def _summary(records: list, extra: dict | None) -> dict:
    hard = [r for r in records if r.get("gate") == "hard"]
    failures = sum(1 for r in hard if r["margin"] < 0.0)
    out = {
        "records": len(records),
        "hard_records": len(hard),
        "hard_failures": failures,
        "pass": failures == 0,
    }
    if hard:
        margins = np.array([r["margin"] for r in hard], dtype=float)
        out["min_margin"] = float(margins.min())
        out["max_margin"] = float(margins.max())
        out["mean_margin"] = float(margins.mean())
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# trial maps

# True while a worker of a forked trial map runs, in the caller and in the
# children: a map nested in it runs serially.
_IN_SHARE = False

# A map cuts its positions into at most this many contiguous chunks.  Their
# 4-byte ids fill at most PIPE_BUF = 4096 bytes, which even a one-page pipe
# holds, so the caller writes the whole queue before forking without blocking.
_MAX_CHUNKS = 1024


def _forkable() -> bool:
    """Whether a trial map may fork here: on Linux, outside a worker of a
    forked map, and with no other Python thread alive (a fork copies the
    calling thread only, so a lock that another thread held would stay
    held)."""
    return (sys.platform.startswith("linux") and not _IN_SHARE
            and threading.active_count() == 1)


def _share(fn, cfg, indices, chunks, first, queue) -> tuple:
    """One worker's share of a forked map: chunk first, then every chunk
    whose id it reads from the queue pipe, until EOF.

    Chunk c holds the positions c n // chunks, ..., (c + 1) n // chunks - 1
    of the n indices.  fn(cfg, indices[p]) runs for each position in order,
    up to the first exception.  Returns (computed, None) or
    (computed, (position, exception)), computed listing (first position,
    results) per finished chunk.
    """
    n = len(indices)
    computed = []
    c = first
    while True:
        start, stop = c * n // chunks, (c + 1) * n // chunks
        results = []
        for p in range(start, stop):
            try:
                results.append(fn(cfg, indices[p]))
            except Exception as exc:
                return computed, (p, exc)
        computed.append((start, results))
        word = os.read(queue, 4)
        if not word:
            return computed, None
        c = int.from_bytes(word, "little")


def _run_child_share(share, write_end) -> None:
    """A forked worker: compute share(), pickle it into the pipe and leave by
    os._exit, so no inherited stdio buffer is flushed and no exit hook runs."""
    status = 1
    try:
        payload = pickle.dumps(share())
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _map_trials(fn, cfg: ExperimentConfig, indices: Sequence) -> list:
    """[fn(cfg, i) for i in indices], the independent calls spread over CPUs.

    The positions are cut into C = min(len(indices), _MAX_CHUNKS)
    contiguous chunks.  With W = min(parallel_cpus(), C) >= 2 and
    _forkable(), the ids of chunks W, ..., C - 1 are written in ascending
    order into one queue pipe, whose write end is closed before W - 1
    children are forked, each with a pipe of its own for its results.
    Worker k (this process is worker 0) computes chunk k and then reads
    ids from the queue until EOF, so a worker that draws slow trials takes
    fewer chunks; a worker stops at its first exception.  The results are
    merged by position, and the exception of the lowest failing position
    is raised, as the serial loop would raise it: chunks leave the queue in
    ascending order, so every lower position was computed.  A child that
    dies raises ClrlabError naming its exit status; every child is reaped
    before this returns or raises.  Otherwise the calls run here, one after
    the other.  The results are the same either way; which process
    computes a position may vary from run to run.
    """
    global _IN_SHARE
    chunks = min(len(indices), _MAX_CHUNKS)
    workers = min(parallel_cpus(), chunks)
    if workers < 2 or not _forkable():
        return [fn(cfg, i) for i in indices]
    children = []  # (pid, read end of its pipe)
    payloads, statuses = [], []
    queue, queue_end = os.pipe()
    _IN_SHARE = True
    try:
        with os.fdopen(queue_end, "wb") as end:  # closed before any fork
            end.write(b"".join(c.to_bytes(4, "little") for c in range(workers, chunks)))
        for k in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_end)
                _run_child_share(lambda: _share(fn, cfg, indices, chunks, k, queue),
                                 write_end)
            os.close(write_end)
            children.append((pid, read_end))
        shares = [_share(fn, cfg, indices, chunks, 0, queue)]
        for _, read_end in children:
            with os.fdopen(read_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        _IN_SHARE = False
        os.close(queue)
        for pid, read_end in children:
            os.close(read_end)
            if len(payloads) < len(children):  # leaving by an exception
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for code in statuses:
        if code != 0:
            raise ClrlabError(f"a forked share of trials died with exit status {code}")
    shares += [pickle.loads(payload) for payload in payloads]
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    merged = [None] * len(indices)
    for computed, _ in shares:
        for start, results in computed:
            merged[start:start + len(results)] = results
    return merged


# ---------------------------------------------------------------------------
# constants

def _run_constants(cfg: ExperimentConfig) -> tuple[list, list, dict | None]:
    dmax = cfg.options["dmax"]
    records = []
    for d in range(1, dmax + 1):
        for gamma in (0.0, 0.1, 0.5, 1.0, 1.5, 2.0):
            records.append({
                "kind": "constant", "gate": "info", "gamma": gamma, "d": d,
                "L_cl": classical_constant(gamma, d), "R_bound": r_bound(gamma),
            })
    for d in range(4, dmax + 1):
        residual = lw_product_check(d)
        records.append({
            "kind": "lw-residual", "gate": "hard", "d": d, "value": residual,
            "margin": cfg.tolerances["lw_residual"] - residual,
        })
    e1 = exp_integral_E1(1.0)
    records.append({
        "kind": "e1-check", "gate": "hard", "value": e1,
        "margin": cfg.tolerances["e1_abs"] - abs(e1 - 0.219384),
    })
    a_star, r_star = minimize_R(0.5, 3.0)
    records.append({
        "kind": "a_star", "gate": "hard", "value": a_star,
        "margin": min(a_star - 1.05, 1.25 - a_star),
    })
    records.append({
        "kind": "R_star", "gate": "hard", "value": r_star,
        "margin": min(r_star - 10.32, 10.34 - r_star),
    })
    records.append({
        "kind": "R_star_above_lower_bound", "gate": "hard", "value": r_star,
        "margin": r_star - 8.0 / math.sqrt(3.0),
    })
    r_ref_point = r_of_a(1.13)
    records.append({
        "kind": "R_at_1.13", "gate": "hard", "value": r_ref_point,
        "margin": min(r_ref_point - r_star + 1e-12,
                      1e-3 - (r_ref_point - r_star)),
    })
    extra = {"a_star": a_star, "R_star": r_star,
             "L_cl_0_3": classical_constant(0.0, 3)}
    records.append({
        "kind": "L_cl_0_3", "gate": "info", "gamma": 0.0, "d": 3,
        "L_cl": extra["L_cl_0_3"], "value": extra["L_cl_0_3"],
    })
    cols = ["kind", "gate", "gamma", "d", "L_cl", "R_bound", "value", "margin"]
    return records, cols, extra


# ---------------------------------------------------------------------------
# jensen

def _jensen_trial(cfg: ExperimentConfig, i: int) -> dict:
    tol = cfg.tolerances["jensen_gap"]
    s = derive_seed(cfg.seed, i)
    rng = rng_from(s)
    n = int(rng.integers(1, cfg.n_max + 1))
    nf = int(rng.integers(1, cfg.N_max + 1))
    f = random_admissible_function(rng)
    ws = random_psd_tuple(rng, n, nf, 0.1, 1.2)
    averaged, ordered = _jensen_sides(f, eig_hermitian_tuple(ws))
    gap = averaged - ordered
    scale = 1.0 + abs(averaged)
    return {
        "kind": "jensen-gap", "gate": "hard", "trial": i, "seed": s,
        "n": n, "N": nf,
        "digest": inputs_digest(np.array(f.poly_coeffs),
                                np.array(f.exp_atoms), *ws),
        "gap": gap, "scale": scale, "margin": gap + tol * scale,
    }


def _run_jensen(cfg: ExperimentConfig) -> tuple[list, list, dict | None]:
    records = _map_trials(_jensen_trial, cfg, range(cfg.trials))
    gaps = np.array([r["gap"] for r in records])
    extra = {"min_gap": float(gaps.min()),
             "min_gap_seed": records[int(np.argmin(gaps))]["seed"]}
    cols = ["kind", "trial", "seed", "n", "N", "gap", "scale", "margin"]
    return records, cols, extra


# ---------------------------------------------------------------------------
# holder

def _holder_trial(cfg: ExperimentConfig, i: int) -> dict:
    tol = cfg.tolerances["holder_slack"]
    s = derive_seed(cfg.seed, i)
    rng = rng_from(s)
    n = int(rng.integers(1, cfg.n_max + 1))
    nf = int(rng.integers(1, cfg.N_max + 1))
    k = int(rng.integers(1, 6))
    powers = rng.multinomial(k, np.full(n, 1.0 / n)).tolist()
    ws = random_psd_tuple(rng, n, nf, 0.2, 1.5)
    try:
        lhs, rhs = holder_trace_product(ws, powers)
        margin = rhs + tol * (1.0 + abs(rhs)) - lhs
    except ArithmeticError as exc:
        return {
            "kind": "holder-violation", "gate": "hard", "trial": i,
            "seed": s, "error": str(exc), "margin": -1.0,
        }
    return {
        "kind": "holder", "gate": "hard", "trial": i, "seed": s,
        "n": n, "N": nf, "k": k, "lhs": lhs, "rhs": rhs, "margin": margin,
    }


def _run_holder(cfg: ExperimentConfig) -> tuple[list, list, dict | None]:
    records = _map_trials(_holder_trial, cfg, range(cfg.trials))
    cols = ["kind", "trial", "seed", "n", "N", "k", "lhs", "rhs", "margin"]
    return records, cols, None


# ---------------------------------------------------------------------------
# timeorder-consistency

def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _timeorder_trial(cfg: ExperimentConfig, i: int) -> dict:
    tol_closed = cfg.tolerances["closed_form"]
    tol_commute = cfg.tolerances["commuting_collapse"]
    s = derive_seed(cfg.seed, i)
    rng = rng_from(s)
    n = int(rng.integers(2, cfg.n_max + 1))
    nf = int(rng.integers(1, cfg.N_max + 1))
    decs = eig_hermitian_tuple(random_psd_tuple(rng, n, nf, 0.3, 1.0))

    # One ordered series gives all three closed forms: k! C_k(0) for
    # T mu^k, C_0(alpha) for T e^{alpha mu} and C_1(alpha) for
    # T mu e^{alpha mu}.  One enumeration of the three functions, sharing
    # its eigenvalue sums and overlaps, checks them.
    k = _require_power(int(rng.integers(2, 7)))
    alpha = float(rng.uniform(-2.0, 2.0))
    series = _ordered_series(decs, [0.0, alpha], k)
    forms = {
        "monomial": (math.factorial(k) * series[0, k],
                     ScalarFunctionClass.monomial(k)),
        "exponential": (series[1, 0], ScalarFunctionClass.exponential(alpha)),
        "mu-exp": (series[1, 1], lambda mu: mu * np.exp(alpha * mu)),
    }
    enumerated = time_ordered_apply([f for _, f in forms.values()], decs)
    checks = {}
    for (name, (closed, _)), e in zip(forms.items(), enumerated):
        checks[name] = tol_closed * (1.0 + _max_abs(closed)) - _max_abs(closed - e)

    # Commuting family: shared eigenbasis, random non-negative spectra.
    g = rng.standard_normal((nf, nf)) + 1j * rng.standard_normal((nf, nf))
    q, _ = np.linalg.qr(g)
    coms = []
    for _ in range(n):
        lam = rng.uniform(0.0, 1.0, nf)
        m = (q * lam) @ q.conj().T
        coms.append(0.5 * (m + m.conj().T))
    f = random_admissible_function(rng)
    a = time_ordered_apply(f, coms)
    b = apply_spectral(f, sum(coms))
    checks["commuting"] = tol_commute * (1.0 + _max_abs(a)) - _max_abs(a - b)

    worst = min(checks, key=checks.get)
    return {
        "kind": "timeorder", "gate": "hard", "trial": i, "seed": s,
        "n": n, "N": nf, "worst_check": worst, "margin": checks[worst],
    }


def _run_timeorder(cfg: ExperimentConfig) -> tuple[list, list, dict | None]:
    records = _map_trials(_timeorder_trial, cfg, range(cfg.trials))
    cols = ["kind", "trial", "seed", "n", "N", "worst_check", "margin"]
    return records, cols, None


# ---------------------------------------------------------------------------
# trotter

def _trotter_instance(cfg: ExperimentConfig, index: int):
    s = derive_seed(cfg.seed, index)
    rng = rng_from(s)
    if cfg.grid_points is not None:
        pts = cfg.grid_points
    else:
        pts = (int(rng.integers(6, 13)),)
    grid = GridSpec(d=len(pts), points_per_axis=pts,
                    h=float(rng.uniform(0.3, 0.7)))
    nf = int(rng.integers(1, 3))
    amp = float(rng.uniform(1.0, 8.0))
    v = generate_potential(s, grid, nf, "random-psd-field", amplitude=amp)
    alpha = float(rng.choice([0.5, 1.0, 2.0]))
    return s, v, alpha


def _barrier_instance(cfg: ExperimentConfig, index: int):
    """Strong barrier on an otherwise empty line.

    The per-step potential phase t*alpha*w stays >> 1 over the whole n
    range, the regime in which the n-vs-2n error of the split trace halves
    instead of quartering, so the fitted slope sits near -1.
    """
    s = derive_seed(cfg.seed, index)
    rng = rng_from(s)
    m, h, t, alpha = 12, 0.5, 0.5, 4.0
    grid = GridSpec(d=1, points_per_axis=(m,), h=h)
    nf = 1 + index % 2
    theta = float(rng.uniform(90.0, 130.0))
    w_top = theta / (t * alpha)
    start = int(rng.integers(4, 7))
    width = int(rng.integers(2, 4))
    vals = np.zeros((m, nf, nf), dtype=complex)
    block = np.diag(w_top * np.linspace(1.0, 0.6, nf))
    if nf > 1:
        g = rng.standard_normal((nf, nf)) + 1j * rng.standard_normal((nf, nf))
        q, _ = np.linalg.qr(g)
        block = q @ block @ q.conj().T
    vals[start:start + width] = block
    v = MatrixPotential(grid=grid, N=nf, values=vals)
    return s, v, alpha, t


def _resolvent_record(cfg: ExperimentConfig, i: int) -> dict:
    s, v, alpha = _trotter_instance(cfg, i)
    r_direct = resolvent_trace(v, alpha)
    lam = k_spectrum(v)
    r_spectral = float(np.sum(lam / (1.0 + alpha * lam)))
    rel = abs(r_direct - r_spectral) / max(abs(r_spectral), 1e-30)
    return {
        "kind": "resolvent-identity", "gate": "hard", "trial": i,
        "seed": s, "dim": v.dim, "alpha": alpha, "value": r_direct,
        "reference": r_spectral, "margin": cfg.tolerances["resolvent_rel"] - rel,
    }


def _slope_record(cfg: ExperimentConfig, i: int) -> dict:
    s, v, alpha, t = _barrier_instance(cfg, 10_000 + i)
    exact = semigroup_sandwich_trace(v, alpha, t)
    trace = trotter_sandwich(v, alpha)
    ns = np.array([4, 8, 16, 32, 64, 128, 256], dtype=float)
    errs = np.array([abs(trace(t, int(n)) - exact) for n in ns])
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    return {
        "kind": "trotter-slope", "gate": "hard", "trial": i, "seed": s,
        "dim": v.dim, "alpha": alpha, "value": slope,
        "margin": min(slope + 1.3, -0.7 - slope),
    }


def _quadrature_record(cfg: ExperimentConfig, i: int) -> dict:
    s, v, alpha = _trotter_instance(cfg, 20_000 + i)
    r_direct = resolvent_trace(v, alpha)
    trace = trotter_sandwich(v, alpha)
    val, _ = scipy.integrate.quad(lambda t: trace(t, 256), 0.0, np.inf,
                                  epsabs=1e-10, epsrel=1e-7, limit=200)
    rel = abs(val - r_direct) / max(abs(r_direct), 1e-30)
    return {
        "kind": "t-quadrature", "gate": "hard", "trial": i, "seed": s,
        "dim": v.dim, "alpha": alpha, "value": val,
        "reference": r_direct, "margin": cfg.tolerances["t_quadrature_rel"] - rel,
    }


def _run_trotter(cfg: ExperimentConfig) -> tuple[list, list, dict | None]:
    # one map over every instance: (record function, its trial index)
    tasks = ([(_resolvent_record, i) for i in range(cfg.trials)]
             + [(_slope_record, i) for i in range(3)]
             + [(_quadrature_record, i) for i in range(10)])
    records = _map_trials(lambda cfg, task: task[0](cfg, task[1]), cfg, tasks)
    cols = ["kind", "trial", "seed", "dim", "alpha", "value", "reference", "margin"]
    return records, cols, None


# ---------------------------------------------------------------------------
# bs-equivalence

def _lambda_floor(grid: GridSpec) -> float:
    """4/h^2 sin^2(pi / (2(m+1))) for the longest axis m: the lowest eigenvalue
    of the 1-D Dirichlet stencil along it, the unit of the drawn amplitudes."""
    return 4.0 / grid.h**2 * math.sin(
        math.pi / (2.0 * (max(grid.points_per_axis) + 1))) ** 2


def _bs_instance(cfg: ExperimentConfig, trial: int):
    """Draw an instance, re-seeding while eigenvalues sit in a zero band."""
    for attempt in range(8):
        s = derive_seed(cfg.seed, (trial << 8) | attempt)
        rng = rng_from(s)
        if cfg.grid_points is not None:
            pts = cfg.grid_points
        elif trial % 4 == 3:
            pts = (3, 3, 3)
        else:
            pts = (int(rng.integers(8, 15)),)
        grid = GridSpec(d=len(pts), points_per_axis=pts,
                        h=float(rng.uniform(0.4, 0.8)))
        cap = 2 if grid.d == 3 else cfg.N_max
        nf = int(rng.integers(1, cap + 1))
        style = "random-psd-field" if rng.integers(0, 2) else "gaussian-bumps"
        amp = float(rng.uniform(0.3, 3.0)) * _lambda_floor(grid) * 3.0
        v = generate_potential(s, grid, nf, style, amplitude=amp)

        h_op = hamiltonian(V=v)
        w_h, lam_k = h_and_k_spectra(h_op, v)
        band = 10.0 * ZERO_BAND_RTOL * h_op.scale()
        if w_h.size and float(np.min(np.abs(w_h))) <= band:
            continue
        if lam_k.size and float(np.min(np.abs(lam_k - 1.0))) <= 1e-9 * (
                1.0 + float(lam_k.max())):
            continue
        return s, v, h_op, w_h, lam_k
    raise ClrlabError(f"could not draw a non-degenerate instance for trial {trial}")


# The f_a parameters of the bs-bound records, and the same as a column.
BS_A_VALUES = (0.7, 1.13, 2.0)
_BS_A_COLUMN = np.array(BS_A_VALUES)[:, np.newaxis]


def _bs_trial(cfg: ExperimentConfig, i: int) -> list:
    s, v, h_op, w_h, lam_k = _bs_instance(cfg, i)
    zero_tol = ZERO_BAND_RTOL * h_op.scale()
    count_inertia = count_negative(h_op)
    count_dense = int(np.sum(w_h < -zero_tol))
    k_above_one = int(np.sum(lam_k > 1.0))
    match = (count_inertia == count_dense == k_above_one)
    records = [{
        "kind": "count-equivalence", "gate": "hard", "trial": i, "seed": s,
        "dim": v.dim, "count": count_inertia, "count_dense": count_dense,
        "k_count": k_above_one, "margin": 0.0 if match else -1.0,
    }]
    # one F_a evaluation gives every a's bound: a row per a
    bounds = bs_bound(lambda lam: f_a_transform(_BS_A_COLUMN, lam), lam_k)
    for a, bound in zip(BS_A_VALUES, bounds.tolist()):
        records.append({
            "kind": "bs-bound", "gate": "hard", "trial": i, "seed": s,
            "dim": v.dim, "a": a, "bound": bound, "count": count_inertia,
            "margin": bound - count_inertia + 1e-9,
        })
    return records


def _run_bs(cfg: ExperimentConfig) -> tuple[list, list, dict | None]:
    records = [r for rs in _map_trials(_bs_trial, cfg, range(cfg.trials)) for r in rs]
    counts = [r["count"] for r in records if r["kind"] == "count-equivalence"]
    extra = {"max_count": int(max(counts)), "mean_count": float(np.mean(counts))}
    cols = ["kind", "trial", "seed", "dim", "count", "count_dense", "k_count",
            "a", "bound", "margin"]
    return records, cols, extra


# ---------------------------------------------------------------------------
# clr-survey

def _survey_ensemble(cfg: ExperimentConfig, e: int) -> list:
    """One ensemble's survey records over the refinements, then its trend."""
    amplitude = float(cfg.options["amplitude"])
    records = []
    s = derive_seed(cfg.seed, e)
    eps_chain = []
    for m in cfg.options["refinements"]:
        grid = GridSpec(d=3, points_per_axis=(m, m, m), h=1.0 / (m + 1))
        v = generate_potential(s, grid, 1, "gaussian-bumps",
                               amplitude=amplitude)
        count = count_negative(hamiltonian(V=v))
        rhs = clr_rhs(v, r_bound(0.0))
        ratio = count / rhs if rhs > 0 else math.inf
        eps = max(0.0, ratio - 1.0)
        eps_chain.append(eps)
        records.append({
            "kind": "survey", "gate": "monitor", "ensemble": e, "seed": s,
            "m": m, "h": grid.h, "count": count, "rhs": rhs,
            "ratio": ratio, "eps": eps,
            "digest": potential_digest(v),
        })
    trend_ok = all(eps_chain[j + 1] <= eps_chain[j] + 1e-12
                   for j in range(len(eps_chain) - 1))
    records.append({
        "kind": "trend", "gate": "monitor", "ensemble": e, "seed": s,
        "trend_ok": trend_ok, "eps_chain": eps_chain,
    })
    return records


def _run_survey(cfg: ExperimentConfig) -> tuple[list, list, dict | None]:
    records = [r for rs in _map_trials(_survey_ensemble, cfg, range(cfg.trials))
               for r in rs]
    trend_ok_all = all(r["trend_ok"] for r in records if r["kind"] == "trend")
    ratios = [r["ratio"] for r in records if r["kind"] == "survey"]
    extra = {"trend_ok": trend_ok_all, "max_ratio": float(max(ratios))}
    cols = ["kind", "ensemble", "seed", "m", "h", "count", "rhs", "ratio", "eps"]
    return records, cols, extra


# ---------------------------------------------------------------------------
# lt-moments

def _lt_trial(cfg: ExperimentConfig, i: int) -> list:
    records = []
    s = derive_seed(cfg.seed, i)
    rng = rng_from(s)
    grid = GridSpec(d=len(cfg.grid_points), points_per_axis=cfg.grid_points,
                    h=float(rng.uniform(0.4, 0.6)))
    nf = int(rng.integers(1, 3))
    amp = float(rng.uniform(1.0, 3.0)) * _lambda_floor(grid) * 30.0
    v = generate_potential(s, grid, nf, "gaussian-bumps", amplitude=amp)
    h_op = hamiltonian(V=v)
    for gamma in (0.5, 1.0, 2.0):
        lhs = riesz_mean(h_op, gamma)
        rhs = lt_rhs(gamma, grid.d, v.moment(gamma + grid.d / 2.0))
        records.append({
            "kind": "lt-moment", "gate": "monitor", "trial": i, "seed": s,
            "gamma": gamma, "riesz": lhs, "rhs": rhs,
            "ratio": lhs / rhs if rhs > 0 else math.inf,
        })
    return records


def _run_lt(cfg: ExperimentConfig) -> tuple[list, list, dict | None]:
    records = [r for rs in _map_trials(_lt_trial, cfg, range(cfg.trials)) for r in rs]
    ratios = [r["ratio"] for r in records]
    extra = {"max_ratio": float(max(ratios))}
    cols = ["kind", "trial", "seed", "gamma", "riesz", "rhs", "ratio"]
    return records, cols, extra


# ---------------------------------------------------------------------------
# remark-probe

def _probe_trial(cfg: ExperimentConfig, i: int) -> tuple[dict, float]:
    """One hinge-gap record and the scale 1 + |averaged side| of its gap."""
    s = derive_seed(cfg.seed, i)
    rng = rng_from(s)
    n = int(rng.integers(2, min(cfg.n_max, 3) + 1))
    nf = int(rng.integers(2, min(cfg.N_max, 3) + 1))
    kink = float(rng.uniform(0.2, 2.0))
    averaged, ordered = _hinge_sides(
        kink, eig_hermitian_tuple(random_psd_tuple(rng, n, nf, 0.3, 1.5)))
    gap = averaged - ordered
    return {
        "kind": "hinge-gap", "gate": "monitor", "trial": i, "seed": s,
        "n": n, "N": nf, "kink": kink, "gap": gap,
    }, 1.0 + abs(averaged)


def _run_probe(cfg: ExperimentConfig) -> tuple[list, list, dict | None]:
    trials = _map_trials(_probe_trial, cfg, range(cfg.trials))
    records = [record for record, _ in trials]
    scales = [scale for _, scale in trials]
    gaps = np.array([r["gap"] for r in records])
    imin = int(np.argmin(gaps))
    extra = {
        "min_gap": float(gaps.min()),
        "min_gap_seed": records[imin]["seed"],
        "min_gap_trial": imin,
        "negative_fraction": float(np.mean(gaps < -JENSEN_GAP_RTOL * np.asarray(scales))),
    }
    cols = ["kind", "trial", "seed", "n", "N", "kink", "gap"]
    return records, cols, extra


@dataclass(frozen=True)
class Option:
    """An experiment option: its default and the rule a configured value meets."""

    default: object
    rule: str
    accepts: Callable[[object], bool]


@dataclass(frozen=True)
class Experiment:
    """One experiment's declaration: its runner and every config key it reads.

    ``trials`` is the default trial count, None for an experiment that reads
    no trials.  ``tolerances`` maps each gate-slack key to its default and
    ``options`` each option key to its ``Option``.  ``reads`` names which of
    n_max, N_max and grid_points the runner reads, ``least`` the lower
    bounds it needs on them (on grid_points, its number of axes), and
    ``grid_points`` the grid it uses when the config names none (None:
    drawn per trial).  ``ExperimentConfig.validate`` rejects every key and
    field outside this declaration.
    """

    run: Callable[[ExperimentConfig], tuple[list, list, dict | None]]
    trials: int | None
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    reads: tuple[str, ...] = ()
    least: dict = field(default_factory=dict)
    grid_points: tuple[int, ...] | None = None

    def resolve(self, cfg: ExperimentConfig) -> ExperimentConfig:
        """cfg with trials, tolerances, options and grid_points filled in
        from the defaults, as the runner takes it."""
        return replace(
            cfg,
            trials=self.trials if cfg.trials is None else cfg.trials,
            tolerances={key: float(cfg.tolerances.get(key, default))
                        for key, default in self.tolerances.items()},
            options={key: cfg.options.get(key, option.default)
                     for key, option in self.options.items()},
            grid_points=self.grid_points if cfg.grid_points is None else cfg.grid_points,
        )


EXPERIMENTS = {
    "constants": Experiment(
        _run_constants, trials=None,
        tolerances={"lw_residual": 1e-12, "e1_abs": 1e-6},
        options={"dmax": Option(20, "an integer in [4, 40]",
                                lambda v: _is_int(v) and 4 <= v <= 40)}),
    "jensen": Experiment(
        _run_jensen, trials=1000, tolerances={"jensen_gap": JENSEN_GAP_RTOL},
        reads=("n_max", "N_max")),
    "holder": Experiment(
        _run_holder, trials=1000, tolerances={"holder_slack": 1e-10},
        reads=("n_max", "N_max")),
    "timeorder-consistency": Experiment(
        _run_timeorder, trials=500,
        tolerances={"closed_form": 1e-8, "commuting_collapse": 1e-9},
        reads=("n_max", "N_max"), least={"n_max": 2}),
    "trotter": Experiment(
        _run_trotter, trials=50,
        tolerances={"resolvent_rel": 1e-8, "t_quadrature_rel": 1e-3},
        reads=("grid_points",)),
    "bs-equivalence": Experiment(
        _run_bs, trials=200, reads=("N_max", "grid_points")),
    "clr-survey": Experiment(
        _run_survey, trials=3,
        options={
            "refinements": Option(
                (3, 7, 15), "a non-empty list of positive integers",
                lambda v: (isinstance(v, (list, tuple)) and len(v) > 0
                           and all(_is_int(m) and m >= 1 for m in v))),
            "amplitude": Option(600.0, "a finite number > 0",
                                lambda v: _is_number(v) and v > 0),
        }),
    "lt-moments": Experiment(
        _run_lt, trials=3, reads=("grid_points",), least={"grid_points": 3},
        grid_points=(5, 5, 5)),
    "remark-probe": Experiment(
        _run_probe, trials=5000, reads=("n_max", "N_max"),
        least={"n_max": 2, "N_max": 2}),
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Validate, dispatch, optionally write report files, return the report.

    The runner sees the config with its defaults resolved; the report
    carries the config as given.  The out directory is created before the
    run, so an out that cannot be a directory raises ConfigError before
    any trial runs; one whose files cannot be written raises it after.  An
    OSError inside the experiment propagates as it is.
    """
    config.validate()
    experiment = EXPERIMENTS[config.experiment]
    if config.out:
        try:
            os.makedirs(config.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write the report under {config.out}: {exc}") from exc
    records, csv_columns, extra = experiment.run(experiment.resolve(config))
    report = ExperimentReport(
        experiment=config.experiment,
        config=config.to_dict(),
        records=records,
        summary=_summary(records, extra),
        csv_columns=csv_columns,
    )
    if config.out:
        try:
            report.write(config.out)
        except OSError as exc:
            raise ConfigError(f"cannot write the report under {config.out}: {exc}") from exc
    return report
