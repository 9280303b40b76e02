"""Acceptance gate: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one [PASS]/[FAIL]
line per criterion; any failure also fails the pytest run.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from clrlab.harness import ExperimentConfig, run_experiment
from clrlab.lattice import GridSpec, heat_diagonal_step
from clrlab.harness import generate_potential
from clrlab.transforms import (
    classical_constant,
    corollary_constant,
    exp_integral_E1,
    f_a_eval,
    laplace_type_transform,
    lw_product_check,
    minimize_R,
)


def _criterion(n: int, desc: str, checks) -> None:
    failed = [msg for ok, msg in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] criterion {n}: {desc}")
    assert not failed, f"criterion {n}: " + "; ".join(failed)


def test_criterion_01_constants():
    t0 = time.perf_counter()
    l03 = classical_constant(0.0, 3)
    want = 1.0 / (6.0 * math.pi**2)
    lw_worst = max(lw_product_check(d) for d in range(4, 21))
    e1 = exp_integral_E1(1.0)
    elapsed = time.perf_counter() - t0
    _criterion(1, "semiclassical constants, product identity, E1", [
        (abs(l03 - want) < 1e-12 * want, f"L_cl(0,3) = {l03!r}"),
        (lw_worst < 1e-12, f"worst product residual {lw_worst:.3e}"),
        (abs(e1 - 0.219384) <= 1e-6, f"E1(1) = {e1!r}"),
        (elapsed < 1.0, f"took {elapsed:.2f}s"),
    ])


def test_criterion_02_minimization():
    t0 = time.perf_counter()
    a_star, r_star = minimize_R(0.5, 3.0)
    elapsed = time.perf_counter() - t0
    _criterion(2, "minimized excess factor", [
        (10.32 <= r_star <= 10.34, f"R* = {r_star!r}"),
        (1.05 <= a_star <= 1.25, f"a* = {a_star!r}"),
        (r_star > 8.0 / math.sqrt(3.0), "R* above the hard lower bound"),
        (elapsed < 1.0, f"took {elapsed:.2f}s"),
    ])


def test_criterion_03_timeorder_consistency():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="timeorder-consistency")
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    hard = [r for r in rep.records if r.get("gate") == "hard"]
    _criterion(3, "time-ordered closed forms vs enumeration (500 trials)", [
        (cfg.n_max == 4 and cfg.N_max == 3, "default budget is n<=4, N<=3"),
        (len(hard) >= 500, f"{len(hard)} hard records"),
        (rep.passed, f"{rep.summary['hard_failures']} hard failures"),
        (elapsed < 30.0, f"took {elapsed:.2f}s"),
    ])


def test_criterion_04_jensen():
    t0 = time.perf_counter()
    rep = run_experiment(ExperimentConfig(experiment="jensen"))
    elapsed = time.perf_counter() - t0
    hard = [r for r in rep.records if r.get("gate") == "hard"]
    _criterion(4, "time-ordered Jensen gap non-negative (1000 trials)", [
        (len(hard) >= 1000, f"{len(hard)} trials"),
        (rep.passed, f"min gap {rep.summary.get('min_gap')!r}"),
        (elapsed < 60.0, f"took {elapsed:.2f}s"),
    ])


def test_criterion_05_holder():
    t0 = time.perf_counter()
    rep = run_experiment(ExperimentConfig(experiment="holder"))
    elapsed = time.perf_counter() - t0
    hard = [r for r in rep.records if r.get("gate") == "hard"]
    _criterion(5, "Hoelder trace chain (1000 trials)", [
        (len(hard) >= 1000, f"{len(hard)} trials"),
        (rep.passed, f"{rep.summary['hard_failures']} violations"),
        (elapsed < 30.0, f"took {elapsed:.2f}s"),
    ])


def test_criterion_06_bs_equivalence():
    t0 = time.perf_counter()
    rep = run_experiment(ExperimentConfig(experiment="bs-equivalence"))
    elapsed = time.perf_counter() - t0
    counts = [r for r in rep.records if r["kind"] == "count-equivalence"]
    bounds = [r for r in rep.records if r["kind"] == "bs-bound"]
    _criterion(6, "counting equivalence and Birman-Schwinger bound", [
        (len(counts) == 200, f"{len(counts)} count records"),
        (all(r["margin"] >= 0.0 for r in counts), "counts agree 200/200"),
        (len(bounds) == 600, f"{len(bounds)} bound records"),
        (all(r["margin"] >= 0.0 for r in bounds), "bound >= count 600/600"),
        (rep.passed, f"{rep.summary['hard_failures']} hard failures"),
        (elapsed < 120.0, f"took {elapsed:.2f}s"),
    ])


def test_criterion_07_trotter():
    t0 = time.perf_counter()
    rep = run_experiment(ExperimentConfig(experiment="trotter"))
    elapsed = time.perf_counter() - t0
    res = [r for r in rep.records if r["kind"] == "resolvent-identity"]
    slopes = [r for r in rep.records if r["kind"] == "trotter-slope"]
    quads = [r for r in rep.records if r["kind"] == "t-quadrature"]
    _criterion(7, "resolvent identity, Trotter slope, time quadrature", [
        (len(res) == 50 and all(r["margin"] >= 0.0 for r in res),
         "resolvent identity 50/50 at 1e-8"),
        (len(slopes) == 3 and all(-1.3 <= r["value"] <= -0.7 for r in slopes),
         f"slopes {[round(r['value'], 3) for r in slopes]}"),
        (len(quads) == 10 and all(r["margin"] >= 0.0 for r in quads),
         "time quadrature 10/10 at 1e-3"),
        (rep.passed, f"{rep.summary['hard_failures']} hard failures"),
        (elapsed < 120.0, f"took {elapsed:.2f}s"),
    ])


def test_criterion_08_corollary_and_heat_diagonal():
    t0 = time.perf_counter()
    checks = []
    for a in (0.25, 1.0, 4.0):
        got = corollary_constant(lambda s, aa=a: f_a_eval(aa, s), 3)
        want = math.pi / math.sqrt(a)
        checks.append(
            (abs(got - want) <= 1e-8, f"a={a}: {got!r} vs pi/sqrt(a)")
        )

    grid = GridSpec(d=3, points_per_axis=(2, 2, 2), h=0.5)
    v = generate_potential(9, grid, 2, "random-psd-field", 3.0)

    def f(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-s) * np.expm1(-s) ** 2

    cc = corollary_constant(lambda s: math.exp(-s) * math.expm1(-s) ** 2, 3)
    want = (4.0 * math.pi) ** -1.5 * cc * v.moment(1.5)
    got, _ = quad(lambda u: heat_diagonal_step(v, f, math.exp(u)),
                  -40.0, 40.0, limit=400)
    rel = abs(got - want) / abs(want)
    checks.append((rel <= 1e-6, f"heat-diagonal scaling relerr {rel:.3e}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 10.0, f"took {elapsed:.2f}s"))
    _criterion(8, "corollary constant and heat-diagonal scaling", checks)


def test_criterion_09_laplace_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0, 2.0):
            got = laplace_type_transform(
                lambda mu, a=alpha: mu * math.exp(-a * mu), lam)
            worst = max(worst, abs(got - lam / (1.0 + alpha * lam)))
    elapsed = time.perf_counter() - t0
    _criterion(9, "Laplace-type transform closed form", [
        (worst <= 1e-9, f"worst abs error {worst:.3e}"),
        (elapsed < 1.0, f"took {elapsed:.2f}s"),
    ])


def test_criterion_10_clr_survey_monitor():
    rep = run_experiment(ExperimentConfig(experiment="clr-survey"))
    surveys = [r for r in rep.records if r["kind"] == "survey"]
    trends = [r for r in rep.records if r["kind"] == "trend"]
    for e in sorted({r["ensemble"] for r in surveys}):
        chain = [
            (r["m"], round(r["ratio"], 4))
            for r in surveys
            if r["ensemble"] == e
        ]
        print(f"    survey ensemble {e}: count/rhs by refinement {chain}")
    _criterion(10, "counting survey is discretization-limited (monitor)", [
        (all(r["gate"] == "monitor" for r in surveys + trends),
         "survey rows are monitor-only"),
        (all(r["ratio"] <= 1.0 + r["eps"] + 1e-12 for r in surveys),
         "ratio within 1 + eps(h)"),
        (all(r["trend_ok"] for r in trends),
         "eps decreases under grid refinement"),
        (rep.passed, "no hard failures"),
    ])
