import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from clrlab.errors import ConfigError
from clrlab.harness import (
    EXPERIMENT_NAMES,
    EXPERIMENTS,
    POTENTIAL_STYLES,
    ExperimentConfig,
    derive_seed,
    generate_potential,
    random_admissible_function,
    run_experiment,
)
from clrlab.harness.cli import main as cli_main
from clrlab.lattice import GridSpec, count_negative, hamiltonian, potential_digest
from clrlab.timeorder import ScalarFunctionClass


# ---------------------------------------------------------------------------
# seeds and generators

def test_derive_seed_recompute():
    for seed, index in ((2026, 0), (2026, 17), (0, 0), (123456789, 3)):
        mixed = (seed ^ index) & (2**64 - 1)
        want = int.from_bytes(
            hashlib.sha256(mixed.to_bytes(8, "little")).digest()[:8], "little"
        )
        assert derive_seed(seed, index) == want


def test_derive_seed_distinct_across_trials():
    seeds = {derive_seed(2026, i) for i in range(200)}
    assert len(seeds) == 200


def test_generate_potential_reproducible_and_psd():
    g = GridSpec(d=2, points_per_axis=(4, 3), h=0.4)
    for style in POTENTIAL_STYLES:
        a = generate_potential(11, g, 2, style, 3.0)
        b = generate_potential(11, g, 2, style, 3.0)
        assert potential_digest(a) == potential_digest(b)
        assert float(a.eigenvalues_sites().min()) >= -1e-12


def test_scalar_embed_doubles_counts():
    g = GridSpec(d=1, points_per_axis=(10,), h=0.5)
    v1 = generate_potential(5, g, 1, "scalar-embed", 8.0)
    v2 = generate_potential(5, g, 2, "scalar-embed", 8.0)
    assert np.allclose(
        v2.values, v1.values[:, 0, 0][:, None, None] * np.eye(2), atol=1e-14
    )
    c1 = count_negative(hamiltonian(v1))
    c2 = count_negative(hamiltonian(v2))
    assert c1 > 0 and c2 == 2 * c1


def test_generate_potential_linear_in_amplitude():
    g = GridSpec(d=1, points_per_axis=(6,), h=0.5)
    for style in POTENTIAL_STYLES:
        v1 = generate_potential(3, g, 2, style, 1.0)
        v5 = generate_potential(3, g, 2, style, 5.0)
        assert np.allclose(v5.values, 5.0 * v1.values, atol=1e-12)


def test_generate_potential_needs_a_finite_amplitude():
    # an infinite amplitude used to give NaN sites, which support() dropped
    g = GridSpec(d=1, points_per_axis=(4,), h=0.5)
    for style in POTENTIAL_STYLES:
        for bad in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="amplitude must be finite and >= 0"):
                generate_potential(3, g, 2, style, bad)


def test_gaussian_bumps_sample_fixed_continuum_field():
    # same seed, same box: the coarse grid's sites must see the same field
    # values as the matching sites of the refined grid
    coarse = GridSpec(d=3, points_per_axis=(3, 3, 3), h=0.25)
    fine = GridSpec(d=3, points_per_axis=(7, 7, 7), h=0.125)
    vc = generate_potential(42, coarse, 1, "gaussian-bumps", 2.0)
    vf = generate_potential(42, fine, 1, "gaussian-bumps", 2.0)
    # coarse site (i,j,k) sits at ((i+1)/4, ...), fine site (2i+1, ...) too
    coarse_idx = np.unravel_index(np.arange(coarse.nsites), coarse.points_per_axis)
    fi = np.ravel_multi_index(tuple(2 * i + 1 for i in coarse_idx), fine.points_per_axis)
    assert np.allclose(vc.values, vf.values[fi], atol=1e-12)


def test_random_admissible_function_is_admissible():
    rng = np.random.default_rng(0)
    for _ in range(200):
        f = random_admissible_function(rng)
        assert isinstance(f, ScalarFunctionClass)
        assert all(c >= 0.0 for c in f.poly_coeffs[2:])
        assert all(w >= 0.0 for w, _ in f.exp_atoms)


# ---------------------------------------------------------------------------
# per-matrix oracles of the stacked draw and decompositions

def _per_matrix_psd_tuple(rng, count, n, low, high, scale=1.0):
    # one product and one eigvalsh per matrix, drawn in the same order
    mats = []
    for _ in range(count):
        eig_max = scale * rng.uniform(low, high)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g @ g.conj().T
        mats.append((float(eig_max) / float(np.linalg.eigvalsh(a)[-1])) * a)
    return np.array(mats)


def _per_matrix_eig(ms):
    from clrlab.matcore import EigenDecomposition, require_hermitian_stack

    decs = []
    for m in ms:
        a = np.asarray(m, dtype=complex)
        require_hermitian_stack(a, "matrix")
        w, v = np.linalg.eigh(a)
        decs.append(EigenDecomposition(eigenvalues=w, vectors=v))
    return decs


def _per_matrix_holder(matrices, powers):
    # Hoelder's two sides with one eigvalsh per factor
    from clrlab.matcore import require_psd_spectrum

    mats = [np.asarray(m, dtype=complex) for m in matrices]
    k = sum(powers)
    eigs = [np.maximum(require_psd_spectrum(np.linalg.eigvalsh(m), "factor"), 0.0)
            for m in mats]
    word = np.eye(mats[0].shape[0], dtype=complex)
    for m, j in zip(mats, powers):
        if j:
            word = word @ np.linalg.matrix_power(m, j)
    rhs = 1.0
    for w, j in zip(eigs, powers):
        if j:
            rhs *= float(np.sum(w**k)) ** (j / k)
    return float(np.trace(word).real), rhs


def _separate_series(decs, alphas, k):
    # the three series the public closed forms take, one call each
    from clrlab.timeorder import _ordered_series

    zero, alpha = alphas
    out = np.zeros((2, k + 1) + np.shape(decs[0]), dtype=complex)
    out[0, k] = _ordered_series(decs, zero, k)[k]
    out[1, 0] = _ordered_series(decs, alpha, 0)[0]
    out[1, 1] = _ordered_series(decs, alpha, 1)[1]
    return out


def test_bump_potentials_same_with_the_per_matrix_draw(monkeypatch):
    import clrlab.harness.generators as generators

    g = GridSpec(d=2, points_per_axis=(5, 4), h=0.3)
    cases = [(seed, n, style) for seed in (1, 2) for n in (1, 2, 4)
             for style in ("gaussian-bumps", "scalar-embed")]

    def digests():
        return [potential_digest(generate_potential(seed, g, n, style, 7.5))
                for seed, n, style in cases]

    want = digests()
    monkeypatch.setattr(generators, "random_psd_tuple", _per_matrix_psd_tuple)
    assert digests() == want


def _rolled_psd_field_values(rng, grid, n, amplitude):
    """Oracle: random-psd-field smoothed with np.roll copies of the field and its mask."""
    nsites = grid.nsites
    g = rng.standard_normal((nsites, n, n)) + 1j * rng.standard_normal((nsites, n, n))
    raw = np.einsum("xij,xkj->xik", g, g.conj()) / (2.0 * n)
    raw *= (amplitude * rng.uniform(0.3, 1.0, size=nsites))[:, None, None]
    pts = grid.points_per_axis
    arr = raw.reshape(*pts, n, n)
    total = arr.copy()
    count = np.ones(pts, dtype=float)
    ones = np.ones(pts, dtype=float)
    for ax in range(grid.d):
        for step in (1, -1):
            shifted = np.roll(arr, step, axis=ax)
            mask = np.roll(ones, step, axis=ax)
            edge = [slice(None)] * grid.d
            edge[ax] = 0 if step == 1 else -1
            shifted[tuple(edge)] = 0.0
            mask[tuple(edge)] = 0.0
            total += shifted
            count += mask
    return (total / count[..., None, None]).reshape(nsites, n, n)


def test_psd_field_potentials_same_with_the_rolled_smoothing(monkeypatch):
    import clrlab.harness.generators as generators

    grids = [GridSpec(d=len(p), points_per_axis=p, h=0.4)
             for p in ((1,), (2,), (11,), (1, 4), (5, 3), (3, 1, 2), (3, 3, 3))]
    cases = [(seed, g, n) for seed in (1, 2, 3) for g in grids for n in (1, 2, 3)]

    def potentials():
        return [generate_potential(seed, g, n, "random-psd-field", 4.0)
                for seed, g, n in cases]

    sliced = potentials()
    monkeypatch.setattr(generators, "_psd_field_values", _rolled_psd_field_values)
    for got, want in zip(sliced, potentials()):
        assert got.values.tobytes() == want.values.tobytes()
        assert potential_digest(got) == potential_digest(want)


@pytest.mark.parametrize("name", ["jensen", "holder", "timeorder-consistency",
                                  "remark-probe"])
def test_tuple_experiments_same_records_with_the_per_matrix_oracles(monkeypatch, name):
    import clrlab.harness.experiments as experiments
    import clrlab.timeorder as timeorder

    cfg = ExperimentConfig(experiment=name, trials=50, seed=19, n_max=8, N_max=4)
    want = run_experiment(cfg)
    monkeypatch.setattr(experiments, "random_psd_tuple", _per_matrix_psd_tuple)
    monkeypatch.setattr(experiments, "eig_hermitian_tuple", _per_matrix_eig)
    monkeypatch.setattr(timeorder, "eig_hermitian_tuple", _per_matrix_eig)
    monkeypatch.setattr(experiments, "holder_trace_product", _per_matrix_holder)
    monkeypatch.setattr(experiments, "_ordered_series", _separate_series)
    got = run_experiment(cfg)
    assert json.dumps([got.records, got.summary]) == json.dumps([want.records, want.summary])


# ---------------------------------------------------------------------------
# config

def test_config_from_dict_and_roundtrip():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "jensen", "seed": 7, "trials": 10}
    )
    assert cfg.experiment == "jensen" and cfg.seed == 7 and cfg.trials == 10
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys_and_experiments():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "jensen", "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "no-such-thing"})


def test_config_enforces_enumeration_budget():
    cfg = ExperimentConfig(experiment="timeorder-consistency", n_max=8, N_max=16)
    with pytest.raises(ConfigError):
        cfg.validate()


# ---------------------------------------------------------------------------
# reports

def test_report_files_and_reproducibility(tmp_path):
    cfg = ExperimentConfig(experiment="jensen", seed=5, trials=25, out=None)
    rep1 = run_experiment(cfg)
    rep2 = run_experiment(cfg)
    assert rep1.records == rep2.records
    assert rep1.summary == rep2.summary
    assert rep1.passed

    cfg_out = ExperimentConfig(experiment="jensen", seed=5, trials=25,
                               out=str(tmp_path))
    rep3 = run_experiment(cfg_out)
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "summary.csv"
    assert jpath.exists() and cpath.exists()
    data = json.loads(jpath.read_text())
    assert data["records"] == rep3.records
    assert data["summary"]["hard_failures"] == 0
    assert "numpy" in data["versions"] and "scipy" in data["versions"]
    with open(cpath) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rep3.records)
    assert list(rows[0].keys()) == rep3.csv_columns


def test_report_pass_matches_negative_hard_margins():
    rep = run_experiment(ExperimentConfig(experiment="holder", seed=9, trials=40))
    hard_bad = sum(
        1
        for r in rep.records
        if r.get("gate") == "hard" and float(r.get("margin", 0.0)) < 0.0
    )
    assert rep.passed == (hard_bad == 0)
    assert rep.summary["hard_failures"] == hard_bad


def test_a_nan_hard_margin_fails_the_summary():
    from clrlab.harness.experiments import _summary

    records = [{"gate": "hard", "margin": 0.5}, {"gate": "hard", "margin": math.nan},
               {"gate": "monitor", "margin": math.nan}]
    summary = _summary(records, None)
    assert summary["hard_records"] == 2
    assert summary["hard_failures"] == 1 and summary["pass"] is False
    assert _summary(records[:1], None)["pass"] is True


def test_cli_exits_one_on_a_nan_hard_margin(monkeypatch, capsys):
    def nan_margin(cfg):
        return [{"kind": "probe", "gate": "hard", "margin": math.nan}], ["kind", "margin"], None

    monkeypatch.setitem(EXPERIMENTS, "holder",
                        dataclasses.replace(EXPERIMENTS["holder"], run=nan_margin))
    assert cli_main(["holder"]) == 1
    assert "[FAIL] holder: 1 records, 1 hard gates, 1 failures" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment smoke runs (tiny ensembles; the acceptance suite runs the
# full-size versions)

SMOKE = [
    ExperimentConfig(experiment="constants", options={"dmax": 6}),
    ExperimentConfig(experiment="jensen", trials=20),
    ExperimentConfig(experiment="holder", trials=20),
    ExperimentConfig(experiment="timeorder-consistency", trials=20),
    ExperimentConfig(experiment="trotter", trials=5),
    ExperimentConfig(experiment="bs-equivalence", trials=10),
    ExperimentConfig(experiment="clr-survey", options={"refinements": [3, 5]}),
    ExperimentConfig(experiment="lt-moments", trials=2),
    ExperimentConfig(experiment="remark-probe", trials=50),
]


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}, which strict JSON forbids")


@pytest.mark.parametrize("cfg", SMOKE, ids=lambda c: c.experiment)
def test_experiment_smoke(cfg, tmp_path):
    rep = run_experiment(dataclasses.replace(cfg, out=str(tmp_path)))
    assert rep.experiment == cfg.experiment
    # the written report parses as strict JSON: no NaN or Infinity
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert json.loads(text, parse_constant=_reject_constant)["experiment"] == cfg.experiment
    assert rep.records, "experiment produced no records"
    assert rep.passed, rep.summary
    for rec in rep.records:
        assert rec.get("gate") in ("hard", "monitor", "info")
    # every declared tolerance reaches a gate: a strongly negative slack fails one
    for key in EXPERIMENTS[cfg.experiment].tolerances:
        bad = run_experiment(dataclasses.replace(cfg, tolerances={key: -1e6}))
        assert bad.summary["hard_failures"] > 0, key


def test_jensen_run_takes_one_spectrum_per_matrix(monkeypatch, decomposition_counts):
    # each matrix is validated and decomposed once, by one eigh per tuple;
    # the only eigvalsh is the draw's normalisation, one per tuple too
    import clrlab.harness.experiments as experiments

    eigvalsh_calls = {"draw": 0, "other": 0}
    drawing = [False]
    draw, eigvalsh = experiments.random_psd_tuple, np.linalg.eigvalsh

    def tracked_draw(*args, **kwargs):
        drawing[0] = True
        try:
            return draw(*args, **kwargs)
        finally:
            drawing[0] = False

    def counted_eigvalsh(*args, **kwargs):
        eigvalsh_calls["draw" if drawing[0] else "other"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(experiments, "random_psd_tuple", tracked_draw)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    rep = run_experiment(ExperimentConfig(experiment="jensen", trials=100, seed=7))
    assert rep.passed
    matrices = sum(r["n"] for r in rep.records)
    assert decomposition_counts == {"validated": matrices, "decomposed": matrices,
                                    "eigh": 100}
    assert eigvalsh_calls == {"draw": 100, "other": 0}


def test_jensen_run_evaluates_the_averaged_side_once(monkeypatch, serial_trials):
    import clrlab.harness.experiments as experiments
    import clrlab.timeorder as timeorder

    calls = [0]
    averaged_trace = timeorder.averaged_trace

    def counted(*args, **kwargs):
        calls[0] += 1
        return averaged_trace(*args, **kwargs)

    # patched in every namespace a trial could call it through
    monkeypatch.setattr(timeorder, "averaged_trace", counted)
    monkeypatch.setattr(experiments, "averaged_trace", counted, raising=False)
    rep = run_experiment(ExperimentConfig(experiment="jensen", trials=50, seed=7))
    assert rep.passed
    assert calls[0] == 50


def test_timeorder_trial_enumerates_its_closed_forms_in_one_call(monkeypatch, serial_trials):
    # the three closed forms share one enumeration; the commuting check
    # makes the second call
    import clrlab.harness.experiments as experiments

    calls = []
    apply = experiments.time_ordered_apply

    def counted(f, matrices):
        calls.append(f)
        return apply(f, matrices)

    monkeypatch.setattr(experiments, "time_ordered_apply", counted)
    rep = run_experiment(ExperimentConfig(experiment="timeorder-consistency",
                                          trials=20, seed=7))
    assert rep.passed
    assert len(calls) == 2 * 20
    assert [len(f) for f in calls[::2]] == [3] * 20
    assert all(callable(f) for f in calls[1::2])


def test_timeorder_run_takes_one_spectrum_per_matrix(decomposition_counts):
    # per trial: the drawn tuple and the commuting family (n matrices each),
    # plus the commuting check's apply_spectral on the family's sum; each
    # matrix is validated and decomposed once, by one eigh per tuple
    rep = run_experiment(ExperimentConfig(experiment="timeorder-consistency",
                                          trials=60, seed=7))
    assert rep.passed
    matrices = sum(2 * r["n"] + 1 for r in rep.records)
    assert decomposition_counts == {"validated": matrices, "decomposed": matrices,
                                    "eigh": 3 * 60}


def test_lt_trial_takes_one_spectrum_of_h(monkeypatch, serial_trials):
    # the three Riesz means of a trial come from one dense spectrum
    from clrlab import lattice

    spectra = []
    dense = lattice._dense_spectrum
    monkeypatch.setattr(lattice, "_dense_spectrum",
                        lambda op, what: spectra.append(what) or dense(op, what))
    rep = run_experiment(ExperimentConfig(experiment="lt-moments", trials=3))
    assert spectra == ["Riesz mean"] * 3
    assert [r["gamma"] for r in rep.records] == [0.5, 1.0, 2.0] * 3


def _survey_by_ensemble(cfg: ExperimentConfig) -> dict:
    """{records, summary} of clr-survey by one loop per ensemble over the
    refinements, then its trend: the cell map's oracle."""
    from clrlab.harness.experiments import _summary
    from clrlab.lattice import clr_rhs
    from clrlab.transforms import r_bound

    cfg = EXPERIMENTS["clr-survey"].resolve(cfg)
    records = []
    for e in range(cfg.trials):
        s = derive_seed(cfg.seed, e)
        eps_chain = []
        for m in cfg.options["refinements"]:
            grid = GridSpec(d=3, points_per_axis=(m, m, m), h=1.0 / (m + 1))
            v = generate_potential(s, grid, 1, "gaussian-bumps",
                                   amplitude=float(cfg.options["amplitude"]))
            count = count_negative(hamiltonian(V=v))
            rhs = clr_rhs(v, r_bound(0.0))
            ratio = count / rhs if rhs > 0 else math.inf
            eps = max(0.0, ratio - 1.0)
            eps_chain.append(eps)
            records.append({
                "kind": "survey", "gate": "monitor", "ensemble": e, "seed": s,
                "m": m, "h": grid.h, "count": count, "rhs": rhs,
                "ratio": ratio, "eps": eps, "digest": potential_digest(v),
            })
        trend_ok = all(eps_chain[j + 1] <= eps_chain[j] + 1e-12
                       for j in range(len(eps_chain) - 1))
        records.append({"kind": "trend", "gate": "monitor", "ensemble": e, "seed": s,
                        "trend_ok": trend_ok, "eps_chain": eps_chain})
    ratios = [r["ratio"] for r in records if r["kind"] == "survey"]
    extra = {"trend_ok": all(r["trend_ok"] for r in records if r["kind"] == "trend"),
             "max_ratio": float(max(ratios))}
    return {"records": records, "summary": _summary(records, extra)}


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(experiment="clr-survey"),
    ExperimentConfig(experiment="clr-survey", trials=2, options={"refinements": [7, 7, 3]}),
    ExperimentConfig(experiment="clr-survey", trials=1, options={"refinements": [5]}),
    ExperimentConfig(experiment="clr-survey", trials=4,
                     options={"refinements": [11, 5, 9], "amplitude": 900.0}),
], ids=["default", "7-7-3x2", "5x1", "11-5-9x4-amp900"])
def test_survey_cell_map_gives_the_per_ensemble_records(cfg):
    rep = run_experiment(cfg)
    want = json.dumps(_survey_by_ensemble(cfg))
    assert json.dumps({"records": rep.records, "summary": rep.summary}) == want


def test_survey_maps_every_cell_largest_box_first(monkeypatch):
    import clrlab.harness.experiments as experiments

    mapped = []
    map_trials = experiments._map_trials

    def spied(fn, cfg, indices):
        mapped.append(list(indices))
        return map_trials(fn, cfg, indices)

    monkeypatch.setattr(experiments, "_map_trials", spied)
    run_experiment(ExperimentConfig(experiment="clr-survey", trials=2,
                                    options={"refinements": [5, 9, 3]}))
    assert mapped == [[(0, 9), (1, 9), (0, 5), (1, 5), (0, 3), (1, 3)]]


def test_holder_gate_reads_the_configured_slack_alone(monkeypatch, serial_trials):
    # lhs above rhs by 1e-9 (1 + rhs): holder_slack 1e-8 allows it and the
    # default 1e-10 does not; either way each trial is a holder record
    import clrlab.harness.experiments as experiments

    exact = experiments.holder_trace_product

    def over(matrices, powers):
        _, rhs = exact(matrices, powers)
        return rhs + 1e-9 * (1.0 + rhs), rhs

    monkeypatch.setattr(experiments, "holder_trace_product", over)
    loose = run_experiment(ExperimentConfig(experiment="holder", trials=5,
                                            tolerances={"holder_slack": 1e-8}))
    strict = run_experiment(ExperimentConfig(experiment="holder", trials=5))
    assert loose.passed and not strict.passed
    assert strict.summary["hard_failures"] == 5
    for rep in (loose, strict):
        assert [r["kind"] for r in rep.records] == ["holder"] * 5
        assert all(r["lhs"] > r["rhs"] > 0.0 for r in rep.records)


def test_bs_equivalence_keeps_n_max_one_on_3d_boxes():
    rep = run_experiment(ExperimentConfig(experiment="bs-equivalence", trials=8, N_max=1,
                                          grid_points=(3, 3, 3)))
    assert rep.passed
    assert {r["dim"] for r in rep.records} == {27}


def _readme_row(name, spec):
    def pairs(mapping):
        return ", ".join(f"`{k}` = {json.dumps(v)}" for k, v in mapping.items()) or "—"

    reads = []
    for field in spec.reads:
        text = f"`{field}`"
        if field in spec.least:
            text += f" ≥ {spec.least[field]}" + (" axes" if field == "grid_points" else "")
        if field == "grid_points" and spec.grid_points is not None:
            text += f" (default {json.dumps(spec.grid_points)})"
        reads.append(text)
    options = {key: option.default for key, option in spec.options.items()}
    return (f"| `{name}` | {'—' if spec.trials is None else spec.trials} | "
            f"{pairs(spec.tolerances)} | {pairs(options)} | {', '.join(reads) or '—'} |")


def test_readme_experiment_table_matches_the_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    assert rows == [_readme_row(name, spec) for name, spec in EXPERIMENTS.items()]


def test_experiment_names_cover_dispatch():
    assert set(EXPERIMENT_NAMES) == {
        "constants",
        "jensen",
        "holder",
        "timeorder-consistency",
        "trotter",
        "bs-equivalence",
        "clr-survey",
        "lt-moments",
        "remark-probe",
    }


def test_monitor_rows_never_fail_a_run():
    # the hinge probe has no sign guarantee: runs that discover negative
    # gaps must still pass, because probe rows are monitor-only; gaps within
    # jensen's rounding slack are not counted as negative
    rep = run_experiment(
        ExperimentConfig(experiment="remark-probe", trials=2000, seed=3)
    )
    gaps = [float(r["gap"]) for r in rep.records if r.get("gate") == "monitor"]
    assert gaps and -1e-13 < min(gaps) < 0.0
    assert rep.summary["negative_fraction"] == 0.0
    assert rep.passed


def test_probe_run_takes_one_spectrum_per_matrix(decomposition_counts):
    # each drawn matrix is decomposed once, by one eigh per tuple; the hinge
    # gap and its averaged side both take the decompositions
    rep = run_experiment(ExperimentConfig(experiment="remark-probe", trials=60, seed=7))
    matrices = sum(r["n"] for r in rep.records)
    assert decomposition_counts == {"validated": matrices, "decomposed": matrices,
                                    "eigh": 60}


def test_probe_run_evaluates_the_averaged_side_once(monkeypatch, serial_trials):
    import clrlab.harness.experiments as experiments
    import clrlab.timeorder as timeorder

    calls = [0]
    averaged_trace = timeorder.averaged_trace

    def counted(*args, **kwargs):
        calls[0] += 1
        return averaged_trace(*args, **kwargs)

    # patched in every namespace a trial could call it through
    monkeypatch.setattr(timeorder, "averaged_trace", counted)
    monkeypatch.setattr(experiments, "averaged_trace", counted, raising=False)
    run_experiment(ExperimentConfig(experiment="remark-probe", trials=50, seed=7))
    assert calls[0] == 50


def test_probe_negative_fraction_counts_gaps_beyond_the_slack(monkeypatch):
    import clrlab.harness.experiments as experiments

    for gap, want in ((-1e-12, 0.0), (-1e-6, 1.0)):
        monkeypatch.setattr(experiments, "_hinge_sides", lambda kink, decs: (0.0, -gap))
        rep = run_experiment(ExperimentConfig(experiment="remark-probe", trials=20))
        assert rep.summary["negative_fraction"] == want


# ---------------------------------------------------------------------------
# CLI

def test_cli_pass_run_writes_report(tmp_path, capsys):
    out = tmp_path / "rep"
    rc = cli_main(
        ["jensen", "--trials", "25", "--seed", "4", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "[PASS] jensen" in captured.err
    assert (out / "report.json").exists()


def test_cli_failure_exit_code(tmp_path):
    cfg = {
        "experiment": "jensen",
        "trials": 60,
        "seed": 1,
        "tolerances": {"jensen_gap": -1e-30},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli_main(["jensen", "--config", str(path)])
    assert rc == 1


def test_cli_usage_errors_exit_two(tmp_path, capsys):
    assert cli_main(["jensen", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "holder"}))
    assert cli_main(["jensen", "--config", str(bad)]) == 2  # name mismatch
    ugly = tmp_path / "ugly.json"
    ugly.write_text("{not json")
    assert cli_main(["jensen", "--config", str(ugly)]) == 2
    capsys.readouterr()
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"experiment": "jens\xe9n"}')
    taken = tmp_path / "taken.txt"
    taken.write_text("not a directory")
    for argv in (["jensen", "--config", str(tmp_path)],
                 ["jensen", "--config", str(latin)],
                 ["constants", "--dmax", "4", "--out", str(taken)],
                 ["potential", "gen", "--style", "gaussian-bumps", "--points", "4",
                  "--out", str(tmp_path)]):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("clrlab: ") and err.count("\n") == 1, argv
    assert taken.read_text() == "not a directory"


def test_an_unwritable_out_fails_before_the_run(monkeypatch, tmp_path, capsys):
    def never(config):
        pytest.fail("the experiment ran although --out cannot be written")

    monkeypatch.setitem(EXPERIMENTS, "constants",
                        dataclasses.replace(EXPERIMENTS["constants"], run=never))
    taken = tmp_path / "taken.txt"
    taken.write_text("not a directory")
    for out in (taken, taken / "below"):
        assert cli_main(["constants", "--dmax", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("clrlab: config error: ") and err.count("\n") == 1
    assert taken.read_text() == "not a directory"


def test_experiment_oserror_propagates(monkeypatch):
    def broken(config):
        raise PermissionError("inside the experiment")

    jensen = dataclasses.replace(EXPERIMENTS["jensen"], run=broken)
    monkeypatch.setitem(EXPERIMENTS, "jensen", jensen)
    with pytest.raises(PermissionError, match="inside the experiment"):
        cli_main(["jensen", "--trials", "2"])


@pytest.mark.parametrize("command, routine, error", [
    (["trotter", "--trials", "1"], "_exp_sinh_integral",
     ArithmeticError("the t-quadrature did not agree with itself")),
    (["clr-survey", "--trials", "1"], "count_negative",
     np.linalg.LinAlgError("singular Schur block on rows 0:9")),
])
def test_cli_failed_computation_exits_two(monkeypatch, capsys, command, routine, error):
    # exit 1 is kept for a failed hard gate
    import clrlab.harness.experiments as experiments

    def failing(*args):
        raise error

    monkeypatch.setattr(experiments, routine, failing)
    assert cli_main(command) == 2
    assert capsys.readouterr().err == f"clrlab: error: {error}\n"


@pytest.mark.parametrize("fields, command", [
    ({"n_max": "3"}, ["jensen"]),
    ({"tolerances": None}, ["jensen"]),
    ({"grid_points": [3, "a"]}, ["jensen"]),
    ({"n_max": 3.5}, ["jensen"]),
    ({"N_max": 2.0}, ["jensen"]),
    ({"out": 5}, ["jensen"]),
    ({"options": []}, ["constants", "--dmax", "5"]),  # --dmax merges into options
    ({"trials": 3, "tolerances": {"no_such_gate": 1.0}}, ["jensen"]),
    ({"tolerances": {"jensen_gap": float("nan")}}, ["jensen"]),
    ({"options": {"refinemnts": [3]}}, ["clr-survey"]),
    ({"options": {"refinements": 5}}, ["clr-survey"]),
    ({"options": {"refinements": [0]}}, ["clr-survey"]),
    ({"options": {"refinements": [3.5]}}, ["clr-survey"]),
    ({"options": {"amplitude": "x"}}, ["clr-survey"]),
    ({"options": {"amplitude": -5}}, ["clr-survey"]),
    ({"options": {"dmax": "abc"}}, ["constants"]),
    ({}, ["constants", "--trials", "3"]),
    ({"grid_points": [3, 3, 3]}, ["clr-survey"]),
    ({"n_max": 7}, ["bs-equivalence"]),
    ({"n_max": 1}, ["timeorder-consistency"]),
    ({"n_max": 1}, ["remark-probe"]),
    ({"N_max": 1}, ["remark-probe"]),
    ({"grid_points": [5, 5], "trials": 1}, ["lt-moments"]),  # lt_rhs needs d >= 3
    ({"options": {"amplitude": 0}}, ["clr-survey"]),  # rhs 0 and an infinite ratio
])
def test_cli_malformed_config_exits_two(tmp_path, capsys, fields, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields))
    assert cli_main(command + ["--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_constants_prints_table(capsys):
    rc = cli_main(["constants", "--dmax", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "gamma,d,L_cl,R_bound"
    assert any(line.startswith("a_star,") for line in lines)
    row = next(line for line in lines if line.startswith("0.0,3,"))
    assert "10.332" in row.rsplit(",", 1)[1]


def test_cli_potential_gen_roundtrip(tmp_path):
    out = tmp_path / "pot.json"
    rc = cli_main(
        [
            "potential",
            "gen",
            "--style",
            "gaussian-bumps",
            "--seed",
            "7",
            "--N",
            "2",
            "--points",
            "4",
            "4",
            "--h",
            "0.25",
            "--amplitude",
            "3.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["N"] == 2
    assert data["grid"]["points"] == [4, 4]
    g = GridSpec(d=2, points_per_axis=(4, 4), h=0.25)
    want = generate_potential(7, g, 2, "gaussian-bumps", 3.0)
    from clrlab.lattice import potential_from_json_dict

    assert potential_digest(potential_from_json_dict(data)) == potential_digest(want)


@pytest.mark.parametrize("flag, value", [
    ("--points", "0"), ("--h", "-1"), ("--N", "0"), ("--amplitude", "-1"),
    ("--amplitude", "inf"),
])
def test_cli_potential_gen_out_of_range_flags_exit_two(tmp_path, capsys, flag, value):
    out = tmp_path / "pot.json"
    flags = {"--style": "gaussian-bumps", "--points": "4", "--out": str(out), flag: value}
    argv = ["potential", "gen"] + [x for item in flags.items() for x in item]
    assert cli_main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("clrlab: config error: ")
