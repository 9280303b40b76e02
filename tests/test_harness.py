import csv
import hashlib
import json

import numpy as np
import pytest

from clrlab.errors import ConfigError
from clrlab.harness import (
    EXPERIMENT_NAMES,
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
    c1 = count_negative(hamiltonian(g, v1))
    c2 = count_negative(hamiltonian(g, v2))
    assert c1 > 0 and c2 == 2 * c1


def test_generate_potential_linear_in_amplitude():
    g = GridSpec(d=1, points_per_axis=(6,), h=0.5)
    for style in POTENTIAL_STYLES:
        v1 = generate_potential(3, g, 2, style, 1.0)
        v5 = generate_potential(3, g, 2, style, 5.0)
        assert np.allclose(v5.values, 5.0 * v1.values, atol=1e-12)


def test_gaussian_bumps_sample_fixed_continuum_field():
    # same seed, same box: the coarse grid's sites must see the same field
    # values as the matching sites of the refined grid
    coarse = GridSpec(d=3, points_per_axis=(3, 3, 3), h=0.25)
    fine = GridSpec(d=3, points_per_axis=(7, 7, 7), h=0.125)
    vc = generate_potential(42, coarse, 1, "gaussian-bumps", 2.0)
    vf = generate_potential(42, fine, 1, "gaussian-bumps", 2.0)
    # coarse site (i,j,k) sits at ((i+1)/4, ...), fine site (2i+1, ...) too
    for ci, coarse_idx in enumerate(coarse.index_tuples()):
        fine_idx = tuple(2 * i + 1 for i in coarse_idx)
        fi = np.ravel_multi_index(fine_idx, fine.points_per_axis)
        assert np.allclose(vc.values[ci], vf.values[fi], atol=1e-12)


def test_random_admissible_function_is_admissible():
    rng = np.random.default_rng(0)
    for _ in range(200):
        f = random_admissible_function(rng)
        assert isinstance(f, ScalarFunctionClass)
        assert all(c >= 0.0 for c in f.poly_coeffs[2:])
        assert all(w >= 0.0 for w, _ in f.exp_atoms)


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


@pytest.mark.parametrize("cfg", SMOKE, ids=lambda c: c.experiment)
def test_experiment_smoke(cfg):
    rep = run_experiment(cfg)
    assert rep.experiment == cfg.experiment
    assert rep.records, "experiment produced no records"
    assert rep.passed, rep.summary
    for rec in rep.records:
        assert rec.get("gate") in ("hard", "monitor", "info")


def test_jensen_run_takes_one_spectrum_per_matrix(monkeypatch):
    # one eigh per matrix; the only eigvalsh is random_psd's normalisation
    import clrlab.harness.experiments as experiments

    calls = {"eigh": 0, "eigvalsh": 0}
    drawing = [False]
    random_psd, eigh, eigvalsh = experiments.random_psd, np.linalg.eigh, np.linalg.eigvalsh

    def tracked_random_psd(*args, **kwargs):
        drawing[0] = True
        try:
            return random_psd(*args, **kwargs)
        finally:
            drawing[0] = False

    def counted_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counted_eigvalsh(*args, **kwargs):
        if not drawing[0]:
            calls["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(experiments, "random_psd", tracked_random_psd)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    rep = run_experiment(ExperimentConfig(experiment="jensen", trials=100, seed=7))
    assert rep.passed
    assert calls == {"eigh": sum(r["n"] for r in rep.records), "eigvalsh": 0}


def test_jensen_run_evaluates_the_averaged_side_once(monkeypatch):
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
    # gaps must still pass, because probe rows are monitor-only
    rep = run_experiment(
        ExperimentConfig(experiment="remark-probe", trials=2000, seed=3)
    )
    gaps = [float(r["gap"]) for r in rep.records if r.get("gate") == "monitor"]
    assert gaps and min(gaps) < 0.0
    assert float(rep.summary["negative_fraction"]) > 0.0
    assert rep.passed


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


def test_cli_usage_errors_exit_two(tmp_path):
    assert cli_main(["jensen", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "holder"}))
    assert cli_main(["jensen", "--config", str(bad)]) == 2  # name mismatch
    ugly = tmp_path / "ugly.json"
    ugly.write_text("{not json")
    assert cli_main(["jensen", "--config", str(ugly)]) == 2


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
