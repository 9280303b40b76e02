"""Output checks that do not take the package's word for it.

* ``survey_oracle``: every clr-survey count is recomputed on an operator the
  benchmark assembles itself (Kronecker sums of the 1-D three-point
  stencil minus the diagonal potential), with scipy's sparse eigensolver,
  and the right-hand side is recomputed in closed form.
* ``rederive_gates``: every hard gate is re-derived from the fields of its
  record, and the summary's failure count is recomputed from the records,
  instead of reading ``summary["pass"]``.

Each function returns a list of problems; an empty list means the check
passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from clrlab.harness.generators import generate_potential
from clrlab.lattice import GridSpec, potential_digest

# The excess factor the survey uses for its right-hand side.
SURVEY_R = 10.332
ZERO_BAND_RTOL = 1e-10

# Default tolerances of the gates, as documented per experiment.
GATE_DEFAULTS = {
    "jensen_gap": 1e-9,
    "resolvent_rel": 1e-8,
    "t_quadrature_rel": 1e-3,
}
TIMEORDER_CHECKS = {"monomial", "exponential", "mu-exp", "commuting"}


def _stencil(m: int, h: float) -> sp.csr_matrix:
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m), format="csr") / h**2


def dirichlet_operator(points: tuple[int, ...], h: float, potential: np.ndarray) -> sp.csr_matrix:
    """-Delta_h - V on a Dirichlet box, sites in C order, scalar potential."""
    n = math.prod(points)
    lap = sp.csr_matrix((n, n))
    for ax, m in enumerate(points):
        before = math.prod(points[:ax])
        after = math.prod(points[ax + 1:])
        lap = lap + sp.kron(sp.kron(sp.identity(before), _stencil(m, h)),
                            sp.identity(after))
    return (lap - sp.diags(potential)).tocsr()


def lanczos_negative_count(op: sp.csr_matrix, lower: float) -> int:
    """Eigenvalues below -1e-10 * |H|_inf, by shift-invert Lanczos.

    ``lower`` must lie below the spectrum; the k eigenvalues nearest to it
    are then the k smallest, and k doubles until one of them clears the
    threshold.
    """
    n = op.shape[0]
    threshold = -ZERO_BAND_RTOL * float(np.max(np.abs(op).sum(axis=1)))
    k = 16
    while True:
        k = min(k, n - 1)
        eigs = eigsh(op, k=k, sigma=lower, which="LM", tol=0.0,
                     return_eigenvectors=False)
        if eigs.max() >= threshold or k == n - 1:
            return int(np.sum(eigs < threshold))
        k *= 2


def survey_oracle(report) -> list[str]:
    """Recompute each clr-survey row: potential digest, count, rhs, ratio, eps."""
    problems = []
    amplitude = float(report.config["options"]["amplitude"])
    rows = [r for r in report.records if r["kind"] == "survey"]
    for rec in rows:
        m = int(rec["m"])
        h = 1.0 / (m + 1)
        where = f"clr-survey ensemble {rec['ensemble']} m={m}"
        if rec["h"] != h:
            problems.append(f"{where}: h {rec['h']} != 1/(m+1)")
        grid = GridSpec(d=3, points_per_axis=(m, m, m), h=h)
        v = generate_potential(rec["seed"], grid, 1, "gaussian-bumps", amplitude=amplitude)
        if potential_digest(v) != rec["digest"]:
            problems.append(f"{where}: potential digest differs from the record")
            continue
        values = v.values[:, 0, 0]
        if np.any(values.imag != 0.0):
            problems.append(f"{where}: scalar potential has an imaginary part")
            continue
        values = values.real
        # -Delta_h >= 0, so -max V - 1 lies below the spectrum of -Delta_h - V.
        op = dirichlet_operator((m, m, m), h, values)
        count = lanczos_negative_count(op, -float(values.max()) - 1.0)
        if count != rec["count"]:
            problems.append(f"{where}: count {rec['count']} != oracle {count}")
        rhs = SURVEY_R * h**3 * float(np.sum(np.maximum(values, 0.0) ** 1.5)) / (6.0 * math.pi**2)
        if not math.isclose(rec["rhs"], rhs, rel_tol=1e-10):
            problems.append(f"{where}: rhs {rec['rhs']!r} != closed form {rhs!r}")
        ratio = rec["count"] / rec["rhs"]
        if not math.isclose(rec["ratio"], ratio, rel_tol=1e-12):
            problems.append(f"{where}: ratio {rec['ratio']!r} != count/rhs")
        if rec["eps"] != max(0.0, rec["ratio"] - 1.0):
            problems.append(f"{where}: eps {rec['eps']!r} != max(0, ratio - 1)")
    for rec in (r for r in report.records if r["kind"] == "trend"):
        chain = [r["eps"] for r in rows if r["ensemble"] == rec["ensemble"]]
        trend = all(b <= a + 1e-12 for a, b in zip(chain, chain[1:]))
        if rec["eps_chain"] != chain or rec["trend_ok"] != trend:
            problems.append(f"clr-survey ensemble {rec['ensemble']}: trend row disagrees")
    expected = len(report.config["options"]["refinements"]) * int(report.config["trials"])
    if len(rows) != expected:
        problems.append(f"clr-survey: {len(rows)} rows, expected {expected}")
    return problems


def _gate(rec: dict, tol: dict, bs_counts: dict) -> tuple[bool, float] | None:
    """(holds, re-derived margin) of one hard record, from its fields alone.

    None for a kind of record this module does not know.
    """
    kind = rec["kind"]
    if kind == "count-equivalence":
        holds = rec["count"] == rec["count_dense"] == rec["k_count"]
        return holds, 0.0 if holds else -1.0
    if kind == "bs-bound":
        if rec["count"] != bs_counts.get(rec["trial"]):
            return False, -1.0
        margin = rec["bound"] - rec["count"] + 1e-9
        return margin >= 0.0, margin
    if kind == "jensen-gap":
        margin = rec["gap"] + tol["jensen_gap"] * rec["scale"]
        return margin >= 0.0 and rec["scale"] >= 1.0, margin
    if kind == "timeorder":
        return rec["worst_check"] in TIMEORDER_CHECKS and rec["margin"] >= 0.0, rec["margin"]
    if kind == "resolvent-identity":
        rel = abs(rec["value"] - rec["reference"]) / max(abs(rec["reference"]), 1e-30)
        margin = tol["resolvent_rel"] - rel
        return margin >= 0.0, margin
    if kind == "trotter-slope":
        margin = min(rec["value"] + 1.3, -0.7 - rec["value"])
        return margin >= 0.0, margin
    if kind == "t-quadrature":
        rel = abs(rec["value"] - rec["reference"]) / max(abs(rec["reference"]), 1e-30)
        margin = tol["t_quadrature_rel"] - rel
        return margin >= 0.0, margin
    return None


def rederive_gates(report) -> list[str]:
    """Re-derive every hard gate and the summary's failure count."""
    problems = []
    tol = {**GATE_DEFAULTS, **report.config.get("tolerances", {})}
    bs_counts = {r["trial"]: r["count"] for r in report.records
                 if r["kind"] == "count-equivalence"}
    failures = 0
    hard = [r for r in report.records if r.get("gate") == "hard"]
    for rec in hard:
        where = f"{report.experiment} {rec['kind']} trial {rec.get('trial')}"
        try:
            gate = _gate(rec, tol, bs_counts)
        except KeyError as exc:
            problems.append(f"{where}: record has no field {exc}")
            continue
        if gate is None:
            problems.append(f"{where}: no re-derivation for this gate")
            continue
        holds, margin = gate
        if not holds:
            failures += 1
            problems.append(f"{where}: gate fails (margin {margin!r})")
        if not math.isclose(margin, rec["margin"], rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{where}: recorded margin {rec['margin']!r} != {margin!r}")
    if report.summary.get("hard_failures") != failures:
        problems.append(
            f"{report.experiment}: summary says {report.summary.get('hard_failures')} "
            f"hard failures, records give {failures}"
        )
    if report.summary.get("hard_records") != len(hard):
        problems.append(f"{report.experiment}: summary hard_records disagrees with records")
    if not hard and report.experiment != "clr-survey":
        problems.append(f"{report.experiment}: no hard records")
    return problems


def check_report(report) -> list[str]:
    problems = rederive_gates(report)
    if report.experiment == "clr-survey":
        problems += survey_oracle(report)
    return problems
