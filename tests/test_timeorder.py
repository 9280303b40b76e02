import math
import tracemalloc

import numpy as np
import pytest

from clrlab.errors import (
    AdmissibilityError,
    BudgetError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
)
from clrlab.matcore import (
    EigenDecomposition,
    apply_spectral,
    eig_hermitian,
    eig_hermitian_tuple,
)
from clrlab.timeorder import (
    ScalarFunctionClass,
    _jensen_sides,
    _ordered_series,
    averaged_trace,
    convex_probe,
    jensen_gap,
    time_ordered_apply,
    time_ordered_exponential,
    time_ordered_monomial,
    time_ordered_mu_exp,
)


def random_psd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g @ g.conj().T) / n


def random_admissible(rng):
    coeffs = [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-1.0, 1.0))]
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(2, 7))
        while len(coeffs) <= k:
            coeffs.append(0.0)
        coeffs[k] += float(rng.uniform(0.0, 1.0))
    atoms = tuple(
        (float(rng.uniform(0.0, 1.0)), float(rng.uniform(-2.0, 2.0)))
        for _ in range(int(rng.integers(0, 3)))
    )
    return ScalarFunctionClass(poly_coeffs=tuple(coeffs), exp_atoms=atoms)


# ---------------------------------------------------------------------------
# ScalarFunctionClass invariants

def test_function_class_rejects_negative_high_order_coeff():
    with pytest.raises(AdmissibilityError):
        ScalarFunctionClass(poly_coeffs=(0.0, 0.0, -1.0), exp_atoms=())


def test_function_class_allows_negative_low_order_coeffs():
    f = ScalarFunctionClass(poly_coeffs=(-3.0, -2.0, 1.0), exp_atoms=())
    assert abs(f(2.0) - (-3.0 - 4.0 + 4.0)) < 1e-14


def test_function_class_rejects_negative_atom_weight():
    with pytest.raises(AdmissibilityError):
        ScalarFunctionClass(poly_coeffs=(0.0,), exp_atoms=((-0.5, 1.0),))


def test_function_class_evaluation():
    f = ScalarFunctionClass(poly_coeffs=(1.0, 2.0, 0.5), exp_atoms=((0.3, 1.5),))
    for mu in (0.0, 0.7, 3.0):
        want = 1.0 + 2.0 * mu + 0.5 * mu**2 + 0.3 * np.exp(-1.5 * mu)
        assert abs(f(mu) - want) < 1e-13


def polyval_plus_atoms(f, mu):
    """Oracle: ScalarFunctionClass.__call__ as numpy's polyval plus an atom loop."""
    x = np.asarray(mu, dtype=float)
    out = np.zeros_like(x)
    if f.poly_coeffs:
        out = out + np.polynomial.polynomial.polyval(x, f.poly_coeffs)
    for w, r in f.exp_atoms:
        out = out + w * np.exp(-r * x)
    if np.isscalar(mu) or np.ndim(mu) == 0:
        return float(out)
    return out


def bits(value):
    return np.asarray(value, dtype=float).view(np.uint64)


def test_function_class_is_polyval_plus_atoms_bit_for_bit():
    # in-place Horner takes polyval's steps, signed zeros included
    rng = np.random.default_rng(17)
    edges = np.array([0.0, -0.0, -1.0, 1.0, -2.5, 3.0, 1e-300, -1e-300])
    functions = [
        ScalarFunctionClass(),
        ScalarFunctionClass(poly_coeffs=(-0.0,)),
        ScalarFunctionClass(poly_coeffs=(-0.0, 1.0)),
        ScalarFunctionClass(poly_coeffs=(0.0, -0.0, 0.0, 1.0)),
        ScalarFunctionClass(poly_coeffs=(-0.0, -0.0, -0.0)),
        ScalarFunctionClass(exp_atoms=((0.3, 1.5), (0.0, -2.0))),
        ScalarFunctionClass(poly_coeffs=(1.0, 2.0, 0.5), exp_atoms=((0.3, 1.5),)),
    ] + [random_admissible(rng) for _ in range(40)]
    for f in functions:
        row = np.concatenate([edges, rng.uniform(-3.0, 3.0, 16)])
        inputs = [row, row.reshape(4, 6), *edges.tolist(), np.float64(-0.0),
                  np.array(-0.0), np.array(0.7), 2]
        for mu in inputs:
            got, want = f(mu), polyval_plus_atoms(f, mu)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(bits(got), bits(want)), (f, mu)


# ---------------------------------------------------------------------------
# time_ordered_apply

def test_apply_single_factor_is_spectral_calculus():
    rng = np.random.default_rng(0)
    w = random_psd(rng, 3)
    f = random_admissible(rng)
    got = time_ordered_apply(f, [w])
    want = apply_spectral(f, w)
    assert np.max(np.abs(got - want)) < 1e-10


def test_apply_square_commuting_pair():
    w = np.diag([1.0, 0.0])
    got = time_ordered_apply(ScalarFunctionClass.monomial(2), [w, w])
    assert np.max(np.abs(got - 4.0 * np.diag([1.0, 0.0]))) < 1e-12


def test_apply_cube_matches_monomial_closed_form():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ws = [random_psd(rng, 3) for _ in range(2)]
        got = time_ordered_apply(ScalarFunctionClass.monomial(3), ws)
        want = time_ordered_monomial(3, ws)
        assert np.max(np.abs(got - want)) < 1e-9


def index_enumeration(f, decs):
    """Oracle: T f over index arrays of all N**n tuples, scattered by np.add.at."""
    n = len(decs)
    dim = decs[0].dim
    gaps = [decs[j].vectors.conj().T @ decs[j + 1].vectors for j in range(n - 1)]
    idx = np.indices((dim,) * n).reshape(n, -1)
    sums = np.zeros(idx.shape[1], dtype=float)
    for j in range(n):
        sums += decs[j].eigenvalues[idx[j]]
    chain = np.asarray(f(sums), dtype=complex)
    for j in range(n - 1):
        chain = chain * gaps[j][idx[j], idx[j + 1]]
    core = np.zeros((dim, dim), dtype=complex)
    np.add.at(core, (idx[0], idx[-1]), chain)
    return decs[0].vectors @ core @ decs[-1].vectors.conj().T


def random_decompositions(rng, n, dim, real):
    """n Hermitian factors of order dim; real ones keep real eigenvectors."""
    decs = []
    for _ in range(n):
        g = rng.standard_normal((dim, dim))
        if not real:
            g = g + 1j * rng.standard_normal((dim, dim))
        m = float(rng.uniform(0.2, 1.0)) * (g + g.conj().T) / (2.0 * dim)
        decs.append(EigenDecomposition(*np.linalg.eigh(m)) if real else eig_hermitian(m))
    return decs


def assert_matches_index_enumeration(rng, decs):
    alpha = float(rng.uniform(-2.0, 2.0))
    kink = float(rng.uniform(-0.5, 0.5))
    functions = [
        random_admissible(rng),
        lambda mu: mu * np.exp(alpha * mu),
        lambda mu: np.maximum(mu - kink, 0.0),
    ]
    # one call for the sequence equals one call per function, bit for bit
    family = time_ordered_apply(functions, decs)
    assert family.shape == (len(functions), decs[0].dim, decs[0].dim)
    for f, member in zip(functions, family):
        want = index_enumeration(f, decs)
        got = time_ordered_apply(f, decs)
        assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))
        assert member.dtype == got.dtype and np.array_equal(member, got)


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_contraction_matches_index_enumeration(n):
    rng = np.random.default_rng(800 + n)
    for dim in range(1, 5):
        for real in (True, False):
            assert_matches_index_enumeration(rng, random_decompositions(rng, n, dim, real))


def test_chain_contraction_matches_index_enumeration_at_4_to_the_9():
    rng = np.random.default_rng(809)
    assert_matches_index_enumeration(rng, random_decompositions(rng, 9, 4, False))


# Peak traced allocation of a 4**9-term enumeration, in units of the
# 16 * N**n bytes of its complex coefficient tensor: the contraction needs
# about 2.5, while the n x N**n int64 index arrays alone would take 4.5.
ENUMERATION_PEAK_MULTIPLE = 3


def enumeration_peak(f, decs) -> int:
    """Peak traced allocation of time_ordered_apply(f, decs), after a warm-up call."""
    time_ordered_apply(f, decs)
    tracemalloc.start()
    try:
        time_ordered_apply(f, decs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumeration_peak_memory_is_a_small_multiple_of_its_terms():
    rng = np.random.default_rng(810)
    decs = random_decompositions(rng, 9, 4, False)
    f = ScalarFunctionClass(poly_coeffs=(0.1, -0.2, 0.3, 0.0, 0.1),
                            exp_atoms=((0.5, 1.0), (0.2, -0.3)))
    assert enumeration_peak(f, decs) <= ENUMERATION_PEAK_MULTIPLE * 16 * 4**9


def test_family_peak_memory_is_that_of_one_enumeration():
    # the three functions share the sums and overlaps and are contracted
    # one after the other, so the bound on one enumeration still holds
    rng = np.random.default_rng(811)
    decs = random_decompositions(rng, 9, 4, False)
    functions = [ScalarFunctionClass(poly_coeffs=(0.1, -0.2, 0.3, 0.0, 0.1),
                                     exp_atoms=((0.5, 1.0), (0.2, -0.3))),
                 ScalarFunctionClass.exponential(0.7),
                 lambda mu: mu * np.exp(-0.4 * mu)]
    assert enumeration_peak(functions, decs) <= ENUMERATION_PEAK_MULTIPLE * 16 * 4**9


def test_apply_budget_error():
    rng = np.random.default_rng(1)
    ws = [random_psd(rng, 16) for _ in range(5)]  # 16^5 > 10^6 terms
    with pytest.raises(BudgetError):
        time_ordered_apply(ScalarFunctionClass.monomial(2), ws)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        time_ordered_apply(ScalarFunctionClass.monomial(2),
                           [np.eye(2), np.eye(3)])


def test_result_hermitian_for_single_factor_only():
    rng = np.random.default_rng(2)
    ws = [random_psd(rng, 3) for _ in range(2)]
    single = time_ordered_apply(ScalarFunctionClass.monomial(3), ws[:1])
    assert np.max(np.abs(single - single.conj().T)) < 1e-10
    pair = time_ordered_apply(ScalarFunctionClass.monomial(3), ws)
    assert np.max(np.abs(pair - pair.conj().T)) > 1e-6


# ---------------------------------------------------------------------------
# closed forms

def test_monomial_k1_is_sum():
    rng = np.random.default_rng(3)
    ws = [random_psd(rng, 4) for _ in range(3)]
    got = time_ordered_monomial(1, ws)
    assert np.max(np.abs(got - sum(ws))) < 1e-13


def test_monomial_k2_n2_expansion():
    rng = np.random.default_rng(4)
    w1, w2 = random_psd(rng, 3), random_psd(rng, 3)
    got = time_ordered_monomial(2, [w1, w2])
    want = w1 @ w1 + 2.0 * (w1 @ w2) + w2 @ w2
    assert np.max(np.abs(got - want)) < 1e-12


def test_monomial_matches_enumeration():
    for seed in range(10):
        rng = np.random.default_rng(10 + seed)
        ws = [random_psd(rng, 3) for _ in range(3)]
        got = time_ordered_monomial(4, ws)
        want = time_ordered_apply(ScalarFunctionClass.monomial(4), ws)
        assert np.max(np.abs(got - want)) < 1e-8


def test_monomial_rejects_bad_power():
    ws = [np.eye(2)]
    with pytest.raises(ValueError):
        time_ordered_monomial(0, ws)
    with pytest.raises(BudgetError):
        time_ordered_monomial(13, ws)


def test_merged_series_equals_the_three_closed_forms_bit_for_bit():
    # timeorder-consistency takes all three closed forms from one series at
    # alpha = (0, a); each public closed form takes its own series
    rng = np.random.default_rng(16)
    for n in range(1, 9):
        for dim in range(1, 5):
            decs = eig_hermitian_tuple(
                [random_psd(rng, dim, scale=float(rng.uniform(0.1, 1.2))) for _ in range(n)])
            for k in range(1, 7):
                for alpha in (-2.0, float(rng.uniform(-2.0, 2.0)), 2.0):
                    series = _ordered_series(decs, [0.0, alpha], k)
                    assert np.array_equal(math.factorial(k) * series[0, k],
                                          time_ordered_monomial(k, decs))
                    assert np.array_equal(series[1, 0], time_ordered_exponential(alpha, decs))
                    assert np.array_equal(series[1, 1], time_ordered_mu_exp(alpha, decs))


def test_exponential_alpha_zero_is_identity():
    rng = np.random.default_rng(5)
    ws = [random_psd(rng, 3) for _ in range(3)]
    got = time_ordered_exponential(0.0, ws)
    assert np.max(np.abs(got - np.eye(3))) < 1e-13


def test_exponential_commuting_diagonals():
    w1 = np.diag([0.5, 1.5])
    w2 = np.diag([1.0, 0.25])
    alpha = 0.8
    got = time_ordered_exponential(alpha, [w1, w2])
    want = np.diag(np.exp(alpha * np.array([1.5, 1.75])))
    assert np.max(np.abs(got - want)) < 1e-12


def test_exponential_matches_enumeration():
    for seed in range(10):
        rng = np.random.default_rng(20 + seed)
        ws = [random_psd(rng, 2) for _ in range(2)]
        alpha = float(rng.uniform(-1.5, 1.5))
        got = time_ordered_exponential(alpha, ws)
        f = ScalarFunctionClass.exponential(alpha)
        want = time_ordered_apply(f, ws)
        assert np.max(np.abs(got - want)) < 1e-9


def test_mu_exp_single_factor():
    rng = np.random.default_rng(6)
    w = random_psd(rng, 3)
    alpha = 0.6
    got = time_ordered_mu_exp(alpha, [w])
    want = w @ apply_spectral(lambda mu: np.exp(alpha * mu), w)
    assert np.max(np.abs(got - want)) < 1e-11


def test_mu_exp_alpha_zero_is_sum():
    rng = np.random.default_rng(7)
    ws = [random_psd(rng, 3) for _ in range(4)]
    got = time_ordered_mu_exp(0.0, ws)
    assert np.max(np.abs(got - sum(ws))) < 1e-12


def test_mu_exp_matches_enumeration():
    for seed in range(10):
        rng = np.random.default_rng(30 + seed)
        ws = [random_psd(rng, 3) for _ in range(3)]
        alpha = float(rng.uniform(-1.0, 1.0))
        got = time_ordered_mu_exp(alpha, ws)
        want = time_ordered_apply(lambda mu: mu * np.exp(alpha * mu), ws)
        assert np.max(np.abs(got - want)) < 1e-8


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))


def test_closed_forms_match_enumeration_at_workload_sizes():
    # n <= 8 factors of order N <= 4, powers k <= 6, rates alpha in [-2, 2]
    for seed in range(60):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 5))
        ws = [random_psd(rng, dim, scale=float(rng.uniform(0.3, 1.0)))
              for _ in range(n)]
        k = int(rng.integers(1, 7))
        alpha = float(rng.uniform(-2.0, 2.0))
        pairs = [
            (time_ordered_monomial(k, ws), ScalarFunctionClass.monomial(k)),
            (time_ordered_exponential(alpha, ws),
             ScalarFunctionClass.exponential(alpha)),
            (time_ordered_mu_exp(alpha, ws),
             lambda mu: mu * np.exp(alpha * mu)),
        ]
        for closed, f in pairs:
            assert _rel_err(closed, time_ordered_apply(f, ws)) < 1e-12


def test_linearity_of_time_ordering():
    rng = np.random.default_rng(8)
    ws = [random_psd(rng, 3) for _ in range(2)]
    f = ScalarFunctionClass.monomial(3)
    g = ScalarFunctionClass.exponential(0.5)
    combined = f + ScalarFunctionClass.exponential(0.5, weight=2.0)
    lhs = time_ordered_apply(combined, ws)
    rhs = (time_ordered_apply(f, ws)
           + 2.0 * time_ordered_apply(g, ws))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_commuting_collapse():
    for seed in range(15):
        rng = np.random.default_rng(40 + seed)
        dim = int(rng.integers(2, 4))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(g)
        ws = []
        for _ in range(3):
            lam = rng.uniform(0.0, 1.0, dim)
            m = (q * lam) @ q.conj().T
            ws.append(0.5 * (m + m.conj().T))
        f = random_admissible(rng)
        got = time_ordered_apply(f, ws)
        want = apply_spectral(f, sum(ws))
        assert np.max(np.abs(got - want)) < 1e-9


# ---------------------------------------------------------------------------
# Jensen

def test_jensen_single_factor_zero():
    rng = np.random.default_rng(9)
    w = random_psd(rng, 3)
    f = random_admissible(rng)
    assert jensen_gap(f, [w]) == pytest.approx(0.0, abs=1e-10)


def test_jensen_equal_squares_equality():
    rng = np.random.default_rng(10)
    w = random_psd(rng, 3)
    gap = jensen_gap(ScalarFunctionClass.monomial(2), [w, w])
    assert abs(gap) < 1e-10


def test_jensen_rejects_inadmissible_function():
    rng = np.random.default_rng(11)
    w = random_psd(rng, 2)
    with pytest.raises(AdmissibilityError):
        jensen_gap(lambda mu: mu**2, [w])


def test_jensen_rejects_indefinite_matrices():
    f = ScalarFunctionClass.monomial(2)
    with pytest.raises(NotPositiveSemidefiniteError):
        jensen_gap(f, [np.diag([1.0, -0.2])])


def test_jensen_property_nonnegative_gap():
    # 1000 seeded draws over mixed monomial/exponential f and PSD tuples
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 5))
        f = random_admissible(rng)
        ws = [random_psd(rng, dim, scale=float(rng.uniform(0.1, 1.5)))
              for _ in range(n)]
        gap = jensen_gap(f, ws)
        scale = 1.0 + abs(averaged_trace(f, ws))
        assert gap >= -1e-9 * scale


def test_jensen_gap_matches_enumeration():
    for seed in range(100):
        rng = np.random.default_rng(800 + seed)
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 5))
        f = random_admissible(rng)
        ws = [random_psd(rng, dim, scale=float(rng.uniform(0.1, 1.5)))
              for _ in range(n)]
        rhs = averaged_trace(f, ws)
        want = rhs - np.trace(time_ordered_apply(f, ws)).real
        assert abs(jensen_gap(f, ws) - want) < 1e-12 * (1.0 + abs(rhs))
        averaged, ordered = _jensen_sides(f, ws)
        assert averaged == rhs
        assert jensen_gap(f, ws) == averaged - ordered


def per_matrix_averaged_trace(f, decs):
    """Oracle: averaged_trace with one call of f per matrix."""
    n = len(decs)
    return sum(float(np.sum(np.asarray(f(n * d.eigenvalues), dtype=float)))
               for d in decs) / n


def test_averaged_trace_is_the_per_matrix_loop_bit_for_bit():
    rng = np.random.default_rng(18)
    for dim in range(1, 17):
        for n in range(1, 9):
            decs = [eig_hermitian(random_psd(rng, dim, scale=float(rng.uniform(0.1, 1.5))))
                    for _ in range(n)]
            kink = float(rng.uniform(0.1, 2.0))
            for f in (random_admissible(rng),
                      lambda mu: np.maximum(np.asarray(mu, dtype=float) - kink, 0.0)):
                assert averaged_trace(f, decs) == per_matrix_averaged_trace(f, decs)


def test_averaged_trace_calls_f_once_per_tuple():
    rng = np.random.default_rng(19)
    ws = [random_psd(rng, 3) for _ in range(5)]
    f = random_admissible(rng)
    calls = []

    def counted(mu):
        calls.append(np.shape(mu))
        return f(mu)

    assert averaged_trace(counted, ws) == averaged_trace(f, ws)
    assert calls == [(15,)]


def test_jensen_gap_one_validation_and_one_eigh_per_matrix(monkeypatch, decomposition_counts):
    # each matrix is validated and decomposed once, by one eigh for the tuple
    rng = np.random.default_rng(12)
    ws = [random_psd(rng, 3) for _ in range(4)]
    f = random_admissible(rng)
    want = jensen_gap(f, ws)

    def refused(*args, **kwargs):
        raise AssertionError("jensen_gap took a second spectrum")

    decomposition_counts.update(validated=0, decomposed=0, eigh=0)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    assert jensen_gap(f, ws) == want
    assert decomposition_counts == {"validated": 4, "decomposed": 4, "eigh": 1}


def test_jensen_gap_beyond_enumeration_budget():
    rng = np.random.default_rng(1)
    ws = [random_psd(rng, 16, scale=0.3) for _ in range(5)]  # 16^5 > 10^6 terms
    f = ScalarFunctionClass(poly_coeffs=(0.2, -0.5, 0.3, 0.0, 0.1),
                            exp_atoms=((0.5, 1.0), (0.2, -0.4)))
    gap = jensen_gap(f, ws)
    assert gap >= -1e-9 * (1.0 + abs(averaged_trace(f, ws)))


def test_holder_chain_for_monomials():
    # intermediate step: Re tr T(mu^k) <= (sum_j (tr W_j^k)^{1/k})^k
    for seed in range(200):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        ws = [random_psd(rng, 3, scale=float(rng.uniform(0.2, 1.5)))
              for _ in range(n)]
        lhs = np.trace(time_ordered_monomial(k, ws)).real
        s = sum(np.trace(np.linalg.matrix_power(w, k)).real ** (1.0 / k)
                for w in ws)
        rhs = s**k
        assert lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# convex hinge probe

def test_probe_single_factor_zero():
    rng = np.random.default_rng(12)
    w = random_psd(rng, 3)
    assert convex_probe(1.0, [w]) == pytest.approx(0.0, abs=1e-12)


def test_probe_one_validation_and_one_eigh_per_matrix(monkeypatch, decomposition_counts):
    # each matrix is validated and decomposed once, by one eigh for the tuple
    rng = np.random.default_rng(13)
    ws = [random_psd(rng, 3) for _ in range(4)]
    want = convex_probe(0.7, ws)

    def refused(*args, **kwargs):
        raise AssertionError("convex_probe took a second spectrum")

    decomposition_counts.update(validated=0, decomposed=0, eigh=0)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    assert convex_probe(0.7, ws) == want
    assert decomposition_counts == {"validated": 4, "decomposed": 4, "eigh": 1}


def test_probe_rejects_indefinite_and_over_budget(monkeypatch):
    with pytest.raises(NotPositiveSemidefiniteError):
        convex_probe(1.0, [np.diag([1.0, -0.2])])
    rng = np.random.default_rng(14)
    ws = [random_psd(rng, 4) for _ in range(3)]  # 4**3 = 64 terms
    monkeypatch.setattr("clrlab.timeorder.ENUMERATION_BUDGET", 64)
    convex_probe(1.0, ws)
    monkeypatch.setattr("clrlab.timeorder.ENUMERATION_BUDGET", 63)
    with pytest.raises(BudgetError, match="budget of 63"):
        convex_probe(1.0, ws)


def test_decompositions_give_the_same_results_as_arrays():
    rng = np.random.default_rng(15)
    for n in (1, 2, 4):
        ws = [random_psd(rng, 3, scale=0.8) for _ in range(n)]
        decs = [eig_hermitian(w) for w in ws]
        f = random_admissible(rng)
        assert averaged_trace(f, decs) == averaged_trace(f, ws)
        assert jensen_gap(f, decs) == jensen_gap(f, ws)
        assert np.array_equal(time_ordered_apply(f, decs),
                              time_ordered_apply(f, ws))


def test_probe_commuting_inputs_nonnegative():
    # hinge is convex, so scalar Jensen applies on a commuting family
    for seed in range(30):
        rng = np.random.default_rng(600 + seed)
        dim = 3
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(g)
        ws = []
        for _ in range(2):
            lam = rng.uniform(0.0, 1.5, dim)
            m = (q * lam) @ q.conj().T
            ws.append(0.5 * (m + m.conj().T))
        gap = convex_probe(float(rng.uniform(0.3, 2.0)), ws)
        assert gap >= -1e-9


def test_jensen_gap_rejects_a_nan_matrix():
    # the NaN used to pass the Hermitian rule and give a NaN gap
    a = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NonHermitianError, match="matrix 0 of 2 has a non-finite entry"):
        jensen_gap(ScalarFunctionClass.monomial(2), [a, np.eye(2)])
