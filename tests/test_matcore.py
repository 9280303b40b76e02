
import math

import numpy as np
import pytest

from clrlab.config import MAX_MATRIX_DIM
from clrlab.errors import (
    EigenSolverError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    SpectralDomainError,
)
from clrlab.matcore import (
    HERMITICITY_RTOL,
    _defect_and_scale,
    apply_spectral,
    eig_hermitian,
    eig_hermitian_tuple,
    holder_trace_product,
    require_hermitian_stack,
)


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (g + g.conj().T)


def random_psd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g @ g.conj().T) / n


def projector(dec, k):
    u = dec.vectors[:, k : k + 1]
    return u @ u.conj().T


def test_hermitian_matrix_rejects_non_hermitian():
    bad = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(NonHermitianError):
        require_hermitian_stack(bad, "matrix")
    with pytest.raises(NonHermitianError):
        eig_hermitian(bad)
    # explicit symmetrization is left to the caller
    fixed = 0.5 * (bad + bad.T)
    require_hermitian_stack(fixed, "matrix")
    assert np.array_equal(eig_hermitian(fixed).eigenvalues, np.linalg.eigvalsh(fixed))


def test_hermitian_matrix_tolerance_scales_with_entries():
    a = np.array([[1e8, 1.0], [1.0 + 1e-5, 2e8]])
    # defect 1e-5 vs tolerance 1e-12*(1+2e8) ~ 2e-4: accepted
    require_hermitian_stack(a, "matrix")
    eig_hermitian(a)
    b = np.array([[1.0, 1.0], [1.0 + 1e-5, 2.0]])
    with pytest.raises(NonHermitianError):
        require_hermitian_stack(b, "matrix")
    with pytest.raises(NonHermitianError):
        eig_hermitian(b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_entries_fail_the_hermitian_rule(bad):
    # a NaN defect would pass "defect > tol" and inf - inf would warn: the
    # scale 1 + max|A| is checked for finiteness before A - A^H is formed
    a = np.array([[1.0, bad], [bad, 1.0]])
    with pytest.raises(NonHermitianError, match="^m has a non-finite entry"):
        require_hermitian_stack(a, "m")
    with pytest.raises(NonHermitianError, match="^matrix 1 of 2 has a non-finite entry"):
        eig_hermitian_tuple([np.eye(2), a])
    with pytest.raises(NonHermitianError, match="^matrix has a non-finite entry"):
        eig_hermitian(a)
    big = np.eye(200, dtype=complex)
    big[150, 2] = big[2, 150] = bad
    with pytest.raises(NonHermitianError, match="^big has a non-finite entry"):
        require_hermitian_stack(big, "big")


def test_eig_identity():
    dec = eig_hermitian(np.eye(3))
    # np.shape sizes a decomposition like its matrix
    assert np.shape(dec) == (3, 3)
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    total = sum(projector(dec, k) for k in range(3))
    assert np.max(np.abs(total - np.eye(3))) < 1e-10


def test_eig_diagonal():
    dec = eig_hermitian(np.diag([-1.0, 2.0]))
    assert np.shape(dec) == (2, 2)
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0])
    assert np.allclose(projector(dec, 0), np.diag([1.0, 0.0]))
    assert np.allclose(projector(dec, 1), np.diag([0.0, 1.0]))


def test_eig_projector_invariants_and_reconstruction():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, 4, scale=float(rng.uniform(0.1, 10.0)))
        dec = eig_hermitian(a)
        assert np.all(np.diff(dec.eigenvalues) >= 0.0)
        total = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            pk = projector(dec, k)
            for l in range(4):
                prod = pk @ projector(dec, l)
                ref = pk if l == k else np.zeros((4, 4))
                assert np.max(np.abs(prod - ref)) < 1e-10
            total += pk
        assert np.max(np.abs(total - np.eye(4))) < 1e-10
        radius = np.max(np.abs(dec.eigenvalues))
        rebuilt = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        assert np.max(np.abs(rebuilt - a)) < 1e-10 * (1.0 + radius)


# ---------------------------------------------------------------------------
# tuples: one check per matrix and one stacked eigh, against per-matrix loops

def _per_matrix_check(m):
    # the one-matrix check, each matrix judged alone
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise NonHermitianError("empty matrix")
    if a.shape[0] > MAX_MATRIX_DIM:
        raise NonHermitianError("over the cap")
    require_hermitian_stack(a, "matrix")
    return a


def _per_matrix_eig(ms):
    # per-matrix loop: one check and one eigh per matrix, then the dimension
    pairs = [np.linalg.eigh(_per_matrix_check(m)) for m in ms]
    if len({w.shape[0] for w, _ in pairs}) != 1:
        raise ValueError("matrices must share a dimension")
    return pairs


def test_tuple_decompositions_equal_the_per_matrix_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    for count in range(1, 9):
        for n in range(1, 5):
            ms = [random_hermitian(rng, n, scale=float(rng.uniform(0.1, 10.0)))
                  for _ in range(count)]
            decs = eig_hermitian_tuple(ms)
            assert len(decs) == count
            for dec, (w, v), m in zip(decs, _per_matrix_eig(ms), ms):
                assert np.array_equal(dec.eigenvalues, w)
                assert np.array_equal(dec.vectors, v)
                one = eig_hermitian(m)
                assert np.array_equal(one.eigenvalues, w)
                assert np.array_equal(one.vectors, v)


def test_tuple_check_judges_each_matrix_by_its_own_scale():
    # the small member's defect 1e-9 breaks its own tolerance (about 3e-12)
    # but not the largest member's (about 1e-6), which a shared scale would use
    rng = np.random.default_rng(18)
    big = random_hermitian(rng, 3, scale=1e6)
    small = random_hermitian(rng, 3)
    small[0, 1] += 1e-9
    ms = [big, small, random_hermitian(rng, 3)]
    with pytest.raises(NonHermitianError, match="stack 1 of 3 is not Hermitian"):
        require_hermitian_stack(np.array(ms), "stack")
    with pytest.raises(NonHermitianError, match="matrix 1 of 3 is not Hermitian"):
        eig_hermitian_tuple(ms)
    with pytest.raises(NonHermitianError, match="^matrix is not Hermitian"):
        eig_hermitian(small)


@pytest.mark.parametrize("ms, error", [
    ([np.eye(2), np.eye(3)], ValueError),
    ([np.eye(2), np.ones((2, 3))], NonHermitianError),
    ([np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(3)], NonHermitianError),
    ([np.eye(3), np.eye(3), np.ones((3, 2))], NonHermitianError),
    ([np.ones((2, 3)), np.ones((2, 3))], NonHermitianError),
    ([np.zeros((0, 0))], NonHermitianError),
    ([np.eye(MAX_MATRIX_DIM + 1)], NonHermitianError),
    ([np.eye(2), np.array([[0.0, 1.0], [2.0, 0.0]])], NonHermitianError),
    ([1.0], NonHermitianError),
], ids=["dims", "ragged-non-square", "ragged-non-hermitian", "late-non-square",
        "non-square", "empty", "over-cap", "non-hermitian", "scalar"])
def test_tuple_errors_match_the_per_matrix_loop(ms, error):
    # the exact type: NonHermitianError is also a ValueError
    raised = []
    for decompose in (_per_matrix_eig, eig_hermitian_tuple):
        with pytest.raises(ValueError) as err:
            decompose(ms)
        raised.append(type(err.value))
    assert raised == [error, error]


def test_tuple_eigh_failure_names_the_matrix(monkeypatch):
    eigh = np.linalg.eigh

    def failing(a, *args, **kwargs):
        if np.any(np.asarray(a)[..., 0, 0] == 13.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    ms = [np.eye(2), np.diag([13.0, 1.0]), np.eye(2)]
    with pytest.raises(EigenSolverError, match=r"matrix 1 of 3 \(2 x 2\)"):
        eig_hermitian_tuple(ms)
    with pytest.raises(EigenSolverError, match="on a 2 x 2 matrix"):
        eig_hermitian(ms[1])


def test_apply_spectral_identity_function():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 3)
    assert np.max(np.abs(apply_spectral(lambda mu: mu, a) - a)) < 1e-12


def test_apply_spectral_square_diagonal():
    out = apply_spectral(lambda mu: mu**2, np.diag([1.0, -2.0]))
    assert np.allclose(out, np.diag([1.0, 4.0]))


def _expm_series(a, terms=30):
    # scaling-and-squaring power series; independent of apply_spectral
    norm = np.linalg.norm(a, 2)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    b = a / 2**squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def test_apply_spectral_exp_vs_power_series():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, 3, scale=float(rng.uniform(0.2, 2.0)))
        got = apply_spectral(np.exp, a)
        want = _expm_series(a)
        assert np.max(np.abs(got - want)) < 1e-9


def test_apply_spectral_commutes_with_input():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        a = random_hermitian(rng, 4)
        fa = apply_spectral(lambda mu: np.tanh(mu), a)
        comm = fa @ a - a @ fa
        assert np.max(np.abs(comm)) < 1e-10


def test_apply_spectral_pole_names_eigenvalue():
    a = np.diag([0.0, 2.0])
    with np.errstate(divide="ignore"), pytest.raises(SpectralDomainError) as err:
        apply_spectral(lambda mu: 1.0 / mu, a)
    assert "0" in str(err.value)


def test_apply_spectral_calls_f_once_and_lets_its_error_through():
    # math.exp takes no array: its TypeError is raised, with no retry per eigenvalue
    calls = []

    def exp(mu):
        calls.append(mu)
        return math.exp(mu)

    with pytest.raises(TypeError):
        apply_spectral(exp, np.diag([0.5, 2.0]))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="need 2 scalar values"):
        apply_spectral(lambda mu: 1.0, np.diag([0.5, 2.0]))


def test_apply_spectral_composition():
    f = lambda mu: mu**2 + 1.0
    g = lambda mu: 2.0 * mu - 3.0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        a = random_hermitian(rng, 4)
        lhs = apply_spectral(lambda mu: f(g(mu)), a)
        rhs = apply_spectral(f, apply_spectral(g, a))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_holder_single_factor_is_equality():
    rng = np.random.default_rng(3)
    w = random_psd(rng, 3)
    lhs, rhs = holder_trace_product([w], [3])
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))
    assert abs(lhs - np.trace(np.linalg.matrix_power(w, 3)).real) < 1e-10


def test_holder_identity_pair():
    lhs, rhs = holder_trace_product([np.eye(2), np.eye(2)], [1, 1])
    assert abs(lhs - 2.0) < 1e-12
    assert abs(rhs - 2.0) < 1e-12


def test_holder_rejects_indefinite_input():
    with pytest.raises(NotPositiveSemidefiniteError):
        holder_trace_product([np.diag([1.0, -0.5])], [2])


def test_holder_property_no_violations():
    # 1000 seeded draws, k <= 5: lhs <= rhs + 1e-10 slack every time
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        powers = rng.multinomial(k, np.full(n, 1.0 / n)).tolist()
        ws = [random_psd(rng, dim, scale=float(rng.uniform(0.2, 2.0)))
              for _ in range(n)]
        lhs, rhs = holder_trace_product(ws, powers)
        assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# Hermiticity check of one matrix and of a stack

@pytest.mark.parametrize("shape", [(1, 1), (63, 63), (64, 64), (65, 65), (200, 200),
                                   (3, 65, 65), (5, 200, 200)])
def test_defect_and_scale_match_the_whole_array_formula(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a = 0.5 * (a + a.swapaxes(-1, -2).conj()) + 1e-9 * rng.standard_normal(shape)
    for b in (a, a.real):
        # one (defect, scale) pair per matrix, from the formula on each whole matrix
        defect, scale = _defect_and_scale(b)
        assert defect.shape == scale.shape == shape[:-2]
        assert np.array_equal(defect, np.max(np.abs(b - b.swapaxes(-1, -2).conj()), axis=(-2, -1)))
        assert np.array_equal(scale, 1.0 + np.max(np.abs(b), axis=(-2, -1)))


def test_blocked_hermiticity_rule_boundary():
    # the largest entry is 2 on the diagonal, so the tolerance is 3e-12; the
    # defect sits far from the diagonal, near the last row and the first column
    n = 200
    rng = np.random.default_rng(7)
    a = 0.5 * random_hermitian(rng, n) / n
    a[0, 0] = 2.0
    tol = HERMITICITY_RTOL * 3.0
    for factor, ok in ((0.9, True), (1.1, False)):
        b = a.copy()
        b[190, 3] += factor * tol
        assert _defect_and_scale(b)[1] == 3.0
        if ok:
            require_hermitian_stack(b, "b")
        else:
            with pytest.raises(NonHermitianError, match="b is not Hermitian"):
                require_hermitian_stack(b, "b")
