import json
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.sparse.linalg import eigsh

from clrlab.errors import BudgetError, NonHermitianError, NotPositiveSemidefiniteError
from clrlab.harness import generate_potential
from clrlab.harness.generators import POTENTIAL_STYLES
from clrlab.lattice import (
    DiscreteOperator,
    GridSpec,
    MatrixPotential,
    birman_schwinger,
    bs_bound,
    build_laplacian,
    clr_rhs,
    count_negative,
    hamiltonian,
    heat_diagonal_step,
    heat_kernel_free,
    k_spectrum,
    load_potential,
    potential_digest,
    potential_from_json_dict,
    potential_to_json_dict,
    resolvent_trace,
    riesz_mean,
    save_potential,
    semigroup_sandwich_trace,
    trotter_trace,
)
from clrlab.lattice import _axis_modes, _hermitian_defect, _slab_bounds
from clrlab.matcore import HERMITICITY_RTOL, require_psd_spectrum
from clrlab.transforms import classical_constant, corollary_constant, f_a_transform

import scipy.sparse as sp


def grid1d(m=8, h=0.5, boundary="dirichlet"):
    return GridSpec(d=1, points_per_axis=(m,), h=h, boundary=boundary)


def scalar_potential(grid, diag):
    vals = np.zeros((grid.nsites, 1, 1), dtype=complex)
    vals[:, 0, 0] = np.asarray(diag, dtype=float)
    return MatrixPotential(grid=grid, N=1, values=vals)


# ---------------------------------------------------------------------------
# grids

def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(d=4, points_per_axis=(2, 2, 2, 2), h=0.5)
    with pytest.raises(ValueError):
        GridSpec(d=2, points_per_axis=(3,), h=0.5)
    with pytest.raises(ValueError):
        GridSpec(d=1, points_per_axis=(3,), h=0.0)
    with pytest.raises(ValueError):
        GridSpec(d=1, points_per_axis=(3,), h=0.5, boundary="neumann")


def test_grid_extent_and_coords():
    g = GridSpec(d=1, points_per_axis=(3,), h=0.25)
    assert g.extent == (1.0,)
    assert np.allclose(g.site_coords().ravel(), [0.25, 0.5, 0.75])
    gp = GridSpec(d=1, points_per_axis=(4,), h=0.25, boundary="periodic")
    assert gp.extent == (1.0,)
    assert np.allclose(gp.site_coords().ravel(), [0.0, 0.25, 0.5, 0.75])


# ---------------------------------------------------------------------------
# Laplacians

def test_laplacian_1d_three_point_spectrum():
    g = GridSpec(d=1, points_per_axis=(3,), h=1.0)
    w = np.linalg.eigvalsh(build_laplacian(g).toarray())
    want = np.array([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
    assert np.allclose(w, want, atol=1e-12)


def test_laplacian_periodic_constant_kernel():
    g = GridSpec(d=1, points_per_axis=(6,), h=0.3, boundary="periodic")
    lap = build_laplacian(g).toarray()
    assert np.max(np.abs(lap @ np.ones(6))) < 1e-12
    assert np.linalg.eigvalsh(lap)[0] > -1e-12


def test_laplacian_2d_tensor_sum_spectrum():
    g2 = GridSpec(d=2, points_per_axis=(4, 4), h=0.5)
    w2 = np.linalg.eigvalsh(build_laplacian(g2).toarray())
    g1 = GridSpec(d=1, points_per_axis=(4,), h=0.5)
    w1 = np.linalg.eigvalsh(build_laplacian(g1).toarray())
    want = np.sort((w1[:, None] + w1[None, :]).ravel())
    assert np.allclose(w2, want, atol=1e-10)


def test_laplacian_fiber_kron():
    g = grid1d(5)
    base = build_laplacian(g, fiber=1).toarray()
    lifted = build_laplacian(g, fiber=3).toarray()
    assert np.allclose(lifted, np.kron(base, np.eye(3)), atol=1e-14)


def test_laplacian_dirichlet_floor():
    for m, h in ((5, 1.0), (9, 0.5), (12, 0.25)):
        g = grid1d(m, h)
        w = np.linalg.eigvalsh(build_laplacian(g).toarray())
        floor = 4.0 / h**2 * math.sin(math.pi / (2.0 * (m + 1))) ** 2
        assert abs(w[0] - floor) < 1e-10 * max(1.0, floor)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_laplacian_1d_matches_shift_formula(m, boundary):
    h = 0.5
    shift = np.eye(m, k=1)
    if boundary == "periodic":
        shift[m - 1, 0] += 1.0
    want = (2.0 * np.eye(m) - shift - shift.T) / h**2
    got = build_laplacian(grid1d(m, h, boundary)).toarray()
    assert np.array_equal(got, want)
    if boundary == "periodic" and m == 1:
        assert not np.any(got)
    if boundary == "periodic" and m == 2:
        assert got[0, 1] == got[1, 0] == -2.0 / h**2


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_axis_modes_diagonalize_1d_stencil(m, boundary):
    h = 0.3
    lam, u = _axis_modes(m, h, boundary)
    assert np.allclose(u.conj().T @ u, np.eye(m), atol=1e-14)
    want = build_laplacian(grid1d(m, h, boundary)).toarray()
    assert np.allclose((u * lam) @ u.conj().T, want, atol=1e-12 / h**2)


# ---------------------------------------------------------------------------
# counting

def test_count_negative_free_laplacian():
    for boundary in ("dirichlet", "periodic"):
        g = GridSpec(d=1, points_per_axis=(7,), h=0.4, boundary=boundary)
        assert count_negative(build_laplacian(g)) == 0


def test_count_negative_explicit_diagonal():
    op = DiscreteOperator(
        matrix=sp.diags([-1.0, -2.0, 3.0]).tocsr(), nsites=3, fiber=1
    )
    assert count_negative(op) == 2
    assert count_negative(op, method="inertia") == 2
    assert count_negative(op, method="dense") == 2
    with pytest.raises(ValueError):
        count_negative(op, method="sloppy")


def _diagonal_op(values):
    return DiscreteOperator(matrix=sp.diags(values).tocsr(), nsites=len(values), fiber=1)


def test_count_negative_auto_propagates_non_lapack_errors(monkeypatch):
    def broken(*args):
        raise ValueError("not a LAPACK failure")

    monkeypatch.setattr("clrlab.lattice._schur_negative_count", broken)
    with pytest.raises(ValueError, match="not a LAPACK failure"):
        count_negative(_diagonal_op([-1.0, -2.0, 3.0]))


def test_count_negative_auto_falls_back_on_linalg_error(monkeypatch):
    def failing(*args):
        raise np.linalg.LinAlgError("factorization failed")

    monkeypatch.setattr("clrlab.lattice._schur_negative_count", failing)
    op = _diagonal_op([-1.0, -2.0, 3.0, 1e-13])
    assert count_negative(op) == 2
    with pytest.raises(np.linalg.LinAlgError):
        count_negative(op, method="inertia")


def test_count_negative_inertia_matches_dense():
    specs = [
        (1, (12,), 0.4, 1, 20, 6.0),
        (1, (9,), 0.5, 2, 20, 4.0),
        (2, (4, 4), 0.5, 1, 15, 8.0),
        (3, (3, 3, 3), 0.5, 1, 10, 40.0),
    ]
    seen = 0
    for d, pts, h, nf, trials, amp in specs:
        g = GridSpec(d=d, points_per_axis=pts, h=h)
        for trial in range(trials):
            v = generate_potential((d, trial), g, nf, "random-psd-field", amp)
            ham = hamiltonian(g, v)
            ci = count_negative(ham, method="inertia")
            cd = count_negative(ham, method="dense")
            assert ci == cd
            seen += ci
    assert seen > 0  # the ensembles must actually bind


def _assert_structured_matches_dense(op):
    count = count_negative(op, method="inertia")
    assert count == count_negative(op, method="dense")
    assert count == count_negative(op)
    return count


@pytest.mark.parametrize("m,N,kind", [
    (5, 1, "real"), (5, 2, "real"), (5, 2, "complex"),
    (7, 1, "real"), (7, 2, "complex"), (9, 1, "real"), (9, 2, "real"),
    (11, 1, "real"),
])
def test_structured_count_matches_dense_3d(m, N, kind):
    g = GridSpec(d=3, points_per_axis=(m, m, m), h=1.0 / (m + 1))
    seen = 0
    for trial, amp in enumerate((300.0, 3000.0)):
        v = generate_potential((m, N, trial), g, N, "random-psd-field", amp)
        vals = v.values.real if kind == "real" else v.values
        assert np.any(vals.imag) == (kind == "complex")
        ham = hamiltonian(g, MatrixPotential(grid=g, N=N, values=vals))
        assert ham.matrix.dtype == (np.complex128 if kind == "complex" else np.float64)
        seen += _assert_structured_matches_dense(ham)
    assert seen > 0


@pytest.mark.parametrize("pts,N", [((13, 17), 2), ((13, 17), 3), ((60, 7), 1), ((7, 60), 1)])
def test_structured_count_matches_dense_2d_unequal_axes(pts, N):
    g = GridSpec(d=2, points_per_axis=pts, h=0.2)
    v = generate_potential((pts, N), g, N, "random-psd-field", 150.0)
    assert _assert_structured_matches_dense(hamiltonian(g, v)) > 0


@pytest.mark.parametrize("pts", [(6, 6, 6), (20, 11)])
def test_structured_count_periodic_runs_as_one_slab(pts):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.3, boundary="periodic")
    v = generate_potential((31, *pts), g, 1, "random-psd-field", 60.0)
    ham = hamiltonian(g, v)
    assert g.nsites > 128
    assert list(_slab_bounds(ham.matrix)) == [0, g.nsites]  # wrap-around band
    assert _assert_structured_matches_dense(ham) > 0


@pytest.mark.parametrize("n,band,dtype", [(500, 30, float), (500, 30, complex),
                                          (600, 150, complex)])
def test_structured_count_matches_dense_banded_operator(n, band, dtype):
    rng = np.random.default_rng(band)
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    i, j = np.indices((n, n))
    a[np.abs(i - j) > band] = 0.0
    op = DiscreteOperator(matrix=sp.csr_matrix(a + a.conj().T), nsites=n, fiber=1)
    assert len(_slab_bounds(op.matrix)) > 2
    count = _assert_structured_matches_dense(op)
    assert 0 < count < n


def test_structured_count_orders_zero_and_one():
    empty = DiscreteOperator(matrix=sp.csr_matrix((0, 0)), nsites=0, fiber=1)
    for method in ("auto", "inertia", "dense"):
        assert count_negative(empty, method=method) == 0
    for value, want in ((-2.0, 1), (3.0, 0), (0.0, 0)):
        assert _assert_structured_matches_dense(_diagonal_op([value])) == want


def test_slab_bounds_follow_the_bandwidth():
    g = GridSpec(d=3, points_per_axis=(15, 15, 15), h=0.1)
    bounds = _slab_bounds(build_laplacian(g).matrix)
    assert np.all(np.diff(bounds) == 225)  # one axis-0 slab each
    lifted = _slab_bounds(build_laplacian(g, fiber=2).matrix)
    assert np.all(np.diff(lifted) == 450)
    assert list(_slab_bounds(build_laplacian(grid1d(100)).matrix)) == [0, 100]


def test_structured_count_never_densifies(monkeypatch):
    g = GridSpec(d=3, points_per_axis=(9, 9, 9), h=0.1)
    ham = hamiltonian(g, generate_potential(4, g, 1, "gaussian-bumps", 600.0))
    want = count_negative(ham, method="dense")

    def refused(*args, **kwargs):
        raise AssertionError("the structured count densified H")

    monkeypatch.setattr(DiscreteOperator, "toarray", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    assert count_negative(ham) == count_negative(ham, method="inertia") == want > 0


def test_riesz_mean_matches_eig_oracle():
    g = grid1d(10, 0.5)
    v = generate_potential(7, g, 1, "random-psd-field", 6.0)
    ham = hamiltonian(g, v)
    w = np.linalg.eigvalsh(ham.toarray())
    neg = w[w < -1e-10 * ham.scale()]
    for gamma in (0.5, 1.0, 2.0):
        want = float(np.sum((-neg) ** gamma))
        assert abs(riesz_mean(ham, gamma) - want) < 1e-12 * (1.0 + want)
    # gamma -> 0 limit recovers the count
    assert abs(riesz_mean(ham, 1e-6) - count_negative(ham)) < 1e-3 * max(
        1, count_negative(ham)
    )
    with pytest.raises(ValueError):
        riesz_mean(ham, 0.0)


def test_count_monotone_under_psd_addition():
    g = grid1d(10, 0.5)
    rng = np.random.default_rng(3)
    for trial in range(20):
        v = generate_potential(trial, g, 1, "random-psd-field", 5.0)
        bump = rng.uniform(0.0, 2.0, size=g.nsites)
        vplus = MatrixPotential(
            grid=g, N=1, values=v.values + bump[:, None, None]
        )
        before = count_negative(hamiltonian(g, v))
        after = count_negative(hamiltonian(g, vplus))
        assert after >= before


# ---------------------------------------------------------------------------
# Birman-Schwinger

def test_birman_schwinger_zero_potential():
    g = grid1d(6)
    k = birman_schwinger(g, scalar_potential(g, np.zeros(6)))
    assert k.shape == (0, 0)
    assert k_spectrum(k).shape == (0,)
    assert bs_bound(lambda x: x, k_spectrum(k)) == 0.0


def test_birman_schwinger_single_site_oracle():
    g = grid1d(7, 0.5)
    diag = np.zeros(7)
    diag[3] = 2.5
    k = birman_schwinger(g, scalar_potential(g, diag))
    assert k.shape == (1, 1)
    linv = np.linalg.inv(build_laplacian(g).toarray())
    assert abs(k[0, 0].real - 2.5 * linv[3, 3]) < 1e-12


def test_birman_schwinger_counts_match_hamiltonian():
    g = grid1d(11, 0.5)
    checked = 0
    for trial in range(30):
        v = generate_potential((11, trial), g, 1, "random-psd-field", 6.0)
        ham = hamiltonian(g, v)
        lam = np.linalg.eigvalsh(birman_schwinger(g, v))
        if np.any(np.abs(lam - 1.0) < 1e-8):
            continue  # eigenvalue pinned at the threshold: degenerate draw
        assert int(np.sum(lam > 1.0)) == count_negative(ham)
        checked += 1
    assert checked >= 25


def _dense_bs_oracle(grid, v):
    """W^H (L x I_N)^{-1} W with W the support columns of V^{1/2}."""
    n = v.N
    support = v.support()
    roots = v.sqrt_sites()
    w = np.zeros((v.dim, support.size * n), dtype=complex)
    for col, site in enumerate(support):
        w[site * n:(site + 1) * n, col * n:(col + 1) * n] = roots[site]
    lap = build_laplacian(grid, fiber=n).toarray()
    return w.conj().T @ np.linalg.solve(lap, w)


def _check_bs_against_dense(pts, N, real):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.4)
    v = generate_potential((77, N, g.nsites), g, N, "random-psd-field", 5.0)
    vals = v.values.real.copy() if real else v.values.copy()
    vals[::3] = 0.0  # sites outside the support
    v = MatrixPotential(grid=g, N=N, values=vals)
    k = birman_schwinger(g, v)
    want = _dense_bs_oracle(g, v)
    assert v.support().size < g.nsites
    assert k.shape == want.shape == (v.support().size * N,) * 2
    # K is real exactly when the potential is
    assert k.dtype == (np.complex128 if np.any(v.values.imag) else np.float64)
    assert np.max(np.abs(k - want)) < 1e-13 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("pts,N", [
    ((14,), 1), ((14,), 3), ((5, 7), 2), ((5, 7), 3),
    ((3, 3, 3), 2), ((3, 3, 3), 3), ((9, 9, 9), 1), ((9, 9, 9), 2),
])
def test_birman_schwinger_matches_dense_solve(pts, N):
    _check_bs_against_dense(pts, N, real=False)


@pytest.mark.parametrize("pts,N", [((14,), 1), ((5, 7), 3), ((3, 3, 3), 2)])
def test_birman_schwinger_real_potential_matches_dense_solve(pts, N):
    _check_bs_against_dense(pts, N, real=True)


def test_birman_schwinger_requires_dirichlet():
    g = GridSpec(d=1, points_per_axis=(6,), h=0.5, boundary="periodic")
    with pytest.raises(ValueError, match="Dirichlet"):
        birman_schwinger(g, scalar_potential(g, np.ones(6)))


def test_birman_schwinger_requires_psd():
    g = grid1d(5)
    diag = np.array([1.0, -0.5, 0.0, 0.0, 0.0])
    with pytest.raises(NotPositiveSemidefiniteError):
        birman_schwinger(g, scalar_potential(g, diag))


def test_bs_bound_linear_f_is_trace():
    g = grid1d(9, 0.5)
    v = generate_potential(5, g, 1, "random-psd-field", 5.0)
    k = birman_schwinger(g, v)
    lam = np.linalg.eigvalsh(k)
    got = bs_bound(lambda x: x, k_spectrum(k))
    assert abs(got - float(np.sum(np.maximum(lam, 0.0)))) < 1e-10 * (1.0 + got)


def test_bs_bound_dominates_count():
    g = grid1d(10, 0.5)
    for trial in range(15):
        v = generate_potential((99, trial), g, 1, "random-psd-field", 6.0)
        lam = k_spectrum(birman_schwinger(g, v))
        count = count_negative(hamiltonian(g, v))
        for a in (0.7, 1.13, 2.0):
            bound = bs_bound(lambda x, aa=a: f_a_transform(aa, x), lam)
            assert bound >= count - 1e-9


def test_bs_bound_small_potential():
    g = grid1d(8, 0.5)
    v = scalar_potential(g, 0.01 * np.ones(8))
    k = birman_schwinger(g, v)
    assert count_negative(hamiltonian(g, v)) == 0
    assert np.linalg.eigvalsh(k).max() < 1.0
    assert bs_bound(lambda lam: f_a_transform(1.13, lam), k_spectrum(k)) >= 0.0


@pytest.mark.parametrize("size", [0, 1, 50])
def test_bs_bound_evaluates_f_once_on_the_spectrum(size):
    lam = np.linspace(0.0, 3.0, size)
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return f_a_transform(1.13, x)

    got = bs_bound(f, lam)
    assert calls == [(), (size,)]
    want = sum(f_a_transform(1.13, float(x)) for x in lam) / f_a_transform(1.13, 1.0)
    assert abs(got - want) <= 1e-14 * (1.0 + want)


def test_psd_rule_boundary_is_shared():
    # spectral radius 2, so the rule's floor is -1e-10 * (1 + 2)
    floor = -1e-10 * 3.0
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))

    def rotated(w):
        m = (q * np.asarray(w)) @ q.conj().T
        return 0.5 * (m + m.conj().T)

    for factor, ok in ((0.9, True), (1.1, False)):
        low = factor * floor
        stack = np.array([[0.1, 0.5, 2.0], [low, 0.3, 1.0]])
        vals = np.array([np.diag([0.1, 0.5, 2.0]), rotated([low, 0.3, 1.0])])
        v = MatrixPotential(grid=grid1d(2), N=3, values=vals)
        checks = [
            lambda: require_psd_spectrum(stack, "stack"),
            v.require_psd,
            lambda: k_spectrum(rotated([low, 0.5, 2.0])),
        ]
        for check in checks:
            if ok:
                check()
            else:
                with pytest.raises(NotPositiveSemidefiniteError):
                    check()


def test_k_spectrum_rejects_non_hermitian_k():
    with pytest.raises(NonHermitianError):
        k_spectrum(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NonHermitianError):
        k_spectrum(np.ones((2, 3)))


def test_bs_bound_rejects_bad_f():
    g = grid1d(6, 0.5)
    v = scalar_potential(g, np.ones(6))
    k = birman_schwinger(g, v)
    lam = k_spectrum(k)
    with pytest.raises(ValueError):
        bs_bound(lambda x: x - 1.0, lam)  # F(1) = 0
    with pytest.raises(ValueError):
        bs_bound(lambda x: x - 0.5, np.array([0.1, 2.0]))  # F(0.1) < 0
    with pytest.raises(ValueError):
        bs_bound(lambda x: 1.0, np.array([0.1, 2.0]))  # not elementwise
    with pytest.raises(ValueError):
        bs_bound(lambda x: x, k)  # K itself, not its spectrum


# ---------------------------------------------------------------------------
# heat kernel

def test_heat_kernel_normalization_1d():
    val, err = quad(lambda x: heat_kernel_free(x, 0.0, 0.3, 1), -np.inf, np.inf)
    assert abs(val - 1.0) < 1e-8


def test_heat_kernel_normalization_3d_radial():
    t = 0.4
    val, err = quad(
        lambda r: 4.0 * math.pi * r * r * heat_kernel_free([r, 0, 0], [0, 0, 0], t, 3),
        0.0,
        np.inf,
    )
    assert abs(val - 1.0) < 1e-8


def test_heat_kernel_semigroup_composition():
    x, y, t1, t2 = 0.7, -0.2, 0.3, 0.5
    val, err = quad(
        lambda z: heat_kernel_free(x, z, t1, 1) * heat_kernel_free(z, y, t2, 1),
        -np.inf,
        np.inf,
    )
    assert abs(val - heat_kernel_free(x, y, t1 + t2, 1)) < 1e-8


def test_heat_kernel_diagonal_and_domain():
    assert heat_kernel_free(1.0, 1.0, 0.25, 3) == pytest.approx(
        (math.pi) ** -1.5, rel=1e-14
    )
    with pytest.raises(ValueError):
        heat_kernel_free(0.0, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        heat_kernel_free(0.0, 0.0, -1.0, 1)


# ---------------------------------------------------------------------------
# Trotter and semigroup traces

def test_trotter_commuting_potential_exact_at_every_n():
    g = grid1d(6, 0.5)
    c = 1.7
    v = scalar_potential(g, c * np.ones(6))
    exact = semigroup_sandwich_trace(g, v, alpha=1.3, t=0.8)
    for n in (1, 2, 7):
        got = trotter_trace(g, v, alpha=1.3, t=0.8, n=n)
        assert abs(got - exact) < 1e-10 * (1.0 + abs(exact))


def test_trotter_second_order_for_generic_instances():
    # with the sandwich closed by V^{1/2} the trace error is second order,
    # so halving the step cuts the error by about 4 once n is large
    g = grid1d(8, 0.5)
    v = generate_potential(21, g, 2, "random-psd-field", 3.0)
    exact = semigroup_sandwich_trace(g, v, alpha=1.0, t=1.0)
    errs = [abs(trotter_trace(g, v, 1.0, 1.0, n) - exact) for n in (16, 32, 64, 128)]
    assert errs[0] > errs[1] > errs[2] > errs[3] > 0.0
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    assert 3.0 < ratios[-1] < 4.5


def test_trotter_small_time_recovers_potential_trace():
    g = grid1d(6, 0.5)
    v = generate_potential(4, g, 2, "random-psd-field", 2.0)
    want = float(np.sum(np.trace(v.values, axis1=1, axis2=2)).real)
    got = trotter_trace(g, v, alpha=1.0, t=1e-9, n=1)
    assert abs(got - want) < 1e-6 * (1.0 + abs(want))


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("pts", [(7,), (4, 5), (3, 3, 3)])
@pytest.mark.parametrize("N", [1, 2])
def test_trotter_trace_matches_expm_oracle(pts, N, boundary):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.6, boundary=boundary)
    v = generate_potential((31, N, g.nsites), g, N, "random-psd-field", 2.0)
    alpha, t, n = 1.3, 0.9, 3
    s = t / n
    heat = scipy.linalg.expm(-s * build_laplacian(g, fiber=N).toarray())
    pot = scipy.linalg.block_diag(*[scipy.linalg.expm(-s * alpha * b) for b in v.values])
    power = np.linalg.matrix_power(heat @ pot, n)
    want = float(np.trace(v.block().toarray() @ power).real)
    got = trotter_trace(g, v, alpha, t, n)
    assert abs(got - want) < 1e-12 * (1.0 + abs(want))


def test_trotter_domain_and_budget():
    g = grid1d(6, 0.5)
    v = scalar_potential(g, np.ones(6))
    with pytest.raises(ValueError):
        trotter_trace(g, v, alpha=0.0, t=1.0, n=4)
    with pytest.raises(ValueError):
        trotter_trace(g, v, alpha=1.0, t=-1.0, n=4)
    with pytest.raises(ValueError):
        trotter_trace(g, v, alpha=1.0, t=1.0, n=0)
    big = GridSpec(d=1, points_per_axis=(5000,), h=0.1)
    vbig = MatrixPotential(
        grid=big, N=1, values=np.zeros((5000, 1, 1), dtype=complex)
    )
    with pytest.raises(BudgetError, match="CLRLAB_DENSE_BUDGET"):
        trotter_trace(big, vbig, alpha=1.0, t=1.0, n=2)


def test_semigroup_sandwich_vs_expm_oracle():
    g = grid1d(7, 0.5)
    for seed in (1, 2, 3):
        v = generate_potential(seed, g, 2, "random-psd-field", 3.0)
        alpha, t = 1.5, 0.7
        h_dense = hamiltonian(g, v, sign=alpha).toarray()
        vb = v.block().toarray()
        want = float(np.trace(vb @ scipy.linalg.expm(-t * h_dense)).real)
        got = semigroup_sandwich_trace(g, v, alpha, t)
        assert abs(got - want) < 1e-8 * (1.0 + abs(want))


def test_resolvent_trace_zero_potential():
    g = grid1d(6, 0.5)
    assert resolvent_trace(g, scalar_potential(g, np.zeros(6)), 1.0) == 0.0


def test_resolvent_trace_monotone_in_alpha():
    g = grid1d(9, 0.5)
    v = generate_potential(12, g, 1, "random-psd-field", 4.0)
    vals = [resolvent_trace(g, v, alpha) for alpha in (1.0, 10.0, 100.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_resolvent_identity_against_bs_spectrum():
    g = grid1d(10, 0.5)
    for trial in range(10):
        v = generate_potential((55, trial), g, 1, "random-psd-field", 4.0)
        lam = np.linalg.eigvalsh(birman_schwinger(g, v))
        for alpha in (0.5, 1.0, 2.0):
            want = float(np.sum(lam / (1.0 + alpha * lam)))
            got = resolvent_trace(g, v, alpha)
            assert abs(got - want) < 1e-8 * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# heat-diagonal majorant and right-hand sides

def test_heat_diagonal_step_zero_potential():
    g = grid1d(5, 0.5)
    v = scalar_potential(g, np.zeros(5))
    assert heat_diagonal_step(g, v, lambda s: s * np.exp(-s), 0.5) == 0.0


def test_heat_diagonal_step_formula():
    g = grid1d(4, 0.5)
    diag = np.array([0.0, 2.0, 3.0, 0.0])
    v = scalar_potential(g, diag)
    t = 0.7
    f = lambda s: s * np.exp(-s)
    want = (4.0 * math.pi * t) ** -0.5 * 0.5 * sum(
        tv * math.exp(-tv) for tv in t * diag
    )
    assert abs(heat_diagonal_step(g, v, f, t) - want) < 1e-12 * (1.0 + want)


def test_heat_diagonal_time_integral_identity():
    # int_0^inf heat_diagonal_step dt/t
    #   = (4 pi)^{-d/2} corollary_constant(f, d) * moment(d/2)
    g = GridSpec(d=3, points_per_axis=(2, 2, 2), h=0.5)
    v = generate_potential(9, g, 2, "random-psd-field", 3.0)

    def f(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-s) * np.expm1(-s) ** 2

    cc = corollary_constant(lambda s: math.exp(-s) * math.expm1(-s) ** 2, 3)
    want = (4.0 * math.pi) ** -1.5 * cc * v.moment(1.5)
    got, err = quad(
        lambda u: heat_diagonal_step(g, v, f, math.exp(u)), -40.0, 40.0, limit=400
    )
    assert err < 1e-7 * (1.0 + abs(got))
    assert abs(got - want) < 1e-6 * (1.0 + abs(want))


def test_clr_rhs_manual():
    g = grid1d(3, 0.5)
    v = scalar_potential(g, np.array([4.0, 0.0, 1.0]))
    # d = 1: moment(1/2) = h * (2 + 0 + 1) = 1.5
    want = 10.332 * classical_constant(0.0, 1) * 1.5
    assert abs(clr_rhs(v, 10.332) - want) < 1e-12 * want
    with pytest.raises(ValueError):
        clr_rhs(v, -1.0)


# ---------------------------------------------------------------------------
# potentials: validation, JSON, digests

def test_matrix_potential_validation():
    g = grid1d(3)
    with pytest.raises(ValueError):
        MatrixPotential(grid=g, N=1, values=np.zeros((2, 1, 1)))
    bad = np.zeros((3, 2, 2), dtype=complex)
    bad[0] = [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(NonHermitianError):
        MatrixPotential(grid=g, N=2, values=bad)
    with pytest.raises(ValueError):
        MatrixPotential(grid=g, N=17, values=np.zeros((3, 17, 17)))


def test_hamiltonian_real_for_real_potentials():
    g = grid1d(9, 0.5)
    v1 = generate_potential(5, g, 1, "random-psd-field", 3.0)
    assert v1.values.dtype == np.complex128
    assert v1.block().dtype == np.float64
    assert hamiltonian(g, v1).matrix.dtype == np.float64
    v2 = generate_potential(5, g, 2, "random-psd-field", 3.0)
    assert np.any(v2.values.imag)
    assert hamiltonian(g, v2).matrix.dtype == np.complex128


def _kron_stencil_1d(m, h, boundary):
    # (2 I - S - S^T) / h^2 with S the (cyclic) forward shift i -> i + 1
    i = np.arange(m)
    src = i if boundary == "periodic" else i[:-1]
    dst = (src + 1) % m
    vals = np.concatenate([np.full(m, 2.0), np.full(2 * src.size, -1.0)]) / h**2
    rows = np.concatenate([i, src, dst])
    cols = np.concatenate([i, dst, src])
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def kron_sum_hamiltonian(grid, V, sign):
    """Oracle: (sum over axes of I kron L_axis kron I) kron I_N + sign * blockdiag(V)."""
    pts = grid.points_per_axis
    lap = None
    for ax, m in enumerate(pts):
        term = sp.kron(sp.kron(sp.eye(math.prod(pts[:ax])),
                               _kron_stencil_1d(m, grid.h, grid.boundary)),
                       sp.eye(math.prod(pts[ax + 1:]))).tocsr()
        lap = term if lap is None else lap + term
    vals = V.values if np.any(V.values.imag) else V.values.real
    lifted = sp.kron(lap, sp.eye(V.N)).tocsr()
    return lifted, (lifted + sign * sp.block_diag(list(vals), format="csr")).tocsr()


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("pts", [(1,), (2,), (3,), (8,), (1, 2), (2, 1, 3), (4, 5, 2)])
def test_stencil_assembly_matches_kron_sum_bit_for_bit(pts, boundary):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.37, boundary=boundary)
    for nf in (1, 2, 3):
        for style in POTENTIAL_STYLES:
            v = generate_potential(6, g, nf, style, 3.0)
            for sign in (-1.0, 0.7):
                lap, want = kron_sum_hamiltonian(g, v, sign)
                got = hamiltonian(g, v, sign=sign)
                assert got.matrix.dtype == want.dtype
                assert np.array_equal(got.matrix.indptr, want.indptr)
                assert np.array_equal(got.matrix.indices, want.indices)
                assert got.matrix.data.tobytes() == want.data.tobytes()
                assert got.scale() == float(np.max(np.abs(want).sum(axis=1)))
        bare = build_laplacian(g, fiber=nf)
        assert np.all(bare.matrix.data != 0)
        assert np.array_equal(bare.toarray(), lap.toarray())
        assert bare.scale() == float(np.max(np.abs(lap).sum(axis=1)))


def test_hamiltonian_is_laplacian_plus_signed_block():
    g = GridSpec(d=2, points_per_axis=(4, 5), h=0.5)
    for nf, sign in ((1, -1.0), (2, 0.5)):
        v = generate_potential(6, g, nf, "random-psd-field", 3.0)
        _, want = kron_sum_hamiltonian(g, v, sign)
        got = hamiltonian(g, v, sign=sign).matrix
        assert np.array_equal(got.toarray(), want.toarray())


def test_block_matches_dense_block_diag():
    g = GridSpec(d=2, points_per_axis=(3, 4), h=0.5)
    for nf in (1, 2, 3):
        for style in POTENTIAL_STYLES:
            v = generate_potential(8, g, nf, style, 3.0)
            got = v.block()
            want = scipy.linalg.block_diag(*v.values)
            if not np.any(v.values.imag):
                want = want.real
            assert got.dtype == want.dtype
            assert got.toarray().tobytes() == want.tobytes()
            assert np.all(got.data != 0)


def _random_sparse(rng, n, complex_, duplicates):
    """A random square CSR with an asymmetric pattern, maybe non-canonical."""
    nnz = int(rng.integers(0, 3 * n + 1))
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    data = rng.normal(size=nnz)
    if complex_:
        data = data + 1j * rng.normal(size=nnz)
    if not duplicates:
        m = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        # mirror part of the pattern so some entries have a transpose partner
        return (m + 0.5 * m.getH()).tocsr()
    # keep duplicates and unsorted columns: fill rows directly
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(n, n))


def test_hermitian_defect_matches_explicit_difference():
    rng = np.random.default_rng(2026)
    for trial in range(400):
        n = int(rng.integers(1, 9))
        m = _random_sparse(rng, n, complex_=trial % 2 == 1, duplicates=trial % 4 >= 2)
        before = (m.indptr.copy(), m.indices.copy(), m.data.copy())
        defect = m - m.getH()
        want = float(np.max(np.abs(defect.data))) if defect.nnz else 0.0
        assert _hermitian_defect(m) == want
        for old, new in zip(before, (m.indptr, m.indices, m.data)):
            assert np.array_equal(old, new)
    hermitian = hamiltonian(grid1d(6), generate_potential(3, grid1d(6), 2,
                                                          "random-psd-field", 2.0))
    assert _hermitian_defect(hermitian.matrix) == 0.0


def test_discrete_operator_rejects_defect_above_tolerance():
    scale = 1.0 + 2.0  # 1 + max |entry|
    for factor, ok in ((0.9, True), (1.1, False)):
        e = factor * HERMITICITY_RTOL * scale
        m = sp.csr_matrix(np.array([[2.0, e], [0.0, 1.0]]))
        if ok:
            assert DiscreteOperator(matrix=m, nsites=2).scale() == 2.0 + e
        else:
            with pytest.raises(NonHermitianError, match="not Hermitian"):
                DiscreteOperator(matrix=m, nsites=2)


def test_matrix_potential_moment_and_sqrt():
    g = grid1d(2, 0.5)
    vals = np.zeros((2, 2, 2), dtype=complex)
    vals[0] = np.diag([4.0, 9.0])
    vals[1] = np.diag([1.0, -2.0])  # negative part must not contribute
    v = MatrixPotential(grid=g, N=2, values=vals)
    assert abs(v.moment(0.5) - 0.5 * (2.0 + 3.0 + 1.0)) < 1e-14
    roots = v.positive_part().sqrt_sites()
    squared = np.einsum("xij,xjk->xik", roots, roots)
    clipped = np.array([np.diag([4.0, 9.0]), np.diag([1.0, 0.0])])
    assert np.allclose(squared, clipped, atol=1e-12)
    with pytest.raises(NotPositiveSemidefiniteError):
        v.require_psd()


def test_potential_json_roundtrip():
    g = GridSpec(d=2, points_per_axis=(3, 2), h=0.4)
    v = generate_potential(31, g, 2, "gaussian-bumps", 2.0)
    data = potential_to_json_dict(v)
    back = potential_from_json_dict(data)
    assert back.grid == v.grid and back.N == v.N
    assert np.allclose(back.values, v.values, atol=1e-15)
    # wire format survives a JSON text round trip exactly
    again = potential_from_json_dict(json.loads(json.dumps(data)))
    assert potential_digest(again) == potential_digest(v)


def test_potential_json_omitted_sites_are_zero():
    data = {
        "grid": {"d": 1, "points": [4], "h": 0.5, "boundary": "dirichlet"},
        "N": 1,
        "sites": [{"index": [2], "matrix": [[3.0, 0.0]]}],
    }
    v = potential_from_json_dict(data)
    assert np.allclose(v.values[:, 0, 0], [0.0, 0.0, 3.0, 0.0])


def test_potential_json_save_load(tmp_path):
    g = grid1d(4, 0.5)
    v = generate_potential(8, g, 1, "random-psd-field", 2.0)
    path = tmp_path / "pot.json"
    save_potential(v, path)
    assert np.allclose(load_potential(path).values, v.values, atol=1e-15)


def test_potential_digest_sensitivity():
    g = grid1d(4, 0.5)
    v = generate_potential(8, g, 1, "random-psd-field", 2.0)
    d1 = potential_digest(v)
    assert d1 == potential_digest(v)
    bumped = MatrixPotential(
        grid=g, N=1, values=v.values + 1e-6 * np.eye(1)[None, :, :]
    )
    assert potential_digest(bumped) != d1


# ---------------------------------------------------------------------------
# budgets

def test_dense_budget_env_override(monkeypatch):
    # sparse assembly is not charged against the dense budget; the inertia
    # count is charged with its largest slab (17^2 = 289 rows on 17^3), the
    # dense count with the full order; CLRLAB_DENSE_BUDGET moves the cap
    big = GridSpec(d=3, points_per_axis=(17, 17, 17), h=0.1)
    assert build_laplacian(big).dim == 4913
    values = 300.0 * np.exp(-np.sum((big.site_coords() - 0.9) ** 2, axis=1) / 0.1)
    h_big = hamiltonian(big, scalar_potential(big, values))
    assert h_big.dim == 4913
    count = count_negative(h_big)
    # independent oracle: shift-invert Lanczos below the spectrum (L >= 0)
    threshold = -1e-10 * h_big.scale()
    eigs = eigsh(h_big.matrix, k=40, sigma=-values.max() - 1.0,
                 which="LM", tol=0.0, return_eigenvectors=False)
    assert eigs.max() >= threshold  # the Lanczos window covers every negative one
    assert count == int(np.sum(eigs < threshold)) > 0
    with pytest.raises(BudgetError, match="CLRLAB_DENSE_BUDGET"):
        count_negative(h_big, method="dense")
    monkeypatch.setenv("CLRLAB_DENSE_BUDGET", "8")
    with pytest.raises(BudgetError, match="CLRLAB_DENSE_BUDGET"):
        count_negative(hamiltonian(grid1d(9), scalar_potential(grid1d(9), np.ones(9))))
    g8 = grid1d(8, 0.5)
    assert count_negative(hamiltonian(g8, scalar_potential(g8, 100.0 * np.ones(8)))) == 8
