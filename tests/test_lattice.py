import importlib.util
import json
import math
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.sparse.linalg import eigsh

from clrlab import config, lattice
from clrlab.errors import BudgetError, NonHermitianError, NotPositiveSemidefiniteError
from clrlab.harness import ExperimentConfig, generate_potential, run_experiment
from clrlab.harness.generators import POTENTIAL_STYLES
from clrlab.lattice import (
    ZERO_BAND_RTOL,
    DiscreteOperator,
    GridSpec,
    MatrixPotential,
    birman_schwinger,
    bs_bound,
    clr_rhs,
    count_negative,
    h_and_k_spectra,
    hamiltonian,
    heat_diagonal_step,
    k_spectrum,
    load_potential,
    potential_digest,
    potential_from_json_dict,
    potential_to_json_dict,
    resolvent_trace,
    riesz_mean,
    save_potential,
    semigroup_sandwich_trace,
    trotter_sandwich,
)
from clrlab.lattice import _axis_modes, _hermitian_defect, _pivot_negative_count, _slab_bounds
from clrlab.matcore import HERMITICITY_RTOL, require_hermitian_stack, require_psd_spectrum
from clrlab.transforms import classical_constant, corollary_constant, f_a_transform

import scipy.sparse as sp


def grid1d(m=8, h=0.5):
    return GridSpec(d=1, points_per_axis=(m,), h=h)


def laplacian(grid, fiber=1):
    """The stencil Laplacian kron I_fiber: the Hamiltonian of a zero potential."""
    zero = np.zeros((grid.nsites, fiber, fiber))
    return hamiltonian(MatrixPotential(grid=grid, N=fiber, values=zero))


def dirichlet_ids(prefix, count):
    """Parameter ids pts0-dirichlet, pts1-dirichlet, ...: the box boundary is named."""
    return [f"{prefix}{i}-dirichlet" for i in range(count)]


def dense_count(op):
    """Oracle: eigenvalues below -zero_tol from a full dense spectrum."""
    return int(np.sum(np.linalg.eigvalsh(op.toarray()) < -ZERO_BAND_RTOL * op.scale()))


def scalar_potential(grid, diag):
    vals = np.zeros((grid.nsites, 1, 1), dtype=complex)
    vals[:, 0, 0] = np.asarray(diag, dtype=float)
    return MatrixPotential(grid=grid, N=1, values=vals)


def count_site_spectra(monkeypatch):
    """Log the name of every np.linalg eigh and eigvalsh call; return the log."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def logged(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, logged)
    return calls


# ---------------------------------------------------------------------------
# grids

def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(d=4, points_per_axis=(2, 2, 2, 2), h=0.5)
    with pytest.raises(ValueError):
        GridSpec(d=2, points_per_axis=(3,), h=0.5)
    with pytest.raises(ValueError):
        GridSpec(d=1, points_per_axis=(3,), h=0.0)


def test_grid_extent_and_coords():
    g = GridSpec(d=1, points_per_axis=(3,), h=0.25)
    assert g.extent == (1.0,)
    assert np.allclose(g.site_coords().ravel(), [0.25, 0.5, 0.75])
    g2 = GridSpec(d=2, points_per_axis=(3, 1), h=0.5)
    assert g2.extent == (2.0, 1.0)
    assert np.array_equal(g2.site_coords(), [[0.5, 0.5], [1.0, 0.5], [1.5, 0.5]])


# ---------------------------------------------------------------------------
# Laplacians

def test_laplacian_1d_three_point_spectrum():
    g = GridSpec(d=1, points_per_axis=(3,), h=1.0)
    w = np.linalg.eigvalsh(laplacian(g).toarray())
    want = np.array([2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
    assert np.allclose(w, want, atol=1e-12)


def test_laplacian_2d_tensor_sum_spectrum():
    g2 = GridSpec(d=2, points_per_axis=(4, 4), h=0.5)
    w2 = np.linalg.eigvalsh(laplacian(g2).toarray())
    g1 = GridSpec(d=1, points_per_axis=(4,), h=0.5)
    w1 = np.linalg.eigvalsh(laplacian(g1).toarray())
    want = np.sort((w1[:, None] + w1[None, :]).ravel())
    assert np.allclose(w2, want, atol=1e-10)


def test_laplacian_fiber_kron():
    g = grid1d(5)
    base = laplacian(g, fiber=1).toarray()
    lifted = laplacian(g, fiber=3).toarray()
    assert np.allclose(lifted, np.kron(base, np.eye(3)), atol=1e-14)


def test_laplacian_dirichlet_floor():
    for m, h in ((5, 1.0), (9, 0.5), (12, 0.25)):
        g = grid1d(m, h)
        w = np.linalg.eigvalsh(laplacian(g).toarray())
        floor = 4.0 / h**2 * math.sin(math.pi / (2.0 * (m + 1))) ** 2
        assert abs(w[0] - floor) < 1e-10 * max(1.0, floor)


@pytest.mark.parametrize("m", [1, 2, 3, 8], ids=lambda m: f"{m}-dirichlet")
def test_laplacian_1d_matches_shift_formula(m):
    h = 0.5
    shift = np.eye(m, k=1)
    want = (2.0 * np.eye(m) - shift - shift.T) / h**2
    got = laplacian(grid1d(m, h)).toarray()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [1, 2, 3, 8], ids=lambda m: f"{m}-dirichlet")
def test_axis_modes_diagonalize_1d_stencil(m):
    h = 0.3
    lam, u = _axis_modes(m, h)
    assert u.dtype == lam.dtype == np.float64  # DST-I: real modes
    assert np.allclose(u.T @ u, np.eye(m), atol=1e-14)
    want = laplacian(grid1d(m, h)).toarray()
    assert np.allclose((u * lam) @ u.T, want, atol=1e-12 / h**2)


# ---------------------------------------------------------------------------
# counting

def test_count_negative_free_laplacian():
    for pts in ((7,), (5, 4), (3, 3, 3)):
        g = GridSpec(d=len(pts), points_per_axis=pts, h=0.4)
        assert count_negative(laplacian(g)) == 0


def test_count_negative_explicit_diagonal():
    op = DiscreteOperator(sp.diags([-1.0, -2.0, 3.0]).tocsr())
    assert count_negative(op) == 2 == dense_count(op)


def _diagonal_op(values):
    return DiscreteOperator(sp.diags(values).tocsr())


def test_count_negative_auto_propagates_non_lapack_errors(monkeypatch):
    def broken(*args):
        raise ValueError("not a LAPACK failure")

    monkeypatch.setattr("clrlab.lattice._schur_negative_count", broken)
    with pytest.raises(ValueError, match="not a LAPACK failure"):
        count_negative(_diagonal_op([-1.0, -2.0, 3.0]))


def _refuse_dense(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("count_negative fell back to a dense count")

    monkeypatch.setattr(DiscreteOperator, "toarray", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)


def test_count_negative_propagates_linalg_error(monkeypatch):
    # |H|_inf = 1, so zero_tol = ZERO_BAND_RTOL and the shifted -zero_tol is
    # an exact zero pivot in the first of several slabs
    values = np.full(256, 0.5)
    values[0], values[5] = 1.0, -ZERO_BAND_RTOL
    op = _diagonal_op(values)
    assert len(_slab_bounds(op.matrix)) > 2
    _refuse_dense(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="band edge"):
        count_negative(op)


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
            ham = hamiltonian(v)
            ci = count_negative(ham)
            assert ci == dense_count(ham)
            seen += ci
    assert seen > 0  # the ensembles must actually bind


def _assert_structured_matches_dense(op):
    count = count_negative(op)
    assert count == _solve_schur_oracle(op) == dense_count(op)
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
        ham = hamiltonian(MatrixPotential(grid=g, N=N, values=vals))
        assert ham.matrix.dtype == (np.complex128 if kind == "complex" else np.float64)
        seen += _assert_structured_matches_dense(ham)
    assert seen > 0


@pytest.mark.parametrize("pts,N", [((13, 17), 2), ((13, 17), 3), ((60, 7), 1), ((7, 60), 1)])
def test_structured_count_matches_dense_2d_unequal_axes(pts, N):
    g = GridSpec(d=2, points_per_axis=pts, h=0.2)
    v = generate_potential((pts, N), g, N, "random-psd-field", 150.0)
    assert _assert_structured_matches_dense(hamiltonian(v)) > 0


def _banded_op(n, band, dtype):
    rng = np.random.default_rng(band)
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    i, j = np.indices((n, n))
    a[np.abs(i - j) > band] = 0.0
    return DiscreteOperator(sp.csr_matrix(a + a.conj().T))


@pytest.mark.parametrize("n,band,dtype", [(500, 30, float), (500, 30, complex),
                                          (600, 150, complex)])
def test_structured_count_matches_dense_banded_operator(monkeypatch, n, band, dtype):
    op = _banded_op(n, band, dtype)
    slabs = len(_slab_bounds(op.matrix)) - 1
    assert slabs > 1
    calls = _spy_linalg(monkeypatch)
    count = _assert_structured_matches_dense(op)
    assert 0 < count < n
    assert len(calls["tri"]) == len(calls["mm"]) == slabs - 1  # dense couplings: products


def test_structured_count_orders_zero_and_one():
    empty = DiscreteOperator(sp.csr_matrix((0, 0)))
    assert count_negative(empty) == 0 == dense_count(empty)
    for value, want in ((-2.0, 1), (3.0, 0), (0.0, 0)):
        assert _assert_structured_matches_dense(_diagonal_op([value])) == want


def test_slab_bounds_follow_the_bandwidth():
    g = GridSpec(d=3, points_per_axis=(15, 15, 15), h=0.1)
    bounds = _slab_bounds(laplacian(g).matrix)
    assert np.all(np.diff(bounds) == 225)  # one axis-0 slab each
    lifted = _slab_bounds(laplacian(g, fiber=2).matrix)
    assert np.all(np.diff(lifted) == 450)
    assert list(_slab_bounds(laplacian(grid1d(100)).matrix)) == [0, 100]


def test_structured_count_never_densifies(monkeypatch):
    g = GridSpec(d=3, points_per_axis=(9, 9, 9), h=0.1)
    ham = hamiltonian(generate_potential(4, g, 1, "gaussian-bumps", 600.0))
    want = dense_count(ham)

    def refused(*args, **kwargs):
        raise AssertionError("the structured count densified H")

    monkeypatch.setattr(DiscreteOperator, "toarray", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    assert count_negative(ham) == want > 0


def _solve_schur_oracle(op):
    """Oracle: the Schur inertia count with the next block from a solve.

    Same slabs and shift as count_negative, but each S_i^{-1} C_i comes
    from sytrs / hetrs against the dense coupling columns, on the
    symmetrized Schur block, instead of from the inverse of the factors.
    """
    if op.dim == 0:
        return 0
    matrix, bounds = op.matrix, _slab_bounds(op.matrix)
    shift = ZERO_BAND_RTOL * op.scale()
    kind = "he" if np.iscomplexobj(matrix) else "sy"
    trf, trs = scipy.linalg.get_lapack_funcs((kind + "trf", kind + "trs"), (matrix.data,))
    count = 0
    cols = schur = None
    for lo, hi, nxt in zip(bounds[:-1], bounds[1:], np.append(bounds[2:], bounds[-1])):
        slab = matrix[lo:hi, lo:nxt].toarray()
        s = slab[:, : hi - lo]
        s[np.diag_indices_from(s)] += shift
        if schur is not None:
            s[np.ix_(cols, cols)] -= schur
            s = 0.5 * (s + s.conj().T)
        ldu, ipiv, info = trf(s, lower=1)
        count += _pivot_negative_count(ldu, ipiv)
        if nxt > hi:
            assert info == 0
            coupling = slab[:, hi - lo :]
            cols = np.flatnonzero(coupling.any(axis=0))
            coupling = coupling[:, cols]
            x, _ = trs(ldu, ipiv, coupling, lower=1)
            schur = coupling.conj().T @ x
    return count


def _spy_linalg(monkeypatch):
    """Record every LAPACK / BLAS call made through scipy.linalg's getters.

    Keys drop the type prefix ("trf", "tri", "mm"); values are the outputs.
    """
    calls = {}

    def spying(getter):
        def get(names, arrays=(), **kwargs):
            funcs = getter(names, arrays, **kwargs)
            if isinstance(names, str):
                return wrap(names, funcs)
            return [wrap(name, f) for name, f in zip(names, funcs)]
        return get

    def wrap(name, f):
        def call(*args, **kwargs):
            out = f(*args, **kwargs)
            calls.setdefault(name[2:], []).append(out)
            return out
        return call

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", spying(scipy.linalg.get_lapack_funcs))
    monkeypatch.setattr(scipy.linalg, "get_blas_funcs", spying(scipy.linalg.get_blas_funcs))
    return calls


def _plane_invariant_hamiltonian(m, N, seed, amplitude):
    """H on an m^3 Dirichlet box whose potential does not vary along axis 0,
    with the count read off its separated dense spectrum: H is the Kronecker
    sum of the 1-D Laplacian and the m x m plane's H, so its eigenvalues are
    the sums of theirs."""
    h = 1.0 / (m + 1)
    plane = GridSpec(d=2, points_per_axis=(m, m), h=h)
    vp = generate_potential(seed, plane, N, "random-psd-field", amplitude)
    g = GridSpec(d=3, points_per_axis=(m, m, m), h=h)
    ham = hamiltonian(MatrixPotential(grid=g, N=N, values=np.tile(vp.values, (m, 1, 1))))
    mu = np.linalg.eigvalsh(laplacian(grid1d(m, h)).toarray())
    nu = np.linalg.eigvalsh(hamiltonian(vp).toarray())
    want = int(np.sum(np.add.outer(mu, nu) < -ZERO_BAND_RTOL * ham.scale()))
    return ham, want


_LINKS = {  # (rows of slab i, columns of slab i+1) that the coupling -1 joins
    "identity": (np.arange(64), np.arange(64)),
    "every-other": (np.arange(0, 64, 2), np.arange(0, 64, 2)),
    "reversed": (63 - 2 * np.arange(16), 2 * np.arange(16)),
    "shared-column": (np.array([62, 63]), np.array([0, 0])),
}


def _block_tridiagonal_op(blocks, dtype, seed, link="identity"):
    """Random indefinite 64-row diagonal blocks, slab i joined to slab i+1
    on the _LINKS[link] positions by -1 (real) or -(0.8 + 0.6i) (complex);
    its factors take 2x2 pivots."""
    rng = np.random.default_rng(seed)
    n = blocks * 64
    a = np.zeros((n, n), dtype=dtype)
    for b in range(blocks):
        x = rng.standard_normal((64, 64))
        if dtype is complex:
            x = x + 1j * rng.standard_normal((64, 64))
        a[b * 64:(b + 1) * 64, b * 64:(b + 1) * 64] = x + x.conj().T
    r, c = _LINKS[link]
    for b in range(blocks - 1):
        a[b * 64 + r, (b + 1) * 64 + c] = z = -1.0 if dtype is float else -0.8 - 0.6j
        a[(b + 1) * 64 + c, b * 64 + r] = np.conj(z)
    return DiscreteOperator(sp.csr_matrix(a))


@pytest.mark.parametrize("m,N,seed,amplitude", [(15, 1, 3, 3000.0), (9, 2, 4, 1500.0)])
def test_inverse_update_gathers_on_plane_aligned_slabs(monkeypatch, m, N, seed, amplitude):
    ham, want = _plane_invariant_hamiltonian(m, N, seed, amplitude)
    assert ham.matrix.dtype == (np.complex128 if N > 1 else np.float64)
    assert np.all(np.diff(_slab_bounds(ham.matrix)) == m * m * N)  # one plane per slab
    assert _solve_schur_oracle(ham) == want > 0
    calls = _spy_linalg(monkeypatch)
    assert count_negative(ham) == want
    assert len(calls["tri"]) == m - 1 and "mm" not in calls  # scaled gathers only


def test_inverse_update_gather_leaves_no_stale_upper_triangle():
    # one 16-row plane per slab, coupled by -h^-2 = -1e8: each gather scales
    # by h^-4, so an upper triangle carried from slab to slab overflows
    g = GridSpec(d=3, points_per_axis=(24, 4, 4), h=1e-4)
    op = hamiltonian(generate_potential(5, g, 1, "gaussian-bumps", 3e9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count = lattice._schur_negative_count(
            op.matrix, np.arange(25) * 16, ZERO_BAND_RTOL * op.scale())
    assert count == dense_count(op) > 0


def test_inverse_update_multiplies_when_columns_share_rows(monkeypatch):
    # 343 rows in 5 slabs that cut through the 49-row planes, so a coupling
    # column takes entries from up to three rows
    g = GridSpec(d=3, points_per_axis=(7, 7, 7), h=0.125)
    op = hamiltonian(generate_potential(8, g, 1, "random-psd-field", 3000.0))
    assert len(_slab_bounds(op.matrix)) == 6
    want = dense_count(op)
    assert _solve_schur_oracle(op) == want > 0
    calls = _spy_linalg(monkeypatch)
    assert count_negative(op) == want
    assert len(calls["tri"]) == len(calls["mm"]) == 4


@pytest.mark.parametrize("link,products", [
    ("identity", 0), ("every-other", 0), ("reversed", 3), ("shared-column", 3),
])
@pytest.mark.parametrize("dtype", [float, complex])
def test_inverse_update_with_two_by_two_pivots(monkeypatch, dtype, link, products):
    # one entry per coupling column, rows ascending with the columns:
    # a gather; rows out of column order or a column with two entries:
    # the product
    op = _block_tridiagonal_op(4, dtype, seed=11, link=link)
    assert list(_slab_bounds(op.matrix)) == [0, 64, 128, 192, 256]
    want = dense_count(op)
    assert _solve_schur_oracle(op) == want > 0
    calls = _spy_linalg(monkeypatch)
    assert count_negative(op) == want
    assert any(np.any(ipiv < 0) for _, ipiv, _ in calls["trf"])
    assert len(calls["tri"]) == 3 and len(calls.get("mm", ())) == products


def test_inverse_update_takes_no_inverse_without_coupling(monkeypatch):
    # stored zeros across every slab boundary couple nothing
    n = 256
    i = np.arange(n - 1)
    op = DiscreteOperator(sp.csr_matrix(
        (np.concatenate([np.linspace(-1.0, 2.0, n), np.zeros(2 * (n - 1))]),
         (np.concatenate([np.arange(n), i, i + 1]), np.concatenate([np.arange(n), i + 1, i]))),
        shape=(n, n)))
    assert op.matrix.nnz == 3 * n - 2
    assert len(_slab_bounds(op.matrix)) > 2
    want = dense_count(op)
    assert _solve_schur_oracle(op) == want > 0
    calls = _spy_linalg(monkeypatch)
    assert count_negative(op) == want
    assert len(calls["trf"]) == len(_slab_bounds(op.matrix)) - 1
    assert "tri" not in calls and "mm" not in calls


@pytest.mark.parametrize("dtype", [float, complex])
def test_inverse_update_restarts_after_an_empty_coupling(monkeypatch, dtype):
    # two coupled pairs of slabs side by side: slab 2 has no predecessor term
    pair = [_block_tridiagonal_op(2, dtype, seed=s).matrix for s in (13, 14)]
    op = DiscreteOperator(sp.block_diag(pair, format="csr"))
    assert list(_slab_bounds(op.matrix)) == [0, 64, 128, 192, 256]
    want = dense_count(op)
    assert _solve_schur_oracle(op) == want > 0
    calls = _spy_linalg(monkeypatch)
    assert count_negative(op) == want
    assert len(calls["tri"]) == 2


def test_count_negative_sums_duplicate_entries():
    # every entry of a tridiagonal operator handed over as two halves, the
    # second copy after the first in each row; the count reads the stored
    # entries one by one, so they must reach it summed
    n = 256
    base = sp.diags([np.full(n - 1, -0.3), np.linspace(-1.0, 2.0, n), np.full(n - 1, -0.3)],
                    [-1, 0, 1], format="csr")
    rows = np.repeat(np.arange(n), np.diff(base.indptr))
    by_row = np.argsort(np.concatenate([rows, rows]), kind="stable")
    split = sp.csr_matrix((np.concatenate([base.data, base.data])[by_row] / 2,
                           np.concatenate([base.indices, base.indices])[by_row],
                           2 * base.indptr), shape=(n, n))
    assert split.nnz == 2 * base.nnz
    op = DiscreteOperator(split)
    assert len(_slab_bounds(op.matrix)) > 2
    want = dense_count(DiscreteOperator(base))
    assert count_negative(op) == _solve_schur_oracle(op) == want > 0


def test_discrete_operator_leaves_the_callers_matrix_alone():
    # each entry of a diagonal 4x4 stored twice: the operator sums the
    # duplicates in its own copy, never in the caller's arrays
    m = sp.csr_matrix((np.repeat([1.0, 2.0, -1.0, 0.5], 2), np.repeat(np.arange(4), 2),
                       np.arange(0, 9, 2)), shape=(4, 4))
    before = (m.indptr.copy(), m.indices.copy(), m.data.copy())
    op = DiscreteOperator(m)
    assert m.nnz == 8 and op.matrix.nnz == 4
    for old, new in zip(before, (m.indptr, m.indices, m.data)):
        assert np.array_equal(old, new)
    assert op.scale() == 4.0 and count_negative(op) == 1


def test_discrete_operator_scale_is_scipys_row_sum_bit_for_bit():
    # |H|_inf from the stored entries equals max(np.abs(m).sum(axis=1)) bit for
    # bit, with empty rows, stored zeros and complex entries
    rng = np.random.default_rng(41)
    n = 120
    for kind in ("real", "complex"):
        a = rng.standard_normal((n, n)) * (rng.uniform(size=(n, n)) < 0.2)
        if kind == "complex":
            a = a + 1j * rng.standard_normal((n, n)) * (a != 0)
        a = a + a.conj().T
        a[[3, 17, 30]] = 0.0
        a[:, [3, 17, 30]] = 0.0
        coo = sp.coo_matrix(a)
        zeros = np.array([3, 5, 17])  # stored zeros on the diagonal; row 30 stays empty
        m = sp.csr_matrix((np.concatenate([coo.data, np.zeros(3)]),
                           (np.concatenate([coo.row, zeros]), np.concatenate([coo.col, zeros]))),
                          shape=(n, n))
        op = DiscreteOperator(m)
        stored = op.matrix
        assert np.iscomplexobj(stored) == (kind == "complex")
        assert np.count_nonzero(stored.data == 0) >= 2 and np.diff(stored.indptr)[30] == 0
        want = np.max(np.abs(stored).sum(axis=1))
        assert np.float64(op.scale()).tobytes() == np.float64(want).tobytes()
        assert want == np.max(np.abs(m).sum(axis=1))
    assert DiscreteOperator(sp.csr_matrix((4, 4))).scale() == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_entries_are_rejected_cleanly(bad):
    # a NaN defect passes "defect > tol", and inf - inf warns: both are caught
    # before A - A^H is formed
    with pytest.raises(NonHermitianError, match="operator has a non-finite entry"):
        DiscreteOperator(sp.csr_matrix(np.array([[1.0, bad], [bad, 1.0]])))
    vals = np.zeros((3, 2, 2), dtype=complex)
    vals[:] = np.eye(2)
    vals[1, 0, 1] = vals[1, 1, 0] = bad
    with pytest.raises(NonHermitianError, match="potential site 1 of 3 has a non-finite entry"):
        MatrixPotential(grid=grid1d(3), N=2, values=vals)
    with pytest.raises(NonHermitianError, match="potential site has a non-finite entry"):
        MatrixPotential(grid=grid1d(1), N=2, values=vals[1:2])


def test_singular_block_with_coupling_raises(monkeypatch):
    # a tridiagonal entry couples the first slab to the second, so its exact
    # zero pivot (the shifted -zero_tol on row 5) sits in a block to invert
    values = np.full(256, 0.5)
    values[0], values[5] = 1.0, -ZERO_BAND_RTOL
    a = sp.diags(values).tolil()
    a[63, 64] = a[64, 63] = 0.25
    op = DiscreteOperator(a.tocsr())
    assert op.scale() == 1.0 and list(_slab_bounds(op.matrix))[:2] == [0, 64]
    calls = _spy_linalg(monkeypatch)
    _refuse_dense(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="band edge"):
        count_negative(op)
    assert "tri" not in calls


@pytest.mark.parametrize("dtype", [float, complex])
def test_failed_inverse_raises(monkeypatch, dtype):
    op = _block_tridiagonal_op(3, dtype, seed=12)
    real = scipy.linalg.get_lapack_funcs

    def failing_tri(names, arrays=(), **kwargs):
        funcs = real(names, arrays, **kwargs)
        return [(lambda *a, **k: (a[0], 1)) if name[2:] == "tri" else f
                for name, f in zip(names, funcs)]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", failing_tri)
    _refuse_dense(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="band edge"):
        count_negative(op)


def test_riesz_mean_matches_eig_oracle():
    g = grid1d(10, 0.5)
    v = generate_potential(7, g, 1, "random-psd-field", 6.0)
    ham = hamiltonian(v)
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


def test_riesz_mean_of_a_sequence_of_gamma_is_each_scalar_call_from_one_spectrum(monkeypatch):
    g = GridSpec(d=2, points_per_axis=(4, 5), h=0.5)
    ham = hamiltonian(generate_potential(7, g, 2, "random-psd-field", 30.0))
    gammas = (0.5, 1.0, 2.0)
    want = np.array([riesz_mean(ham, gamma) for gamma in gammas])
    assert np.all(want > 0.0)
    spectra = []
    dense = lattice._dense_spectrum
    monkeypatch.setattr(lattice, "_dense_spectrum",
                        lambda op, what: spectra.append(what) or dense(op, what))
    got = riesz_mean(ham, gammas)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert spectra == ["Riesz mean"]
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        riesz_mean(ham, (0.5, 0.0))
    with pytest.raises(ValueError, match="1-D sequence"):
        riesz_mean(ham, [[0.5, 1.0]])


@pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0, -1.0])
def test_riesz_mean_needs_positive_finite_gamma(gamma):
    # V = 100 puts eigenvalues below -1, where |e|^inf would be inf
    ham = hamiltonian(scalar_potential(grid1d(8), np.full(8, 100.0)))
    assert np.linalg.eigvalsh(ham.toarray()).max() < -1.0
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        riesz_mean(ham, gamma)


def test_count_monotone_under_psd_addition():
    g = grid1d(10, 0.5)
    rng = np.random.default_rng(3)
    for trial in range(20):
        v = generate_potential(trial, g, 1, "random-psd-field", 5.0)
        bump = rng.uniform(0.0, 2.0, size=g.nsites)
        vplus = MatrixPotential(
            grid=g, N=1, values=v.values + bump[:, None, None]
        )
        before = count_negative(hamiltonian(v))
        after = count_negative(hamiltonian(vplus))
        assert after >= before


# ---------------------------------------------------------------------------
# Birman-Schwinger

def test_birman_schwinger_zero_potential():
    v = scalar_potential(grid1d(6), np.zeros(6))
    assert birman_schwinger(v).shape == (0, 0)
    assert k_spectrum(v).shape == (0,)
    assert bs_bound(lambda x: x, k_spectrum(v)) == 0.0


def test_birman_schwinger_single_site_oracle():
    g = grid1d(7, 0.5)
    diag = np.zeros(7)
    diag[3] = 2.5
    k = birman_schwinger(scalar_potential(g, diag))
    assert k.shape == (1, 1)
    linv = np.linalg.inv(laplacian(g).toarray())
    assert abs(k[0, 0].real - 2.5 * linv[3, 3]) < 1e-12


def test_birman_schwinger_counts_match_hamiltonian():
    g = grid1d(11, 0.5)
    checked = 0
    for trial in range(30):
        v = generate_potential((11, trial), g, 1, "random-psd-field", 6.0)
        ham = hamiltonian(v)
        lam = np.linalg.eigvalsh(birman_schwinger(v))
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
    lap = laplacian(grid, fiber=n).toarray()
    return w.conj().T @ np.linalg.solve(lap, w)


def _check_bs_against_dense(pts, N, real):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.4)
    v = generate_potential((77, N, g.nsites), g, N, "random-psd-field", 5.0)
    vals = v.values.real.copy() if real else v.values.copy()
    vals[::3] = 0.0  # sites outside the support
    v = MatrixPotential(grid=g, N=N, values=vals)
    k = birman_schwinger(v)
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


def _einsum_bs_oracle(grid, V):
    """Oracle: K assembled by one einsum over (G, V^{1/2}, V^{1/2})."""
    support = V.support()
    n = support.size * V.N
    green = lattice._laplacian_function(grid, np.reciprocal, support)[support]
    roots = V.sqrt_sites()[support]
    if not np.any(V.values.imag):
        roots = roots.real
    return np.einsum("xy,xab,ybc->xayc", green, roots, roots).reshape(n, n)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("pts", [(9,), (4, 3), (3, 2, 3)])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_birman_schwinger_gemm_matches_einsum(pts, N, real):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.5)
    v = generate_potential((53, N, g.nsites), g, N, "random-psd-field", 4.0)
    vals = v.values.real.copy() if real else v.values.copy()
    vals[1::2] = 0.0  # sites outside the support
    v = MatrixPotential(grid=g, N=N, values=vals)
    k = birman_schwinger(v)
    want = _einsum_bs_oracle(g, v)
    # K is real exactly when the potential is
    assert k.dtype == want.dtype == (np.complex128 if np.any(v.values.imag) else np.float64)
    assert k.shape == want.shape == (v.support().size * N,) * 2
    assert np.max(np.abs(k - want)) <= 1e-14 * (1.0 + np.max(np.abs(want)))


def _c_ordered_bs_oracle(V):
    """Oracle: K by the C-ordered construction, numpy's GEMM of the square
    roots scaled in place by chunks of Green's-function columns."""
    roots = V.sqrt_sites()
    support = V.support()
    n = support.size * V.N
    roots = roots[support]
    if not np.any(V.values.imag):
        roots = roots.real
    k = roots.reshape(n, V.N) @ roots.transpose(1, 0, 2).reshape(V.N, n)
    rows = k.reshape(support.size, V.N, n)
    step = max(1, lattice._GREEN_CHUNK_BYTES // (8 * V.grid.nsites))
    for lo in range(0, support.size, step):
        green = lattice._laplacian_function(V.grid, np.reciprocal, support[lo:lo + step])
        if support.size < V.grid.nsites:
            green = green[support]
        rows[:, :, lo * V.N:(lo + step) * V.N] *= np.repeat(green, V.N, axis=1)[:, None, :]
    return k


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("partial", [False, True], ids=["full", "partial"])
@pytest.mark.parametrize("pts", [(17,), (4, 5), (3, 3, 3), (7, 7, 7)])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_birman_schwinger_is_fortran_ordered_with_the_c_ordered_values(pts, N, partial, real):
    # a GEMM writing K^T straight away rounds some entries of N >= 2 differently
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.5)
    v = generate_potential((61, N, g.nsites), g, N, "random-psd-field", 5.0)
    vals = v.values.real.copy() if real else v.values.copy()
    if partial:
        vals[::3] = 0.0  # sites outside the support
    v = MatrixPotential(grid=g, N=N, values=vals)
    k = birman_schwinger(v)
    want = _c_ordered_bs_oracle(v)
    assert k.flags.f_contiguous and want.flags.c_contiguous
    assert k.dtype == want.dtype and np.array_equal(k, want)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("pts", [(9,), (4, 3), (3, 3, 3)])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_birman_schwinger_is_hermitian_by_construction(pts, N, real):
    # K is built, and its spectrum taken, without a Hermitian check: this pin
    # and the one below hold the rule
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.5)
    for seed, style in enumerate(POTENTIAL_STYLES):
        v = generate_potential((91, seed, N, g.nsites), g, N, style, 4.0)
        if real:
            v = MatrixPotential(grid=g, N=N, values=v.values.real)
        require_hermitian_stack(birman_schwinger(v), "K")


def test_large_complex_birman_schwinger_is_hermitian_by_construction():
    # order 432, where the dense spectra run in place and beside each other
    g = GridSpec(d=3, points_per_axis=(6, 6, 6), h=0.5)
    v = generate_potential(91, g, 2, "random-psd-field", 4.0)
    k = birman_schwinger(v)
    assert k.shape == (432, 432) and k.dtype == np.complex128
    require_hermitian_stack(k, "K")


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("pts", [(9,), (4, 3), (3, 3, 3)])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_k_spectrum_is_the_clipped_spectrum_of_birman_schwinger(pts, N, real):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.5)
    for seed, style in enumerate(POTENTIAL_STYLES):
        v = generate_potential((29, seed, N, g.nsites), g, N, style, 4.0)
        if real:
            v = MatrixPotential(grid=g, N=N, values=v.values.real)
        want = np.maximum(np.linalg.eigvalsh(birman_schwinger(v)), 0.0)
        assert np.array_equal(k_spectrum(v), want)


def test_birman_schwinger_makes_no_second_dense_array():
    import tracemalloc

    g = GridSpec(d=3, points_per_axis=(7, 7, 7), h=0.5)
    v = generate_potential(3, g, 2, "random-psd-field", 5.0)
    tracemalloc.start()
    try:
        k = birman_schwinger(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # K itself plus order-nsites^2 workspace; an n x n temporary would double it
    assert peak < 1.5 * k.nbytes


@pytest.mark.parametrize("style", ["random-psd-field", "gaussian-bumps"])
def test_birman_schwinger_holds_k_and_at_most_one_spatial_temporary(style):
    import tracemalloc

    # N = 1, so K is as large as its spatial temporaries can be
    g = GridSpec(d=3, points_per_axis=(9, 9, 9), h=0.5)
    v = generate_potential(3, g, 1, style, 5.0)
    if style == "gaussian-bumps":  # cut the tails: sites outside the support
        vals = v.values.copy()
        vals[np.abs(vals[:, 0, 0]) < 0.05 * np.max(np.abs(vals))] = 0.0
        v = MatrixPotential(grid=g, N=1, values=vals)
        assert 0 < v.support().size < g.nsites // 2
    else:
        assert v.support().size == g.nsites
    tracemalloc.start()
    try:
        k = birman_schwinger(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * k.nbytes + (1 << 20)


def test_birman_schwinger_requires_psd():
    g = grid1d(5)
    diag = np.array([1.0, -0.5, 0.0, 0.0, 0.0])
    with pytest.raises(NotPositiveSemidefiniteError):
        birman_schwinger(scalar_potential(g, diag))


def test_bs_bound_linear_f_is_trace():
    g = grid1d(9, 0.5)
    v = generate_potential(5, g, 1, "random-psd-field", 5.0)
    lam = np.linalg.eigvalsh(birman_schwinger(v))
    got = bs_bound(lambda x: x, k_spectrum(v))
    assert abs(got - float(np.sum(np.maximum(lam, 0.0)))) < 1e-10 * (1.0 + got)


def test_bs_bound_dominates_count():
    g = grid1d(10, 0.5)
    for trial in range(15):
        v = generate_potential((99, trial), g, 1, "random-psd-field", 6.0)
        lam = k_spectrum(v)
        count = count_negative(hamiltonian(v))
        for a in (0.7, 1.13, 2.0):
            bound = bs_bound(lambda x, aa=a: f_a_transform(aa, x), lam)
            assert bound >= count - 1e-9


def test_bs_bound_small_potential():
    g = grid1d(8, 0.5)
    v = scalar_potential(g, 0.01 * np.ones(8))
    k = birman_schwinger(v)
    assert count_negative(hamiltonian(v)) == 0
    assert np.linalg.eigvalsh(k).max() < 1.0
    assert bs_bound(lambda lam: f_a_transform(1.13, lam), k_spectrum(v)) >= 0.0


@pytest.mark.parametrize("size", [0, 1, 50])
def test_bs_bound_evaluates_f_once_on_the_spectrum(size):
    lam = np.linspace(0.0, 3.0, size)
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return f_a_transform(1.13, x)

    got = bs_bound(f, lam)
    assert calls == [(size + 1,)]  # lam with 1.0 appended: F(1) from the same call
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
            lambda: lattice._k_values(rotated([low, 0.5, 2.0])),
        ]
        for check in checks:
            if ok:
                check()
            else:
                with pytest.raises(NotPositiveSemidefiniteError):
                    check()


def test_bs_bound_rejects_bad_f():
    g = grid1d(6, 0.5)
    v = scalar_potential(g, np.ones(6))
    k = birman_schwinger(v)
    lam = k_spectrum(v)
    with pytest.raises(ValueError):
        bs_bound(lambda x: x - 1.0, lam)  # F(1) = 0
    with pytest.raises(ValueError):
        bs_bound(lambda x: x - 0.5, np.array([0.1, 2.0]))  # F(0.1) < 0
    with pytest.raises(ValueError):
        bs_bound(lambda x: 1.0, np.array([0.1, 2.0]))  # not elementwise
    with pytest.raises(ValueError):
        bs_bound(lambda x: x, k)  # K itself, not its spectrum


# ---------------------------------------------------------------------------
# Trotter and semigroup traces

def _trotter_trace_oracle(grid, V, alpha, t, n):
    """Oracle: the Trotter sandwich trace with every step redone per call."""
    s = t / n
    heat = lattice._laplacian_function(grid, lambda lam: np.exp(-s * lam),
                                       np.arange(grid.nsites))
    w, u = np.linalg.eigh(V.values)
    pot = np.einsum("xij,xj,xkj->xik", u, np.exp(-(s * alpha) * w), u.conj())
    step = np.einsum("xy,yij->xiyj", heat, pot)
    power = np.linalg.matrix_power(step.reshape(V.dim, V.dim), n)
    power = power.reshape(grid.nsites, V.N, grid.nsites, V.N)
    return float(np.einsum("xij,xjxi->", V.values, power).real)


def test_trotter_commuting_potential_exact_at_every_n():
    g = grid1d(6, 0.5)
    c = 1.7
    v = scalar_potential(g, c * np.ones(6))
    exact = semigroup_sandwich_trace(v, alpha=1.3, t=0.8)
    trace = trotter_sandwich(v, alpha=1.3)
    for n in (1, 2, 7):
        got = trace(0.8, n)
        assert abs(got - exact) < 1e-10 * (1.0 + abs(exact))


def test_trotter_second_order_for_generic_instances():
    # with the sandwich closed by V^{1/2} the trace error is second order,
    # so halving the step cuts the error by about 4 once n is large
    g = grid1d(8, 0.5)
    v = generate_potential(21, g, 2, "random-psd-field", 3.0)
    exact = semigroup_sandwich_trace(v, alpha=1.0, t=1.0)
    trace = trotter_sandwich(v, 1.0)
    errs = [abs(trace(1.0, n) - exact) for n in (16, 32, 64, 128)]
    assert errs[0] > errs[1] > errs[2] > errs[3] > 0.0
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    assert 3.0 < ratios[-1] < 4.5


def test_trotter_small_time_recovers_potential_trace():
    g = grid1d(6, 0.5)
    v = generate_potential(4, g, 2, "random-psd-field", 2.0)
    want = float(np.sum(np.trace(v.values, axis1=1, axis2=2)).real)
    got = trotter_sandwich(v, alpha=1.0)(1e-9, 1)
    assert abs(got - want) < 1e-6 * (1.0 + abs(want))


@pytest.mark.parametrize("pts", [(7,), (4, 5), (3, 3, 3)], ids=dirichlet_ids("pts", 3))
@pytest.mark.parametrize("N", [1, 2])
def test_trotter_trace_matches_expm_oracle(pts, N):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.6)
    v = generate_potential((31, N, g.nsites), g, N, "random-psd-field", 2.0)
    alpha, t, n = 1.3, 0.9, 3
    s = t / n
    heat = scipy.linalg.expm(-s * laplacian(g, fiber=N).toarray())
    pot = scipy.linalg.block_diag(*[scipy.linalg.expm(-s * alpha * b) for b in v.values])
    power = np.linalg.matrix_power(heat @ pot, n)
    want = float(np.trace(scipy.linalg.block_diag(*v.values) @ power).real)
    got = trotter_sandwich(v, alpha)(t, n)
    assert abs(got - want) < 1e-12 * (1.0 + abs(want))


@pytest.mark.parametrize("pts", [(1,), (2,), (5,), (2, 3), (1, 2, 2), (3, 3, 3)],
                         ids=dirichlet_ids("pts", 6))
def test_trotter_sandwich_matches_per_call_formula_bit_for_bit(pts):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.6)
    for N in (1, 2, 3):
        v = generate_potential((41, N, g.nsites), g, N, "random-psd-field", 2.0)
        trace = trotter_sandwich(v, 1.3)
        for t in (1e-9, 0.05, 0.9, 7.0, 50.0):
            for n in (1, 2, 7, 256):
                assert trace(t, n) == _trotter_trace_oracle(g, v, 1.3, t, n), (N, t, n)


@pytest.mark.parametrize("pts", [(7,), (4, 5), (3, 3, 3)], ids=dirichlet_ids("pts", 3))
def test_batched_trotter_trace_matches_scalar_calls_bit_for_bit(pts, monkeypatch):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.6)
    times = np.array([1e-9, 0.05, 0.9, 7.0, 50.0, 3e-19, 4e18])
    for N in (1, 2, 3):
        v = generate_potential((41, N, g.nsites), g, N, "random-psd-field", 2.0)
        trace = trotter_sandwich(v, 1.3)
        for n in (1, 2, 7, 256):
            got = trace(times, n)
            assert got.shape == times.shape and got.dtype == float
            assert got.tolist() == [trace(float(t), n) for t in times], (N, n)
    # a batch split into runs of one time each gives the same bits
    monkeypatch.setattr(lattice, "_TROTTER_BATCH_BYTES", 1)
    assert trotter_sandwich(v, 1.3)(times, 7).tolist() == trace(times, 7).tolist()


@pytest.mark.parametrize("bad", [[], [[1.0]], [1.0, 0.0], [1.0, -2.0], [math.nan], [math.inf]],
                         ids=str)
def test_batched_trotter_times_must_be_positive_and_finite(bad):
    trace = trotter_sandwich(scalar_potential(grid1d(6, 0.5), np.ones(6)), 1.0)
    with pytest.raises(ValueError, match="^times must be a non-empty 1-D array"):
        trace(np.array(bad), 4)


def _parent_bs_bound(F, lam):
    """bs_bound as it was with one F_a per call: F(1) and F(lam) taken apart."""
    f1 = float(F(1.0))
    if not f1 > 0.0:
        raise ValueError(f"F(1) must be positive, got {f1}")
    vals = np.asarray(F(lam), dtype=float)
    if (vals.shape != lam.shape or not np.all(np.isfinite(vals))
            or np.any(vals < -1e-12 * (1.0 + np.max(np.abs(vals), initial=0.0)))):
        raise ValueError("F must be finite and non-negative on the spectrum of K")
    return float(np.sum(np.maximum(vals, 0.0)) / f1)


def test_stacked_bs_bound_equals_the_one_row_form():
    from clrlab.harness.experiments import BS_A_VALUES

    column = np.array(BS_A_VALUES)[:, None]
    cases = [(GridSpec(d=3, points_per_axis=(3, 3, 3), h=0.5), 2, 40.0),
             (grid1d(11, 0.6), 3, 8.0), (grid1d(9, 0.5), 1, 0.5)]
    for seed, (g, n, amp) in enumerate(cases):
        for style in ("random-psd-field", "gaussian-bumps"):
            lam = k_spectrum(generate_potential(seed, g, n, style, amp))
            rows = bs_bound(lambda x: f_a_transform(column, x), lam)
            assert isinstance(rows, np.ndarray) and rows.shape == (3,)
            for a, got in zip(BS_A_VALUES, rows.tolist()):
                one = bs_bound(lambda x: f_a_transform(a, x), lam)
                assert isinstance(one, float)
                assert got == one == _parent_bs_bound(lambda x: f_a_transform(a, x), lam)
    empty = bs_bound(lambda x: f_a_transform(column, x), np.zeros(0))
    assert empty.tolist() == [0.0, 0.0, 0.0]


def test_stacked_bs_bound_checks_each_row():
    lam = np.array([0.1, 0.5, 2.0])

    def rows(*fs):
        return lambda x: np.array([f(x) for f in fs])

    def ident(x):
        return x

    with pytest.raises(ValueError, match=r"F\(1\) must be positive, got 0.0"):
        bs_bound(rows(ident, lambda x: x - 1.0), lam)
    for bad in (lambda x: x - 0.5, lambda x: np.where(x < 1.0, np.nan, x),
                lambda x: np.where(x < 1.0, np.inf, x)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            bs_bound(rows(ident, bad), lam)
    # the rounding floor -1e-12 (1 + max|row|) is each row's own
    big = rows(lambda x: np.where(x == 0.1, -1e-7, 1e6 * x), ident)
    assert bs_bound(big, lam).tolist() == [2.5, 2.6]
    with pytest.raises(ValueError, match="finite and non-negative"):
        bs_bound(rows(lambda x: 1e6 * x, lambda x: np.where(x == 0.1, -1e-7, x)), lam)
    for shape in (lambda x: x[:-1], lambda x: np.ones((2, 2, x.size))):
        with pytest.raises(ValueError, match="one value per eigenvalue"):
            bs_bound(shape, lam)


def test_one_f_a_transform_call_per_bs_trial(monkeypatch, serial_trials):
    from clrlab.harness import experiments

    calls = []
    fa = experiments.f_a_transform
    monkeypatch.setattr(experiments, "f_a_transform",
                        lambda a, lam: calls.append(np.shape(a)) or fa(a, lam))
    rep = run_experiment(ExperimentConfig(experiment="bs-equivalence", trials=8))
    assert calls == [(3, 1)] * 8
    assert [r["a"] for r in rep.records if r["kind"] == "bs-bound"] == [0.7, 1.13, 2.0] * 8


def test_one_site_decomposition_per_birman_schwinger_and_trotter_sandwich(monkeypatch):
    g = GridSpec(d=3, points_per_axis=(3, 3, 3), h=0.5)
    v = generate_potential(3, g, 2, "gaussian-bumps", 5.0)
    calls = count_site_spectra(monkeypatch)
    birman_schwinger(v)
    trotter_sandwich(v, 1.0)
    v.moment(1.5)
    v.require_psd()
    assert calls == ["eigh"]


def test_bs_and_trotter_records_same_with_the_per_a_loop_and_extra_psd_checks(monkeypatch):
    from clrlab.harness import experiments

    cfgs = [ExperimentConfig(experiment="bs-equivalence", trials=12),
            ExperimentConfig(experiment="trotter", trials=3)]

    def canon(rep):
        return json.dumps({"records": rep.records, "summary": rep.summary}, sort_keys=True)

    fast = [canon(run_experiment(cfg)) for cfg in cfgs]

    def per_a_loop(F, lam):
        return np.array([_parent_bs_bound(lambda x, a=a: f_a_transform(a, x), lam)
                         for a in experiments.BS_A_VALUES])

    bs, sandwich = lattice.birman_schwinger, experiments.trotter_sandwich

    def bs_checked(V):
        V.require_psd()
        return bs(V)

    def sandwich_checked(V, alpha):
        V.require_psd()
        return sandwich(V, alpha)

    monkeypatch.setattr(experiments, "bs_bound", per_a_loop)
    monkeypatch.setattr(lattice, "birman_schwinger", bs_checked)
    monkeypatch.setattr(experiments, "trotter_sandwich", sandwich_checked)
    assert [canon(run_experiment(cfg)) for cfg in cfgs] == fast


def test_trotter_domain_and_budget(monkeypatch):
    g = grid1d(6, 0.5)
    v = scalar_potential(g, np.ones(6))
    # the instance is checked when the sandwich is built (alpha: see
    # test_alpha_and_time_must_be_positive_and_finite) ...
    with pytest.raises(NotPositiveSemidefiniteError):
        trotter_sandwich(scalar_potential(g, [1.0, -0.5, 0.0, 0.0, 0.0, 0.0]), 1.0)
    big = GridSpec(d=1, points_per_axis=(5000,), h=0.1)
    vbig = MatrixPotential(
        grid=big, N=1, values=np.zeros((5000, 1, 1), dtype=complex)
    )
    with pytest.raises(BudgetError, match="CLRLAB_DENSE_BUDGET"):
        trotter_sandwich(vbig, alpha=1.0)
    # ... once: one site decomposition, and evaluating it re-checks nothing about V ...
    calls = count_site_spectra(monkeypatch)
    trace = trotter_sandwich(v, alpha=1.0)
    for t in (0.1, 1.0, 10.0):
        trace(t, 4)
    assert calls == ["eigh"]
    # ... and the arguments of each evaluation when it is called
    for n in (0, -2, 2.0, 2.5, "2"):
        with pytest.raises(ValueError, match="n must"):
            trace(1.0, n)


# Every positive scalar argument of the trace routines, as (routine, argument,
# call with that argument set to x on a potential V).
_POSITIVE_FINITE_ARGUMENTS = [
    ("trotter_sandwich", "alpha", lambda v, x: trotter_sandwich(v, x)),
    ("trotter_sandwich", "time", lambda v, x: trotter_sandwich(v, 1.0)(x, 4)),
    ("semigroup_sandwich_trace", "alpha", lambda v, x: semigroup_sandwich_trace(v, x, 1.0)),
    ("semigroup_sandwich_trace", "time", lambda v, x: semigroup_sandwich_trace(v, 1.0, x)),
    ("resolvent_trace", "alpha", lambda v, x: resolvent_trace(v, x)),
    ("heat_diagonal_step", "time", lambda v, x: heat_diagonal_step(v, np.exp, x)),
]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf], ids=str)
@pytest.mark.parametrize("routine, what, call", _POSITIVE_FINITE_ARGUMENTS,
                         ids=[f"{r}-{w}" for r, w, _ in _POSITIVE_FINITE_ARGUMENTS])
def test_alpha_and_time_must_be_positive_and_finite(routine, what, call, bad):
    v = scalar_potential(grid1d(6, 0.5), np.ones(6))
    with pytest.raises(ValueError, match=f"^{what} must be positive and finite, got {bad}$"):
        call(v, bad)


def test_trotter_experiment_same_records_with_the_per_call_oracle(monkeypatch):
    from clrlab.harness import experiments

    cfg = ExperimentConfig(experiment="trotter", trials=5)
    fast = run_experiment(cfg)
    def per_call(V, alpha):
        def trace(t, n):
            if np.ndim(t) == 0:
                return _trotter_trace_oracle(V.grid, V, alpha, t, n)
            return np.array([_trotter_trace_oracle(V.grid, V, alpha, x, n) for x in t])
        return trace

    monkeypatch.setattr(experiments, "trotter_sandwich", per_call)
    slow = run_experiment(cfg)

    def canon(rep):
        return json.dumps({"records": rep.records, "summary": rep.summary}, sort_keys=True)

    assert canon(fast) == canon(slow)


def _bench_trotter_configs(seeds):
    """The trotter config of the small-grids benchmark workload at each seed."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [cfg for seed in seeds for cfg in workloads.build("small-grids", seed)
            if cfg.experiment == "trotter"]


def test_t_quadrature_matches_adaptive_quad():
    # the exp-sinh rule against QUADPACK's adaptive rule on [0, inf), on the
    # instances of the default trotter run and of small-grids' seeds 1-3
    from clrlab.harness import experiments

    cfgs = [ExperimentConfig(experiment="trotter")] + _bench_trotter_configs((1, 2, 3))
    assert len(cfgs) == 4
    for cfg in cfgs:
        cfg = experiments.EXPERIMENTS["trotter"].resolve(cfg)
        for i in range(10):
            _, v, alpha = experiments._trotter_instance(cfg, 20_000 + i)
            trace = trotter_sandwich(v, alpha)
            got = experiments._exp_sinh_integral(
                lambda t: trace(t, 256), 1.0 / experiments._lambda_floor(v.grid))
            want, _ = quad(lambda t: trace(t, 256), 0.0, np.inf,
                           epsabs=1e-13, epsrel=1e-12, limit=400)
            assert abs(got - want) <= 1e-10 * abs(want), (cfg.seed, i, got, want)


def test_exp_sinh_rule_calls_g_once_per_level_on_its_new_nodes():
    from clrlab.harness.experiments import _exp_sinh_integral

    calls = []

    def g(t):
        calls.append(t)
        return np.exp(-t)

    assert _exp_sinh_integral(g, 1.0) == pytest.approx(1.0, rel=1e-13)
    assert [t.size for t in calls[:4]] == [17, 16, 32, 64]
    nodes = np.concatenate(calls)
    assert np.unique(nodes).size == nodes.size
    assert _exp_sinh_integral(lambda t: np.exp(-t / 50.0), 50.0) == pytest.approx(50.0, rel=1e-13)


def test_exp_sinh_rule_raises_on_a_tail_or_a_nan():
    from clrlab.harness.experiments import _T_QUADRATURE_LEVELS, _exp_sinh_integral

    calls = []

    def slow_tail(t):  # 1/(1+t) is not integrable on (0, inf)
        calls.append(t)
        return 1.0 / (1.0 + t)

    with pytest.raises(ArithmeticError, match="no agreement"):
        _exp_sinh_integral(slow_tail, 1.0)
    assert len(calls) == _T_QUADRATURE_LEVELS
    with pytest.raises(ArithmeticError, match="non-finite"):
        _exp_sinh_integral(lambda t: np.where(t > 1.0, np.nan, 1.0), 1.0)


def test_semigroup_sandwich_vs_expm_oracle():
    g = grid1d(7, 0.5)
    for seed in (1, 2, 3):
        v = generate_potential(seed, g, 2, "random-psd-field", 3.0)
        alpha, t = 1.5, 0.7
        h_dense = hamiltonian(v, sign=alpha).toarray()
        vb = scipy.linalg.block_diag(*v.values)
        want = float(np.trace(vb @ scipy.linalg.expm(-t * h_dense)).real)
        got = semigroup_sandwich_trace(v, alpha, t)
        assert abs(got - want) < 1e-8 * (1.0 + abs(want))


def test_resolvent_trace_zero_potential():
    g = grid1d(6, 0.5)
    assert resolvent_trace(scalar_potential(g, np.zeros(6)), 1.0) == 0.0


def test_resolvent_trace_monotone_in_alpha():
    g = grid1d(9, 0.5)
    v = generate_potential(12, g, 1, "random-psd-field", 4.0)
    vals = [resolvent_trace(v, alpha) for alpha in (1.0, 10.0, 100.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_resolvent_identity_against_bs_spectrum():
    g = grid1d(10, 0.5)
    for trial in range(10):
        v = generate_potential((55, trial), g, 1, "random-psd-field", 4.0)
        lam = np.linalg.eigvalsh(birman_schwinger(v))
        for alpha in (0.5, 1.0, 2.0):
            want = float(np.sum(lam / (1.0 + alpha * lam)))
            got = resolvent_trace(v, alpha)
            assert abs(got - want) < 1e-8 * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# heat-diagonal majorant and right-hand sides

def test_heat_diagonal_step_zero_potential():
    g = grid1d(5, 0.5)
    v = scalar_potential(g, np.zeros(5))
    assert heat_diagonal_step(v, lambda s: s * np.exp(-s), 0.5) == 0.0


def test_heat_diagonal_step_formula():
    g = grid1d(4, 0.5)
    diag = np.array([0.0, 2.0, 3.0, 0.0])
    v = scalar_potential(g, diag)
    t = 0.7
    f = lambda s: s * np.exp(-s)
    want = (4.0 * math.pi * t) ** -0.5 * 0.5 * sum(
        tv * math.exp(-tv) for tv in t * diag
    )
    assert abs(heat_diagonal_step(v, f, t) - want) < 1e-12 * (1.0 + want)


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
        lambda u: heat_diagonal_step(v, f, math.exp(u)), -40.0, 40.0, limit=400
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


def test_matrix_potential_judges_each_site_by_its_own_scale():
    # site 1's defect 1e-8 breaks its own tolerance (about 3e-12) but not
    # the 1e6 site's (about 1e-6), which a scale shared by the stack would use
    g = grid1d(3)
    vals = np.zeros((3, 2, 2), dtype=complex)
    vals[0] = 1e6 * np.eye(2)
    vals[1] = [[1.0, 0.5], [0.5 + 1e-8, 2.0]]
    with pytest.raises(NonHermitianError, match="potential site 1 of 3 is not Hermitian"):
        MatrixPotential(grid=g, N=2, values=vals)
    vals[1, 1, 0] = 0.5
    MatrixPotential(grid=g, N=2, values=vals)


def test_hamiltonian_real_for_real_potentials():
    g = grid1d(9, 0.5)
    v1 = generate_potential(5, g, 1, "random-psd-field", 3.0)
    assert v1.values.dtype == np.complex128
    assert hamiltonian(v1).matrix.dtype == np.float64
    v2 = generate_potential(5, g, 2, "random-psd-field", 3.0)
    assert np.any(v2.values.imag)
    assert hamiltonian(v2).matrix.dtype == np.complex128


def _kron_stencil_1d(m, h):
    # (2 I - S - S^T) / h^2 with S the forward shift i -> i + 1
    i = np.arange(m)
    src = i[:-1]
    dst = src + 1
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
                               _kron_stencil_1d(m, grid.h)),
                       sp.eye(math.prod(pts[ax + 1:]))).tocsr()
        lap = term if lap is None else lap + term
    vals = V.values if np.any(V.values.imag) else V.values.real
    lifted = sp.kron(lap, sp.eye(V.N)).tocsr()
    return lifted, (lifted + sign * sp.block_diag(list(vals), format="csr")).tocsr()


@pytest.mark.parametrize("pts", [(1,), (2,), (3,), (8,), (1, 2), (2, 1, 3), (4, 5, 2)],
                         ids=dirichlet_ids("pts", 7))
def test_stencil_assembly_matches_kron_sum_bit_for_bit(pts):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.37)
    for nf in (1, 2, 3):
        for style in POTENTIAL_STYLES:
            v = generate_potential(6, g, nf, style, 3.0)
            for sign in (-1.0, 0.7):
                lap, want = kron_sum_hamiltonian(g, v, sign)
                got = hamiltonian(v, sign=sign)
                assert got.matrix.dtype == want.dtype
                assert np.array_equal(got.matrix.indptr, want.indptr)
                assert np.array_equal(got.matrix.indices, want.indices)
                assert got.matrix.data.tobytes() == want.data.tobytes()
                assert got.scale() == float(np.max(np.abs(want).sum(axis=1)))
        bare = laplacian(g, fiber=nf)
        assert np.all(bare.matrix.data != 0)
        assert np.array_equal(bare.toarray(), lap.toarray())
        assert bare.scale() == float(np.max(np.abs(lap).sum(axis=1)))


def stencil_matrix_one_pass(grid, blocks):
    """Oracle: the stencil assembly as a coupling list, lexsorted into CSR order."""
    pts, h = grid.points_per_axis, grid.h
    n = blocks.shape[1]
    dim = grid.nsites * n
    sites = np.arange(grid.nsites)
    diag = 0.0
    lo, hi, coupling = [], [], []
    for ax, m in enumerate(pts):
        diag += 2.0 / h**2
        line = sites.reshape(math.prod(pts[:ax]), m, -1)
        lo.append(line[:, :-1].ravel())
        hi.append(line[:, 1:].ravel())
        coupling.append(np.full(lo[-1].size, -1.0 / h**2))
    lo, hi, coupling = (np.concatenate(a) for a in (lo, hi, coupling))

    idx = np.arange(dim).reshape(grid.nsites, n)  # row of (site x, component a)
    rows = np.concatenate([idx[lo].ravel(), idx[hi].ravel(),
                           np.broadcast_to(idx[:, :, None], blocks.shape).ravel()])
    cols = np.concatenate([idx[hi].ravel(), idx[lo].ravel(),
                           np.broadcast_to(idx[:, None, :], blocks.shape).ravel()])
    data = np.concatenate([np.repeat(np.tile(coupling, 2), n),
                           (blocks + diag * np.eye(n)).ravel()])
    keep = data != 0
    rows, cols, data = rows[keep], cols[keep], data[keep]
    order = np.lexsort((cols, rows))
    indptr = np.zeros(dim + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(dim, dim))


@pytest.mark.parametrize("pts", [(1,), (2,), (9,), (3, 1), (4, 3), (1, 2, 2), (3, 3, 3),
                                 (1, 3), (2, 1, 3), (1, 1, 1)],
                         ids=dirichlet_ids("pts", 10))
@pytest.mark.parametrize("N", [1, 2, 3])
def test_stencil_assembly_matches_the_one_pass_oracle(pts, N):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.43)
    potentials = [MatrixPotential(grid=g, N=N, values=np.zeros((g.nsites, N, N)))]
    potentials += [generate_potential(3, g, N, style, 5.0) for style in POTENTIAL_STYLES]
    # the in-box slots: every site's N x N block and each neighbour pair twice
    slots = g.nsites * N * N + 2 * N * sum(g.nsites - g.nsites // m for m in pts)
    kinds = set()
    for v in potentials:
        for sign in (-1.0, 0.6):
            blocks = sign * v._entries()
            want = stencil_matrix_one_pass(g, blocks)
            got = lattice._stencil_matrix(g, blocks)
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()
            for name in ("indices", "indptr"):
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert np.array_equal(getattr(got, name), getattr(want, name))
            kinds.add((blocks.dtype.kind, got.nnz < slots))
    # real and complex values; with N > 1 the zero and scalar-embed
    # potentials' exact-zero off-diagonals take the drop path
    assert {kind for kind, _ in kinds} == ({"f", "c"} if N > 1 else {"f"})
    assert any(dropped for _, dropped in kinds) == (N > 1)


@pytest.mark.parametrize("pts", [(1,), (7,), (5, 2), (3, 3, 3), (9, 9, 9)],
                         ids=dirichlet_ids("pts", 5))
def test_axis_modes_and_unit_columns_in_closed_form(pts):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.61)
    # lam = 4/h^2 sin^2(theta/2) as one expression
    for m in pts:
        theta = np.pi * np.arange(1, m + 1) / (m + 1)
        lam, _ = _axis_modes(m, g.h)
        assert lam.tobytes() == (4.0 / g.h**2 * np.sin(theta / 2.0) ** 2).tobytes()
    # U^T, the tensor product of the transposed axis bases, on the columns cols
    want = np.ones((1, 1))
    for m in pts:
        want = np.kron(want, _axis_modes(m, g.h)[1].T)
    for cols in (np.arange(g.nsites), np.arange(0, g.nsites, 2), np.array([g.nsites - 1]),
                 np.unique(np.array([0, 5, 80, 81, 400, 728]) % g.nsites)):
        _, _, x = lattice._unit_columns_in_modes(g, cols)
        assert x.shape == pts + (cols.size,) and x.flags.c_contiguous
        assert np.array_equal(x.reshape(g.nsites, -1), want[:, cols])


def test_operator_holds_index_arrays_of_its_own():
    g = GridSpec(d=2, points_per_axis=(4, 3), h=0.5)
    m = lattice._stencil_matrix(g, np.ones((g.nsites, 2, 2)))
    # the canonical form may rewrite the operator's arrays, never the caller's
    op = DiscreteOperator(m)
    for name in ("indices", "indptr"):
        mine = getattr(op.matrix, name)
        assert mine.flags.writeable and not np.shares_memory(mine, getattr(m, name))


def test_hamiltonian_is_laplacian_plus_signed_block():
    g = GridSpec(d=2, points_per_axis=(4, 5), h=0.5)
    for nf, sign in ((1, -1.0), (2, 0.5)):
        v = generate_potential(6, g, nf, "random-psd-field", 3.0)
        _, want = kron_sum_hamiltonian(g, v, sign)
        got = hamiltonian(v, sign=sign).matrix
        assert np.array_equal(got.toarray(), want.toarray())


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
        defect = m - m.getH()
        want = float(np.max(np.abs(defect.data))) if defect.nnz else 0.0
        canonical = m.copy()  # the stated precondition: duplicates summed, indices sorted
        canonical.sum_duplicates()
        before = (canonical.indptr.copy(), canonical.indices.copy(), canonical.data.copy())
        assert _hermitian_defect(canonical) == want
        for old, new in zip(before, (canonical.indptr, canonical.indices, canonical.data)):
            assert np.array_equal(old, new)
    hermitian = hamiltonian(generate_potential(3, grid1d(6), 2, "random-psd-field", 2.0))
    assert _hermitian_defect(hermitian.matrix) == 0.0


def test_discrete_operator_rejects_defect_above_tolerance():
    scale = 1.0 + 2.0  # 1 + max |entry|
    for factor, ok in ((0.9, True), (1.1, False)):
        e = factor * HERMITICITY_RTOL * scale
        m = sp.csr_matrix(np.array([[2.0, e], [0.0, 1.0]]))
        if ok:
            assert DiscreteOperator(m).scale() == 2.0 + e
        else:
            with pytest.raises(NonHermitianError, match="not Hermitian"):
                DiscreteOperator(m)


def test_matrix_potential_moment_and_sqrt():
    g = grid1d(2, 0.5)
    vals = np.zeros((2, 2, 2), dtype=complex)
    vals[0] = np.diag([4.0, 9.0])
    vals[1] = np.diag([1.0, -2.0])  # negative part must not contribute
    v = MatrixPotential(grid=g, N=2, values=vals)
    assert abs(v.moment(0.5) - 0.5 * (2.0 + 3.0 + 1.0)) < 1e-14
    clipped = np.array([np.diag([4.0, 9.0]), np.diag([1.0, 0.0])])
    roots = MatrixPotential(grid=g, N=2, values=clipped).sqrt_sites()
    squared = np.einsum("xij,xjk->xik", roots, roots)
    assert np.allclose(squared, clipped, atol=1e-12)
    with pytest.raises(NotPositiveSemidefiniteError):
        v.require_psd()


def test_sqrt_sites_and_birman_schwinger_accept_what_require_psd_accepts():
    # a site eigenvalue of -5e-11 passes the PSD rule (-1e-10 * (1 + 2)) and
    # is clipped to 0 as rounding dust by the square root
    g = grid1d(3)
    vals = np.zeros((3, 1, 1), dtype=complex)
    vals[:, 0, 0] = [2.0, -5e-11, 1.0]
    v = MatrixPotential(grid=g, N=1, values=vals)
    v.require_psd()
    roots = v.sqrt_sites()
    assert np.array_equal(roots[:, 0, 0], np.sqrt([2.0, 0.0, 1.0]))
    k = birman_schwinger(v)
    assert k.shape == (3, 3)
    below = vals.copy()
    below[1] = -4e-10  # beyond the rule: rejected by all three
    w = MatrixPotential(grid=g, N=1, values=below)
    for check in (w.require_psd, w.sqrt_sites, lambda: birman_schwinger(w)):
        with pytest.raises(NotPositiveSemidefiniteError):
            check()


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


def test_potential_json_rejects_other_boundaries():
    data = {
        "grid": {"d": 1, "points": [4], "h": 0.5, "boundary": "periodic"},
        "N": 1,
        "sites": [{"index": [2], "matrix": [[3.0, 0.0]]}],
    }
    with pytest.raises(ValueError, match="dirichlet"):
        potential_from_json_dict(data)


def _line_file(**fields):
    """A potential file of a 4-site line with one scalar site, fields replaced."""
    data = {
        "grid": {"d": 1, "points": [4], "h": 0.5, "boundary": "dirichlet"},
        "N": 1,
        "sites": [{"index": [2], "matrix": [[3.0, 0.0]]}],
    }
    return {**data, **fields}


def test_potential_json_rejects_a_site_listed_twice():
    sites = [{"index": [0], "matrix": [[1.0, 0.0]]}, {"index": [0], "matrix": [[2.0, 0.0]]}]
    with pytest.raises(ValueError, match=r"site index \[0\] is listed twice"):
        potential_from_json_dict(_line_file(sites=sites))


@pytest.mark.parametrize("index", [[0.5], [1.0], ["1"], [True]])
def test_potential_json_rejects_a_non_integer_index(index):
    with pytest.raises(ValueError, match="site index .* must list 1 integers"):
        potential_from_json_dict(_line_file(sites=[{"index": index, "matrix": [[1.0, 0.0]]}]))


@pytest.mark.parametrize("where", ["grid", "grid.boundary", "N"])
def test_potential_json_names_a_missing_field(where):
    data = _line_file()
    if where == "grid.boundary":
        data["grid"] = {key: value for key, value in data["grid"].items() if key != "boundary"}
    else:
        del data[where]
    with pytest.raises(ValueError, match=f"missing {where}$"):
        potential_from_json_dict(data)


@pytest.mark.parametrize("grid", [
    {"d": 1.5, "points": [4]}, {"d": 1, "points": [4.5]}, {"d": 1, "points": 4},
    {"d": 1, "points": [4], "h": "0.5"}, {"d": 1, "points": [0]},
])
def test_potential_json_rejects_a_malformed_grid(grid):
    data = _line_file()
    data["grid"] = {**data["grid"], **grid}
    with pytest.raises(ValueError, match="potential file: grid"):
        potential_from_json_dict(data)


def test_potential_json_rejects_n_zero():
    data = _line_file(N=0, sites=[{"index": [2], "matrix": []}])
    with pytest.raises(ValueError, match=r"N must be an integer in \[1, 16\], got 0"):
        potential_from_json_dict(data)


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


def _loop_json_oracle(V):
    """Oracle: the JSON dict built site by site in Python."""
    sites = []
    for flat in V.support(tol=0.0):
        index = np.unravel_index(flat, V.grid.points_per_axis)
        entries = [[float(z.real), float(z.imag)] for z in V.values[flat].ravel()]
        sites.append({"index": [int(i) for i in index], "matrix": entries})
    return {
        "grid": {"d": V.grid.d, "points": list(V.grid.points_per_axis),
                 "h": V.grid.h, "boundary": "dirichlet"},
        "N": V.N,
        "sites": sites,
    }


def _hand_built_potential():
    """Exact dyadic entries: zero sites, -0.0 and complex off-diagonals."""
    g = GridSpec(d=2, points_per_axis=(2, 3), h=0.25)
    vals = np.zeros((6, 2, 2), dtype=complex)
    vals[1] = [[1.5, 0.25 - 0.5j], [0.25 + 0.5j, -0.0]]
    vals[4] = [[-0.0, 3.0j], [-3.0j, 2.0]]
    vals[5] = [[0.125, 0.0], [0.0, 0.125]]
    return MatrixPotential(grid=g, N=2, values=vals)


@pytest.mark.parametrize("pts,N", [((11,), 3), ((4, 3), 2), ((3, 3, 3), 1), ((5, 4, 3), 2)])
def test_potential_json_matches_site_loop(pts, N):
    g = GridSpec(d=len(pts), points_per_axis=pts, h=0.3)
    v = generate_potential((61, N, g.nsites), g, N, "random-psd-field", 2.0)
    vals = v.values.copy()
    vals[::3] = 0.0  # omitted sites
    vals[1::4, 0, 0] = -0.0
    for w in (v, MatrixPotential(grid=g, N=N, values=vals), _hand_built_potential()):
        got, want = potential_to_json_dict(w), _loop_json_oracle(w)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
        for site in got["sites"]:
            assert all(type(i) is int for i in site["index"])
            assert all(type(x) is float for pair in site["matrix"] for x in pair)


def test_potential_digest_pinned():
    v = _hand_built_potential()
    assert [s["index"] for s in potential_to_json_dict(v)["sites"]] == [[0, 1], [1, 1], [1, 2]]
    assert potential_digest(v) == (
        "8886985e5d807b6c5190fb05be0632100a64f1a3dbf05e6fd048f763b0b60b7c")


# ---------------------------------------------------------------------------
# budgets

def test_dense_budget_env_override(monkeypatch):
    # sparse assembly is not charged against the dense budget; the inertia
    # count is charged with its largest slab (17^2 = 289 rows on 17^3), a
    # dense spectrum (riesz_mean's) with the full order; CLRLAB_DENSE_BUDGET
    # moves the cap
    big = GridSpec(d=3, points_per_axis=(17, 17, 17), h=0.1)
    assert laplacian(big).dim == 4913
    values = 300.0 * np.exp(-np.sum((big.site_coords() - 0.9) ** 2, axis=1) / 0.1)
    h_big = hamiltonian(scalar_potential(big, values))
    assert h_big.dim == 4913
    count = count_negative(h_big)
    # independent oracle: shift-invert Lanczos below the spectrum (L >= 0)
    threshold = -1e-10 * h_big.scale()
    eigs = eigsh(h_big.matrix, k=40, sigma=-values.max() - 1.0,
                 which="LM", tol=0.0, return_eigenvectors=False)
    assert eigs.max() >= threshold  # the Lanczos window covers every negative one
    assert count == int(np.sum(eigs < threshold)) > 0
    with pytest.raises(BudgetError, match="CLRLAB_DENSE_BUDGET"):
        riesz_mean(h_big, 1.0)
    monkeypatch.setenv("CLRLAB_DENSE_BUDGET", "8")
    with pytest.raises(BudgetError, match="CLRLAB_DENSE_BUDGET"):
        count_negative(hamiltonian(scalar_potential(grid1d(9), np.ones(9))))
    g8 = grid1d(8, 0.5)
    assert count_negative(hamiltonian(scalar_potential(g8, 100.0 * np.ones(8)))) == 8


# ---------------------------------------------------------------------------
# dense spectra, in place and side by side

def _random_hamiltonian(pts, N, seed=5):
    grid = GridSpec(d=len(pts), points_per_axis=pts, h=0.5)
    v = generate_potential(seed, grid, N, "random-psd-field", amplitude=40.0)
    return v, hamiltonian(v)


@pytest.mark.parametrize("pts, N, dtype", [
    ((200,), 1, np.float64),        # order 200, numpy path
    ((5, 5, 5), 2, np.complex128),  # 250
])
def test_dense_spectrum_matches_numpy_bit_for_bit(pts, N, dtype):
    _, op = _random_hamiltonian(pts, N)
    assert op.matrix.dtype == dtype
    before = [a.copy() for a in (op.matrix.data, op.matrix.indices, op.matrix.indptr)]
    want = np.linalg.eigvalsh(op.toarray())
    assert np.array_equal(lattice._dense_spectrum(op, "test"), want)
    after = (op.matrix.data, op.matrix.indices, op.matrix.indptr)
    assert all(np.array_equal(b, a) for b, a in zip(before, after))


def _assert_matches_the_dense_oracle(op, w):
    """w against np.linalg.eigvalsh of op's dense array: the same count below
    -zero_tol, and every eigenvalue within 1e-13 |H|_inf."""
    want = np.linalg.eigvalsh(op.toarray())
    zero_tol = ZERO_BAND_RTOL * op.scale()
    assert np.sum(w < -zero_tol) == np.sum(want < -zero_tol)
    assert np.max(np.abs(w - want)) <= 1e-13 * op.scale()


@pytest.mark.parametrize("pts, N, dtype", [
    ((256,), 1, np.float64),          # order 256, bandwidth 1
    ((300,), 2, np.complex128),       # 600
    ((16, 16), 1, np.float64),        # 256
    ((12, 12), 2, np.complex128),     # 288
    ((7, 7, 7), 1, np.float64),       # 343
    ((6, 6, 6), 3, np.complex128),    # 648
    ((9, 9, 9), 1, np.float64),       # 729
    ((9, 9, 9), 2, np.complex128),    # 1458, bandwidth 162
    ((15, 15, 15), 1, np.float64),    # 3375
])
def test_band_spectrum_matches_the_dense_oracle(pts, N, dtype):
    # from order 256 H's spectrum comes from its band
    _, op = _random_hamiltonian(pts, N)
    assert op.matrix.dtype == dtype and op.dim >= lattice._SIDE_BY_SIDE_ORDER
    before = [a.copy() for a in (op.matrix.data, op.matrix.indices, op.matrix.indptr)]
    _assert_matches_the_dense_oracle(op, lattice._dense_spectrum(op, "test"))
    after = (op.matrix.data, op.matrix.indices, op.matrix.indptr)
    assert all(np.array_equal(b, a) for b, a in zip(before, after))


@pytest.mark.parametrize("pts, N", [((7, 7, 7), 1), ((9, 9, 9), 2)])
def test_dense_path_without_the_band_routines_gives_the_same_counts(monkeypatch, pts, N):
    _, op = _random_hamiltonian(pts, N)
    zero_tol = ZERO_BAND_RTOL * op.scale()
    band = lattice._dense_spectrum(op, "test")
    monkeypatch.setattr(lattice, "_band_routines", lambda: None)
    orders = []
    spectrum = lattice._spectrum
    monkeypatch.setattr(lattice, "_spectrum", lambda a, overwrite_a=False:
                        orders.append(a.shape) or spectrum(a, overwrite_a))
    dense = lattice._dense_spectrum(op, "test")
    assert orders == [(op.dim, op.dim)]
    assert np.sum(dense < -zero_tol) == np.sum(band < -zero_tol) > 0
    assert np.max(np.abs(dense - band)) <= 1e-13 * op.scale()


@pytest.mark.parametrize("pts, N", [((16, 16), 1), ((9, 9, 9), 2)])
def test_band_spectrum_allocates_no_order_n_array(monkeypatch, pts, N):
    # neither numpy's allocator (tracemalloc sees it) nor a mapping holds
    # an n x n array, and no dense path runs
    import mmap
    import tracemalloc

    if lattice._band_routines() is None:
        pytest.skip("no band routines on this platform")
    _, op = _random_hamiltonian(pts, N)
    square = op.dim**2 * op.matrix.dtype.itemsize
    mapped, new_mapping = [], mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda fileno, length, **kwargs:
                        mapped.append(length) or new_mapping(fileno, length, **kwargs))

    def dense(*args, **kwargs):
        raise AssertionError("H's spectrum took a dense path")

    monkeypatch.setattr(lattice, "_operator_buffer", dense)
    monkeypatch.setattr(lattice, "_spectrum", dense)
    tracemalloc.start()
    try:
        w = lattice._dense_spectrum(op, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.shape == (op.dim,)
    assert len(mapped) == 2 and max(mapped) < square / 2  # the band and the work array
    assert peak < square / 2


def test_band_failure_raises_with_info(monkeypatch):
    def failing(*args):  # info is the last reference, before the two string lengths
        args[-3]._obj.value = 9

    monkeypatch.setattr(lattice, "_band_routines",
                        lambda: {"dsbevd_2stage": failing, "zhbevd_2stage": failing})
    for N, name in ((1, "dsbevd_2stage"), (2, "zhbevd_2stage")):
        _, op = _random_hamiltonian((16, 16), N)
        with pytest.raises(np.linalg.LinAlgError, match=f"{name} failed: info 9"):
            lattice._dense_spectrum(op, "test")


def _force_overlap(monkeypatch, on):
    monkeypatch.setattr(config, "_usable_cpus", lambda: 2 if on else 1)
    pools = []
    executor = lattice.ThreadPoolExecutor

    def counted(*args, **kwargs):
        pools.append(1)
        return executor(*args, **kwargs)

    monkeypatch.setattr(lattice, "ThreadPoolExecutor", counted)
    return pools


@pytest.mark.parametrize("N", [1, 2])
def test_h_and_k_spectra_same_with_and_without_overlap(monkeypatch, N):
    # N = 2 draws a complex potential: H and K of order 686
    v, op = _random_hamiltonian((7, 7, 7), N)
    results = []
    for on in (True, False):
        pools = _force_overlap(monkeypatch, on)
        results.append(h_and_k_spectra(op, v))
        assert len(pools) == int(on)
    (w_on, lam_on), (w_off, lam_off) = results
    assert np.array_equal(w_on, w_off) and np.array_equal(lam_on, lam_off)
    assert np.array_equal(lam_on, k_spectrum(v))


def test_bs_equivalence_records_same_with_and_without_overlap(monkeypatch, serial_trials):
    # trials 0-2 draw N = 1, 1, 2: orders 343, 343, 686
    cfg = ExperimentConfig(experiment="bs-equivalence", trials=3, grid_points=(7, 7, 7))
    dumps = []
    for on in (True, False):
        pools = _force_overlap(monkeypatch, on)
        records = run_experiment(cfg).records
        dumps.append(json.dumps(records, sort_keys=True))
        assert len(pools) == 3 * int(on)
    assert dumps[0] == dumps[1]
    assert {r["dim"] for r in records} == {343, 686}


def test_h_and_k_spectra_propagates_errors_and_joins(monkeypatch):
    v, op = _random_hamiltonian((7, 7, 7), 1)
    _force_overlap(monkeypatch, True)
    threads = threading.active_count()

    def worker_fails(op, what):
        raise RuntimeError("worker failed")

    with monkeypatch.context() as m:
        m.setattr(lattice, "_dense_spectrum", worker_fails)
        with pytest.raises(RuntimeError, match="worker failed"):
            h_and_k_spectra(op, v)
    assert threading.active_count() == threads

    def k_fails(K, overwrite_a=False):
        raise np.linalg.LinAlgError("K failed")

    with monkeypatch.context() as m:
        m.setattr(lattice, "_k_values", k_fails)
        with pytest.raises(np.linalg.LinAlgError, match="K failed"):
            h_and_k_spectra(op, v)
    assert threading.active_count() == threads


def test_h_and_k_spectra_sequential_on_one_usable_cpu(monkeypatch):
    v, op = _random_hamiltonian((7, 7, 7), 1)
    monkeypatch.setattr(config, "_usable_cpus", lambda: 1)

    def no_thread(*args, **kwargs):
        raise AssertionError("no worker thread without a second usable CPU")

    monkeypatch.setattr(lattice, "ThreadPoolExecutor", no_thread)
    w, lam = h_and_k_spectra(op, v)
    _assert_matches_the_dense_oracle(op, w)


# ---------------------------------------------------------------------------
# dense spectra by the two-stage eigensolver

def _hermitian(n, dtype, seed=3):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    if dtype == np.complex128:
        g = g + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


def test_two_stage_routines_found_with_the_scipy_wheel_openblas():
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if sys.platform != "linux" or lapack["name"] != "scipy-openblas":
        pytest.skip(f"scipy's LAPACK is {lapack['name']} on {sys.platform}, "
                    f"not the OpenBLAS of a Linux wheel")
    routines = lattice._lapacke_routines()
    assert routines is not None
    assert set(routines) == {"dsyevd", "zheevd", "dsyevd_2stage", "zheevd_2stage"}
    band = lattice._band_routines()
    assert band is not None
    assert set(band) == {"dsbevd_2stage", "zhbevd_2stage"}


@pytest.mark.parametrize("pts, N, dtype", [
    ((11, 11, 11), 1, np.float64),   # order 1331
    ((7, 7, 7), 2, np.complex128),   # 686, real-equivalent 1372
    ((6, 6, 6), 3, np.complex128),   # 648, real-equivalent 1296
])
def test_two_stage_spectra_match_numpy(pts, N, dtype):
    v, op = _random_hamiltonian(pts, N)
    assert op.matrix.dtype == dtype
    assert op.dim * (2 if dtype == np.complex128 else 1) >= lattice._TWO_STAGE_ORDER
    tol, zero_tol = 1e-12 * op.scale(), ZERO_BAND_RTOL * op.scale()
    w, want = lattice._dense_spectrum(op, "test"), np.linalg.eigvalsh(op.toarray())
    assert np.max(np.abs(w - want)) <= tol
    assert np.sum(w < -zero_tol) == np.sum(want < -zero_tol) > 0
    k = birman_schwinger(v)
    assert k.shape == (op.dim, op.dim)
    lam, lam_want = k_spectrum(v), np.maximum(np.linalg.eigvalsh(k), 0.0)
    assert np.max(np.abs(lam - lam_want)) <= tol
    assert np.sum(lam > 1.0) == np.sum(lam_want > 1.0) > 0


def _without_two_stage(monkeypatch):
    # neither LAPACKE's dense drivers nor the band solver: numpy takes every spectrum
    monkeypatch.setattr(lattice, "_lapacke_routines", lambda: None)
    monkeypatch.setattr(lattice, "_band_routines", lambda: None)


def test_bs_equivalence_counts_same_without_two_stage(monkeypatch):
    # trials 0-2 draw N = 1, 1, 2: orders 343, 343 and 686 (complex, two-stage)
    cfg = ExperimentConfig(experiment="bs-equivalence", trials=3, grid_points=(7, 7, 7),
                           N_max=2)
    runs = []
    for absent in (False, True):
        if absent:
            _without_two_stage(monkeypatch)
        report = run_experiment(cfg)
        assert report.summary["hard_failures"] == 0
        runs.append([(r["dim"], r["count"], r["count_dense"], r["k_count"])
                     for r in report.records if r["kind"] == "count-equivalence"])
    assert runs[0] == runs[1]
    assert 686 in {dim for dim, *_ in runs[0]}


@pytest.mark.parametrize("n, dtype", [
    (200, np.float64), (1100, np.float64), (300, np.complex128), (600, np.complex128),
])
def test_spectrum_without_two_stage_is_numpy_bit_for_bit(monkeypatch, n, dtype):
    _without_two_stage(monkeypatch)
    a = _hermitian(n, dtype)
    want = np.linalg.eigvalsh(a)
    for overwrite_a in (False, True):
        assert np.array_equal(lattice._spectrum(np.asfortranarray(a), overwrite_a), want)


def _failing_routines(monkeypatch):
    # any call of a LAPACKE routine raises
    monkeypatch.setattr(lattice, "_lapacke_routines", lambda: {
        "dsyevd": lambda *args: 7, "dsyevd_2stage": lambda *args: 7,
        "zheevd": lambda *args: -5, "zheevd_2stage": lambda *args: -5})


def test_two_stage_failure_raises_with_info(monkeypatch):
    _failing_routines(monkeypatch)
    monkeypatch.setattr(lattice, "_TWO_STAGE_ORDER", 1)
    with pytest.raises(np.linalg.LinAlgError, match="dsyevd_2stage failed: info 7"):
        lattice._spectrum(np.eye(3))
    with pytest.raises(np.linalg.LinAlgError, match="zheevd_2stage failed: info -5"):
        lattice._spectrum(np.eye(3, dtype=complex))


def test_empty_spectrum_makes_no_lapack_call(monkeypatch):
    _failing_routines(monkeypatch)
    monkeypatch.setattr(lattice, "_TWO_STAGE_ORDER", 1)
    for dtype in (np.float64, np.complex128):
        for overwrite_a in (False, True):
            w = lattice._spectrum(np.zeros((0, 0), dtype=dtype), overwrite_a)
            assert w.shape == (0,) and w.dtype == np.float64


@pytest.mark.parametrize("n, dtype", [(n, np.float64) for n in (1, 8, 54, 255)]
                         + [(n, np.complex128) for n in (1, 54, 250, 255)])
def test_spectrum_below_the_two_stage_order_is_numpy_bit_for_bit(monkeypatch, n, dtype):
    # numpy's eigvalsh takes these orders, never a LAPACKE routine
    _failing_routines(monkeypatch)
    assert n < lattice._SIDE_BY_SIDE_ORDER
    assert n * (2 if dtype == np.complex128 else 1) < lattice._TWO_STAGE_ORDER
    a = _hermitian(n, dtype, seed=n)
    want = np.linalg.eigvalsh(a)
    for overwrite_a in (False, True):
        for b in (np.asfortranarray(a), np.ascontiguousarray(a)):
            assert np.array_equal(lattice._spectrum(b, overwrite_a), want)
            assert np.array_equal(b, a)


def _spied_routines(monkeypatch):
    """[(name, buffer address)] of every LAPACKE call from here on."""
    routines = lattice._lapacke_routines()
    if routines is None:
        pytest.skip("no LAPACKE routines on this platform")
    calls = []

    def spy(name, routine):
        def call(layout, jobz, uplo, n, a, lda, w):
            calls.append((name, a))
            return routine(layout, jobz, uplo, n, a, lda, w)
        return call

    monkeypatch.setattr(lattice, "_lapacke_routines",
                        lambda: {name: spy(name, r) for name, r in routines.items()})
    return calls


def _blas_builds():
    return (f"numpy {np.__version__} {np.show_config(mode='dicts')['Build Dependencies']}, "
            f"scipy {scipy.__version__} "
            f"{scipy.show_config(mode='dicts')['Build Dependencies']}")


@pytest.mark.parametrize("n, dtype", [(n, np.float64) for n in (256, 343, 512, 729)]
                         + [(n, np.complex128) for n in (256, 343, 511)])
def test_spectrum_from_order_256_is_numpy_bit_for_bit_in_place(monkeypatch, n, dtype):
    # the one-stage ?syevd / ?heevd take these orders in place; numpy's
    # eigvalsh runs the same drivers
    calls = _spied_routines(monkeypatch)
    assert n >= lattice._SIDE_BY_SIDE_ORDER
    assert n * (2 if dtype == np.complex128 else 1) < lattice._TWO_STAGE_ORDER
    a = _hermitian(n, dtype, seed=n)
    want = np.linalg.eigvalsh(a)
    name = "zheevd" if dtype == np.complex128 else "dsyevd"
    for overwrite_a in (False, True):
        for b in (np.asfortranarray(a), np.ascontiguousarray(a)):
            calls.clear()
            assert np.array_equal(lattice._spectrum(b, overwrite_a), want), _blas_builds()
            assert [c[0] for c in calls] == [name]
            assert (calls[0][1] == b.ctypes.data) == overwrite_a
            if not overwrite_a:
                assert np.array_equal(b, a)


def test_one_stage_failure_raises_with_info(monkeypatch):
    _failing_routines(monkeypatch)
    with pytest.raises(np.linalg.LinAlgError, match="LAPACKE dsyevd failed: info 7"):
        lattice._spectrum(np.eye(256))
    with pytest.raises(np.linalg.LinAlgError, match="LAPACKE zheevd failed: info -5"):
        lattice._spectrum(np.eye(256, dtype=complex))


def _mapping(a):
    """The object at the end of a's base chain (an mmap for an operator's own mapping)."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_operator_buffer_has_its_own_private_mapping_from_order_256():
    import mmap
    import os
    import weakref

    if lattice._lapacke_routines() is None or not hasattr(os, "fork"):
        pytest.skip("no LAPACKE routines or no fork on this platform")
    small = lattice._operator_buffer(255, np.float64)
    assert small.flags.f_contiguous and not small.any()
    assert not isinstance(_mapping(small), mmap.mmap)
    for dtype in (np.float64, np.complex128):
        a = lattice._operator_buffer(256, dtype)
        assert a.shape == (256, 256) and a.dtype == dtype and a.flags.f_contiguous
        assert a.flags.writeable and not a.any()
        assert isinstance(_mapping(a), mmap.mmap)
    a[:] = 1.0
    pid = os.fork()
    if pid == 0:  # the child writes its own copy of the pages
        a[:] = 2.0
        os._exit(0 if np.all(a == 2.0) else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert np.all(a == 1.0)
    # freeing the array unmaps its pages
    mapped = weakref.ref(_mapping(a))
    del a
    assert mapped() is None


def test_routine_works_in_the_operators_own_buffers_at_order_729(monkeypatch):
    # no threshold patched: a real order-729 K takes the one-stage dsyevd
    # in the very buffer birman_schwinger built; H's spectrum comes from
    # its band
    import mmap

    calls = _spied_routines(monkeypatch)
    v, op = _random_hamiltonian((9, 9, 9), 1)
    _assert_matches_the_dense_oracle(op, lattice._dense_spectrum(op, "test"))
    calls.clear()
    built = []
    spectrum, assemble = lattice._spectrum, lattice.birman_schwinger

    def spied_spectrum(a, overwrite_a=False):
        built.append((a.ctypes.data, isinstance(_mapping(a), mmap.mmap), a.flags.f_contiguous))
        return spectrum(a, overwrite_a)

    monkeypatch.setattr(lattice, "_spectrum", spied_spectrum)
    monkeypatch.setattr(lattice, "birman_schwinger",
                        lambda V: built.append((k := assemble(V)).ctypes.data) or k)
    lam = k_spectrum(v)
    assert v.support().size == 729
    assert [name for name, _ in calls] == ["dsyevd"]
    k_buffer, (k_spectrum_buffer, *k_flags) = built
    assert k_flags == [True, True]
    assert [address for _, address in calls] == [k_buffer] == [k_spectrum_buffer]
    assert np.array_equal(lam, np.maximum(np.linalg.eigvalsh(assemble(v)), 0.0))


def test_only_owned_contiguous_float64_or_complex128_reach_the_routine(monkeypatch):
    routines = lattice._lapacke_routines()
    if routines is None:
        pytest.skip("no LAPACKE routines on this platform")
    buffers = []

    def spy(routine):
        def call(layout, jobz, uplo, n, a, lda, w):
            buffers.append(a)
            return routine(layout, jobz, uplo, n, a, lda, w)
        return call

    monkeypatch.setattr(lattice, "_TWO_STAGE_ORDER", 1)
    monkeypatch.setattr(lattice, "_lapacke_routines",
                        lambda: {name: spy(r) for name, r in routines.items()})
    # at order 729 the routine works in the very buffer that birman_schwinger
    # built K in
    v, op = _random_hamiltonian((9, 9, 9), 1)
    _assert_matches_the_dense_oracle(op, lattice._dense_spectrum(op, "test"))
    buffers.clear()
    built = []
    spectrum, assemble = lattice._spectrum, lattice.birman_schwinger
    with monkeypatch.context() as m:
        m.setattr(lattice, "_spectrum",
                  lambda a, overwrite_a=False: built.append(a.ctypes.data)
                  or spectrum(a, overwrite_a))
        m.setattr(lattice, "birman_schwinger",
                  lambda V: built.append((k := assemble(V)).ctypes.data) or k)
        k_spectrum(v)
        assert v.support().size == 729 and buffers == built[:1] == built[1:]
    sym, herm = _hermitian(12, np.float64), _hermitian(12, np.complex128)
    spaced = np.zeros((24, 24))
    spaced[::2, ::2] = sym
    frozen = sym.copy()
    frozen.flags.writeable = False
    # (array, overwrite_a, whether the routine may work in the array itself)
    cases = [
        (np.asfortranarray(sym), True, True),
        (np.ascontiguousarray(herm), True, True),  # read as its conjugate
        (np.asfortranarray(sym), False, False),
        (sym.astype(np.float32), True, False),
        (np.round(sym).astype(np.int64), True, False),
        (herm.astype(np.complex64), True, False),
        (spaced[::2, ::2], True, False),
        (frozen, True, False),
    ]
    for a, overwrite_a, in_place in cases:
        before = a.copy()
        buffers.clear()
        w = lattice._spectrum(a, overwrite_a)
        assert (buffers == [a.ctypes.data]) == in_place
        assert len(buffers) == 1
        want = np.linalg.eigvalsh(before.astype(np.result_type(before, np.float64)))
        assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))
        if not in_place:
            assert np.array_equal(a, before)


def test_k_values_leaves_the_callers_array_unchanged(monkeypatch):
    monkeypatch.setattr(lattice, "_TWO_STAGE_ORDER", 1)
    grid = GridSpec(d=2, points_per_axis=(5, 5), h=0.5)
    v = generate_potential(11, grid, 2, "random-psd-field", amplitude=40.0)
    k = birman_schwinger(v)
    before = k.copy()
    assert np.array_equal(lattice._k_values(k), k_spectrum(v))
    assert np.array_equal(k, before)


def test_a_blas_without_a_thread_setter_keeps_the_package_on_one_cpu(monkeypatch):
    # as where numpy's BLAS is MKL, Accelerate or another wheel layout: the
    # library exports no scipy_openblas_set_num_threads, so the lab cannot
    # set it to one thread, and the report says so
    from clrlab.harness.reports import _versions

    monkeypatch.setattr(config, "_OPENBLAS", {})
    monkeypatch.setitem(config._WHEEL_OPENBLAS, "numpy", ("libscipy_openblas64_-*.so", "_absent"))
    monkeypatch.setattr(config, "_usable_cpus", lambda: 4)
    assert config.wheel_openblas("numpy") is None
    assert config.parallel_cpus() == 1
    assert _versions()["blas_threads"] == {"numpy": "not set by clrlab"}


def test_h_and_k_spectra_charges_the_budget_for_h(monkeypatch):
    v = scalar_potential(grid1d(9), np.ones(9))
    op = hamiltonian(v)
    monkeypatch.setenv("CLRLAB_DENSE_BUDGET", "8")
    with pytest.raises(BudgetError, match="Hamiltonian spectrum.*CLRLAB_DENSE_BUDGET"):
        h_and_k_spectra(op, v)


def test_bs_equivalence_charges_the_budget_before_densifying(monkeypatch):
    def densified(*args, **kwargs):
        raise AssertionError("densified an operator over the budget")

    monkeypatch.setattr(DiscreteOperator, "toarray", densified)
    monkeypatch.setattr(sp.csr_matrix, "toarray", densified)
    monkeypatch.setenv("CLRLAB_DENSE_BUDGET", "8")  # the pinned order is 9
    cfg = ExperimentConfig(experiment="bs-equivalence", trials=1, grid_points=(9,), N_max=1)
    with pytest.raises(BudgetError, match="CLRLAB_DENSE_BUDGET"):
        run_experiment(cfg)
