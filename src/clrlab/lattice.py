"""Finite-difference realizations of -Delta - V with matrix potentials.

Grids are 1-D to 3-D boxes with Dirichlet or periodic boundary; the
Laplacian is the standard 2d+1-point stencil acting as the identity on
the internal C^N fiber.  It and H = L - V are assembled in one pass as a
canonical CSR matrix straight from the box stencil (_stencil_matrix), and
every operator's Hermiticity is checked by looking up each stored entry's
transpose partner (_hermitian_defect).  On top of them sit the counting
and comparison routines: negative-eigenvalue counts via symmetric-indefinite
inertia of the block-tridiagonal Schur complements (the dense H is never
formed), the Birman-Schwinger operator K = V^{1/2} L^{-1} V^{1/2} with its
spectrum and counting bound, heat-kernel and Trotter-product traces, the
resolvent trace, and Riemann-sum right-hand sides of the counting and
Riesz-mean bounds.

Counting statements at fixed grid size are exact finite-dimensional
theorems and are tested as hard gates; comparisons that stand in for
continuum statements (the survey ratios) are monitoring data only.

Heat kernel sign note: the free kernel is (4 pi t)^{-d/2} exp(-|x-y|^2/(4t))
with a decaying Gaussian; a growing exponent would not be normalizable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .config import MAX_MATRIX_DIM, dense_budget
from .errors import BudgetError, NonHermitianError
from .matcore import (
    HERMITICITY_RTOL,
    apply_spectral,
    require_hermitian_stack,
    require_psd_spectrum,
)
from .transforms import classical_constant

SUPPORT_TOL = 1e-12
ZERO_BAND_RTOL = 1e-10
# Narrowest slab of the Schur inertia count: slabs thinner than this do not
# repay their per-slab solve, so small operators are factored whole.
_MIN_SLAB = 128


# ---------------------------------------------------------------------------
# Grid and potential containers.

_BOUNDARIES = ("dirichlet", "periodic")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular box grid in d = 1, 2, or 3 dimensions.

    Dirichlet grids hold the m interior points of a box of side
    (m+1) h per axis (walls at distance h outside the first and last
    site); periodic grids wrap m points around a circle of length m h.
    """

    d: int
    points_per_axis: tuple[int, ...]
    h: float
    boundary: str = "dirichlet"
    origin: tuple[float, ...] | None = None

    def __post_init__(self):
        d = int(self.d)
        if d not in (1, 2, 3):
            raise ValueError(f"spatial dimension must be 1, 2, or 3, got {d}")
        pts = tuple(int(m) for m in self.points_per_axis)
        if len(pts) != d or any(m < 1 for m in pts):
            raise ValueError(
                f"points_per_axis must list {d} positive integers, got {pts}"
            )
        h = float(self.h)
        if not h > 0.0:
            raise ValueError(f"grid spacing must be positive, got {h}")
        boundary = str(self.boundary).lower()
        if boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {boundary!r}")
        origin = self.origin
        if origin is None:
            origin = (0.0,) * d
        origin = tuple(float(c) for c in origin)
        if len(origin) != d:
            raise ValueError(f"origin must have {d} coordinates, got {origin}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "points_per_axis", pts)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "origin", origin)

    @property
    def nsites(self) -> int:
        return math.prod(self.points_per_axis)

    @property
    def extent(self) -> tuple[float, ...]:
        if self.boundary == "dirichlet":
            return tuple((m + 1) * self.h for m in self.points_per_axis)
        return tuple(m * self.h for m in self.points_per_axis)

    def site_coords(self) -> np.ndarray:
        """Coordinates of every site, shape (nsites, d), C-ordered."""
        axes = []
        for ax, m in enumerate(self.points_per_axis):
            idx = np.arange(m, dtype=float)
            if self.boundary == "dirichlet":
                idx += 1.0
            axes.append(self.origin[ax] + idx * self.h)
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)

    def index_tuples(self) -> list[tuple[int, ...]]:
        """Per-axis index tuple of every site in flat (C) order."""
        grids = np.meshgrid(
            *[np.arange(m) for m in self.points_per_axis], indexing="ij"
        )
        flat = np.stack([g.ravel() for g in grids], axis=-1)
        return [tuple(int(i) for i in row) for row in flat]


@dataclass(frozen=True)
class MatrixPotential:
    """Matrix-valued potential: one Hermitian N x N block per grid site."""

    grid: GridSpec
    N: int
    values: np.ndarray

    def __post_init__(self):
        n = int(self.N)
        if n < 1 or n > MAX_MATRIX_DIM:
            raise ValueError(f"fiber dimension must be in [1, {MAX_MATRIX_DIM}], got {n}")
        vals = np.asarray(self.values, dtype=complex)
        want = (self.grid.nsites, n, n)
        if vals.shape != want:
            raise ValueError(f"values must have shape {want}, got {vals.shape}")
        require_hermitian_stack(vals, "a potential site")
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.grid.nsites * self.N

    def eigenvalues_sites(self) -> np.ndarray:
        """Eigenvalues of every site block, shape (nsites, N), ascending."""
        return np.linalg.eigvalsh(self.values)

    def require_psd(self) -> np.ndarray:
        """Site eigenvalues (see eigenvalues_sites), rejecting a non-PSD site."""
        return require_psd_spectrum(self.eigenvalues_sites(), "a potential site")

    def moment(self, p: float) -> float:
        """h^d * sum_x tr[(V_+(x))^p], the Riemann-sum potential moment."""
        p = float(p)
        w = np.maximum(self.eigenvalues_sites(), 0.0)
        return float(self.grid.h**self.grid.d * np.sum(w**p))

    def positive_part(self) -> "MatrixPotential":
        """Sitewise spectral positive part."""
        clipped = np.array([apply_spectral(lambda x: np.maximum(x, 0.0), m)
                            for m in self.values])
        return MatrixPotential(grid=self.grid, N=self.N, values=clipped)

    def sqrt_sites(self) -> np.ndarray:
        """Sitewise PSD square root, shape (nsites, N, N).

        Eigenvalues in [-1e-12 * scale, 0] are clipped to 0 (rounding dust
        after a positive-part); anything more negative raises.
        """
        w, u = np.linalg.eigh(self.values)
        require_psd_spectrum(w, "a potential site", rtol=1e-12)
        root = np.sqrt(np.maximum(w, 0.0))
        return np.einsum("xij,xj,xkj->xik", u, root, u.conj())

    def support(self, tol: float = SUPPORT_TOL) -> np.ndarray:
        """Flat indices of sites with max entry magnitude above tol."""
        if self.values.size == 0:
            return np.empty(0, dtype=int)
        mags = np.max(np.abs(self.values), axis=(1, 2))
        return np.nonzero(mags > tol)[0]

    def _entries(self) -> np.ndarray:
        """values, as a real array when no site matrix has an imaginary part."""
        return self.values if np.any(self.values.imag) else self.values.real

    def block(self) -> sp.csr_matrix:
        """Block-diagonal operator with the site matrices on the diagonal.

        Real when no site matrix has an imaginary part.  Row (x, a) holds
        the N entries V(x)[a, :], so the CSR row pointer steps by N before
        exact zeros are dropped.
        """
        n = self.N
        cols = np.arange(self.dim).reshape(-1, 1, n)
        out = sp.csr_matrix(
            (self._entries().ravel(), np.broadcast_to(cols, self.values.shape).ravel(),
             np.arange(0, self.dim * n + 1, n)),
            shape=(self.dim, self.dim), copy=True,  # dropping zeros compacts in place
        )
        out.eliminate_zeros()
        return out


def _hermitian_defect(m: sp.csr_matrix) -> float:
    """max |(m - m^H)_ij| of a square CSR matrix, without forming m^H.

    On a canonical copy (duplicates summed, indices sorted, so the caller's
    matrix is untouched) the keys row * n + col are sorted, and each stored
    entry finds its transpose partner by binary search; an entry without a
    stored partner is its own defect.  Entries of m^H with no partner in m
    are the conjugates of such entries, so the maximum is the same.
    """
    m = m.copy()
    m.sum_duplicates()
    if m.nnz == 0:
        return 0.0
    n = m.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(m.indptr))
    cols = m.indices.astype(np.int64)
    keys = rows * n + cols
    want = cols * n + rows
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    partner = np.where(keys[pos] == want, m.data[pos], 0)
    return float(np.max(np.abs(m.data - np.conj(partner))))


@dataclass(frozen=True)
class DiscreteOperator:
    """Sparse Hermitian operator on the nsites * fiber dimensional space."""

    matrix: sp.spmatrix
    nsites: int
    fiber: int = 1
    _scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix)
        if np.iscomplexobj(m) and not np.any(m.data.imag):
            m = m.real  # real LAPACK paths are several times faster
        if m.shape[0] != m.shape[1]:
            raise NonHermitianError(f"operator must be square, got {m.shape}")
        if m.shape[0] != self.nsites * self.fiber:
            raise ValueError(
                f"dimension {m.shape[0]} does not match nsites * fiber = "
                f"{self.nsites * self.fiber}"
            )
        worst = _hermitian_defect(m)
        scale = 1.0 + (float(np.max(np.abs(m.data))) if m.nnz else 0.0)
        if worst > HERMITICITY_RTOL * scale:
            raise NonHermitianError(f"operator is not Hermitian: defect {worst:.3e}")
        object.__setattr__(self, "matrix", m)
        norm = 0.0 if m.nnz == 0 else float(np.max(np.abs(m).sum(axis=1)))
        object.__setattr__(self, "_scale", norm)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def scale(self) -> float:
        """Infinity norm (max absolute row sum), the tolerance yardstick."""
        return self._scale


def _check_dense(dim: int, what: str) -> None:
    cap = dense_budget()
    if dim > cap:
        raise BudgetError(
            f"{what} needs a dense solve of order {dim}, over the budget {cap} "
            f"(raise CLRLAB_DENSE_BUDGET to override)"
        )


# ---------------------------------------------------------------------------
# Laplacians.

def _stencil_matrix(grid: GridSpec, blocks: np.ndarray) -> sp.csr_matrix:
    """Canonical CSR of L kron I_N plus the block diagonal of blocks (nsites, N, N).

    Assembled in one pass from the 2d+1-point stencil.  Along each axis the
    sites i and i+1 couple with -1/h^2 (periodic axes also wrap m-1 to 0;
    with m = 2 the two couplings fall on one pair, -2/h^2), and every axis
    adds 2/h^2 to the site diagonal (a periodic m = 1 axis adds 0, its
    stencil cancelling on the one site).  Diagonal blocks are
    diag * I_N + blocks, so the entries and the dropped exact zeros match
    the sparse sum of the Kronecker-sum Laplacian and the block diagonal.
    """
    pts, h = grid.points_per_axis, grid.h
    periodic = grid.boundary == "periodic"
    n = blocks.shape[1]
    dim = grid.nsites * n
    sites = np.arange(grid.nsites)
    diag = 0.0
    lo, hi, coupling = [], [], []
    for ax, m in enumerate(pts):
        if not (periodic and m == 1):
            diag += 2.0 / h**2
        pairs = m if periodic and m >= 3 else m - 1  # i <-> i+1 (mod m)
        line = sites.reshape(math.prod(pts[:ax]), m, -1)
        lo.append(line[:, :pairs].ravel())
        hi.append(line[:, np.arange(1, pairs + 1) % m].ravel())
        value = (-2.0 if periodic and m == 2 else -1.0) / h**2
        coupling.append(np.full(lo[-1].size, value))
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


def build_laplacian(grid: GridSpec, fiber: int = 1) -> DiscreteOperator:
    """Stencil Laplacian on the grid, identity on the C^fiber component.

    Dirichlet boundary makes it positive definite with per-axis smallest
    eigenvalue 4/h^2 sin^2(pi / (2(m+1))); periodic boundary has the
    constant vector in its kernel.
    """
    fiber = int(fiber)
    if fiber < 1:
        raise ValueError(f"fiber dimension must be positive, got {fiber}")
    matrix = _stencil_matrix(grid, np.zeros((grid.nsites, fiber, fiber)))
    return DiscreteOperator(matrix=matrix, nsites=grid.nsites, fiber=fiber)


def _axis_modes(m: int, h: float, boundary: str) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs (lam, U) of the 1-D stencil Laplacian on m sites.

    lam_j = (4/h^2) sin^2(theta_j / 2), with theta_j = pi j / (m+1) and the
    DST-I basis U_ij = sqrt(2/(m+1)) sin(i theta_j) (Dirichlet), or
    theta_k = 2 pi k / m and the Fourier basis U_jk = e^{i j theta_k} / sqrt(m)
    (periodic).
    """
    i = np.arange(m)
    if boundary == "dirichlet":
        theta = np.pi * (i + 1) / (m + 1)
        u = math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(i + 1, theta))
    else:
        theta = 2.0 * np.pi * i / m
        u = np.exp(1j * np.outer(i, theta)) / math.sqrt(m)
    return 4.0 / h**2 * np.sin(theta / 2.0) ** 2, u


def _laplacian_function(grid: GridSpec, f, cols: np.ndarray) -> np.ndarray:
    """Columns cols of f(L), L the spatial (fiber-1) Laplacian; shape (nsites, len(cols)).

    L is the Kronecker sum of the per-axis stencils, so f(L) = U f(Lambda) U^H
    with U the tensor product of the axis bases: transform the unit columns
    along every axis with U^H, scale by f of the summed axis eigenvalues,
    transform back.  Costs O(nsites * sum(m) * len(cols)).
    """
    pts = grid.points_per_axis
    modes = [_axis_modes(m, grid.h, grid.boundary) for m in pts]
    lam = sum(np.ix_(*(w for w, _ in modes)))  # broadcast Kronecker sum
    x = np.zeros((grid.nsites, len(cols)))
    x[cols, np.arange(len(cols))] = 1.0
    x = x.reshape(*pts, len(cols))
    for ax, (_, u) in enumerate(modes):
        x = np.moveaxis(np.tensordot(u.conj().T, x, axes=(1, ax)), 0, ax)
    x = x * f(lam)[..., np.newaxis]
    for ax, (_, u) in enumerate(modes):
        x = np.moveaxis(np.tensordot(u, x, axes=(1, ax)), 0, ax)
    return x.reshape(grid.nsites, len(cols)).real


def hamiltonian(grid: GridSpec, V: MatrixPotential, sign: float = -1.0) -> DiscreteOperator:
    """L + sign * V as a sparse operator (sign = -1 gives -Delta - V)."""
    if V.grid != grid:
        raise ValueError("potential was generated on a different grid")
    return DiscreteOperator(
        matrix=_stencil_matrix(grid, float(sign) * V._entries()),
        nsites=grid.nsites,
        fiber=V.N,
    )


# ---------------------------------------------------------------------------
# Counting.

def _slab_bounds(matrix: sp.csr_matrix) -> np.ndarray:
    """Row offsets of the slabs of the Schur recursion, from 0 to the order.

    Slabs are runs of consecutive rows, each at least as wide as the
    bandwidth (so the matrix is block tridiagonal over them; in C order a
    grid operator gets one axis-0 slab per block) and at least _MIN_SLAB
    wide (so a small operator is a single slab).
    """
    n = matrix.shape[0]
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    offsets = np.abs(matrix.indices - rows)[matrix.data != 0]  # stored zeros: no coupling
    bandwidth = int(offsets.max()) if offsets.size else 0
    slabs = max(n // max(bandwidth, _MIN_SLAB), 1)
    return np.arange(slabs + 1) * n // slabs


def _pivot_negative_count(ldu: np.ndarray, ipiv: np.ndarray) -> int:
    """Negative eigenvalues of D in a lower sytrf/hetrf factor LDL^H.

    D has 1x1 blocks and 2x2 blocks; LAPACK marks a 2x2 block on rows
    k, k+1 by negative ipiv[k] and ipiv[k+1], so the negative entries
    pair up in order.
    """
    d = ldu.diagonal().real
    two = ipiv < 0
    first = np.flatnonzero(two)[::2]
    a, c = d[first], d[first + 1]
    half_tr = 0.5 * (a + c)
    disc = np.hypot(0.5 * (a - c), np.abs(ldu[first + 1, first]))
    return int(np.sum(d[~two] < 0.0) + np.sum(half_tr - disc < 0.0)
               + np.sum(half_tr + disc < 0.0))


def _schur_negative_count(matrix: sp.csr_matrix, bounds: np.ndarray, shift: float) -> int:
    """Negative eigenvalues of matrix + shift * I by block LDL^H over slabs.

    With diagonal blocks A_i and couplings C_i = matrix[slab i, slab i+1],
    the Schur complements S_i = A_i + shift I - C_{i-1}^H S_{i-1}^{-1} C_{i-1}
    are congruent to the whole matrix block by block, so by Sylvester's law
    of inertia the count is the sum of their negative counts.  Each S_i is
    factored once by Bunch-Kaufman (sytrf / hetrf): D gives its count and
    the same factors solve for the next coupling.  Raises LinAlgError when
    a Schur block that must be solved against is exactly singular.
    """
    if not np.all(np.isfinite(matrix.data)):
        raise ValueError("operator has non-finite entries")
    if np.iscomplexobj(matrix):
        names = ("hetrf", "hetrs", "hetrf_lwork")
    else:
        names = ("sytrf", "sytrs", "sytrf_lwork")
    trf, trs, trf_lwork = scipy.linalg.get_lapack_funcs(names, (matrix.data,))
    count = 0
    # C_{i-1}^H S_{i-1}^{-1} C_{i-1} on the columns `cols` that C_{i-1} reaches
    cols = schur = None
    for lo, hi, nxt in zip(bounds[:-1], bounds[1:], np.append(bounds[2:], bounds[-1])):
        slab = matrix[lo:hi, lo:nxt].toarray()
        s = slab[:, : hi - lo]
        s[np.diag_indices_from(s)] += shift
        if schur is not None:
            s[np.ix_(cols, cols)] -= schur
            s = 0.5 * (s + s.conj().T)
        lwork = int(trf_lwork(hi - lo, lower=1)[0].real)
        ldu, ipiv, info = trf(s, lower=1, lwork=max(lwork, 1))
        count += _pivot_negative_count(ldu, ipiv)
        if nxt > hi:
            if info > 0:
                raise np.linalg.LinAlgError(f"singular Schur block on rows {lo}:{hi}")
            coupling = slab[:, hi - lo :]
            cols = np.flatnonzero(coupling.any(axis=0))
            coupling = coupling[:, cols]
            x, _ = trs(ldu, ipiv, coupling, lower=1)
            schur = coupling.conj().T @ x
    return count


def count_negative(op: DiscreteOperator, method: str = "auto") -> int:
    """Number of eigenvalues below -zero_tol, zero_tol = 1e-10 * |H|_inf.

    method "inertia" counts by a block-tridiagonal Schur recursion over the
    sparse operator (see _schur_negative_count), applied to the band-shifted
    H + zero_tol * I and never forming the dense H; "dense" uses a full
    eigendecomposition and applies the zero band directly; "auto" tries
    inertia and falls back to dense only when a Schur block is exactly
    singular (LinAlgError); any other error propagates.  The two paths
    agree whenever no eigenvalue sits essentially on the band edge
    -zero_tol; instances that violate that are considered degenerate and
    should be re-drawn by the caller.  The dense budget is charged with
    the largest slab factored, or with the full order for the dense path.
    """
    if method not in ("auto", "inertia", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if op.dim == 0:
        return 0
    zero_tol = ZERO_BAND_RTOL * op.scale()
    if method != "dense":
        bounds = _slab_bounds(op.matrix)
        _check_dense(int(np.max(np.diff(bounds))), "negative-eigenvalue counting")
        try:
            # shift the spectrum up by the band width so the strict lambda < 0
            # inertia count realizes the same lambda < -zero_tol rule as the
            # dense path (exact kernels land at +zero_tol, not at rounding dust)
            return _schur_negative_count(op.matrix, bounds, zero_tol)
        except np.linalg.LinAlgError:
            if method == "inertia":
                raise
    _check_dense(op.dim, "negative-eigenvalue counting")
    w = np.linalg.eigvalsh(op.toarray())
    return int(np.sum(w < -zero_tol))


def riesz_mean(op: DiscreteOperator, gamma: float) -> float:
    """sum |e|^gamma over eigenvalues e < -zero_tol of the operator."""
    gamma = float(gamma)
    if not gamma > 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    _check_dense(op.dim, "Riesz mean")
    if op.dim == 0:
        return 0.0
    zero_tol = ZERO_BAND_RTOL * op.scale()
    w = np.linalg.eigvalsh(op.toarray())
    neg = w[w < -zero_tol]
    return float(np.sum((-neg) ** gamma))


# ---------------------------------------------------------------------------
# Birman-Schwinger.

def birman_schwinger(grid: GridSpec, V: MatrixPotential) -> np.ndarray:
    """K = V^{1/2} L^{-1} V^{1/2} restricted to the support of V, a dense array.

    Requires a Dirichlet grid (the periodic Laplacian is singular) and a
    sitewise-PSD potential.  The Green's function G = L^{-1} comes from the
    per-axis eigenpairs on the support columns only, and
    K[(x,a),(y,b)] = G(x,y) (V(x)^{1/2} V(y)^{1/2})_ab, of order
    |support| * N and real when V is.  K is PSD; its eigenvalues above 1
    count the negative eigenvalues of L - V exactly.
    """
    if grid.boundary != "dirichlet":
        raise ValueError(
            "Birman-Schwinger needs an invertible Laplacian: use a Dirichlet "
            "grid (the periodic Laplacian has the constant kernel vector)"
        )
    if V.grid != grid:
        raise ValueError("potential was generated on a different grid")
    V.require_psd()
    _check_dense(V.dim, "Birman-Schwinger assembly")

    support = V.support()
    n = support.size * V.N
    green = _laplacian_function(grid, np.reciprocal, support)[support]
    roots = V.sqrt_sites()[support]
    if not np.any(V.values.imag):
        roots = roots.real  # real LAPACK paths are several times faster
    k = np.einsum("xy,xab,ybc->xayc", green, roots, roots).reshape(n, n)
    require_hermitian_stack(k, "Birman-Schwinger operator")
    return k


def k_spectrum(K: np.ndarray) -> np.ndarray:
    """Spectrum of a dense Hermitian PSD K, ascending and clipped at 0.

    K is the Birman-Schwinger operator or any matrix standing in for it, so
    it is checked again: square, within the dense budget, Hermitian, and
    passing the PSD rule, so the clip removes only rounding dust below 0.
    """
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise NonHermitianError(f"K must be square, got shape {K.shape}")
    _check_dense(K.shape[0], "Birman-Schwinger spectrum")
    require_hermitian_stack(K, "K")
    if K.shape[0] == 0:
        return np.zeros(0)
    return np.maximum(require_psd_spectrum(np.linalg.eigvalsh(K), "K"), 0.0)


def bs_bound(F, lam: np.ndarray) -> float:
    """Counting bound F(1)^{-1} sum_k F(lambda_k) over the spectrum lam of K.

    lam is the 1-D array k_spectrum(K), and F is evaluated once on all of
    it.  For F non-negative, non-decreasing on [0, inf) with F(1) > 0 this
    dominates the number of eigenvalues of K at or above 1, hence the
    number of negative eigenvalues of L - V.
    """
    lam = np.asarray(lam)
    if lam.ndim != 1:
        raise ValueError(f"lam must be the 1-D spectrum of K, got shape {lam.shape}")
    f1 = float(F(1.0))
    if not f1 > 0.0:
        raise ValueError(f"F(1) must be positive, got {f1}")
    vals = np.asarray(F(lam), dtype=float)
    if (vals.shape != lam.shape or not np.all(np.isfinite(vals))
            or np.any(vals < -1e-12 * (1.0 + np.max(np.abs(vals), initial=0.0)))):
        raise ValueError("F must be finite and non-negative on the spectrum of K")
    return float(np.sum(np.maximum(vals, 0.0)) / f1)


# ---------------------------------------------------------------------------
# Heat kernel, Trotter products, resolvents.

def heat_kernel_free(x, y, t: float, d: int) -> float:
    """Free heat kernel (4 pi t)^{-d/2} exp(-|x-y|^2 / (4t)), t > 0."""
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    dx = np.atleast_1d(np.asarray(x, dtype=float)) - np.atleast_1d(
        np.asarray(y, dtype=float)
    )
    r2 = float(np.sum(dx * dx))
    return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-r2 / (4.0 * t))


def _potential_exp_blocks(V: MatrixPotential, s: float) -> np.ndarray:
    """Sitewise exp(-s V(x)) as a stack of blocks."""
    w, u = np.linalg.eigh(V.values)
    return np.einsum("xij,xj,xkj->xik", u, np.exp(-s * w), u.conj())


def trotter_trace(grid: GridSpec, V: MatrixPotential, alpha: float, t: float, n: int) -> float:
    """tr of the Trotter sandwich V^{1/2} (e^{-tL/n} e^{-t alpha V/n})^n V^{1/2}.

    Both factors are exact matrix exponentials: the spatial one from the
    per-axis eigenpairs of L, the potential one sitewise.  Converges to the
    semigroup sandwich trace with O(1/n) error; the value is real because
    the trace lets V^{1/2} close the cycle.
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if V.grid != grid:
        raise ValueError("potential was generated on a different grid")
    V.require_psd()
    _check_dense(V.dim, "Trotter product")

    s = t / n
    heat = _laplacian_function(grid, lambda lam: np.exp(-s * lam),
                               np.arange(grid.nsites))
    # step[(x,i),(y,j)] = e^{-sL}(x,y) e^{-s alpha V(y)}_ij
    step = np.einsum("xy,yij->xiyj", heat, _potential_exp_blocks(V, s * alpha))
    power = np.linalg.matrix_power(step.reshape(V.dim, V.dim), n)
    power = power.reshape(grid.nsites, V.N, grid.nsites, V.N)
    return float(np.einsum("xij,xjxi->", V.values, power).real)


def semigroup_sandwich_trace(grid: GridSpec, V: MatrixPotential, alpha: float, t: float) -> float:
    """Exact tr[V^{1/2} e^{-t(L + alpha V)} V^{1/2}], the Trotter limit."""
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    V.require_psd()
    _check_dense(V.dim, "semigroup trace")
    h_op = hamiltonian(grid, V, sign=alpha)
    w, q = np.linalg.eigh(h_op.toarray())
    diag_v = np.einsum("ij,jk,ki->i", q.conj().T, V.block().toarray(), q).real
    return float(np.sum(diag_v * np.exp(-t * w)))


def resolvent_trace(grid: GridSpec, V: MatrixPotential, alpha: float) -> float:
    """tr[V^{1/2} (L + alpha V)^{-1} V^{1/2}] on a Dirichlet grid.

    Equals sum_k lambda_k / (1 + alpha lambda_k) over the spectrum of the
    Birman-Schwinger operator K, the resolvent identity that converts
    time integrals of Trotter traces into counting information.  By
    cyclicity it is tr[(L + alpha V)^{-1} V], one dense solve.
    """
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if grid.boundary != "dirichlet":
        raise ValueError("resolvent trace needs a Dirichlet (invertible) Laplacian")
    if V.grid != grid:
        raise ValueError("potential was generated on a different grid")
    V.require_psd()
    _check_dense(V.dim, "resolvent trace")

    h_dense = hamiltonian(grid, V, sign=alpha).toarray()
    try:
        x = np.linalg.solve(h_dense, V.block().toarray())
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"L + alpha V unexpectedly singular (alpha={alpha})"
        ) from exc
    return float(np.trace(x).real)


# ---------------------------------------------------------------------------
# Right-hand sides and heat-diagonal assembly.

def clr_rhs(V: MatrixPotential, R: float) -> float:
    """Counting-bound right side R * L^cl_{0,d} * h^d sum_x tr[(V_+(x))^{d/2}]."""
    R = float(R)
    if not (math.isfinite(R) and R >= 0.0):
        raise ValueError(f"excess factor must be finite and >= 0, got {R}")
    d = V.grid.d
    return R * classical_constant(0.0, d) * V.moment(d / 2.0)


def heat_diagonal_step(grid: GridSpec, V: MatrixPotential, f, t: float) -> float:
    """(4 pi t)^{-d/2} h^d sum_x tr f(t V(x)), the heat-diagonal majorant.

    Integrating this in dt/t reproduces, per positive eigenvalue v of the
    potential, the scaling identity v^{d/2} * corollary_constant(f, d).
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    if V.grid != grid:
        raise ValueError("potential was generated on a different grid")
    w = V.require_psd()
    vals = np.asarray(f(t * np.maximum(w, 0.0)), dtype=float)
    d = grid.d
    return float((4.0 * math.pi * t) ** (-d / 2.0) * grid.h**d * np.sum(vals))


# ---------------------------------------------------------------------------
# Potential file format.

def potential_to_json_dict(V: MatrixPotential) -> dict:
    """JSON form: grid header, fiber dimension, and the non-zero sites only."""
    idx = V.grid.index_tuples()
    sites = []
    for flat in V.support(tol=0.0):
        m = V.values[flat]
        entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
        sites.append({"index": list(idx[flat]), "matrix": entries})
    return {
        "grid": {
            "d": V.grid.d,
            "points": list(V.grid.points_per_axis),
            "h": V.grid.h,
            "boundary": V.grid.boundary,
        },
        "N": V.N,
        "sites": sites,
    }


def potential_from_json_dict(data: dict) -> MatrixPotential:
    g = data["grid"]
    grid = GridSpec(
        d=int(g["d"]),
        points_per_axis=tuple(int(m) for m in g["points"]),
        h=float(g["h"]),
        boundary=str(g["boundary"]),
    )
    n = int(data["N"])
    values = np.zeros((grid.nsites, n, n), dtype=complex)
    shape = grid.points_per_axis
    for site in data.get("sites", []):
        flat = int(np.ravel_multi_index(tuple(site["index"]), shape))
        entries = np.asarray(site["matrix"], dtype=float)
        if entries.shape != (n * n, 2):
            raise ValueError(
                f"site {site['index']}: need {n * n} [re, im] pairs, got "
                f"shape {entries.shape}"
            )
        values[flat] = (entries[:, 0] + 1j * entries[:, 1]).reshape(n, n)
    return MatrixPotential(grid=grid, N=n, values=values)


def save_potential(V: MatrixPotential, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(potential_to_json_dict(V), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_potential(path) -> MatrixPotential:
    with open(path, encoding="utf-8") as fh:
        return potential_from_json_dict(json.load(fh))


def potential_digest(V: MatrixPotential) -> str:
    """SHA-256 of the canonical JSON form; stable across runs and platforms."""
    payload = json.dumps(
        potential_to_json_dict(V), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
