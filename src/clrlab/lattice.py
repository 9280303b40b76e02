"""Finite-difference realizations of -Delta - V with matrix potentials.

Grids are 1-D to 3-D Dirichlet boxes; the Laplacian is the standard
2d+1-point stencil acting as the identity on the internal C^N fiber, and
its eigenbasis is the tensor product of per-axis DST-I bases.  It and
H = L - V are assembled in one pass as a canonical CSR matrix straight
from the box stencil (_stencil_matrix; L alone is H of a zero potential):
the grid fixes each row's sorted columns, so every row is written in
column order and nothing is sorted or kept between calls.  Every
operator's Hermiticity is checked by looking up each stored entry's
transpose partner (_hermitian_defect).  On top of them sit the counting
and comparison routines: negative-eigenvalue counts via symmetric-indefinite
inertia of the block-tridiagonal Schur complements (the one counting path:
each slab is factored once, the next Schur block comes from the inverse of
those factors, the dense H is never formed, and a singular Schur block
raises instead of falling back to a dense count), the Birman-Schwinger operator
K = V^{1/2} L^{-1} V^{1/2} with its spectrum and counting bound (one call of
F gives F(1) and every F(lambda_k), and a family of F, one row each, gives
one bound per row; K is its one n x n array, Fortran-ordered and scaled
in place by chunks of Green's-function columns), the spectra of H and K
taken side by side (h_and_k_spectra; every spectrum is numpy's below
order 256.  From it H's comes from its lower band by LAPACK's two-stage
band solver, with no n x n array formed (_band_spectrum), and K's from
LAPACK's dense drivers, one-stage and then two-stage, in K's own buffer,
which has its own private mapping, _spectrum and _operator_buffer),
heat-semigroup and Trotter-product traces, the resolvent trace, and
Riemann-sum right-hand sides of the counting and Riesz-mean bounds.

Routines on a potential take V alone and read its box from V.grid.

Counting statements at fixed grid size are exact finite-dimensional
theorems and are tested as hard gates; comparisons that stand in for
continuum statements (the survey ratios) are monitoring data only.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy

from .config import MAX_MATRIX_DIM, dense_budget, parallel_cpus, wheel_openblas
from .errors import BudgetError, NonHermitianError
from .matcore import (
    HERMITICITY_RTOL,
    require_hermitian_stack,
    require_psd_spectrum,
)
from .transforms import classical_constant

SUPPORT_TOL = 1e-12
ZERO_BAND_RTOL = 1e-10
# Narrowest slab of the Schur inertia count.  Each slab has a fixed cost (its
# dense copy, two LAPACK calls, the update's bookkeeping) that thinner slabs
# no longer repay, so small operators are factored whole; from 64 rows every
# plane of a 3-D box with m >= 8 is a slab of its own.
_MIN_SLAB = 64
# Order of H from which h_and_k_spectra takes H's and K's spectra on two
# threads (below it the thread costs more than the overlap saves), the order
# from which _dense_spectrum takes H's spectrum from its band, and the order
# from which _spectrum takes every dense spectrum in place.
_SIDE_BY_SIDE_ORDER = 256
# Real-equivalent order n * (2 if complex else 1) from which a dense spectrum
# is taken by LAPACK's two-stage reduction instead of the one-stage driver
# (_spectrum).  One-stage over two-stage time, both in place, one BLAS
# thread, random Hermitian matrices, two sweeps on an x86-64 host:
#   real       512 0.75 0.72    729 0.85 0.76    864 1.03 0.93   1024 1.06 0.94
#             1331 1.51 1.15   2048 1.25 1.34   2916 1.38 1.53
#   complex    256 0.88 0.90    343 0.99 0.93    400 1.04 1.05    450 1.09 1.08
#              511 1.15 1.29    686 1.25 1.28   1024 1.36 1.33   1458 1.67 1.41
# Real orders break even near 1024.  Complex ones from about 400 gain 4-15 %
# (511: 15-29 %), but the one-stage values are numpy's bit for bit and the
# two-stage ones are not, and no workload or default experiment draws a
# complex order in 400-511; so one constant in real-equivalent order.
_TWO_STAGE_ORDER = 1024
# Bytes of one chunk of Green's-function columns in birman_schwinger: its
# workspace beside K is a few such chunks, whatever the order of K.
_GREEN_CHUNK_BYTES = 1 << 18
# Bytes of the complex step matrices of one run of trotter_sandwich's batched
# trace: its workspace is a few such runs, whatever the number of times.
_TROTTER_BATCH_BYTES = 1 << 21


# ---------------------------------------------------------------------------
# Grid and potential containers.

@dataclass(frozen=True)
class GridSpec:
    """Rectangular box grid in d = 1, 2, or 3 dimensions.

    The grid holds the m interior points of a Dirichlet box of side
    (m+1) h per axis (walls at distance h outside the first and last
    site).  The box's lower corner is the origin.
    """

    d: int
    points_per_axis: tuple[int, ...]
    h: float

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
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "points_per_axis", pts)
        object.__setattr__(self, "h", h)

    @property
    def nsites(self) -> int:
        return math.prod(self.points_per_axis)

    @property
    def extent(self) -> tuple[float, ...]:
        return tuple((m + 1) * self.h for m in self.points_per_axis)

    def site_coords(self) -> np.ndarray:
        """Coordinates of every site, shape (nsites, d), C-ordered."""
        axes = [(np.arange(m, dtype=float) + 1.0) * self.h for m in self.points_per_axis]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)


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
        require_hermitian_stack(vals, "potential site")
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.grid.nsites * self.N

    @functools.cached_property
    def _site_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, u): eigenvalues, shape (nsites, N) and ascending, and eigenvectors
        of every site block, from one stacked eigh on first use; read-only."""
        w, u = np.linalg.eigh(self.values)
        w.flags.writeable = u.flags.writeable = False
        return w, u

    def eigenvalues_sites(self) -> np.ndarray:
        """Eigenvalues of every site block, shape (nsites, N), ascending; read-only."""
        return self._site_eigh[0]

    def require_psd(self) -> np.ndarray:
        """Site eigenvalues (see eigenvalues_sites), rejecting a non-PSD site."""
        return require_psd_spectrum(self.eigenvalues_sites(), "a potential site")

    def moment(self, p: float) -> float:
        """h^d * sum_x tr[(V_+(x))^p], the Riemann-sum potential moment."""
        p = float(p)
        w = np.maximum(self.eigenvalues_sites(), 0.0)
        return float(self.grid.h**self.grid.d * np.sum(w**p))

    def sqrt_sites(self) -> np.ndarray:
        """Sitewise PSD square root, shape (nsites, N, N).

        The site eigenpairs must pass the PSD rule (require_psd); the
        eigenvalues it allows below 0 are rounding dust and are clipped to 0.
        """
        root = np.sqrt(np.maximum(self.require_psd(), 0.0))
        u = self._site_eigh[1]
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


def _hermitian_defect(m: scipy.sparse.csr_matrix) -> float:
    """max |(m - m^H)_ij| of a square canonical CSR matrix, without forming m^H.

    m must be canonical (duplicates summed, indices sorted), as
    DiscreteOperator's copy is.  Then the keys row * n + col are sorted,
    and each stored entry finds its transpose partner by binary search; an
    entry without a stored partner is its own defect.  Entries of m^H with
    no partner in m are the conjugates of such entries, so the maximum is
    the same.
    """
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
    """Sparse Hermitian operator held as a CSR matrix.

    Its stored entries must be finite and pass the Hermitian rule; the
    infinity norm (scale) is summed from the same stored magnitudes.
    """

    matrix: scipy.sparse.spmatrix
    _scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # One canonical copy: summing duplicates in place would rewrite the
        # caller's arrays, and the inertia count reads stored entries one by one.
        m = scipy.sparse.csr_matrix(self.matrix, copy=True)
        m.sum_duplicates()
        if np.iscomplexobj(m) and not np.any(m.data.imag):
            m = m.real  # real LAPACK paths are several times faster
        if m.shape[0] != m.shape[1]:
            raise NonHermitianError(f"operator must be square, got {m.shape}")
        mags = np.abs(m.data)
        scale = 1.0 + (float(np.max(mags)) if m.nnz else 0.0)
        if not math.isfinite(scale):
            raise NonHermitianError("operator has a non-finite entry")
        worst = _hermitian_defect(m)
        if worst > HERMITICITY_RTOL * scale:
            raise NonHermitianError(f"operator is not Hermitian: defect {worst:.3e}")
        object.__setattr__(self, "matrix", m)
        # max row sum of |entries|: scipy's np.abs(m).sum(axis=1) is this same
        # reduceat over the non-empty rows, so the value is the same bit for bit
        filled = np.flatnonzero(np.diff(m.indptr))
        norm = float(np.max(np.add.reduceat(mags, m.indptr[filled]))) if m.nnz else 0.0
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


# LAPACKE's column-major layout code, and the argument types of
# LAPACKE_?syevd / ?heevd and their two-stage forms: (layout, jobz, uplo, n, a, lda, w).
_COL_MAJOR = 102
_EVD_ARGS = (ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int,
             ctypes.c_void_p, ctypes.c_int, ctypes.c_void_p)


@functools.cache
def _lapacke_routines() -> dict | None:
    """{name: LAPACKE routine} of dsyevd, zheevd and their _2stage forms, or None.

    The library is the OpenBLAS that Linux wheels of scipy ship in
    scipy.libs (LP64: 32-bit LAPACK integers, symbols prefixed scipy_), set
    to one thread (config.wheel_openblas).  They are looked up on the first
    call, never at import.  None where that library or any of the four
    routines is absent; then every order takes numpy.
    """
    lib = wheel_openblas("scipy")
    try:
        routines = {name: getattr(lib, "scipy_LAPACKE_" + name)
                    for name in ("dsyevd", "zheevd", "dsyevd_2stage", "zheevd_2stage")}
    except AttributeError:  # no such library (lib is None) or a routine missing
        return None
    for routine in routines.values():
        routine.restype = ctypes.c_int
        routine.argtypes = _EVD_ARGS
    return routines


def _in_place_routine(n: int, complex_: bool):
    """(name, routine) of the LAPACKE driver that takes an order-n spectrum in place, or None.

    The two-stage ?syevd_2stage / ?heevd_2stage from real-equivalent order
    n * (2 if complex else 1) = _TWO_STAGE_ORDER, the one-stage ?syevd /
    ?heevd from order _SIDE_BY_SIDE_ORDER below it.  None below both, or
    where scipy's OpenBLAS lacks them (_lapacke_routines): numpy's
    eigvalsh takes those spectra.
    """
    name = "zheevd" if complex_ else "dsyevd"
    if n * (2 if complex_ else 1) >= _TWO_STAGE_ORDER:
        name += "_2stage"
    elif n < _SIDE_BY_SIDE_ORDER:
        return None
    routines = _lapacke_routines()
    return None if routines is None else (name, routines[name])


def _mapped_zeros(shape: tuple, dtype) -> np.ndarray:
    """Zeroed Fortran-ordered array of shape and dtype in its own anonymous private mapping.

    Freeing the array unmaps the pages at once.  From the heap they could
    stay resident: once glibc frees a chunk of several MB it raises its mmap
    threshold, and the next array of that size is then carved from the
    heap.  The mapping is private, so a forked process writes its own copy.
    From 4 MiB it is advised to use huge pages, as numpy advises its own
    arrays.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    buf = mmap.mmap(-1, size * dtype.itemsize, flags=mmap.MAP_PRIVATE)
    if size * dtype.itemsize >= 1 << 22 and hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=dtype, count=size).reshape(shape, order="F")


def _operator_buffer(n: int, dtype) -> np.ndarray:
    """Zeroed Fortran-ordered n x n array of dtype for one dense operator:
    K, and H's dense copy where _dense_spectrum does not take H's band.

    Where _in_place_routine takes order n, the array has its own mapping
    (_mapped_zeros); below that order, or without the routines, it is
    np.zeros'.
    """
    if _in_place_routine(n, np.dtype(dtype).kind == "c") is None:
        return np.zeros((n, n), dtype=dtype, order="F")
    return _mapped_zeros((n, n), dtype)


def _spectrum(a: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian array a, which must be finite.

    It takes K's spectrum, and H's only where _dense_spectrum does not take
    H's band.  Where _in_place_routine names a LAPACKE driver (from order
    _SIDE_BY_SIDE_ORDER on, where scipy's OpenBLAS has them), it takes the
    spectrum: eigenvalues only, lower triangle, column-major.  The
    one-stage ?syevd / ?heevd are the drivers numpy's eigvalsh runs; with
    the numpy 2.4.6 and scipy 1.17.1 wheels (OpenBLAS 0.3.31 and 0.3.30)
    their values were numpy's bit for bit in every case tried, which rests
    on the two OpenBLAS builds, not on a guarantee.  The two-stage ones,
    from _TWO_STAGE_ORDER, agree with numpy's to rounding.
    Below that order, or without them, np.linalg.eigvalsh takes the
    spectrum, which never writes to a.

    The drivers overwrite their buffer.  With overwrite_a that is a itself
    when it is a writeable, aligned, contiguous float64 or complex128
    array; anything else reaches them as a float64 or complex128 copy in
    a's memory order, so overwrite_a never changes the values.  A C-ordered
    buffer read as column-major is a's transpose, the conjugate of a
    Hermitian array, so its spectrum is the same.  info != 0 raises
    LinAlgError.
    """
    n, complex_ = a.shape[0], np.iscomplexobj(a)
    found = _in_place_routine(n, complex_)
    if found is None:
        return np.linalg.eigvalsh(a)
    name, routine = found
    dtype = np.dtype(np.complex128 if complex_ else np.float64)
    flags = a.flags
    if not (overwrite_a and a.dtype == dtype and flags.writeable and flags.aligned
            and (flags.f_contiguous or flags.c_contiguous)):
        a = np.array(a, dtype=dtype, order="K")
    w = np.empty(n)
    info = routine(_COL_MAJOR, b"N", b"L", n, a.ctypes.data, n, w.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACKE {name} failed: info {info}")
    return w


@functools.cache
def _band_routines() -> dict | None:
    """{name: Fortran routine} of dsbevd_2stage and zhbevd_2stage, or None.

    From the library of _lapacke_routines, looked up on the first call,
    never at import.  These are the Fortran entry points, not LAPACKE's,
    whose work array would come from the heap: _band_spectrum queries the
    workspace and gives it its own mapping.  Every argument is passed by
    reference (jobz, uplo, n, kd, ab, ldab, w, z, ldz, work, lwork, then
    rwork and lrwork for the complex one, iwork, liwork, info), followed
    by gfortran's hidden lengths of the two strings.  None where that
    library or either routine is absent; then H's spectrum is taken from
    a dense copy.
    """
    lib = wheel_openblas("scipy")
    try:
        routines = {name: getattr(lib, f"scipy_{name}_")
                    for name in ("dsbevd_2stage", "zhbevd_2stage")}
    except AttributeError:  # no such library (lib is None) or a routine missing
        return None
    for name, routine in routines.items():
        references = 14 if name.startswith("z") else 12
        routine.restype = None
        routine.argtypes = ([ctypes.c_char_p] * 2 + [ctypes.c_void_p] * references
                            + [ctypes.c_size_t] * 2)
    return routines


def _band_spectrum(m: scipy.sparse.csr_matrix, routines: dict) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian canonical CSR matrix m, from its lower band.

    The bandwidth kd is the largest row - column of a stored entry (m1 m2 N
    for H on an m0 x m1 x m2 box).  The lower band is copied straight from
    the CSR arrays into LAPACK's (kd + 1) x n column-major band storage,
    ab[i - j, j] = m[i, j], and ?sbevd_2stage / ?hbevd_2stage (eigenvalues
    only) chase it down to a tridiagonal and take that one's spectrum, the
    second stage of the two-stage reduction that _spectrum runs on a dense
    array; no n x n array is formed.  The band and the work array (sized
    by a workspace query) each have their own mapping (_mapped_zeros).
    The values agree with a dense spectrum's to rounding.  info != 0
    raises LinAlgError.
    """
    n, complex_ = m.shape[0], np.iscomplexobj(m)
    name = "zhbevd_2stage" if complex_ else "dsbevd_2stage"
    routine, dtype = routines[name], np.dtype(np.complex128 if complex_ else np.float64)
    below = np.repeat(np.arange(n), np.diff(m.indptr)) - m.indices  # row - column
    lower = below >= 0
    kd = int(below.max(initial=0))
    ab = _mapped_zeros((kd + 1, n), dtype)
    ab[below[lower], m.indices[lower]] = m.data[lower]
    w, z = np.empty(n), np.empty(1, dtype)

    def ref(value):
        return ctypes.byref(ctypes.c_int(value))

    def run(work, lwork, rwork, lrwork, iwork, liwork) -> int:
        info = ctypes.c_int()
        real_work = (rwork.ctypes.data, ref(lrwork)) if complex_ else ()
        routine(b"N", b"L", ref(n), ref(kd), ab.ctypes.data, ref(kd + 1), w.ctypes.data,
                z.ctypes.data, ref(1), work.ctypes.data, ref(lwork), *real_work,
                iwork.ctypes.data, ref(liwork), ctypes.byref(info), 1, 1)
        return info.value

    # the query returns the workspace sizes in the first entries
    work, rwork, iwork = np.zeros(1, dtype), np.zeros(1), np.zeros(1, np.int32)
    info = run(work, -1, rwork, -1, iwork, -1)
    if info == 0:
        lwork, lrwork, liwork = int(work[0].real), int(rwork[0]), int(iwork[0])
        info = run(_mapped_zeros((lwork,), dtype), lwork, np.empty(max(lrwork, 1)), lrwork,
                   np.empty(liwork, np.int32), liwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} failed: info {info}")
    return w


def _dense_spectrum(op: DiscreteOperator, what: str) -> np.ndarray:
    """Ascending eigenvalues of op, all of them.

    Charges the dense budget with the order first, whichever path runs:
    charging the band path its own, smaller cost is left for later.  From
    order _SIDE_BY_SIDE_ORDER, where scipy's OpenBLAS has the band routines
    (_band_routines), the spectrum comes from op's lower band
    (_band_spectrum).  Below that order, or without them, _spectrum takes
    it from one Fortran-ordered dense copy (_operator_buffer), which it may
    overwrite, filled straight from the CSR arrays (canonical, so each
    entry is written once).
    """
    _check_dense(op.dim, what)
    m = op.matrix
    routines = _band_routines() if op.dim >= _SIDE_BY_SIDE_ORDER else None
    if routines is not None:
        return _band_spectrum(m, routines)
    a = _operator_buffer(op.dim, m.dtype)
    a[np.repeat(np.arange(op.dim), np.diff(m.indptr)), m.indices] = m.data
    return _spectrum(a, overwrite_a=True)


# ---------------------------------------------------------------------------
# Laplacians.

def _stencil_matrix(grid: GridSpec, blocks: np.ndarray) -> scipy.sparse.csr_matrix:
    """Canonical CSR of L kron I_N plus the block diagonal of blocks (nsites, N, N).

    Along each axis the sites i and i+1 couple with -1/h^2, and every axis
    adds 2/h^2 to the site diagonal.  Diagonal blocks are diag * I_N +
    blocks, so the entries and the dropped exact zeros match the sparse sum
    of the Kronecker-sum Laplacian and the block diagonal.

    Row (x, a) has 2d + N slots, written straight in ascending column
    order: the lower neighbours, axis 0 first (column offsets -stride * N),
    row a of site x's block, then the upper neighbours, last axis first.
    The strides of the axes with m >= 2 strictly decrease, and an axis with
    m = 1 has no neighbours, so its slots are always dropped.  One mask
    drops the neighbours outside the box and the exact zeros, and indptr
    counts the kept slots row by row.  The index arrays are in the int32
    type scipy picks (int64 past it), so the matrix takes them as they are.
    """
    pts, h = grid.points_per_axis, grid.h
    nsites, n = blocks.shape[:2]
    dim, d = nsites * n, len(pts)
    width = 2 * d + n
    index = np.int32 if dim * width <= np.iinfo(np.int32).max else np.int64
    strides = [n * math.prod(pts[ax + 1:]) for ax in range(d)]
    offsets = np.array([[-s for s in strides] + [b - a for b in range(n)] + strides[::-1]
                        for a in range(n)], dtype=index)
    cols = np.arange(dim, dtype=index).reshape(nsites, n, 1) + offsets
    data = np.full(cols.shape, -1.0 / h**2, dtype=np.result_type(blocks, 1.0))
    diag = 0.0
    for _ in pts:
        diag += 2.0 / h**2
    np.add(blocks, diag * np.eye(n), out=data[..., d:d + n])
    keep = data != 0
    box = keep.reshape(*pts, n, width)
    for ax in range(d):
        box[(slice(None),) * ax + (0, Ellipsis, ax)] = False
        box[(slice(None),) * ax + (-1, Ellipsis, width - 1 - ax)] = False
    indptr = np.zeros(dim + 1, dtype=index)
    indptr[1:] = np.cumsum(keep, dtype=index)[width - 1::width]
    return scipy.sparse.csr_matrix((data[keep], cols[keep], indptr), shape=(dim, dim))


def _axis_modes(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenpairs (lam, U) of the 1-D stencil Laplacian on m sites.

    lam_j = (4/h^2) sin^2(theta_j / 2), with theta_j = pi j / (m+1) and the
    real DST-I basis U_ij = sqrt(2/(m+1)) sin(i theta_j), i, j = 1..m, both
    fresh arrays.
    """
    i = np.arange(1, m + 1)
    theta = np.pi * i / (m + 1)
    lam = 4.0 / h**2 * np.sin(theta / 2.0) ** 2
    return lam, math.sqrt(2.0 / (m + 1)) * np.sin(np.outer(i, theta))


def _unit_columns_in_modes(grid: GridSpec, cols: np.ndarray):
    """(modes, lam, x): the axis modes, their summed eigenvalues, U^T e_c for c in cols.

    L is the Kronecker sum of the per-axis stencils, with eigenvalues lam
    (the broadcast sum of the axis eigenvalues, shape points_per_axis) and
    eigenbasis U, the tensor product of the axis bases.  x holds the
    columns cols of U^T, shape (*points_per_axis, len(cols)): the Kronecker
    product of the transposed axis bases, one axis factor per column,
    multiplied in axis order.  x is a fresh C-ordered array.
    """
    pts = grid.points_per_axis
    cols = np.asarray(cols, dtype=np.intp)
    modes = [_axis_modes(m, grid.h) for m in pts]
    lam = sum(np.ix_(*(w for w, _ in modes)))  # broadcast Kronecker sum
    factors = []
    for ax, ((_, u), c) in enumerate(zip(modes, np.unravel_index(cols, pts))):
        # U^T, not U: U is symmetric in exact arithmetic but not bit for bit
        shape = [1] * len(pts) + [cols.size]
        shape[ax] = pts[ax]
        factors.append(u.T[:, c].reshape(shape))
    x = np.ascontiguousarray(functools.reduce(np.multiply, factors))
    return modes, lam, x


def _from_modes(modes, x: np.ndarray) -> np.ndarray:
    """Transform x back along every axis with U; shape (nsites, ncols).

    Each axis is one matmul on reshaped views of x, (sites before the axis,
    the axis, sites after it and the columns), written into a second buffer
    of x's size; the two buffers swap roles from axis to axis, so no
    transposed copy is made and x is overwritten.
    """
    pts = x.shape[:-1]
    y = np.empty_like(x)
    for ax, (_, u) in enumerate(modes):
        shape = (math.prod(pts[:ax]), pts[ax], x.size // math.prod(pts[:ax + 1]))
        np.matmul(u, x.reshape(shape), out=y.reshape(shape))
        x, y = y, x
    return x.reshape(math.prod(pts), x.shape[-1])


def _laplacian_function(grid: GridSpec, f, cols: np.ndarray) -> np.ndarray:
    """Columns cols of f(L), L the spatial (fiber-1) Laplacian; shape (nsites, len(cols)).

    f(L) = U f(Lambda) U^T: take the unit columns in the eigenbasis, scale
    them by f of the summed axis eigenvalues, transform back.  Two arrays
    of the result's size are live.  Costs O(nsites * sum(m) * len(cols)).
    """
    modes, lam, x = _unit_columns_in_modes(grid, cols)
    x *= f(lam)[..., np.newaxis]
    return _from_modes(modes, x)


def hamiltonian(V: MatrixPotential, sign: float = -1.0) -> DiscreteOperator:
    """L + sign * V on V.grid as a sparse operator (sign = -1 gives -Delta - V).

    Every call inside the package passes V by keyword: bench/tracing.py's
    hamiltonian hook reads V by name or as positional argument 1.
    """
    return DiscreteOperator(_stencil_matrix(V.grid, float(sign) * V._entries()))


# ---------------------------------------------------------------------------
# Counting.

def _slab_bounds(matrix: scipy.sparse.csr_matrix) -> np.ndarray:
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


def _block(idx: np.ndarray):
    """Index of the square block on rows and columns idx: a pair of slices
    (a view) when idx is a contiguous ascending run, else an np.ix_ gather."""
    if np.all(np.diff(idx) == 1):
        run = slice(int(idx[0]), int(idx[-1]) + 1)
        return run, run
    return np.ix_(idx, idx)


def _schur_negative_count(
    matrix: scipy.sparse.csr_matrix, bounds: np.ndarray, shift: float
) -> int:
    """Negative eigenvalues of matrix + shift * I by block LDL^H over slabs.

    With diagonal blocks A_i and couplings C_i = matrix[slab i, slab i+1],
    the Schur complements S_i = A_i + shift I - C_{i-1}^H S_{i-1}^{-1} C_{i-1}
    are congruent to the whole matrix block by block, so by Sylvester's law
    of inertia the count is the sum of their negative counts.  Each S_i is
    factored once by Bunch-Kaufman (sytrf / hetrf), and D gives its count.
    Unless C_i is empty, the same factors then give S_i^{-1} (sytri /
    hetri), read only on the rows C_i touches: where every column of C_i
    holds one entry (a plane-aligned Dirichlet slab, C_i = -h^-2 I),
    C_i^H S_i^{-1} C_i is that block of S_i^{-1} gathered and scaled;
    otherwise it is one dense product on those rows.  The factorization,
    the inverse and the product (symm / hemm) read lower triangles only, so
    only those are formed.  Raises LinAlgError when a Schur block that has
    a successor is exactly singular.  The matrix is a DiscreteOperator's,
    so its entries are finite.
    """
    kind = "he" if np.iscomplexobj(matrix) else "sy"
    wheel_openblas("scipy")  # one BLAS thread before scipy's LAPACK first runs
    trf, tri, trf_lwork = scipy.linalg.get_lapack_funcs(
        (kind + "trf", kind + "tri", kind + "trf_lwork"), (matrix.data,))
    hemm = scipy.linalg.get_blas_funcs(kind + "mm", (matrix.data,))
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    count = 0
    # C_{i-1}^H S_{i-1}^{-1} C_{i-1} on the columns `cols` that C_{i-1} reaches
    # (only its lower triangle is read)
    cols = schur = None
    for lo, hi, nxt in zip(bounds[:-1], bounds[1:], np.append(bounds[2:], bounds[-1])):
        w = hi - lo
        # the slab's stored entries as (row, column, value), both from lo
        row = np.repeat(np.arange(w), np.diff(indptr[lo:hi + 1]))
        col = indices[indptr[lo]:indptr[hi]] - lo
        val = data[indptr[lo]:indptr[hi]]
        own = (col >= 0) & (col < w)
        s = np.zeros((w, w), dtype=data.dtype, order="F")
        s[row[own], col[own]] = val[own]
        s[np.diag_indices_from(s)] += shift
        if schur is not None:
            s[_block(cols)] -= schur
            schur = None
        lwork = int(trf_lwork(w, lower=1)[0].real)
        ldu, ipiv, info = trf(s, lower=1, lwork=max(lwork, 1), overwrite_a=1)
        count += _pivot_negative_count(ldu, ipiv)
        if nxt == hi:
            continue
        # C_i's entries by column; stored zeros couple nothing
        out = (col >= w) & (val != 0)
        by_col = np.argsort(col[out], kind="stable")
        r, c, v = row[out][by_col], col[out][by_col] - w, val[out][by_col]
        if info == 0 and c.size:
            inv, info = tri(ldu, ipiv, lower=1, overwrite_a=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular Schur block on rows {lo}:{hi}: an eigenvalue sits "
                f"on the band edge -zero_tol; re-draw the instance")
        if not c.size:
            continue
        cols = np.unique(c)
        if cols.size == c.size and np.all(np.diff(r) >= 0):
            # C e_j = v_j e_{r_j} with r ascending in j, so the lower
            # triangle of the gathered block is read from that of S^{-1};
            # its strict upper triangle holds stale entries that sytri
            # never writes, which each slab would scale by |v|^2 again
            schur = v.conj()[:, None] * np.tril(inv[_block(r)])
            schur *= v
        else:
            touched = np.unique(r)
            ct = np.zeros((touched.size, cols.size), dtype=data.dtype, order="F")
            ct[np.searchsorted(touched, r), np.searchsorted(cols, c)] = v
            schur = ct.conj().T @ hemm(1.0, inv[_block(touched)], ct, lower=1)
    return count


def count_negative(op: DiscreteOperator) -> int:
    """Number of eigenvalues below -zero_tol, zero_tol = 1e-10 * |H|_inf.

    Counts by a block-tridiagonal Schur recursion over the sparse operator
    (see _schur_negative_count), applied to the band-shifted
    H + zero_tol * I: the shift makes the strict lambda < 0 inertia count
    realize the lambda < -zero_tol rule, and exact kernels land at
    +zero_tol, not at rounding dust.  Each slab is factored once by
    Bunch-Kaufman, and the next Schur block comes from the inverse of those
    factors, with no solve against the coupling.  The dense H is never
    formed; the dense budget is charged with the largest slab factored.
    A Schur block that is exactly singular means an eigenvalue sits on the
    band edge -zero_tol; such an instance is degenerate, and LinAlgError
    tells the caller to re-draw it.
    """
    if op.dim == 0:
        return 0
    bounds = _slab_bounds(op.matrix)
    _check_dense(int(np.max(np.diff(bounds))), "negative-eigenvalue counting")
    return _schur_negative_count(op.matrix, bounds, ZERO_BAND_RTOL * op.scale())


def riesz_mean(op: DiscreteOperator, gamma):
    """sum |e|^gamma over eigenvalues e < -zero_tol of the operator.

    gamma is one exponent, for which a float is returned, or a 1-D sequence
    of them, for which the array of their sums is returned, all from one
    full spectrum (_dense_spectrum).  Each gamma must be positive and finite, or ValueError
    is raised.
    """
    gammas = np.asarray(gamma, dtype=float)
    if gammas.ndim > 1:
        raise ValueError(f"gamma must be a number or a 1-D sequence, got shape {gammas.shape}")
    exponents = [_positive_finite(g, "gamma") for g in gammas.ravel()]
    neg = np.zeros(0)
    if op.dim:
        w = _dense_spectrum(op, "Riesz mean")
        neg = w[w < -ZERO_BAND_RTOL * op.scale()]
    sums = [float(np.sum((-neg) ** g)) for g in exponents]
    return sums[0] if gammas.ndim == 0 else np.array(sums)


# ---------------------------------------------------------------------------
# Birman-Schwinger.

def birman_schwinger(V: MatrixPotential) -> np.ndarray:
    """K = V^{1/2} L^{-1} V^{1/2} on V.grid, restricted to the support of V, dense.

    Requires a sitewise-PSD potential, checked on the one site spectrum
    that the square roots come from (sqrt_sites).  K[(x,a),(y,b)] =
    G(x,y) (V(x)^{1/2} V(y)^{1/2})_ab, of order |support| * N and real when
    V is.  K is PSD; its eigenvalues above 1 count the negative eigenvalues
    of L - V exactly.  K is Hermitian by construction, and nothing checks
    it again; its spectrum is k_spectrum(V).

    K is the one n x n array made, Fortran-ordered, so a LAPACK driver
    reads the lower triangle that numpy's eigvalsh reads; where its
    spectrum is taken in place, K has its own mapping (_operator_buffer).
    The GEMM of the square roots fills it in C order, as numpy's matmul
    writes it (a GEMM writing K^T, whose memory is K in Fortran order,
    rounds some entries differently when N >= 2), and _transpose_in_place
    turns it over in the same buffer.  The Green's function G = L^{-1}
    then scales it a chunk of support columns at a time, each chunk
    contiguous.  Each chunk of G comes from _laplacian_function, gathered
    on the support rows unless the support is the whole box, so the
    workspace beside K is a few arrays of _GREEN_CHUNK_BYTES, whatever the
    order of K.
    """
    roots = V.sqrt_sites()
    _check_dense(V.dim, "Birman-Schwinger assembly")

    support = V.support()
    n = support.size * V.N
    roots = roots[support]
    if not np.any(V.values.imag):
        roots = roots.real  # real LAPACK paths are several times faster
    # one GEMM: k[(x,a),(y,c)] = (V(x)^{1/2} V(y)^{1/2})_ac, then scaled by G(x,y)
    k = _operator_buffer(n, roots.dtype)
    np.matmul(roots.reshape(n, V.N), roots.transpose(1, 0, 2).reshape(V.N, n), out=k.T)
    _transpose_in_place(k.T)
    cols = k.T.reshape(support.size, V.N, n)  # [y, c, (x, a)]
    whole = support.size == V.grid.nsites
    step = max(1, _GREEN_CHUNK_BYTES // (8 * V.grid.nsites))
    for lo in range(0, support.size, step):
        green = _laplacian_function(V.grid, np.reciprocal, support[lo:lo + step])
        if not whole:
            green = green[support]
        # G(x, y) repeated over a, so each column's run of the chunk is scaled in one pass
        cols[lo:lo + step] *= np.repeat(green.T, V.N, axis=1)[:, None, :]
    return k


def _transpose_in_place(a: np.ndarray) -> None:
    """Overwrite the square array a with its transpose, in a's own buffer.

    Each tile of side 64 above the diagonal swaps with its mirror tile
    through one tile-sized copy; each diagonal tile is turned over alone.
    """
    n, tile = a.shape[0], 64
    for lo in range(0, n, tile):
        hi = lo + tile
        diag = a[lo:hi, lo:hi]
        diag[...] = diag.T.copy()
        for right in range(hi, n, tile):
            upper, lower = a[lo:hi, right:right + tile], a[right:right + tile, lo:hi]
            swap = upper.copy()
            upper[...] = lower.T
            lower[...] = swap.T


def _k_values(K: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Spectrum of K under the PSD rule, ascending and clipped at 0.

    K is left as it is unless overwrite_a hands it to _spectrum as its
    work buffer.
    """
    if K.shape[0] == 0:
        return np.zeros(0)
    return np.maximum(require_psd_spectrum(_spectrum(K, overwrite_a), "K"), 0.0)


def k_spectrum(V: MatrixPotential) -> np.ndarray:
    """Spectrum of K = birman_schwinger(V), ascending and clipped at 0.

    K is Hermitian by construction, so only its eigenvalues are checked:
    they must pass the PSD rule, and the clip removes only rounding dust
    below 0.
    """
    return _k_values(birman_schwinger(V), overwrite_a=True)


def h_and_k_spectra(H: DiscreteOperator, V: MatrixPotential) -> tuple[np.ndarray, np.ndarray]:
    """(full spectrum of H, k_spectrum(V)) for H = hamiltonian(V), side by side.

    H's spectrum is _dense_spectrum's (from its band from order
    _SIDE_BY_SIDE_ORDER), and its dense-budget charge comes first.  When
    H's order is at least _SIDE_BY_SIDE_ORDER and parallel_cpus() is at
    least 2 (two usable CPUs, each BLAS on one thread), H's spectrum is
    taken on a worker thread while this thread assembles K and takes its
    spectrum; numpy and ctypes both release the GIL inside LAPACK.
    Otherwise H's spectrum is taken first, then K's.  The values are the
    same either way.
    """
    if H.dim < _SIDE_BY_SIDE_ORDER or parallel_cpus() < 2:
        return _dense_spectrum(H, "Hamiltonian spectrum"), k_spectrum(V)
    _check_dense(H.dim, "Hamiltonian spectrum")
    with ThreadPoolExecutor(1) as pool:
        h_values = pool.submit(_dense_spectrum, H, "Hamiltonian spectrum")
        k_values = k_spectrum(V)
        return h_values.result(), k_values


def bs_bound(F, lam: np.ndarray):
    """Counting bound F(1)^{-1} sum_k F(lambda_k) over the spectrum lam of K.

    lam is the 1-D array k_spectrum(V).  F is called once, on lam with 1.0
    appended, so F(1) and every F(lambda_k) come from one evaluation.  For F
    non-negative, non-decreasing on [0, inf) with F(1) > 0 the bound
    dominates the number of eigenvalues of K at or above 1, hence the
    number of negative eigenvalues of L - V.

    F may return one row per member of a family (f_a_transform with a
    column of a values, say), shape (r, lam.size + 1); the bound is then an
    array of r bounds, and F(1) > 0 and finite, non-negative values are
    required of each row.  A 1-D return is the one-row case and gives a
    float.
    """
    lam = np.asarray(lam)
    if lam.ndim != 1:
        raise ValueError(f"lam must be the 1-D spectrum of K, got shape {lam.shape}")
    vals = np.asarray(F(np.append(lam, 1.0)), dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[-1] != lam.size + 1:
        raise ValueError(f"F must return one value per eigenvalue and F(1), got shape "
                         f"{vals.shape} for {lam.size} eigenvalues")
    f1, vals = vals[..., -1], vals[..., :-1]
    if not (f1 > 0.0).all():
        raise ValueError(f"F(1) must be positive, got {f1[~(f1 > 0.0)][0]}")
    floor = -1e-12 * (1.0 + np.max(np.abs(vals), axis=-1, keepdims=True, initial=0.0))
    if not (np.isfinite(vals).all() and (vals >= floor).all()):
        raise ValueError("F must be finite and non-negative on the spectrum of K")
    bound = np.sum(np.maximum(vals, 0.0), axis=-1) / f1
    return float(bound) if bound.ndim == 0 else bound


# ---------------------------------------------------------------------------
# Trotter products, semigroup and resolvent traces.

def _positive_finite(x, what: str) -> float:
    """x as a float, which must be positive and finite."""
    x = float(x)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"{what} must be positive and finite, got {x}")
    return x


def trotter_sandwich(V: MatrixPotential, alpha: float):
    """trace(t, n) = tr of the Trotter sandwich V^{1/2} (e^{-tL/n} e^{-t alpha V/n})^n V^{1/2}.

    Both factors are exact matrix exponentials: the spatial one from the
    per-axis eigenpairs of L on V.grid, the potential one sitewise.
    Converges to the semigroup sandwich trace with O(1/n) error; the value
    is real because the trace lets V^{1/2} close the cycle.

    Everything that does not depend on t or n is done here, once: the
    checks (alpha positive and finite, V sitewise PSD, the dense budget)
    and the axis modes with the unit columns transformed into them; the
    site eigenpairs are V's own.  The returned trace(t, n) does the rest,
    so one sandwich serves a whole t-quadrature.

    t is a positive time, for which trace returns a float, or a 1-D array
    of them, for which it returns the array of traces.  An array is one
    batch: the heat factors of all its times from one pass through the axis
    modes, their site exponentials from one einsum and their n-th powers
    from one stacked matrix_power, in runs of at most _TROTTER_BATCH_BYTES
    of step matrices.  A scalar is a batch of one, and a time's trace has
    the same bits in any batch.
    """
    alpha = _positive_finite(alpha, "alpha")
    w, u = V.require_psd(), V._site_eigh[1]
    _check_dense(V.dim, "Trotter product")
    grid = V.grid
    modes, lam, unit = _unit_columns_in_modes(grid, np.arange(grid.nsites))
    run = max(1, _TROTTER_BATCH_BYTES // (16 * V.dim**2))

    def batch(s: np.ndarray, n: int) -> np.ndarray:
        # x[..., b, y] = e^{-s_b lam} (U^T e_y): every time's columns side by side
        x = unit[..., np.newaxis, :] * np.exp(np.multiply.outer(lam, -s))[..., np.newaxis]
        heat = _from_modes(modes, x.reshape(*lam.shape, -1))
        heat = heat.reshape(grid.nsites, s.size, grid.nsites)
        pot = np.einsum("xij,bxj,xkj->bxik", u,
                        np.exp(np.multiply.outer(-(s * alpha), w)), u.conj())
        # step[b,(x,i),(y,j)] = e^{-s_b L}(x,y) e^{-s_b alpha V(y)}_ij
        step = np.einsum("xby,byij->bxiyj", heat, pot)
        power = np.linalg.matrix_power(step.reshape(s.size, V.dim, V.dim), n)
        power = power.reshape(s.size, grid.nsites, V.N, grid.nsites, V.N)
        # the scalar trace's own reduction, time by time: a stacked einsum sums
        # in another order, and a time's trace should not depend on its batch
        return np.array([np.einsum("xij,xjxi->", V.values, p).real for p in power])

    def trace(t, n: int):
        if np.ndim(t) == 0:
            s = np.array([_positive_finite(t, "time")])
        else:
            s = np.array(t, dtype=float)
            if s.ndim != 1 or s.size == 0 or not np.all((s > 0.0) & np.isfinite(s)):
                raise ValueError("times must be a non-empty 1-D array of positive, "
                                 "finite values")
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        s /= n
        out = np.concatenate([batch(s[k:k + run], n) for k in range(0, s.size, run)])
        return float(out[0]) if np.ndim(t) == 0 else out

    return trace


def _sandwich_spectrum(V: MatrixPotential, alpha: float, what: str):
    """(w, d) of L + alpha V on V.grid: its eigenvalues w and the diagonal
    d_k = q_k^H V q_k of V in its eigenbasis, from one dense eigh.

    d_k is summed site by site, sum_x q_k(x)^H V(x) q_k(x), so the block
    diagonal V is never formed.  V must be sitewise PSD, alpha positive and
    finite.
    """
    alpha = _positive_finite(alpha, "alpha")
    V.require_psd()
    _check_dense(V.dim, what)
    w, q = np.linalg.eigh(hamiltonian(V=V, sign=alpha).toarray())
    q = q.reshape(V.grid.nsites, V.N, V.dim)  # q[x, a, k] = q_k(x)_a
    d = np.einsum("xak,xak->k", q.conj(), V._entries() @ q).real
    return w, d


def semigroup_sandwich_trace(V: MatrixPotential, alpha: float, t: float) -> float:
    """Exact tr[V^{1/2} e^{-t(L + alpha V)} V^{1/2}] on V.grid, the Trotter limit.

    By cyclicity it is tr[e^{-t(L + alpha V)} V] = sum_k d_k e^{-t w_k}
    (_sandwich_spectrum).
    """
    t = _positive_finite(t, "time")
    w, d = _sandwich_spectrum(V, alpha, "semigroup trace")
    return float(np.sum(d * np.exp(-t * w)))


def resolvent_trace(V: MatrixPotential, alpha: float) -> float:
    """tr[V^{1/2} (L + alpha V)^{-1} V^{1/2}] on V.grid.

    Equals sum_k lambda_k / (1 + alpha lambda_k) over the spectrum of the
    Birman-Schwinger operator K, the resolvent identity that converts
    time integrals of Trotter traces into counting information.  By
    cyclicity it is tr[(L + alpha V)^{-1} V] = sum_k d_k / w_k
    (_sandwich_spectrum); L + alpha V >= L is positive definite.
    """
    w, d = _sandwich_spectrum(V, alpha, "resolvent trace")
    return float(np.sum(d / w))


# ---------------------------------------------------------------------------
# Right-hand sides and heat-diagonal assembly.

def clr_rhs(V: MatrixPotential, R: float) -> float:
    """Counting-bound right side R * L^cl_{0,d} * h^d sum_x tr[(V_+(x))^{d/2}]."""
    R = float(R)
    if not (math.isfinite(R) and R >= 0.0):
        raise ValueError(f"excess factor must be finite and >= 0, got {R}")
    d = V.grid.d
    return R * classical_constant(0.0, d) * V.moment(d / 2.0)


def heat_diagonal_step(V: MatrixPotential, f, t: float) -> float:
    """(4 pi t)^{-d/2} h^d sum_x tr f(t V(x)) on V.grid, the heat-diagonal majorant.

    Integrating this in dt/t reproduces, per positive eigenvalue v of the
    potential, the scaling identity v^{d/2} * corollary_constant(f, d).
    """
    t = _positive_finite(t, "time")
    w = V.require_psd()
    vals = np.asarray(f(t * np.maximum(w, 0.0)), dtype=float)
    d, h = V.grid.d, V.grid.h
    return float((4.0 * math.pi * t) ** (-d / 2.0) * h**d * np.sum(vals))


# ---------------------------------------------------------------------------
# Potential file format.

def potential_to_json_dict(V: MatrixPotential) -> dict:
    """JSON form: grid header, fiber dimension, and the non-zero sites only."""
    support = V.support(tol=0.0)
    index = np.stack(np.unravel_index(support, V.grid.points_per_axis), axis=-1)
    # [re, im] pairs of each site matrix, row-major
    matrix = V.values[support].view(float).reshape(support.size, V.N * V.N, 2)
    sites = [{"index": i, "matrix": m}
             for i, m in zip(index.tolist(), matrix.tolist())]
    return {
        "grid": {
            "d": V.grid.d,
            "points": list(V.grid.points_per_axis),
            "h": V.grid.h,
            "boundary": "dirichlet",
        },
        "N": V.N,
        "sites": sites,
    }


def _json_field(obj, key: str, where: str):
    """obj[key] of a potential file's JSON object, or ValueError naming where."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"potential file: missing {where}")
    return obj[key]


def _json_integer(value) -> bool:
    """Whether value is a JSON integer (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def potential_from_json_dict(data: dict) -> MatrixPotential:
    """The potential of the JSON form that potential_to_json_dict writes.

    Sites left out are zero.  A malformed form raises ValueError naming
    its field: a missing grid, grid.boundary, grid.d, grid.points, grid.h
    or N, a boundary other than "dirichlet", grid.d or grid.points entries
    that are not integers, grid.h that is not a number, a grid that
    GridSpec rejects, N that is not an integer in [1, MAX_MATRIX_DIM],
    sites that are not a
    list, a site index that is not d integers inside the box or that names
    a site listed before, or a site matrix that is not N * N [re, im]
    pairs of numbers.
    """
    g = _json_field(data, "grid", "grid")
    boundary = _json_field(g, "boundary", "grid.boundary")
    if boundary != "dirichlet":
        raise ValueError(f'potential file: grid.boundary must be "dirichlet", got {boundary!r}')
    d, points, h = (_json_field(g, key, "grid." + key) for key in ("d", "points", "h"))
    if not (_json_integer(d) and isinstance(points, list) and all(map(_json_integer, points))
            and isinstance(h, (int, float)) and not isinstance(h, bool)):
        raise ValueError(f"potential file: grid.d and grid.points must be integers and "
                         f"grid.h a number, got {d!r}, {points!r} and {h!r}")
    try:
        grid = GridSpec(d=d, points_per_axis=tuple(points), h=h)
    except ValueError as exc:
        raise ValueError(f"potential file: grid: {exc}") from exc
    n = _json_field(data, "N", "N")
    if not (_json_integer(n) and 1 <= n <= MAX_MATRIX_DIM):
        raise ValueError(f"potential file: N must be an integer in [1, {MAX_MATRIX_DIM}], "
                         f"got {n!r}")
    sites = data.get("sites", [])
    if not isinstance(sites, list):
        raise ValueError(f"potential file: sites must be a list, got {type(sites).__name__}")
    values = np.zeros((grid.nsites, n, n), dtype=complex)
    shape = grid.points_per_axis
    listed = set()
    for site in sites:
        index = _json_field(site, "index", "sites[].index")
        if not (isinstance(index, list) and len(index) == grid.d
                and all(_json_integer(i) and 0 <= i < m for i, m in zip(index, shape))):
            raise ValueError(f"potential file: site index {index!r} must list {grid.d} "
                             f"integers inside the box {shape}")
        flat = int(np.ravel_multi_index(tuple(index), shape))
        if flat in listed:
            raise ValueError(f"potential file: site index {index} is listed twice")
        listed.add(flat)
        matrix = _json_field(site, "matrix", f"matrix of site {index}")
        try:
            entries = np.asarray(matrix, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"potential file: matrix of site {index}: {exc}") from exc
        if entries.shape != (n * n, 2):
            raise ValueError(
                f"potential file: matrix of site {index} needs {n * n} [re, im] pairs, "
                f"got shape {entries.shape}"
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
