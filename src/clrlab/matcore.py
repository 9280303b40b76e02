"""Dense Hermitian matrix calculus.

Everything downstream (time-ordered functional calculus, discretized
Schroedinger operators, the experiment harness) funnels matrix work
through this module: the validation rules, eigendecompositions, scalar
functional calculus f(A), and the trace form of Hoelder's inequality used
by the convexity estimates.

This module owns the two rules every check rests on: a matrix is Hermitian
when max|A| is finite and max|A - A^H| <= HERMITICITY_RTOL (1 + max|A|), each
matrix of a stack judged against its own scale (``require_hermitian_stack``), and a
Hermitian matrix is PSD when its least eigenvalue is
>= -PSD_RTOL (1 + spectral radius) (``require_psd_spectrum``).  Matrices
are plain complex numpy arrays throughout.  Validation always rejects
non-Hermitian input rather than symmetrizing silently.

A tuple of small matrices is the unit of work: ``eig_hermitian_tuple``
checks each matrix by the Hermitian rule against its own scale and
decomposes the whole tuple by one stacked eigh; ``eig_hermitian`` is its
one-matrix case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_MATRIX_DIM
from .errors import (
    EigenSolverError,
    NonHermitianError,
    NotPositiveSemidefiniteError,
    SpectralDomainError,
)

# Relative tolerances, scaled by (1 + magnitude of the input).
HERMITICITY_RTOL = 1e-12
PSD_RTOL = 1e-10
HOLDER_SLACK = 1e-10


def _nth(what: str, i: int, count: int) -> str:
    """what, naming matrix i by its position when there are several."""
    return f"{what} {i} of {count}" if count > 1 else what


def _defect_and_scale(a: np.ndarray, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """(max|A - A^H|, 1 + max|A|) of each matrix of a non-empty matrix or stack.

    Both arrays have shape a.shape[:-2].  The scales come first: a matrix
    whose max|A| is not finite (a NaN or infinite entry) raises
    NonHermitianError, named by what and its position, before any A - A^H
    is formed.
    """
    scale = 1.0 + np.max(np.abs(a), axis=(-2, -1))
    bad = np.flatnonzero(~np.isfinite(scale))
    if bad.size:
        raise NonHermitianError(
            f"{_nth(what, int(bad[0]), scale.size)} has a non-finite entry")
    defect = np.max(np.abs(a - a.swapaxes(-1, -2).conj()), axis=(-2, -1))
    return np.asarray(defect), scale


def require_hermitian_stack(a: np.ndarray, what: str) -> None:
    """Reject max|A - A^H| > HERMITICITY_RTOL (1 + max|A|), for a matrix or a stack.

    Each matrix of a (count, n, n) stack is judged against its own scale
    1 + max|A_i|; when count > 1 the error names the first offending matrix
    by its position.  A matrix with a NaN or infinite entry is rejected too,
    since a NaN defect would pass the comparison.
    """
    if a.size == 0:
        return
    defect, scale = (np.ravel(x) for x in _defect_and_scale(a, what))
    bad = np.flatnonzero(defect > HERMITICITY_RTOL * scale)
    if bad.size:
        i = int(bad[0])
        raise NonHermitianError(
            f"{_nth(what, i, defect.size)} is not Hermitian: defect {defect[i]:.3e} exceeds "
            f"{HERMITICITY_RTOL:.1e} * (1 + max|entry|) = {HERMITICITY_RTOL * scale[i]:.3e}"
        )


def _require_hermitian_tuple(matrices) -> np.ndarray:
    """The matrices as one complex (count, n, n) stack, each checked alone.

    Every matrix must be square, non-empty and at most MAX_MATRIX_DIM wide,
    and Hermitian by require_hermitian_stack, which judges each against its
    own 1 + max|A_i| and names the offending one by its position.  Large
    operators live in the lattice module and never pass through here.
    """
    try:
        a = np.asarray(matrices, dtype=complex)
    except ValueError:
        # Shapes differ: check each matrix alone, in order, then the dimension.
        dims = [_require_hermitian_tuple([m]).shape[1] for m in matrices]
        raise ValueError(
            f"matrices must share a dimension, got {sorted(set(dims))}"
        ) from None
    if a.ndim == 0 or a.shape[0] == 0:
        raise ValueError("need at least one matrix")
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise NonHermitianError(f"expected a square matrix, got shape {a.shape[1:]}")
    n = a.shape[1]
    if n == 0:
        raise NonHermitianError("empty matrix")
    if n > MAX_MATRIX_DIM:
        raise NonHermitianError(
            f"matrix dimension {n} exceeds the cap {MAX_MATRIX_DIM}"
        )
    require_hermitian_stack(a, "matrix")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix: A = sum_k w_k P_k.

    eigenvalues are real and ascending; vectors holds the matching
    orthonormal eigenbasis in its columns.  shape is the matrix's
    (dim, dim), so np.shape(dec) == np.shape(A) and code that sizes its
    work from np.shape takes a decomposition where it took the matrix.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def apply(self, values) -> np.ndarray:
        """Assemble sum_k values[k] P_k; values must be real, one per eigenvalue."""
        fw = np.asarray(values, dtype=float)
        if fw.shape != self.eigenvalues.shape:
            raise ValueError(
                f"need {self.eigenvalues.shape[0]} scalar values, got shape {fw.shape}"
            )
        out = (self.vectors * fw) @ self.vectors.conj().T
        return 0.5 * (out + out.conj().T)


def eig_hermitian_tuple(matrices) -> list[EigenDecomposition]:
    """Eigendecompositions of Hermitian matrices of one size, eigenvalues ascending.

    The matrices are checked as _require_hermitian_tuple checks them and
    decomposed by one stacked eigh, so a tuple costs one solver call.
    Raises EigenSolverError with size and magnitude diagnostics of the
    failing matrix in the (rare) event the dense solver fails to converge.
    """
    a = _require_hermitian_tuple(matrices)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        count, n = a.shape[:2]
        i = 0
        if count > 1:
            # The stacked call does not say which matrix failed: find it alone.
            i = next((j for j in range(count) if not _eigh_converges(a[j])), 0)
        what = f"a {n} x {n} matrix" if count == 1 else f"matrix {i} of {count} ({n} x {n})"
        raise EigenSolverError(
            f"eigh failed on {what} "
            f"(max|entry| = {np.max(np.abs(a[i])):.3e}, "
            f"frobenius = {np.linalg.norm(a[i]):.3e}): {exc}"
        ) from exc
    return [EigenDecomposition(eigenvalues=wi, vectors=vi) for wi, vi in zip(w, v)]


def _eigh_converges(m: np.ndarray) -> bool:
    try:
        np.linalg.eigh(m)
    except np.linalg.LinAlgError:
        return False
    return True


def eig_hermitian(a) -> EigenDecomposition:
    """Eigendecomposition of one Hermitian matrix: eig_hermitian_tuple([a])[0]."""
    return eig_hermitian_tuple([a])[0]


def _evaluate_on_spectrum(f, w: np.ndarray) -> np.ndarray:
    """Evaluate a scalar function on eigenvalues, pinpointing failures."""
    try:
        fw = np.asarray(f(w))
        if fw.shape != w.shape:
            raise ValueError
    except Exception:
        vals = []
        for x in w:
            try:
                vals.append(complex(f(float(x))))
            except Exception as exc:
                raise SpectralDomainError(
                    f"function is undefined at eigenvalue {x!r}: {exc}"
                ) from exc
        fw = np.asarray(vals)
    fw = fw.astype(complex)
    bad = ~np.isfinite(fw)
    if np.any(bad):
        raise SpectralDomainError(
            f"function is not finite at eigenvalue {w[bad][0]!r}"
        )
    scale = 1.0 + float(np.max(np.abs(fw)))
    if np.max(np.abs(fw.imag)) > 1e-12 * scale:
        k = int(np.argmax(np.abs(fw.imag)))
        raise SpectralDomainError(
            f"function is not real on the spectrum: f({w[k]!r}) = {fw[k]!r}"
        )
    return fw.real


def apply_spectral(f, a) -> np.ndarray:
    """Functional calculus f(A) = sum_k f(w_k) P_k for Hermitian A.

    f must be real-valued and finite on the spectrum; violations raise
    SpectralDomainError naming the offending eigenvalue.  The result is
    exactly Hermitian and commutes with A up to rounding.
    """
    dec = eig_hermitian(a)
    fw = _evaluate_on_spectrum(f, dec.eigenvalues)
    return dec.apply(fw)


def require_psd_spectrum(w: np.ndarray, what: str, *, rtol: float = PSD_RTOL) -> np.ndarray:
    """Reject eigenvalues below -rtol (1 + spectral radius); return w.

    w holds the eigenvalues of one Hermitian matrix or of a stack of them
    (any shape); the spectral radius is taken over all of them.
    """
    if w.size:
        scale = 1.0 + float(np.max(np.abs(w)))
        low = float(w.min())
        if low < -rtol * scale:
            raise NotPositiveSemidefiniteError(
                f"{what} has eigenvalue {low:.6e} below "
                f"-{rtol:.1e} * (1 + spectral radius)"
            )
    return w


def holder_trace_product(matrices, powers) -> tuple[float, float]:
    """Trace Hoelder bound for words in PSD matrices.

    For PSD W_1..W_n and exponents j_1..j_n with k = sum j_i, returns

        lhs = Re tr(W_1^{j_1} ... W_n^{j_n})
        rhs = prod_i (tr W_i^k)^{j_i / k}

    and checks lhs <= rhs up to slack 1e-10 * (1 + rhs); a violation
    beyond slack raises ArithmeticError since it would signal a numerical
    inconsistency, not a mathematical possibility.  The factors are checked
    as one tuple, each against its own scale, and their spectra come from
    one stacked eigvalsh.
    """
    mats = _require_hermitian_tuple(matrices)
    js = [int(j) for j in powers]
    if len(mats) != len(js):
        raise ValueError("need matching, non-empty matrices and powers")
    if any(j < 0 for j in js):
        raise ValueError(f"powers must be non-negative, got {js}")
    k = sum(js)
    if k == 0:
        raise ValueError("total power must be at least 1")

    eigs = [np.maximum(require_psd_spectrum(w, "Hoelder factor"), 0.0)
            for w in np.linalg.eigvalsh(mats)]

    word = np.eye(mats.shape[1], dtype=complex)
    for m, j in zip(mats, js):
        if j:
            word = word @ np.linalg.matrix_power(m, j)
    lhs = float(np.trace(word).real)

    rhs = 1.0
    for w, j in zip(eigs, js):
        if j:
            rhs *= float(np.sum(w**k)) ** (j / k)

    if lhs > rhs + HOLDER_SLACK * (1.0 + abs(rhs)):
        raise ArithmeticError(
            f"trace Hoelder inequality violated: lhs {lhs!r} > rhs {rhs!r}"
        )
    return lhs, rhs
