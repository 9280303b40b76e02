"""Time-ordered functional calculus for tuples of Hermitian matrices.

Given W_1, ..., W_n with eigendecompositions W_j = sum_k w_k^(j) P_k^(j),
the time-ordered application of a scalar function f is

    T f(W_1..W_n) = sum over index tuples (k_1..k_n) of
                    f(w_{k_1}^(1) + ... + w_{k_n}^(n)) P_{k_1}^(1) ... P_{k_n}^(n),

with the projector product taken in the fixed order 1..n.  The result is
generally non-Hermitian for n >= 2; its real trace is the quantity of
interest.  Every routine takes the W_j as Hermitian arrays or as
EigenDecompositions from matcore.eig_hermitian, used as given, so a caller
that reuses a tuple validates and decomposes each matrix once.
Enumeration (time_ordered_apply) costs N**n terms and serves as the
oracle.  The closed forms are all coefficients C_q(alpha) of one
truncated ordered product,

    e^{(alpha+x)W_1} .. e^{(alpha+x)W_n} = sum_q x^q C_q(alpha),

with T e^{alpha mu} = C_0(alpha), T mu e^{alpha mu} = C_1(alpha) and
T mu^k = k! C_k(0).  T is linear in f, so the Jensen gap of an admissible
f below is a finite combination of these coefficients.

The admissible scalar class for the convexity inequality is

    f(mu) = alpha_0 + alpha_1 mu + sum_{j>=2} alpha_j mu^j
            + sum_k beta_k exp(-r_k mu),

with alpha_j >= 0 for j >= 2 and beta_k >= 0 (alpha_0, alpha_1 and the
rates r_k unconstrained).  For PSD inputs, averaging beats time ordering:

    Re tr T f(W_1..W_n) <= (1/n) sum_j tr f(n W_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ENUMERATION_BUDGET, MONOMIAL_MAX_POWER
from .errors import AdmissibilityError, BudgetError
from .matcore import EigenDecomposition, eig_hermitian, require_psd_spectrum


@dataclass(frozen=True)
class ScalarFunctionClass:
    """Admissible function: polynomial plus non-negative exponential atoms.

    poly_coeffs lists alpha_0, alpha_1, ... in ascending order;
    exp_atoms is a sequence of (weight, rate) pairs for weight * exp(-rate * mu).
    Construction enforces alpha_j >= 0 for j >= 2 and weights >= 0.
    """

    poly_coeffs: tuple[float, ...] = ()
    exp_atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.poly_coeffs)
        atoms = tuple((float(w), float(r)) for w, r in self.exp_atoms)
        for j, c in enumerate(coeffs):
            if j >= 2 and c < 0.0:
                raise AdmissibilityError(
                    f"coefficient of mu^{j} must be >= 0, got {c}"
                )
            if not math.isfinite(c):
                raise AdmissibilityError(f"non-finite coefficient {c} at power {j}")
        for w, r in atoms:
            if w < 0.0:
                raise AdmissibilityError(f"atom weight must be >= 0, got {w}")
            if not (math.isfinite(w) and math.isfinite(r)):
                raise AdmissibilityError(f"non-finite atom ({w}, {r})")
        object.__setattr__(self, "poly_coeffs", coeffs)
        object.__setattr__(self, "exp_atoms", atoms)

    def __call__(self, mu):
        x = np.asarray(mu, dtype=float)
        out = np.zeros_like(x)
        if self.poly_coeffs:
            out = out + np.polynomial.polynomial.polyval(x, self.poly_coeffs)
        for w, r in self.exp_atoms:
            out = out + w * np.exp(-r * x)
        if np.isscalar(mu) or np.ndim(mu) == 0:
            return float(out)
        return out

    def __add__(self, other: "ScalarFunctionClass") -> "ScalarFunctionClass":
        if not isinstance(other, ScalarFunctionClass):
            return NotImplemented
        n = max(len(self.poly_coeffs), len(other.poly_coeffs))
        a = list(self.poly_coeffs) + [0.0] * (n - len(self.poly_coeffs))
        b = list(other.poly_coeffs) + [0.0] * (n - len(other.poly_coeffs))
        return ScalarFunctionClass(
            poly_coeffs=tuple(x + y for x, y in zip(a, b)),
            exp_atoms=self.exp_atoms + other.exp_atoms,
        )

    def __mul__(self, c) -> "ScalarFunctionClass":
        c = float(c)
        return ScalarFunctionClass(
            poly_coeffs=tuple(c * a for a in self.poly_coeffs),
            exp_atoms=tuple((c * w, r) for w, r in self.exp_atoms),
        )

    __rmul__ = __mul__

    @property
    def degree(self) -> int:
        d = 0
        for j, c in enumerate(self.poly_coeffs):
            if c != 0.0:
                d = j
        return d

    def derivative_at_zero(self, m: int) -> float:
        """m-th derivative at 0: m! alpha_m + sum_k beta_k (-r_k)^m."""
        val = 0.0
        if m < len(self.poly_coeffs):
            val += math.factorial(m) * self.poly_coeffs[m]
        for w, r in self.exp_atoms:
            val += w * (-r) ** m
        return val

    @classmethod
    def monomial(cls, k: int, coeff: float = 1.0) -> "ScalarFunctionClass":
        if k < 0:
            raise AdmissibilityError(f"monomial power must be >= 0, got {k}")
        return cls(poly_coeffs=(0.0,) * k + (float(coeff),))

    @classmethod
    def exponential(cls, alpha: float, weight: float = 1.0) -> "ScalarFunctionClass":
        """weight * exp(alpha * mu), stored as an atom with rate -alpha."""
        return cls(exp_atoms=((float(weight), -float(alpha)),))


@dataclass(frozen=True)
class TimeOrderedResult:
    """Matrix value of T f(W_1..W_n) together with its real trace."""

    matrix: np.ndarray
    real_trace: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_shared_dimension(dims: list[int]) -> None:
    if not dims:
        raise ValueError("need at least one matrix")
    if len(set(dims)) != 1:
        raise ValueError(f"matrices must share a dimension, got {sorted(set(dims))}")


def _decompositions(matrices) -> list[EigenDecomposition]:
    """One validated spectrum per matrix; EigenDecompositions pass through."""
    decs = [m if isinstance(m, EigenDecomposition) else eig_hermitian(m)
            for m in matrices]
    _require_shared_dimension([d.dim for d in decs])
    return decs


def _result(matrix: np.ndarray) -> TimeOrderedResult:
    return TimeOrderedResult(matrix=matrix, real_trace=float(np.trace(matrix).real))


def time_ordered_apply(f, matrices, budget: int = ENUMERATION_BUDGET) -> TimeOrderedResult:
    """Evaluate T f(W_1..W_n) by joint spectral enumeration.

    f may be any scalar function that is real and finite on the sums of
    eigenvalues (a ScalarFunctionClass qualifies).  Enumeration touches
    N**n index tuples; if that exceeds ``budget`` a BudgetError points the
    caller at the closed forms instead.  Cost is O(N**n) memory and time.
    """
    return _result(_enumerated(f, _decompositions(matrices), budget))


def _enumerated(f, decs, budget: int) -> np.ndarray:
    """Matrix of T f(W_1..W_n) by enumeration over the decompositions' indices."""
    n = len(decs)
    dim = decs[0].dim
    if dim**n > budget:
        raise BudgetError(
            f"joint enumeration needs {dim}**{n} = {dim**n} terms, over the "
            f"budget of {budget}; use time_ordered_monomial / "
            f"time_ordered_exponential / time_ordered_mu_exp closed forms"
        )

    # Overlap matrices between consecutive eigenbases.
    gaps = [
        decs[j].vectors.conj().T @ decs[j + 1].vectors for j in range(n - 1)
    ]

    idx = np.indices((dim,) * n).reshape(n, -1)
    sums = np.zeros(idx.shape[1], dtype=float)
    for j in range(n):
        sums += decs[j].eigenvalues[idx[j]]

    coeff = np.asarray(f(sums), dtype=complex)
    if coeff.shape != sums.shape:
        raise ValueError("f must evaluate elementwise on an array of reals")

    chain = coeff
    for j in range(n - 1):
        chain = chain * gaps[j][idx[j], idx[j + 1]]

    # Accumulate in the basis of W_1 on the left and W_n on the right:
    # T f = V_1 [ sum over tuples chain * e_{k_1} e_{k_n}^T ] V_n^H.
    core = np.zeros((dim, dim), dtype=complex)
    np.add.at(core, (idx[0], idx[-1]), chain)
    return decs[0].vectors @ core @ decs[-1].vectors.conj().T


def _ordered_series(decs, alpha, k: int) -> np.ndarray:
    """Coefficients C_0..C_k of x in the ordered product

        e^{(alpha+x)W_1} .. e^{(alpha+x)W_n} = sum_{q<=k} x^q C_q + O(x^{k+1}),

    with shape alpha.shape + (k+1, N, N), so a 1-D alpha gives one series
    per rate.  Factor j is the series e^{alpha W_j} sum_q x^q W_j^q / q!,
    diagonal in the eigenbasis V_j.  The running product is kept as
    A(x) V_j^H, so each factor costs one change of basis of the k+1
    coefficients of A and one Cauchy product with a diagonal series.
    """
    w = np.array([d.eigenvalues for d in decs])[:, None, :]
    v = np.array([d.vectors for d in decs])
    q = np.arange(k + 1)
    lag = q[:, None] - q[None, :]
    inv_fact = np.array([1.0 / math.factorial(p) for p in q])[:, None]
    alpha = np.asarray(alpha, dtype=float)[..., None, None, None]
    coef = np.exp(alpha * w) * (w ** q[:, None] * inv_fact)
    # cauchy[..., j, q, p, :] multiplies coefficient p of A into coefficient q.
    cauchy = np.where((lag >= 0)[..., None], coef[..., lag, :], 0.0)
    overlap = v[:-1].conj().swapaxes(1, 2) @ v[1:]
    series = v[0] * coef[..., 0, :, None, :]
    for j in range(1, len(decs)):
        series = np.einsum("...pij,...qpj->...qij", series @ overlap[j - 1],
                           cauchy[..., j, :, :, :])
    return series @ v[-1].conj().T


def time_ordered_monomial(k: int, matrices) -> TimeOrderedResult:
    """Closed form of T mu^k = k! C_k at alpha = 0 (see _ordered_series).

    This is the multinomial sum over j_1+..+j_n = k of
    k! / (j_1! .. j_n!) W_1^{j_1} .. W_n^{j_n}, without walking its words.
    k stays capped at MONOMIAL_MAX_POWER.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"power must be a positive integer, got {k!r}")
    if k > MONOMIAL_MAX_POWER:
        raise BudgetError(
            f"monomial power {k} exceeds the cap {MONOMIAL_MAX_POWER}"
        )
    series = _ordered_series(_decompositions(matrices), 0.0, k)
    return _result(math.factorial(k) * series[k])


def time_ordered_exponential(alpha: float, matrices) -> TimeOrderedResult:
    """Closed form of T exp(alpha mu) = C_0: the product e^{aW_1}..e^{aW_n}."""
    return _result(_ordered_series(_decompositions(matrices), float(alpha), 0)[0])


def time_ordered_mu_exp(alpha: float, matrices) -> TimeOrderedResult:
    """Closed form of T mu e^{alpha mu} = C_1, the alpha-derivative of C_0:

        sum_m e^{aW_1}..e^{aW_{m-1}} (W_m e^{aW_m}) e^{aW_{m+1}}..e^{aW_n}.
    """
    return _result(_ordered_series(_decompositions(matrices), float(alpha), 1)[1])


def _require_admissible(f) -> ScalarFunctionClass:
    if not isinstance(f, ScalarFunctionClass):
        raise AdmissibilityError(
            "convexity routines need a ScalarFunctionClass instance "
            f"(admissible polynomial + exponential atoms), got {type(f).__name__}"
        )
    return f


def averaged_trace(f, matrices) -> float:
    """(1/n) sum_j tr f(n W_j), evaluated on eigenvalues."""
    decs = _decompositions(matrices)
    n = len(decs)
    return sum(float(np.sum(np.asarray(f(n * d.eigenvalues), dtype=float)))
               for d in decs) / n


def _jensen_sides(f, matrices) -> tuple[float, float]:
    """(averaged, ordered): (1/n) sum_j tr f(n W_j) and Re tr T f(W_1..W_n).

    Preconditions: f admissible (ScalarFunctionClass) and every W_j PSD.
    T is linear in f, so T f = sum_j alpha_j j! C_j(0) + sum_k beta_k C_0(-r_k)
    in the notation of _ordered_series; no enumeration, hence no budget.
    """
    f = _require_admissible(f)
    decs = _decompositions(matrices)
    for d in decs:
        require_psd_spectrum(d.eigenvalues, "time-ordered factor")
    alphas = [0.0] + [-r for _, r in f.exp_atoms]
    series = _ordered_series(decs, alphas, f.degree)
    traces = np.trace(series, axis1=-2, axis2=-1).real
    lhs = sum(a * math.factorial(j) * t
              for j, (a, t) in enumerate(zip(f.poly_coeffs, traces[0])))
    lhs += sum(w * t for (w, _), t in zip(f.exp_atoms, traces[1:, 0]))
    return averaged_trace(f, decs), float(lhs)


def jensen_gap(f, matrices) -> float:
    """Gap (1/n) sum_j tr f(n W_j) - Re tr T f(W_1..W_n), see _jensen_sides.

    The gap is guaranteed non-negative mathematically; numerically it may
    dip to -1e-9 * (1 + |average side|), which callers should treat as zero.
    """
    averaged, ordered = _jensen_sides(f, matrices)
    return averaged - ordered


def convex_probe(kink: float, matrices, budget: int = ENUMERATION_BUDGET) -> float:
    """Same gap for the hinge max(mu - kink, 0), which is outside the class.

    No sign guarantee: hinges are convex but not admissible, and the gap
    does go negative for some inputs.  Exposed for exploration only.
    """
    kink = float(kink)
    if not kink > 0.0:
        raise ValueError(f"hinge offset must be positive, got {kink}")
    decs = _decompositions(matrices)
    for d in decs:
        require_psd_spectrum(d.eigenvalues, "time-ordered factor")

    def hinge(mu):
        return np.maximum(np.asarray(mu, dtype=float) - kink, 0.0)

    lhs = float(np.trace(_enumerated(hinge, decs, budget)).real)
    return averaged_trace(hinge, decs) - lhs
