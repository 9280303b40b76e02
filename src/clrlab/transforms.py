"""Analysis feeding the counting-bound pipeline.

Contents: semiclassical phase-space constants L^cl_{gamma,d} and the
best-known excess factors R(gamma); the Laplace-type transform

    F(lambda) = int_0^inf f(mu) exp(-mu/lambda) mu^{-1} dmu;

the exponential integral E_1 (scipy's exp1, with e^a E_1(a) continued by
its asymptotic series where exp1 underflows); the rational family
f_a(mu) = mu^2/(mu+a) with its exponential-atom discretization and
closed-form transform, elementwise in lambda,

    F_a(lambda) = lambda - a e^{a/lambda} E_1(a/lambda);

the constant C_a = (1/8)(pi a)^{-1/2} F_a(1)^{-1} and the golden-section
minimization of R(a) = C_a / L^cl_{0,3}, whose minimum is about 10.332
near a = 1.13.

Sign note, recorded prominently: F_a(1) = 1 - a e^a E_1(a), with a minus
sign.  A plus sign there would give R approximately 2.4, below the known
lower bound 8/sqrt(3) of the excess factor, so it cannot be right; the
minus sign reproduces both the reference digits and the lower bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.special
from scipy.integrate import IntegrationWarning, quad

from .config import ATOM_MAX_ORDER
from .errors import BudgetError
from .timeorder import ScalarFunctionClass

# Shared adaptive-quadrature settings: integrands here are smooth after
# substitution, so tight tolerances are affordable.
_QUAD_KW = dict(epsabs=1e-13, epsrel=1e-11, limit=500)


# ---------------------------------------------------------------------------
# Semiclassical constants.

def classical_constant(gamma: float, d: int) -> float:
    """L^cl_{gamma,d} = Gamma(gamma+1) / (2^d pi^{d/2} Gamma(gamma+d/2+1)).

    Closed form of the phase-space integral (2 pi)^{-d} int (1-p^2)_+^gamma dp.
    """
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    d = int(d)
    if d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return math.gamma(gamma + 1.0) / (
        2.0**d * math.pi ** (d / 2.0) * math.gamma(gamma + d / 2.0 + 1.0)
    )


def r_bound(gamma: float) -> float:
    """Best-known excess factor R(gamma), piecewise constant in gamma.

    Boundary values belong to the stronger (larger-gamma) regime, and the
    factor is non-increasing in gamma, which is what lets the gamma = 0
    value serve for every smaller exponent.
    """
    gamma = float(gamma)
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma >= 1.5:
        return 1.0
    if gamma >= 1.0:
        return math.pi / math.sqrt(3.0)
    if gamma >= 0.5:
        return 2.0 * math.pi / math.sqrt(3.0)
    return 10.332


@dataclass(frozen=True)
class ConstantTable:
    """Constants attached to one (gamma, d) pair."""

    gamma: float
    d: int
    L_cl: float
    R_bound: float


def constant_table(gamma: float, d: int) -> ConstantTable:
    return ConstantTable(
        gamma=float(gamma),
        d=int(d),
        L_cl=classical_constant(gamma, d),
        R_bound=r_bound(gamma),
    )


def lw_product_check(d: int) -> float:
    """Relative residual of the lifting identity L_{0,3} L_{3/2,d-3} = L_{0,d}.

    The identity is exact in Gamma functions; the residual only measures
    floating-point evaluation noise and stays below 1e-12 for d up to 20.
    """
    d = int(d)
    if d < 4:
        raise ValueError(f"the lifting identity needs d >= 4, got {d}")
    lhs = classical_constant(0.0, 3) * classical_constant(1.5, d - 3)
    rhs = classical_constant(0.0, d)
    return abs(lhs - rhs) / rhs


# ---------------------------------------------------------------------------
# Exponential integral E_1.

# e^a E_1(a) switches to its asymptotic series above this argument: near
# 700, e^a overflows and exp1(a) goes subnormal, while ten terms of the
# series are already accurate to about 1e-21 relative at 600.
_E1_ASYMPTOTIC = 600.0
# (-1)^k k! for k = 9, ..., 0: the asymptotic series in y = 1/a, highest first.
_E1_SERIES = [(-1) ** k * math.factorial(k) for k in range(9, -1, -1)]


def _e1_argument(a) -> np.ndarray:
    """a as a float array, rejecting any entry that is not > 0 (NaN included)."""
    x = np.asarray(a, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError(f"E_1 needs a > 0, got {x[~(x > 0.0)][0]}")
    return x


def exp_integral_E1(a):
    """E_1(a) = int_a^inf e^{-s} s^{-1} ds for a > 0, elementwise (scipy's exp1).

    Returns a float for a scalar argument.
    """
    out = scipy.special.exp1(_e1_argument(a))
    return float(out) if np.ndim(a) == 0 else out


def e1_scaled(a):
    """e^a E_1(a), elementwise, stable for large a where E_1 itself underflows.

    e^a exp1(a) up to a = 600, and sum_{k<10} (-1)^k k! / a^{k+1} above.
    Returns a float for a scalar argument.
    """
    x = _e1_argument(a)
    low = np.minimum(x, _E1_ASYMPTOTIC)
    out = np.exp(low) * scipy.special.exp1(low)
    high = x > _E1_ASYMPTOTIC
    if np.any(high):
        y = 1.0 / np.maximum(x, _E1_ASYMPTOTIC)
        out = np.where(high, y * np.polyval(_E1_SERIES, y), out)
    return float(out) if np.ndim(a) == 0 else out


# ---------------------------------------------------------------------------
# Laplace-type transform.

def _quad_checked(integrand, lo, hi, what: str) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err = quad(integrand, lo, hi, **_QUAD_KW)
        except IntegrationWarning as exc:
            raise ValueError(f"{what} did not converge: {exc}") from exc
    if not math.isfinite(val):
        raise ValueError(f"{what} evaluated to {val}")
    if err > 1e-8 * max(1.0, abs(val)):
        raise ArithmeticError(
            f"{what}: quadrature error estimate {err:.3e} too large for value {val:.6e}"
        )
    return val


def laplace_type_transform(f, lam: float) -> float:
    """F(lambda) = int_0^inf f(mu) e^{-mu/lambda} mu^{-1} dmu.

    For a ScalarFunctionClass the preconditions are enforced analytically:
    f(0) = alpha_0 + sum beta_k must vanish so the integrand is bounded at
    the origin, and every atom must satisfy r_k > -1/lambda so the tail
    converges.  The integrand is then assembled in the cancellation-free
    form f(mu)/mu = sum_{j>=1} alpha_j mu^{j-1} + sum_k beta_k expm1(-r_k mu)/mu.

    A general callable f is integrated as given (caller guarantees decay);
    divergence surfaces as a quadrature failure.  Both paths integrate
    after the exponential substitution mu = lambda e^u.
    """
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")

    if isinstance(f, ScalarFunctionClass):
        coeffs = np.asarray(f.poly_coeffs, dtype=float)
        wts = np.array([w for w, _ in f.exp_atoms], dtype=float)
        rates = np.array([r for _, r in f.exp_atoms], dtype=float)
        mass = (coeffs[0] if coeffs.size else 0.0) + wts.sum()
        scale = 1.0 + float(np.abs(coeffs).sum()) + float(wts.sum())
        if abs(mass) > 1e-12 * scale:
            raise ValueError(
                f"f(0) = alpha_0 + sum(beta) = {mass:.6e} must vanish for the "
                f"transform integrand to be bounded at the origin"
            )
        bad = np.nonzero(rates <= -1.0 / lam)[0]
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"atom {wts[k]} * exp({-rates[k]} * mu) outgrows "
                f"exp(-mu/{lam}); the transform diverges at infinity"
            )
        tail = coeffs[1:]
        deg_idx = np.arange(1, coeffs.size, dtype=float)
        lam_rates = lam * rates
        lnlam = math.log(lam)

        def integrand(u: float) -> float:
            # After mu = lam e^u the integrand is
            #   sum_{j>=1} alpha_j mu^j e^{-x} + sum_k beta_k expm1(-r_k mu) e^{-x}
            # with x = e^u.  Powers are assembled in log space and the atom
            # terms switch to a pure difference of exponentials once the
            # expm1 argument would overflow (there e^{-x} has long died).
            if u >= 709.0:
                return 0.0
            x = math.exp(u)
            total = 0.0
            if tail.size:
                # overflow here means the transform itself exceeds double
                # range; the non-finite value is rejected downstream
                with np.errstate(over="ignore"):
                    total += float(np.sum(tail * np.exp(deg_idx * (lnlam + u) - x)))
            if wts.size:
                arg = -x * lam_rates  # equals -r_k mu, formed without mu
                small = arg <= 300.0
                em = np.where(
                    small,
                    np.expm1(np.minimum(arg, 300.0)) * math.exp(-x),
                    np.exp(arg - x),  # arg - x = -x (1 + lam r_k) <= 0
                )
                total += float(np.sum(wts * em))
            return total

    else:
        def integrand(u: float) -> float:
            # f(mu)/mu * e^{-x} * mu = f(mu) e^{-x}; never divide by mu.
            if u >= 709.0:
                return 0.0
            x = math.exp(u)
            damp = math.exp(-x)
            if damp == 0.0:
                # admissible f cannot outgrow the dead damping factor, and
                # skipping the call keeps f away from absurd arguments
                return 0.0
            return f(lam * x) * damp

    return _quad_checked(integrand, -np.inf, np.inf, "Laplace-type transform")


# ---------------------------------------------------------------------------
# The f_a family.

def f_a_eval(a: float, mu):
    """f_a(mu) = mu^2 / (mu + a), elementwise on arrays."""
    a = float(a)
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a}")
    x = np.asarray(mu, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("mu must be >= 0")
    out = x * x / (x + a)
    if np.ndim(mu) == 0:
        return float(out)
    return out


def _atom_window(order: int) -> float:
    """Truncation parameter T for the log-step atom rule with `order` nodes.

    T balances the three error sources of the rule: upper truncation
    e^{-T}, step error e^{-pi^2/h}, and the lower tail, which the alpha_0
    mass correction cancels to second order so the window can stay short.
    T solves (ln T + T/2)(T + 2) = pi^2 (order - 1), monotone on [1, 400].
    """
    target = math.pi**2 * (order - 1)
    lo, hi = 1.0, 400.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (math.log(mid) + 0.5 * mid) * (mid + 2.0) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def f_a_atoms(a: float, order: int) -> ScalarFunctionClass:
    """Exponential-atom surrogate for f_a built from its integral form.

    Writing f_a(mu) = mu - a + a^2 int_0^inf e^{-t(mu+a)} dt and
    discretizing the t-integral on a geometric grid t = e^{x_lo + j h}
    (trapezoid rule in log t) gives atoms with weights
    beta_j = a^2 h t_j e^{-a t_j} >= 0 and rates t_j > 0.  The constant
    alpha_0 = -sum(beta) replaces the exact -a, which pins f(0) = 0 and
    cancels the lower truncation error of the rule.

    The node window scales with 1/a, so accuracy is scale-invariant:
    sup error on [0, 20a] is about a * 5e-9 at order 32 and drops to
    a * 4e-13 at order 64.
    """
    a = float(a)
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a}")
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if order > ATOM_MAX_ORDER:
        raise BudgetError(f"atom order {order} exceeds the cap {ATOM_MAX_ORDER}")

    if order == 1:
        nodes = np.array([1.0 / a])
        h = 1.0
    else:
        t_trunc = _atom_window(order)
        x_lo = -0.5 * t_trunc - 1.0 - math.log(a)
        x_hi = math.log((t_trunc + 2.0) / a)
        h = (x_hi - x_lo) / (order - 1)
        nodes = np.exp(x_lo + h * np.arange(order))

    beta = a * a * h * nodes * np.exp(-a * nodes)
    alpha0 = -float(beta.sum())
    return ScalarFunctionClass(
        poly_coeffs=(alpha0, 1.0),
        exp_atoms=tuple(zip(beta.tolist(), nodes.tolist())),
    )


def f_a_transform(a: float, lam):
    """Closed form of the Laplace-type transform of f_a, elementwise in lambda:

        F_a(lambda) = lambda - a e^{a/lambda} E_1(a/lambda),  F_a(0) = 0.

    Non-negative and non-decreasing on [0, inf), which is what the
    counting bound needs from it.  Returns a float for a scalar lambda.
    """
    a = float(a)
    if not a > 0.0:
        raise ValueError(f"a must be positive, got {a}")
    x = np.asarray(lam, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError(f"lambda must be >= 0, got {x[~(x >= 0.0)][0]}")
    pos = x > 0.0
    safe = np.where(pos, x, 1.0)
    out = np.where(pos, safe - a * e1_scaled(a / safe), 0.0)
    return float(out) if np.ndim(lam) == 0 else out


# ---------------------------------------------------------------------------
# The counting-constant pipeline.

def _exp_remainder(x: float, m_max: int) -> float:
    """e^{-x} minus its Taylor polynomial through degree m_max, stable for small x."""
    if abs(x) < 0.1:
        # Continue the series a dozen terms past the subtracted ones.
        total = 0.0
        term = 1.0
        for m in range(1, m_max + 1):
            term *= -x / m
        for m in range(m_max + 1, m_max + 14):
            term *= -x / m
            total += term
        return total
    partial = 0.0
    term = 1.0
    for m in range(0, m_max + 1):
        if m:
            term *= -x / m
        partial += term
    return math.exp(-x) - partial


def corollary_constant(f, d: int) -> float:
    """int_0^inf f(s) s^{-d/2 - 1} ds by adaptive quadrature, d >= 3.

    Convergence needs f to vanish faster than s^{d/2} at the origin and to
    grow slower than s^{d/2} at infinity.  For a ScalarFunctionClass both
    conditions are checked analytically: polynomial powers j with 2j >= d
    or growing atoms are rejected, and every derivative of order
    m <= floor(d/2) must vanish at 0 within tolerance.  Sub-tolerance
    derivative dust (quadrature residue of atom discretizations) is then
    projected out exactly, since even dust makes this integral diverge.

    General callables are integrated as given under the substitution
    s = u^2, which flattens the integrable endpoint behavior.
    """
    d = int(d)
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got {d}")

    if isinstance(f, ScalarFunctionClass):
        coeffs = list(f.poly_coeffs)
        m_cut = d // 2
        for j, c in enumerate(coeffs):
            # j > floor(d/2) implies 2j > d, so s^j outgrows s^{d/2}.
            if c != 0.0 and j > m_cut:
                raise ValueError(
                    f"polynomial term mu^{j} grows too fast at infinity for d={d}"
                )
        for w, r in f.exp_atoms:
            if w != 0.0 and r < 0.0:
                raise ValueError(
                    f"atom {w} * exp({-r} * mu) grows at infinity; integral diverges"
                )
        wts = np.array([w for w, _ in f.exp_atoms], dtype=float)
        rates = np.array([r for _, r in f.exp_atoms], dtype=float)
        for m in range(0, m_cut + 1):
            dm = f.derivative_at_zero(m)
            scale = math.factorial(m) * (1.0 + sum(abs(c) for c in coeffs))
            if wts.size:
                scale += float(np.sum(wts * (1.0 + np.abs(rates)) ** m))
            if abs(dm) > 1e-6 * scale:
                raise ValueError(
                    f"derivative of order {m} at 0 is {dm:.6e}, not 0: the "
                    f"integral diverges at the origin for d={d}"
                )
        # Every surviving polynomial power sits at or below m_cut, so the
        # Taylor projection removes the polynomial exactly and leaves only
        # the atom remainders e^{-rs} - (Taylor through m_cut).
        def f_clean(s: float) -> float:
            if not wts.size:
                return 0.0
            rem = np.array([_exp_remainder(r * s, m_cut) for r in rates])
            return float(np.sum(wts * rem))

        target = f_clean
    else:
        target = f

    def integrand(u: float) -> float:
        s = u * u
        return 2.0 * float(target(s)) * u ** (-(d + 1))

    return _quad_checked(integrand, 0.0, np.inf, "corollary-constant integral")


def c_a(a: float) -> float:
    """C_a = (1/8) (pi a)^{-1/2} F_a(1)^{-1} with F_a(1) = 1 - a e^a E_1(a).

    The minus sign in F_a(1) is deliberate and load-bearing; see the
    module docstring.
    """
    a = float(a)
    f1 = f_a_transform(a, 1.0)
    if not f1 > 0.0:
        raise ArithmeticError(f"F_a(1) = {f1} should be positive for a = {a}")
    return 0.125 / math.sqrt(math.pi * a) / f1


def r_of_a(a: float) -> float:
    """Excess factor R(a) = C_a / L^cl_{0,3} whose minimum is the headline bound."""
    return c_a(a) / classical_constant(0.0, 3)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_R(lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimization of R(a) on [lo, hi] to width 1e-6.

    A 50-point coarse scan first verifies unimodality on the interval;
    a non-unimodal scan raises with the scan table in the message.
    Returns (a_star, R_star); expect roughly (1.131, 10.3317).
    """
    lo = float(lo)
    hi = float(hi)
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")

    xs = np.linspace(lo, hi, 50)
    ys = np.array([r_of_a(x) for x in xs])
    m = int(np.argmin(ys))
    eps = 1e-10 * (1.0 + float(np.max(np.abs(ys))))
    down_ok = np.all(np.diff(ys[: m + 1]) <= eps)
    up_ok = np.all(np.diff(ys[m:]) >= -eps)
    if not (down_ok and up_ok):
        table = "\n".join(f"  a = {x:.6f}  R = {y:.9f}" for x, y in zip(xs, ys))
        raise ValueError(
            f"R(a) is not unimodal on [{lo}, {hi}]; coarse scan:\n{table}"
        )

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    yc = r_of_a(c)
    yd = r_of_a(d)
    while b - a > 1e-6:
        if yc < yd:
            b, d, yd = d, c, yc
            c = b - _INV_PHI * (b - a)
            yc = r_of_a(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * (b - a)
            yd = r_of_a(d)
    a_star = 0.5 * (a + b)
    return a_star, r_of_a(a_star)


def lt_rhs(gamma: float, d: int, potential_moment: float) -> float:
    """Riesz-mean bound R(gamma) L^cl_{gamma,d} * moment for gamma > 0.

    The caller supplies the moment int tr V_+^{gamma + d/2} dx (the lattice
    computes it as a Riemann sum).  Monotonicity of the excess factor in
    gamma justifies the piecewise table used by r_bound.
    """
    gamma = float(gamma)
    if not gamma > 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    d = int(d)
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got {d}")
    moment = float(potential_moment)
    if not math.isfinite(moment) or moment < 0.0:
        raise ValueError(f"potential moment must be finite and >= 0, got {moment}")
    return r_bound(gamma) * classical_constant(gamma, d) * moment
