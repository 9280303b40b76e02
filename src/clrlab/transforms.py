"""Analysis feeding the counting-bound pipeline.

Contents: semiclassical phase-space constants L^cl_{gamma,d} and the
best-known excess factors R(gamma); the Laplace-type transform of a
callable f,

    F(lambda) = int_0^inf f(mu) exp(-mu/lambda) mu^{-1} dmu,

and the corollary integral int_0^inf f(s) s^{-d/2-1} ds, both by adaptive
quadrature; the exponential integral E_1 (scipy's exp1, with e^a E_1(a)
continued by its asymptotic series where exp1 underflows); the rational
family f_a(mu) = mu^2/(mu+a) with its closed-form transform, elementwise
in lambda and in a (an array of parameters gives one row per a in one call),

    F_a(lambda) = lambda - a e^{a/lambda} E_1(a/lambda);

the constant C_a = (1/8)(pi a)^{-1/2} F_a(1)^{-1} and the golden-section
minimization of R(a) = C_a / L^cl_{0,3}, whose minimum is about 10.332
near a = 1.13.

Sign note, recorded prominently: F_a(1) = 1 - a e^a E_1(a), with a minus
sign.  A plus sign there would give R approximately 2.4, below the known
lower bound 8/sqrt(3) of the excess factor, so it cannot be right; the
minus sign reproduces both the reference digits and the lower bound.

The module imports nothing from the rest of the package.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy

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
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        try:
            val, err = scipy.integrate.quad(integrand, lo, hi, **_QUAD_KW)
        except scipy.integrate.IntegrationWarning as exc:
            raise ValueError(f"{what} did not converge: {exc}") from exc
    if not math.isfinite(val):
        raise ValueError(f"{what} evaluated to {val}")
    if err > 1e-8 * max(1.0, abs(val)):
        raise ArithmeticError(
            f"{what}: quadrature error estimate {err:.3e} too large for value {val:.6e}"
        )
    return val


def laplace_type_transform(f, lam: float) -> float:
    """F(lambda) = int_0^inf f(mu) e^{-mu/lambda} mu^{-1} dmu for a callable f.

    f maps a float mu >= 0 to a float (a ScalarFunctionClass qualifies).
    The caller guarantees convergence: f(mu)/mu integrable at the origin
    and f(mu) e^{-mu/lambda} decaying at infinity; divergence surfaces as
    a quadrature failure.  The integral is taken after the exponential
    substitution mu = lambda e^u.
    """
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")

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


# F_a(lambda) = lambda - a e^z E_1(z), z = a/lambda, loses about log10(z)
# digits to cancellation (2e-15 relative at z = 10, 1e-13 near 600, 1e-10 at
# 1e6).  Above z = 10 it is taken as lambda e^z E_2(z) instead: the same
# value, by E_2(z) = e^{-z} - z E_1(z), without the difference.
_F_A_SWITCH = 10.0
# F_a is taken as 0 for lambda <= a * _F_A_TINY, where z = a/lambda would
# overflow (from a subnormal lambda, say): there F_a < lambda / z <=
# lambda 2^-1023, which rounds to 0 for every a <= 2^971.  Above it,
# z < 2^1023 stays finite.
_F_A_TINY = 2.0**-1023
# Above lambda = a / _F_A_MIN_Z, z would underflow to 0 and e^z E_1(z) be
# inf.  There F_a is lambda to within rounding (the correction a e^z E_1(z)
# is below lambda 2^-1074 (ln(lambda/a) + 1)), so lambda is clamped there for
# z and the difference is taken from the unclamped lambda.  Only a below
# _F_A_CLAMP_A can meet such a finite lambda (lambda < 2^1024).
_F_A_MIN_Z = 2.0**-1074
_F_A_CLAMP_A = 2.0**-50
# (-1)^k (k+1)! for k = 8, ..., 0: the asymptotic series of e^z E_2(z) / y
# in y = 1/z, highest first.
_E2_SERIES = [float((-1) ** k * math.factorial(k + 1)) for k in range(8, -1, -1)]


def _e2_scaled(z: np.ndarray) -> np.ndarray:
    """e^z E_2(z) = 1 - z e^z E_1(z), elementwise for z > 0.

    e^z expn(2, z) up to z = 600, where it is accurate to about 2e-15
    relative, and above it the asymptotic series
    sum_{k=1..9} (-1)^{k+1} k! / z^k, which is 1 - z times e1_scaled's
    ten-term series.
    """
    low = np.minimum(z, _E1_ASYMPTOTIC)
    out = np.exp(low) * scipy.special.expn(2, low)
    high = z > _E1_ASYMPTOTIC
    if high.any():
        y = 1.0 / np.maximum(z, _E1_ASYMPTOTIC)
        series = _E2_SERIES[0] * y
        for c in _E2_SERIES[1:-1]:  # Horner in place: np.polyval costs twice as much
            series += c
            series *= y
        out = np.where(high, y * (series + _E2_SERIES[-1]), out)
    return out


def f_a_transform(a, lam):
    """Closed form of the Laplace-type transform of f_a, elementwise in a and lambda:

        F_a(lambda) = lambda - a e^{a/lambda} E_1(a/lambda),  F_a(0) = 0.

    Non-negative and non-decreasing on [0, inf), which is what the
    counting bound needs from it.  For z = a/lambda > 10 it is evaluated as
    lambda e^z E_2(z), which keeps its relative accuracy as lambda/a -> 0,
    it is 0 where z would overflow (lambda <= a 2^-1023, where the value
    rounds to 0), and it is lambda where z would underflow to 0 (lambda >
    a 2^1074, where the value rounds to lambda).  A non-positive or NaN a,
    and a negative, infinite or NaN lambda, raise ValueError.

    a may be an array that broadcasts against lambda: an (r, 1) column of
    parameters and a 1-D lambda give one row F_a(lambda) per a in a single
    call.  Each element goes through the scalar path's operations, so the
    values equal the per-a calls bit for bit.  Returns a float when a and
    lambda are both scalars.
    """
    a = np.asarray(a, dtype=float)
    if not (a > 0.0).all():
        raise ValueError(f"a must be positive, got {a[~(a > 0.0)][0]}")
    x = np.asarray(lam, dtype=float)
    ok = (x >= 0.0) & (x < np.inf)
    if not ok.all():
        raise ValueError(f"lambda must be finite and >= 0, got {x[~ok][0]}")
    with np.errstate(under="ignore"):  # a 2^-1023 may underflow; that is intended
        pos = x > a * _F_A_TINY
    safe = np.where(pos, x, 1.0)
    tiny_a = a < _F_A_CLAMP_A
    if tiny_a.any():
        # a / _F_A_MIN_Z for the tiny a only; it overflows for the others
        cap = np.divide(a, _F_A_MIN_Z, out=np.full(a.shape, np.inf), where=tiny_a)
        safe = np.minimum(safe, cap)
    z = a / safe
    near = np.minimum(z, _F_A_SWITCH)
    # e1_scaled(near) without its checks and its series, which starts at 600
    out = x - a * (np.exp(near) * scipy.special.exp1(near))
    far = z > _F_A_SWITCH
    if far.any():
        out = np.where(far, safe * _e2_scaled(np.maximum(z, _F_A_SWITCH)), out)
    out = np.where(pos, out, 0.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# The counting-constant pipeline.

def corollary_constant(f, d: int) -> float:
    """int_0^inf f(s) s^{-d/2 - 1} ds for a callable f, d >= 3.

    f maps a float s >= 0 to a float (a ScalarFunctionClass qualifies).
    Convergence needs f to vanish faster than s^{d/2} at the origin and to
    grow slower than s^{d/2} at infinity; the caller guarantees both, and
    a divergent integral surfaces as a quadrature failure.  The integral
    is taken by adaptive quadrature under the substitution s = u^2, which
    flattens the integrable endpoint behavior.
    """
    d = int(d)
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got {d}")

    def integrand(u: float) -> float:
        s = u * u
        return 2.0 * float(f(s)) * u ** (-(d + 1))

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
