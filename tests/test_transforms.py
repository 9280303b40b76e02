import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from clrlab.timeorder import ScalarFunctionClass
from clrlab.transforms import (
    c_a,
    classical_constant,
    corollary_constant,
    e1_scaled,
    exp_integral_E1,
    f_a_eval,
    f_a_transform,
    laplace_type_transform,
    lt_rhs,
    lw_product_check,
    minimize_R,
    r_bound,
    r_of_a,
)

# Frozen oracle values, computed once with mpmath at 30 digits and pasted
# here so the tests do not depend on the implementation under test.
E1_ORACLE = {
    0.7: 0.37376884323350966,
    1.0: 0.21938393439552027,
    1.13: 0.17716661516956421,
    2.0: 0.04890051070806112,
}
# e^x E_1(x) on both sides of the switch to the asymptotic series at 600,
# computed once with mpmath at 40 digits.
E1_SCALED_ORACLE = {
    1e-6: 13.238309131365003,
    0.7: 0.7526780200295872,
    5.0: 0.1704221762847322,
    599.0: 0.0016666712809790046,
    601.0: 0.0016611341366314562,
    1e4: 9.999000199940023e-05,
    1e9: 9.99999999e-10,
}
F_A1_ORACLE_113 = 0.380254908244127      # 1 - a e^a E1(a) at a = 1.13
C_A_ORACLE_113 = 0.174470106585476       # (1/8)(pi a)^{-1/2} / F_a(1)
L03_ORACLE = 0.016886863940389628        # 1/(6 pi^2)
A_STAR_ORACLE = 1.13113507510503         # golden-section refined argmin
R_STAR_ORACLE = 10.3317046               # value at the argmin


# ---------------------------------------------------------------------------
# semiclassical constants

def test_classical_constant_d3_gamma0():
    want = 1.0 / (6.0 * math.pi**2)
    assert abs(classical_constant(0.0, 3) - want) < 1e-12 * want
    assert abs(classical_constant(0.0, 3) - L03_ORACLE) < 1e-15


def test_classical_constant_gamma32_d1():
    assert abs(classical_constant(1.5, 1) - 3.0 / 16.0) < 1e-15


def _radial_quadrature(gamma, d):
    # independent oracle: (2 pi)^{-d} |S^{d-1}| int_0^1 (1-r^2)^g r^{d-1} dr
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    val, err = quad(lambda r: (1.0 - r * r) ** gamma * r ** (d - 1), 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-10
    return (2.0 * math.pi) ** (-d) * sphere * val


def test_classical_constant_vs_radial_quadrature():
    for d in range(1, 11):
        for gamma in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            got = classical_constant(gamma, d)
            want = _radial_quadrature(gamma, d)
            assert abs(got - want) < 1e-8 * want


def test_classical_constant_domain():
    with pytest.raises(ValueError):
        classical_constant(-0.1, 3)
    with pytest.raises(ValueError):
        classical_constant(0.0, 0)


def test_lw_product_identity_d4():
    # 1/(6 pi^2) * 3/16 = 1/(32 pi^2) = L_{0,4}: identity is exact in
    # closed form, so the residual is pure rounding
    assert lw_product_check(4) < 1e-14


def test_lw_product_through_d20():
    for d in range(4, 21):
        assert lw_product_check(d) < 1e-12
    with pytest.raises(ValueError):
        lw_product_check(3)


def test_r_bound_piecewise_with_boundaries():
    assert r_bound(0.0) == pytest.approx(10.332)
    assert r_bound(0.49) == pytest.approx(10.332)
    assert r_bound(0.5) == pytest.approx(2.0 * math.pi / math.sqrt(3.0))
    assert r_bound(0.99) == pytest.approx(2.0 * math.pi / math.sqrt(3.0))
    assert r_bound(1.0) == pytest.approx(math.pi / math.sqrt(3.0))
    assert r_bound(1.5) == pytest.approx(1.0)
    assert r_bound(7.0) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# exponential integral

def test_e1_frozen_oracle_values():
    for a, want in E1_ORACLE.items():
        assert abs(exp_integral_E1(a) - want) < 1e-13 * want


def test_e1_reference_values():
    assert abs(exp_integral_E1(1.0) - 0.219384) < 1e-6
    assert abs(exp_integral_E1(1.13) - 0.177167) < 1e-6


def test_e1_scaled_frozen_oracle_values():
    for x, want in E1_SCALED_ORACLE.items():
        assert abs(e1_scaled(x) - want) < 1e-14 * want
    xs, want = map(np.array, zip(*E1_SCALED_ORACLE.items()))
    assert np.all(np.abs(e1_scaled(xs) - want) < 1e-14 * want)


def test_e1_asymptotics_and_scaled_form():
    vals = [a * math.exp(a) * exp_integral_E1(a) for a in (5.0, 10.0, 25.0, 50.0)]
    assert all(v < 1.0 for v in vals)
    assert vals == sorted(vals)  # monotone toward 1
    assert abs(vals[-1] - 1.0) < 0.02
    for a in (0.3, 1.0, 4.0, 40.0):
        assert abs(e1_scaled(a) - math.exp(a) * exp_integral_E1(a)) < 1e-12


def test_e1_domain():
    with pytest.raises(ValueError):
        exp_integral_E1(0.0)
    with pytest.raises(ValueError):
        exp_integral_E1(-1.0)
    for bad in (np.array([1.0, 0.0]), np.array([2.0, math.nan])):
        with pytest.raises(ValueError):
            exp_integral_E1(bad)
        with pytest.raises(ValueError):
            e1_scaled(bad)


# ---------------------------------------------------------------------------
# f_a family

def test_f_a_eval_basics():
    assert f_a_eval(1.0, 0.0) == 0.0
    assert f_a_eval(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_f_a_eval_decomposition():
    # mu^2/(mu+a) = mu - a + a^2/(mu+a)
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = float(rng.uniform(0.1, 5.0))
        mu = float(rng.uniform(0.0, 20.0))
        lhs = f_a_eval(a, mu)
        rhs = mu - a + a * a / (mu + a)
        assert abs(lhs - rhs) < 1e-13 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# Laplace-type transform

def test_laplace_closed_form_mu_exp():
    # f = mu e^{-alpha mu}: F(lambda) = lambda/(1+alpha lambda)
    for alpha in (0.5, 1.0, 2.0):
        for lam in (0.5, 1.0, 2.0):
            got = laplace_type_transform(
                lambda mu, a=alpha: mu * math.exp(-a * mu), lam)
            want = lam / (1.0 + alpha * lam)
            assert abs(got - want) < 1e-9


def test_laplace_single_power():
    f = ScalarFunctionClass(poly_coeffs=(0.0, 1.0), exp_atoms=())
    assert abs(laplace_type_transform(f, 2.0) - 2.0) < 1e-10


def test_laplace_atom_minus_constant_frullani():
    # independent closed form: int (e^{-r mu} - 1) e^{-mu/lam} dmu/mu
    # = -log(1 + r lam)
    for r in (0.4, 1.0, 3.0):
        for lam in (0.5, 2.0):
            f = ScalarFunctionClass(poly_coeffs=(-2.0,), exp_atoms=((2.0, r),))
            got = laplace_type_transform(f, lam)
            want = -2.0 * math.log(1.0 + r * lam)
            assert abs(got - want) < 1e-9 * (1.0 + abs(want))


def test_laplace_domain():
    f = ScalarFunctionClass(poly_coeffs=(0.0, 1.0), exp_atoms=())
    with pytest.raises(ValueError):
        laplace_type_transform(f, 0.0)


def test_f_a_transform_closed_form_vs_quadrature():
    # F_a(lam) = lam - a e^{a/lam} E1(a/lam): check against direct
    # quadrature of the defining integral with the exact f_a
    for a in (0.7, 1.13, 2.0):
        for lam in (0.5, 1.0, 3.0):
            want = laplace_type_transform(lambda mu: f_a_eval(a, mu), lam)
            got = f_a_transform(a, lam)
            assert abs(got - want) < 1e-9 * (1.0 + abs(want))


def test_f_a_transform_elementwise_matches_scalar_calls():
    a = 1.13
    lam = np.array([0.0, 1e-9, 1e-4, 0.3, 1.0, 7.5, 1e6])  # 1e-9: a/lam > 600
    got = f_a_transform(a, lam)
    assert isinstance(got, np.ndarray) and got.shape == lam.shape
    assert list(got) == [f_a_transform(a, float(x)) for x in lam]
    assert got[0] == 0.0 and isinstance(f_a_transform(a, 0.0), float)
    assert np.all(np.diff(got) > 0.0)
    for bad in (np.array([1.0, -0.5]), np.array([0.0, math.nan])):
        with pytest.raises(ValueError):
            f_a_transform(a, bad)


def test_f_a_transform_rejects_infinite_lambda():
    # the limit is inf, but inf - a e^0 E_1(0) would be inf - inf = nan
    with np.errstate(invalid="raise"):
        for bad in (math.inf, -math.inf, np.array([0.4, math.inf])):
            with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
                f_a_transform(1.0, bad)
        assert f_a_transform(1.0, 1.7e308) == 1.7e308


def test_f_a_transform_is_zero_without_warning_where_a_over_lam_overflows():
    # a/lam overflows for lam <= a 2^-1023; F_a < lam 2^-1023 rounds to 0 there
    edge = 1.13 * 2.0**-1023
    lam = np.array([5e-324, 1e-310, edge, np.nextafter(edge, 1.0), 1e-300])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for x in lam:
            assert f_a_transform(1.13, float(x)) == 0.0
        assert np.all(f_a_transform(1.13, lam) == 0.0)
        # still positive where the value is a normal float: lam^2 / a (1 - 2 lam / a)
        assert f_a_transform(1.13, 1e-150) == pytest.approx(1e-300 / 1.13, rel=1e-14)
        assert f_a_transform(2.0**971, 1.0) == pytest.approx(2.0**-971, rel=1e-14)


def test_f_a_transform_is_lam_without_warning_where_a_over_lam_underflows():
    # a/lam rounds to 0 for lam > a 2^1074, where e^z E_1(z) would be inf and
    # F_a is lam to within rounding (correction below lam 2^-1074 ln(lam/a))
    a = 1e-300
    edge = a / 2.0**-1074
    huge = [np.nextafter(edge, np.inf), 1e300, 1.7e308]
    with np.errstate(all="raise"):
        for x in huge:
            assert f_a_transform(a, x) == x
        got = f_a_transform(a, np.array(huge + [0.0, 1.0]))
    assert list(got) == huge + [0.0, f_a_transform(a, 1.0)]
    # where a/lam >= 2^-1074 the closed form is evaluated as it stands
    for x in (edge, 1e20, 1.0):  # z = 2^-1074, 1e-320, 1e-300
        z = a / x
        assert f_a_transform(a, x) == x - a * (np.exp(z) * scipy.special.exp1(z))


def test_f_a_transform_array_a_equals_the_per_a_scalar_loop():
    # one row per a, byte for byte the scalar calls: lam on both sides of
    # z = a/lam = 10, lam <= a 2^-1023 (the value is 0), lam near a 2^1074
    # (the value is lam; only a below 2^-50 meets it) and a below that clamp
    a = np.array([0.7, 1.13, 2.0, 2.0**-60, 1e-300])
    edge = 1e-300 / 2.0**-1074
    lam = [0.0, 5e-324, 1e-310, 0.7 * 2.0**-1023, 1.13 * 2.0**-1023, 1e-300, 1e-9,
           0.3, 1.0, 7.5, 1e6, np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf),
           1e300, 1.7e308]
    for ai in a:
        for z10 in (ai / 10.0, np.nextafter(ai / 10.0, 0.0), np.nextafter(ai / 10.0, 1.0)):
            lam.append(z10)
    lam = np.array(lam)
    got = f_a_transform(a[:, None], lam)
    want = np.array([[f_a_transform(float(ai), float(x)) for x in lam] for ai in a])
    assert got.shape == (a.size, lam.size)
    assert got.tobytes() == want.tobytes()
    # the clamped row is lam beyond a 2^1074, the other rows 0 below a 2^-1023
    assert np.array_equal(got[4, lam > edge], lam[lam > edge])
    assert np.all(got[:3, lam <= 0.7 * 2.0**-1023] == 0.0)
    # a 1-D a against a scalar lambda, and a 0-d pair as a float
    assert f_a_transform(a, 1.0).tobytes() == want[:, lam.tolist().index(1.0)].tobytes()
    assert isinstance(f_a_transform(np.float64(1.13), 1.0), float)


def test_f_a_transform_rejects_a_bad_a_in_the_stack():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"a must be positive, got {bad}"):
            f_a_transform(np.array([[1.13], [bad]]), np.array([0.5, 1.0]))


# ---------------------------------------------------------------------------
# corollary constant

def test_corollary_f_a_closed_form():
    # oracle: int_0^inf s^{-1/2} (s+a)^{-1} ds = pi / sqrt(a)
    for a, want in ((1.0, math.pi), (4.0, math.pi / 2.0)):
        got = corollary_constant(lambda s, aa=a: f_a_eval(aa, s), 3)
        assert abs(got - want) < 1e-8


def test_corollary_scaling_identity():
    # int f(t v) t^{-d/2-1} dt = v^{d/2} int f(s) s^{-d/2-1} ds at v=2, d=3
    a = 1.0
    base = corollary_constant(lambda s: f_a_eval(a, s), 3)
    scaled = corollary_constant(lambda t: f_a_eval(a, 2.0 * t), 3)
    assert abs(scaled - 2.0**1.5 * base) < 1e-8 * (1.0 + abs(scaled))


def test_corollary_rejects_surviving_taylor_terms():
    # polynomial growth faster than s^{d/2} diverges at infinity
    g = ScalarFunctionClass(poly_coeffs=(0.0, 0.0, 1.0), exp_atoms=())
    with pytest.raises(ValueError):
        corollary_constant(g, 3)


def test_corollary_admissible_d5_function():
    # s^3/(s+a) has a triple zero at the origin; closed form is pi/sqrt(a)
    got = corollary_constant(lambda s: s**3 / (s + 2.0), 5)
    assert abs(got - math.pi / math.sqrt(2.0)) < 1e-8


def test_corollary_second_difference_atoms():
    # f = e^{-s} - 2 e^{-2s} + e^{-3s} = e^{-s}(1-e^{-s})^2 vanishes to
    # second order at 0; oracle from Gamma(-3/2) = 4 sqrt(pi)/3:
    # int (e^{-rs} - 1 + rs) s^{-5/2} ds = (4 sqrt(pi)/3) r^{3/2}.
    # The factored form avoids the cancellation that wrecks the naive
    # three-term difference at small s.
    def combo(s):
        return math.exp(-s) * math.expm1(-s) ** 2

    got = corollary_constant(combo, 3)
    c = 4.0 * math.sqrt(math.pi) / 3.0
    want = c * (1.0 - 2.0 * 2.0**1.5 + 3.0**1.5)
    assert abs(got - want) < 1e-8 * (1.0 + abs(want))


def test_corollary_domain():
    with pytest.raises(ValueError):
        corollary_constant(lambda s: s, 2)


# ---------------------------------------------------------------------------
# C_a pipeline and minimization

def test_c_a_at_reference_point():
    got = c_a(1.13)
    assert abs(got - 0.174467) < 1e-5      # six-figure reference value
    assert abs(got - C_A_ORACLE_113) < 1e-12


def test_c_a_uses_sign_corrected_transform():
    # F_a(1) = 1 - a e^a E1(a); the "+" variant would give ~1.62 and an
    # R(1.13) near 2.4, below the 8/sqrt(3) lower bound
    f1 = 1.0 - 1.13 * e1_scaled(1.13)
    assert abs(f1 - F_A1_ORACLE_113) < 1e-12
    got = c_a(1.13)
    want = 0.125 / math.sqrt(math.pi * 1.13) / f1
    assert abs(got - want) < 1e-14
    assert r_of_a(1.13) > 8.0 / math.sqrt(3.0)


def test_r_at_reference_point_three_figures():
    assert abs(r_of_a(1.13) - 10.33) < 5e-3


def test_c_a_assembly_consistency():
    # (4 pi)^{-3/2} F_a(1)^{-1} corollary_constant(f_a, 3) = C_a
    for a in (0.5, 1.13, 2.0):
        f1 = 1.0 - a * e1_scaled(a)
        cc = corollary_constant(lambda s, aa=a: f_a_eval(aa, s), 3)
        assembled = (4.0 * math.pi) ** (-1.5) * cc / f1
        assert abs(assembled - c_a(a)) < 1e-6 * c_a(a)


def test_minimize_r_window():
    a_star, r_star = minimize_R(0.5, 3.0)
    assert 10.32 <= r_star <= 10.34
    assert 1.05 <= a_star <= 1.25
    assert r_star > 8.0 / math.sqrt(3.0)
    assert abs(a_star - A_STAR_ORACLE) < 1e-5
    assert abs(r_star - R_STAR_ORACLE) < 1e-6


def test_minimize_r_against_reference_point():
    a_star, r_star = minimize_R(0.5, 3.0)
    r_ref = r_of_a(1.13)
    assert r_star <= r_ref + 1e-12
    assert r_ref <= r_star + 1e-3


def test_minimize_r_stable_under_interval_perturbation():
    a0, r0 = minimize_R(0.5, 3.0)
    a1, r1 = minimize_R(0.4, 3.6)
    a2, r2 = minimize_R(0.6, 2.4)
    assert abs(a1 - a0) < 1e-5 and abs(a2 - a0) < 1e-5
    assert abs(r1 - r0) < 1e-9 and abs(r2 - r0) < 1e-9


def test_minimize_r_domain():
    with pytest.raises(ValueError):
        minimize_R(2.0, 1.0)
    with pytest.raises(ValueError):
        minimize_R(0.0, 1.0)


# ---------------------------------------------------------------------------
# Lieb-Thirring right-hand side

def test_lt_rhs_regime_constants():
    m = 0.7
    got = lt_rhs(0.5, 3, m)
    want = (2.0 * math.pi / math.sqrt(3.0)) * classical_constant(0.5, 3) * m
    assert abs(got - want) < 1e-12 * want
    got = lt_rhs(2.0, 3, m)
    want = classical_constant(2.0, 3) * m
    assert abs(got - want) < 1e-12 * want
    got = lt_rhs(0.1, 3, m)
    want = 10.332 * classical_constant(0.1, 3) * m
    assert abs(got - want) < 1e-12 * want


def test_lt_rhs_domain():
    with pytest.raises(ValueError):
        lt_rhs(0.0, 3, 1.0)
    with pytest.raises(ValueError):
        lt_rhs(1.0, 2, 1.0)
    with pytest.raises(ValueError):
        lt_rhs(1.0, 3, -1.0)


# F_a(lam) at a = 1.13 from mpmath at 50 digits, for the exact double lam:
# lam/a = 1e-3, 1e-6, 1e-9, then a/lam = 9.5, 10.5 (either side of the
# switch to lam e^z E_2(z)) and 599, 601 (either side of its series).
F_A_FROZEN = [
    (0.00113, 1.1277467530147920129e-6),
    (1.1299999999999998e-06, 1.1299977400067796172e-12),
    (1.13e-09, 1.1299999977400001673e-18),
    (0.11894736842105262, 0.010482479659142586415),
    (0.10761904761904761, 0.0087081964206664386086),
    (0.0018864774624373956, 3.1389149311205106765e-6),
    (0.0018801996672212977, 3.1180928277522424462e-6),
]


def test_f_a_transform_accurate_as_lambda_over_a_vanishes():
    lam = np.array([x for x, _ in F_A_FROZEN])
    want = np.array([v for _, v in F_A_FROZEN])
    got = f_a_transform(1.13, lam)
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    for x, v in F_A_FROZEN:
        assert abs(f_a_transform(1.13, x) - v) <= 1e-14 * v
