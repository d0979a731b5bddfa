"""Asymptotic predictors, invariant measure of the conditioned chain,
Laplace transforms and the limit law.

Partial-sum oracles are closed forms derived from the binomial structure
(cumulative sums of generalized binomial coefficients telescope), computed
here with log-gamma and frozen against the series machinery.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, gammaln

from critlab import (
    DomainError,
    Family,
    ModelParams,
    SolverError,
    d_limit,
    delta_sup,
    evolve_series,
    exact_R,
    first_order_ratio,
    fit_rate,
    make_scale_function,
    normalized_error_q,
    pi_coeffs,
    pi_of,
    predict_p11,
    predict_q,
    psi_finite,
    psi_limit,
    qproc_gf_ratio,
    qproc_gf_second_order,
    solve_normalizer,
    tauberian_ratio,
)
from critlab import asymptotics
from critlab.acceptance import _limit_cdf
from critlab.asymptotics import default_theta_grid, laplace_sup_profile_max
from critlab.kolmogorov_engine import SolveConfig
from critlab import laplace
from critlab.laplace import talbot

import reference

CONST = make_scale_function(ModelParams(0.5, 1.0, Family.CONSTANT))
COUPLED = make_scale_function(ModelParams(0.5, 1.0, Family.COUPLED_DRIFT))


def binom_cumsum(alpha: float, m: int) -> float:
    """sum_{k=0..m} C(k+alpha, k) = C(m+alpha+1, m) by telescoping."""
    return math.exp(gammaln(m + alpha + 2.0) - gammaln(m + 1.0) - gammaln(alpha + 2.0))


def test_predict_q_constant_family():
    # leading term (nu a0 t)^{-1/nu}; correction vanishes with zero drift
    assert predict_q(CONST, 100.0) == pytest.approx((0.5 * 100.0) ** -2.0, rel=1e-12)
    # (q/leading - 1) * t stays bounded (the 1/a0 offset drives it to -2/nu)
    vals = [(exact_R(CONST, 0.0, t) / predict_q(CONST, t) - 1.0) * t for t in (1e2, 1e4, 1e6)]
    assert all(abs(v) < 5.0 for v in vals)
    with pytest.raises(DomainError):
        predict_q(CONST, 0.5)


def test_predicted_value_close_at_large_t():
    # leftover terms are O(1/t) + o(log t / t); at t = 1e6 that is ~1e-5
    t = 1e6
    assert predict_q(COUPLED, t) == pytest.approx(exact_R(COUPLED, 0.0, t), rel=2e-5)
    scaled = (0.5 * t) ** 3 * reference.p11_exact(COUPLED, t)
    assert predict_p11(COUPLED, t) == pytest.approx(scaled, rel=2e-5)


def test_normalized_errors_in_band():
    assert 0.9 <= normalized_error_q(COUPLED, 1e8) <= 1.1
    assert 0.85 <= qproc_gf_second_order(COUPLED, 0.0, 1e8) <= 1.15


def test_normalized_errors_refuse_a_family_without_second_order_term():
    # the constant family's second-order term is 0: there is nothing to
    # divide the measured error by
    for fn in (normalized_error_q, lambda sf, t: qproc_gf_second_order(sf, 0.0, t)):
        with pytest.raises(DomainError, match="constant family has no second-order term"):
            fn(CONST, 1e4)


def test_gf_second_order_refuses_a_family_without_second_order_term():
    with pytest.raises(DomainError, match="constant family has no second-order term"):
        qproc_gf_second_order(CONST, 0.5, 1e6)


def test_gf_second_order_tends_to_p11s_as_s_goes_to_zero():
    # at s = 0 the G statistic is P11's: against the reference route, which
    # divides (nu*t)**(1+1/nu) * P_11(t) by N(t)/a0, the ratios share the one
    # (nu*t)**(1+1/nu) and differ by the few roundings after it (at most
    # 1.5 eps over this grid), which E multiplies by den/((1+nu)*num)
    eps = np.finfo(float).eps
    for a0 in (0.3, 3.7, 41.0):
        for nu in (0.1, 0.5, 0.9):
            sf = make_scale_function(ModelParams(nu, a0, Family.COUPLED_DRIFT))
            for t in (1e4, 1e6, 1e8, 1e10):
                num, den = sf.second_order(1.0, t)
                want = reference.quotient_normalized_error(sf, 0.0, t)
                assert abs(qproc_gf_second_order(sf, 0.0, t) - want) <= 8.0 * eps * den / ((1.0 + nu) * num)
    # G(t;s)/s -> P_11(t) and the term from R(0) = 1 - s -> the one from 1, so
    # the statistic at s tends to the one at 0, about 1.3*s apart at t = 1e6
    target = qproc_gf_second_order(COUPLED, 0.0, 1e6)
    ss = (1e-2, 1e-4, 1e-6)
    gaps = [abs(qproc_gf_second_order(COUPLED, s, 1e6) - target) for s in ss]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert all(g < 2.0 * s for g, s in zip(gaps, ss))


@given(fam=st.sampled_from([Family.CONSTANT, Family.COUPLED_DRIFT]), nu=st.floats(0.05, 0.97),
       log10_a0=st.floats(-3.0, 3.0), s=st.just(0.0) | st.floats(1e-6, 0.999),
       log10_t=st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
@example(fam=Family.COUPLED_DRIFT, nu=0.05, log10_a0=3.0, s=0.0, log10_t=10.0)
def test_statement_ratio_matches_mpmath(fam, nu, log10_a0, s, log10_t):
    # (nu*t)**(k + 1/nu) * R*decay_rate(R)**k / N(t) against the rate form at 50
    # digits, at the same R and N: P11's and G's ratio at k = 1, q's at k = 0.
    # Rounding 1 + 1/nu moves the power by up to p*eps, which (nu*t)**p turns
    # into p*|log(nu*t)|*eps; rounding nu*t adds p*eps/2 and the products a few
    # eps. The bound is p*(|log(nu*t)| + 1) + 8 eps: over 4767 random draws
    # the ratio came within 0.62 of it at k = 1 and 0.41 at k = 0, while the
    # quotient routes of reference.quotient_ratio, which cancel in 1 - y**nu
    # near s = 0, reached 899 eps, 55 times the bound at that draw
    pytest.importorskip("mpmath")
    sf = make_scale_function(ModelParams(nu, 10.0**log10_a0, fam))
    t = 10.0**log10_t
    assume(sf.normalizer_defined(t))
    ref = reference.RateFormMpmath(sf.rate_form(), sf.nu)
    r, N = exact_R(sf, s, t), solve_normalizer(sf, t)
    cases = [(1, qproc_gf_ratio(sf, s, t))]
    if s == 0.0:
        cases.append((0, asymptotics._ratio(sf, 0.0, t, 0)))
    for k, got in cases:
        want = ref.statement_ratio(k, t, r, N)
        p = k + 1.0 / nu
        bound = p * (abs(math.log(nu * t)) + 1.0) + 8.0
        assert abs(got - want) <= bound * np.finfo(float).eps * want, k


@pytest.mark.parametrize("nu", [0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.97])
def test_second_order_statements_approach_one_over_the_nu_range(nu):
    # C4's monotone check, not a band: the approach is about 1/log t (nu = 0.1
    # reads 0.909 at t = 1e12). At nu = 0.3, s = 0.75 the G statistic first
    # moves away (1.0171 at t = 1e4, 1.0226 at 1e6), so each gap must shrink
    # from 1e6 on and end below where it started
    sf = make_scale_function(ModelParams(nu, 1.0, Family.COUPLED_DRIFT))
    statements = [("q", lambda t: normalized_error_q(sf, t)),
                  ("p11", lambda t: qproc_gf_second_order(sf, 0.0, t))]
    statements += [(f"G at s={s}", lambda t, s=s: qproc_gf_second_order(sf, s, t))
                   for s in (0.25, 0.5, 0.75)]
    for name, E in statements:
        gaps = [abs(E(t) - 1.0) for t in (1e4, 1e6, 1e8, 1e10, 1e12)]
        assert all(a > b for a, b in zip(gaps[1:], gaps[2:])), name
        assert gaps[-1] < gaps[0], name


def test_second_order_not_converged_in_burn_in():
    # at t = 1e4 the normalized error is still ~7.5% away from 1: a 1% band
    # there is expected to fail, which documents the burn-in region
    assert abs(normalized_error_q(COUPLED, 1e4) - 1.0) > 0.01


def test_leading_order_recovery_all_families():
    # R(t;s) * (nu t)^{1/nu} / N(t) -> 1 for every family and s
    from critlab import exact_R

    binary = make_scale_function(ModelParams(1.0, 1.0, Family.BINARY_SPLIT))
    for sf in (CONST, COUPLED, binary):
        for s in (0.0, 0.5, 0.9):
            ratios = []
            for t in (1e4, 1e6, 1e8):
                N = solve_normalizer(sf, t)
                ratios.append(exact_R(sf, s, t) * (sf.nu * t) ** (1.0 / sf.nu) / N)
            gaps = [abs(r - 1.0) for r in ratios]
            assert all(a > b for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-3


def test_p11_exact_matches_series():
    cfg = SolveConfig(rel_tol=1e-11, abs_tol=1e-13)
    for t in (1.0, 10.0, 100.0):
        st = evolve_series(CONST, 256, t, cfg)
        assert st.coeffs[1] == pytest.approx(reference.p11_exact(CONST, t), abs=1e-8)


@given(fam=st.sampled_from([Family.CONSTANT, Family.COUPLED_DRIFT]), nu=st.floats(0.05, 0.95),
       a0=st.floats(0.05, 5.0).filter(lambda a0: a0 != 1.0), log10_t=st.floats(-2.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_p11_from_the_quotient_matches_mpmath(fam, nu, a0, log10_t):
    # P_11 = q * decay_rate(q)/decay_rate(1) at the oracle's q, against the
    # rate form at 50 digits. constant rounds np.power and three operations
    # (decay_rate(1) = a0 exactly); coupled_drift adds three more in each
    # denominator, and a scan of 6000 points found one at 4 ulp, so 5 there
    pytest.importorskip("mpmath")
    sf = make_scale_function(ModelParams(nu, a0, fam))
    t = 10.0**log10_t
    want = reference.RateFormMpmath(sf.rate_form(), sf.nu).f_quotient(1.0, 1.0, exact_R(sf, 0.0, t))
    bound = 3.0 if fam is Family.CONSTANT else 5.0
    assert abs(reference.p11_exact(sf, t) - want) <= bound * math.ulp(want)


def test_pi_small_s_limit():
    for sf in (CONST, COUPLED):
        for s in (1e-4, 1e-6):
            assert pi_of(sf, s) / s == pytest.approx(1.0 / sf.a0, rel=1e-3)
    with pytest.raises(DomainError):
        pi_of(CONST, 0.0)


def test_pi_coeffs_positive_and_match_closed_partial_sums():
    n = 500
    pm_c = pi_coeffs(CONST, n)
    pm_d = pi_coeffs(COUPLED, n)
    assert np.all(pm_c.coeffs >= 0.0) and np.all(pm_d.coeffs >= 0.0)
    # constant: sum_{j<=n} pi_j = C(n+nu, n-1)/a0
    expect_c = binom_cumsum(0.5, n - 1)
    assert pm_c.partial_sums[n] == pytest.approx(expect_c, rel=1e-12)
    # coupled: (nu+a0)/(nu a0) * C(n+nu, n-1) - n/nu
    expect_d = 3.0 * binom_cumsum(0.5, n - 1) - 2.0 * n
    assert pm_d.partial_sums[n] == pytest.approx(expect_d, rel=1e-10)


def test_pi_first_coefficient():
    # pi_1 = 1/a0 for both families (small-s slope of pi)
    assert pi_coeffs(CONST, 4).coeffs[1] == pytest.approx(1.0)
    assert pi_coeffs(COUPLED, 4).coeffs[1] == pytest.approx(1.0)


def test_tauberian_ratio_tends_to_one():
    r1 = tauberian_ratio(CONST, 10**4)
    r2 = tauberian_ratio(COUPLED, 10**4)
    assert r1 == pytest.approx(1.0, abs=0.01)
    assert r2 == pytest.approx(1.0, abs=0.05)
    # and it improves with n
    assert abs(tauberian_ratio(COUPLED, 10**4) - 1.0) < abs(tauberian_ratio(COUPLED, 10**2) - 1.0)


def test_psi_limit_values():
    assert psi_limit(0.5, 0.0) == 1.0
    assert psi_limit(0.5, 1.0) == pytest.approx(0.125, rel=1e-15)
    grid = np.logspace(-2, 2, 20)
    vals = psi_limit(0.5, grid)
    assert np.all(np.diff(vals) < 0.0)


def test_psi_finite_range_and_convergence():
    for th in (0.1, 1.0, 10.0):
        gaps = []
        for t in (1e2, 1e3, 1e4, 1e5, 1e6):
            v = psi_finite(COUPLED, t, th)
            assert 0.0 < v <= 1.0
            gaps.append(abs(v - psi_limit(0.5, th)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_psi_finite_second_order_profile():
    # gap = Psi(theta) * theta^nu/(1+theta^nu) * (1+nu)/nu^3 * log t/t (1+o(1))
    t, th = 1e6, 1.0
    gap = psi_finite(COUPLED, t, th) - psi_limit(0.5, th)
    profile = psi_limit(0.5, th) * (th**0.5 / (1 + th**0.5)) * 12.0 * math.log(t) / t
    assert gap / profile == pytest.approx(1.0, abs=0.2)


@given(
    family=st.sampled_from([Family.CONSTANT, Family.COUPLED_DRIFT]),
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.1, 10.0),
    log10_t=st.floats(0.0, 6.0),
    log10_theta=st.floats(-3.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_psi_finite_array_matches_scalar_calls(family, nu, a0, log10_t, log10_theta):
    sf = make_scale_function(ModelParams(nu, a0, family))
    t = 10.0**log10_t
    thetas = 10.0**log10_theta * np.array([[1.0, 0.5], [0.1, 3.0]])
    got = psi_finite(sf, t, thetas)
    scalar = [psi_finite(sf, t, float(th)) for th in thetas.ravel()]
    assert all(isinstance(v, float) for v in scalar)
    assert got.shape == thetas.shape
    assert got.ravel().tobytes() == np.array(scalar).tobytes()


def test_psi_finite_keeps_precision_at_large_theta_q():
    # constant family in closed form: G(t;s) = s * (1 + c*(1-s)**nu)**-(1+1/nu)
    # with c = nu*a0*t and s = exp(-theta*q(t)); 1 - s formed from s would
    # lose every digit of s once exp(-theta*q) is small
    from critlab import G_of

    mpmath = pytest.importorskip("mpmath")
    t = 1.0
    q = exact_R(CONST, 0.0, t)
    with mpmath.workdps(40):
        nu, c = mpmath.mpf(1) / 2, mpmath.mpf(1) / 2
        q_mp = (1 + c) ** (-1 / nu)

        def closed(s):
            return s * (1 + c * (1 - s) ** nu) ** (-(1 + 1 / nu))

        for theta_q in (1.0, 10.0, 22.0, 31.0, 35.6, 40.0, 100.0, 700.0):
            theta = theta_q / q
            expect = closed(mpmath.exp(-mpmath.mpf(theta) * q_mp))
            assert psi_finite(CONST, t, theta) == pytest.approx(float(expect), rel=1e-13)
        # 1 - s rounds to 1 at s = 1e-20, which G_of accepts
        expect = closed(mpmath.mpf(1e-20))
        assert G_of(CONST, 1e-20, t) == pytest.approx(float(expect), rel=1e-14)


def test_psi_finite_is_zero_past_the_underflow_of_s():
    # W >= 1 gives psi_t(theta) <= exp(-theta q), which is 0.0 in doubles
    # from theta*q(t) = 745 on; a grid reaching that far keeps its sup
    q = exact_R(CONST, 0.0, 1.0)
    assert psi_finite(CONST, 1.0, 750.0 / q) == 0.0
    vals = psi_finite(CONST, 1.0, np.array([1.0, 740.0 / q, 750.0 / q, 1e6 / q]))
    assert vals[0] == psi_finite(CONST, 1.0, 1.0) and 0.0 < vals[1] < 1e-320
    assert np.all(vals[2:] == 0.0)
    sup, arg = delta_sup(COUPLED, 10.0, np.logspace(-3.0, 5.0, 400))
    assert sup == pytest.approx(0.19447, abs=1e-5) and arg == pytest.approx(0.13345, abs=1e-5)


def test_delta_sup_refuses_a_non_finite_gap(monkeypatch):
    # psi_finite takes G over the whole theta grid in one array call
    monkeypatch.setattr(
        asymptotics, "G_of", lambda sf, s, t, one_minus_s: np.full(np.shape(s), math.nan)
    )
    with pytest.raises(SolverError, match=re.escape("non-finite transform gap at t=1e+06")):
        delta_sup(COUPLED, 1e6)


def test_psi_finite_weak_complete_monotonicity():
    grid = np.linspace(0.1, 5.0, 30)
    vals = np.array([psi_finite(COUPLED, 1e4, th) for th in grid])
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(np.diff(vals, 2) > 0.0)


def test_delta_sup_interior_argmax_and_profile_normalization():
    sup, arg = delta_sup(COUPLED, 1e6)
    # interior maximum near (nu/(1+nu))^{1/nu} = 1/9
    assert 0.05 < arg < 0.25
    pred = laplace_sup_profile_max(0.5) * 12.0 * math.log(1e6) / 1e6
    assert sup / pred == pytest.approx(1.0, abs=0.2)
    assert laplace_sup_profile_max(0.5) == pytest.approx(27.0 / 256.0, rel=1e-12)


def test_delta_sup_runs_at_long_horizons():
    # the coupled oracle keeps its digits when w0 = 1/decay_rate(1-s) is far
    # above t, so the sup is defined past t = 1e12; the stated normalization
    # keeps rising toward M(nu) (0.10284 at t = 1e12, 0.10322 at t = 1e14 by
    # the 60-digit route; the double-precision gap carries ~3e-4 relative
    # cancellation error at 1e14)
    M = laplace_sup_profile_max(0.5)
    grid = default_theta_grid(200)
    for t in (1e13, 1e14):
        sup, arg = delta_sup(COUPLED, t, grid)
        stated = sup * 0.125 * t / (1.5 * math.log(t))
        assert 0.1028 < stated < M
        assert abs(math.log(9.0 * arg)) < math.log(grid[1] / grid[0])  # argmax -> 1/9
    assert stated == pytest.approx(0.10322, rel=2e-3)


def test_delta_sup_decreasing_and_small_theta_vanishes():
    s1, _ = delta_sup(COUPLED, 1e4)
    s2, _ = delta_sup(COUPLED, 1e5)
    assert s1 > s2
    # at the small-theta edge the gap shrinks with the second-order profile
    # theta^nu/(1+theta^nu) * Psi(theta), relative to the profile maximum
    th = 1e-3
    gap = abs(psi_finite(COUPLED, 1e4, th) - psi_limit(0.5, th))
    profile_frac = (th**0.5 / (1 + th**0.5)) * psi_limit(0.5, th) / laplace_sup_profile_max(0.5)
    assert gap / s1 == pytest.approx(profile_frac, rel=0.3)
    assert gap < 0.35 * s1


def test_delta_sup_matches_mpmath_route_and_profile_constant():
    # independent route for the coupled family: with z = R**-nu the backward
    # equation integrates to (nu+a0)(z - z0) - a0 log(z/z0) = nu**2 a0 t,
    # solved here by mpmath.findroot at 60 digits, without the package's
    # bracketing oracles; the double-precision sup differs by cancellation
    # in psi_finite - psi_limit only (about 3e-6 relative at t = 1e12)
    mpmath = pytest.importorskip("mpmath")
    grid = default_theta_grid(200)
    M = laplace_sup_profile_max(0.5)
    with mpmath.workdps(60):
        nu, a0 = mpmath.mpf(1) / 2, mpmath.mpf(1)

        def R(y0, t):
            z0 = y0**-nu
            z = mpmath.findroot(
                lambda z: (nu + a0) * (z - z0) - a0 * mpmath.log(z / z0) - nu**2 * a0 * t,
                z0 + nu**2 * a0 * t / (nu + a0),
            )
            return z ** (-1 / nu)

        def decay(y):
            return nu * a0 * y**nu / (nu + a0 * (1 - y**nu))

        stated, profile = [], []
        for t in (1e6, 1e8, 1e10, 1e12):
            tm = mpmath.mpf(t)
            q = R(mpmath.mpf(1), tm)
            gaps = []
            for th in grid:
                y0 = -mpmath.expm1(-mpmath.mpf(th) * q)
                r = R(y0, tm)
                G = (1 - y0) * r * decay(r) / (y0 * decay(y0))
                gaps.append(abs(G - (1 + mpmath.mpf(th) ** nu) ** (-(1 + 1 / nu))))
            k = max(range(len(grid)), key=lambda i: gaps[i])
            sup, arg = delta_sup(COUPLED, t, grid)
            assert sup == pytest.approx(float(gaps[k]), rel=1e-5)
            assert arg == grid[k]
            assert abs(math.log(9.0 * arg)) < math.log(grid[1] / grid[0])  # argmax -> 1/9
            stated.append(float(gaps[k]) * 0.125 * t / (1.5 * math.log(t)))
            profile.append(stated[-1] / M)
    # the stated normalization rises toward M(nu), the profile-normalized
    # one toward 1 (C7 asserts the latter at t = 1e6)
    assert all(a < b for a, b in zip(stated, stated[1:])) and stated[-1] < M
    assert all(a < b for a, b in zip(profile, profile[1:]))
    assert 0.94 < profile[0] < profile[-1] < 1.0
    assert profile[-1] > 0.97


def test_theta_grid_contract():
    assert len(default_theta_grid()) == 200
    with pytest.raises(DomainError):
        default_theta_grid(100)


def test_d_limit_cdf_shape():
    xs = np.array([1e-3, 0.1, 1.0, 10.0, 1e3])
    vals, meta = d_limit(0.5, xs)
    assert np.all(np.diff(vals) > 0.0)
    assert vals[0] < 1e-3  # D(0+) = 0
    assert meta["flagged_indices"] == []
    assert meta["max_disagreement"] < 1e-4


@pytest.mark.parametrize("grid", [[], [math.nan], [math.inf]], ids=["empty", "nan", "inf"])
def test_d_limit_rejects_empty_or_non_finite_grid(grid):
    with pytest.raises(DomainError):
        d_limit(0.5, grid)


def test_d_limit_refuses_x_outside_its_tested_range():
    # far outside [1e-6, 1e14] the inversions overflow: D came back nan at
    # 1e-300, 5e-324 and 1.7e308, and flagged at 1e300; the ends are kept
    for x in (0.0, 5e-324, 1e-300, 9.99e-7, 1.001e14, 1e300, 1.7e308):
        with pytest.raises(DomainError, match=re.escape("x in [1e-6, 1e14]")) as exc:
            d_limit(0.5, [1.0, x])
        assert f"got x={np.array([x])}" in str(exc.value)
    vals, meta = d_limit(0.5, [1e-6, 1e14])
    assert meta["flagged_indices"] == [] and np.all(np.isfinite(vals))


@given(nu=st.floats(0.02, 0.98), log10_x=st.floats(-6.0, 14.0))
@example(nu=0.5, log10_x=-4.0)
@example(nu=0.5, log10_x=6.0)
@settings(max_examples=200, deadline=None)
def test_array_inversions_match_the_scalar_reference(nu, log10_x):
    # the array routes round differently from the scalar node sums (numpy's
    # exp, pow and complex divide are not libm's or CPython's); Talbot's
    # terms of size e**(2M/5) ~ 2e8 cancel, so both carry ~3e-8 of noise
    x = 10.0**log10_x

    def cdf_transform(p):
        return (1.0 + p**nu) ** (-(1.0 + 1.0 / nu)) / p

    got = talbot(cdf_transform, x)
    assert isinstance(got, float)
    assert got == pytest.approx(reference.talbot(cdf_transform, x), abs=1e-7)
    got_gs = laplace.gaver_stehfest(cdf_transform, x)
    assert isinstance(got_gs, float)
    assert got_gs == pytest.approx(reference.gaver_stehfest(cdf_transform, x), abs=2e-6)
    # one call on a grid gives the same bits as one call per point
    grid = np.array([x, 2.0 * x])
    assert talbot(cdf_transform, grid)[0] == got
    assert laplace.gaver_stehfest(cdf_transform, grid)[0] == got_gs


@pytest.mark.parametrize("x", [[1.0, math.nan], [0.0]], ids=["nan", "zero"])
@pytest.mark.parametrize("invert", [talbot, laplace.gaver_stehfest], ids=["talbot", "gs"])
def test_inversions_refuse_x_not_positive(invert, x):
    with pytest.raises(ValueError, match="requires x > 0"):
        invert(lambda p: 1.0 / p, np.array(x))


def _d_closed_form(x):
    # nu = 1/2: D(x) = E erfc(G / (2 sqrt x)), G ~ Gamma(3)
    def integrand(g):
        return 0.5 * g * g * math.exp(-g) * erfc(g / (2.0 * math.sqrt(x)))

    return quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


def test_d_limit_matches_the_half_closed_form_on_c11s_grid():
    # between nodes C11's interpolant is checked at the quarter points and
    # at random x, not only at the midpoints, where an error odd about the
    # midpoint (PCHIP's, from estimated slopes, was 1.9e-7) vanishes
    xs = np.logspace(-6.0, 14.0, 801)
    vals, meta = d_limit(0.5, xs)
    assert meta["flagged_indices"] == []
    assert np.max(np.abs(vals - [_d_closed_form(x) for x in xs])) < 3e-8
    cdf = _limit_cdf(0.5)
    u = np.log(xs)
    rng = np.random.default_rng(2024)
    for w in (0.25, 0.5, 0.75):
        between = np.exp((1.0 - w) * u[:-1] + w * u[1:])
        assert np.max(np.abs(cdf(between) - [_d_closed_form(x) for x in between])) < 3e-8
    anywhere = 10.0 ** rng.uniform(-6.0, 14.0, 300)
    assert np.max(np.abs(cdf(anywhere) - [_d_closed_form(x) for x in anywhere])) < 3e-8


@given(nu=st.floats(0.2, 0.9), cell=st.integers(0, 799), frac=st.floats(0.01, 0.99))
@example(nu=0.5, cell=252, frac=0.25)  # a quarter point near x = 2
@example(nu=0.9, cell=264, frac=0.5)  # the cubic's largest error, 4.6e-8
@example(nu=0.2, cell=799, frac=0.99)
@example(nu=0.9, cell=0, frac=0.01)
@settings(max_examples=40, deadline=None)
def test_limit_law_matches_mpmath_off_the_nodes(nu, cell, frac):
    # log10 x = -6 + (cell + frac)/40 lies strictly inside one of the 800
    # intervals of C11's grid; the reference is 30-digit Talbot in mpmath.
    # d_limit's Talbot noise stays near 2e-8 at every nu; the cubic's own
    # error grows with nu, to 2e-8 at nu = 0.8 and 4.6e-8 at nu = 0.9
    x = 10.0 ** (-6.0 + (cell + frac) / 40.0)
    want = reference.d_limit_mpmath(nu, x)
    assert d_limit(nu, x)[0][0] == pytest.approx(want, abs=3e-8)
    assert _limit_cdf(nu)(x) == pytest.approx(want, abs=3e-8 if nu <= 0.8 else 6e-8)


def test_limit_cdf_is_nondecreasing():
    # exact positive slopes keep the cubic monotone without PCHIP's limiter;
    # past 4.5e12 the node values themselves dip by about 1e-11 (Talbot's
    # noise), so the check stops at 4e12
    vals = _limit_cdf(0.5)(np.logspace(-6.0, math.log10(4e12), 200_001))
    assert np.all(np.diff(vals) >= 0.0)


def test_gaver_stehfest_weights_are_the_exact_rationals_rounded():
    # Stehfest's factorial form, summed in exact rationals at N = 16
    f = math.factorial
    exact = [
        (-1) ** (k + 8) * sum(
            Fraction(j**8 * f(2 * j), f(8 - j) * f(j) * f(j - 1) * f(k - j) * f(2 * j - k))
            for j in range((k + 1) // 2, min(k, 8) + 1)
        )
        for k in range(1, 17)
    ]
    assert sum(v / k for k, v in enumerate(exact, start=1)) == 1  # inverts 1/p to 1
    assert laplace._GS_WEIGHTS.tolist() == [float(v) for v in exact]
    assert laplace.gaver_stehfest(lambda p: 1.0 / p**2, 3.0) == pytest.approx(3.0, rel=1e-6)


@pytest.mark.parametrize(
    "fn, sf, t, quantity",
    [(predict_q, CONST, 1e160, "q prediction"),
     (lambda sf, t: qproc_gf_second_order(sf, 0.0, t), CONST, 1e110, "P11 ratio"),
     (lambda sf, t: qproc_gf_ratio(sf, 0.5, t), CONST, 1e110, "G ratio")],
    ids=["predict_q", "qproc_gf_second_order_at_s_0", "qproc_gf_ratio"],
)
def test_overflowing_horizon_is_refused_by_name(fn, sf, t, quantity):
    with pytest.raises(SolverError, match=re.escape(f"{quantity} at t={t:g}")):
        fn(sf, t)


def test_underflowing_time_scale_is_refused_by_name():
    # at nu = 0.001, t = 1 the time scale (nu*t)**(1/nu) = 1e-3000 is 0.0 in
    # floating point, and N(t) divided by it is no prediction
    tiny = make_scale_function(ModelParams(0.001, 1.0, Family.CONSTANT))
    with pytest.raises(SolverError, match=re.escape("q prediction at t=1: (nu*t)**1000 underflows")):
        predict_q(tiny, 1.0)


@pytest.mark.parametrize("t", [1e155, 1e200, 1e300])
def test_predict_p11_coupled_at_huge_horizons(t):
    # (nu*t)**(1+1/nu) * P_11(t) -> N(t)/a0 -> ((nu + a0)/(a0*nu))**(1/nu) = 9;
    # the closed-form normalizer never forms the root y* ~ 1/t**2, which underflows
    p = predict_p11(COUPLED, t)
    assert math.isfinite(p)
    assert p == pytest.approx(9.0, rel=1e-12)


def test_d_limit_tail_matches_tauberian_constant():
    # 1 - D(x) ~ (1+1/nu) x^-nu / Gamma(1-nu); at the x where that tail
    # equals 1e-3 the inverted CDF must be within 1e-3 of 1
    c = 3.0 / math.gamma(0.5)
    x_star = (c / 1e-3) ** 2
    val, _ = d_limit(0.5, [x_star])
    assert val[0] == pytest.approx(1.0, abs=1.2e-3)
    for x in (10.0, 100.0, 1e4):
        v, _ = d_limit(0.5, [x])
        assert 1.0 - v[0] == pytest.approx(c / math.sqrt(x), rel=0.15)


def test_d_limit_roundtrip_to_transform():
    from scipy.integrate import quad

    c = 3.0 / math.gamma(0.5)
    for th in (0.5, 1.0, 2.0):
        body, _ = quad(
            lambda x: math.exp(-th * x) * d_limit(0.5, [x])[0][0],
            0.0, 80.0 / th, limit=300,
        )
        tail, _ = quad(lambda x: math.exp(-th * x) * (1.0 - c * x**-0.5), 80.0 / th, np.inf)
        assert th * (body + tail) == pytest.approx(psi_limit(0.5, th), abs=1e-3)


def test_qproc_gf_ratios():
    t = 1e6
    for s in (0.25, 0.5, 0.75):
        assert qproc_gf_ratio(COUPLED, s, t) == pytest.approx(1.0, abs=0.02)
        assert qproc_gf_second_order(COUPLED, s, t) == pytest.approx(1.0, abs=0.2)


def test_pi_invariance_pointwise():
    # pi(s) = G(t;s)/F(t;s) * pi(F(t;s)) from the semigroup limit
    from critlab import G_of

    for sf in (CONST, COUPLED):
        s, t = 0.4, 3.0
        F_t = 1.0 - exact_R(sf, s, t)
        assert pi_of(sf, s) == pytest.approx(
            G_of(sf, s, t) / F_t * pi_of(sf, F_t), rel=1e-10
        )


def test_baseline_first_order_ratio():
    for sf, tol in ((CONST, 0.01), (COUPLED, 0.02)):
        assert first_order_ratio(sf, 1e6) == pytest.approx(1.0, abs=tol)
    # binary_split: q = 1/(1 + a0*t) and f(1-q) = a0*q**2, so the ratio is
    # 1 + 1/(a0*t)
    bs = make_scale_function(ModelParams(1.0, 2.0, Family.BINARY_SPLIT))
    for t in (10.0, 100.0, 1e4, 1e6):
        ratio = first_order_ratio(bs, t)
        assert isinstance(ratio, float)
        assert ratio == pytest.approx(1.0 + 1.0 / (2.0 * t), rel=1e-9)
    # q(1e300) underflows to 0, and the 0/0 ratio is refused by name
    for sf in (CONST, COUPLED):
        with pytest.raises(DomainError, match="non-finite first-order ratio at t=1e"):
            first_order_ratio(sf, 1e300)


def test_baseline_ratio_matches_mpmath():
    # q(t) at 40 digits from the integrated backward equations in z = q**-nu:
    # z = 1 + nu*a0*t for constant, and (nu+a0)(z - 1) - a0 log z = nu**2 a0 t
    # for coupled_drift. A ratio that forms f(1 - q) in double precision
    # rounds q away: at t = 1e6 it reads 0.9999875 for constant, against
    # 1.0000020 here, and from t = 1e9 the argument 1 - q rounds to 1.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        nu, a0 = mpmath.mpf(1) / 2, mpmath.mpf(1)
        for t in (1e6, 1e10):
            tt = mpmath.mpf(t)
            z_coupled = mpmath.findroot(
                lambda z: (nu + a0) * (z - 1) - a0 * mpmath.log(z) - nu**2 * a0 * tt,
                1 + nu**2 * a0 * tt / (nu + a0),
            )
            cases = (
                (CONST, 1 + nu * a0 * tt, lambda y: a0 * y**nu),
                (COUPLED, z_coupled, lambda y: nu * a0 * y**nu / (nu + a0 * (1 - y**nu))),
            )
            for sf, z, decay in cases:
                q = z ** (-1 / nu)
                expect = float(q / (q * decay(q) * nu * tt))
                assert first_order_ratio(sf, t) == pytest.approx(expect, rel=1e-12)


def test_fit_rate_synthetic_slope():
    ts = np.logspace(1, 5, 9)
    fit = fit_rate(ts=ts, residuals=3.0 / ts)
    assert fit.slope == pytest.approx(-1.0, abs=0.05)
    assert fit.r_squared >= 0.99


def test_fit_rate_survival_second_order_constant():
    # residual 1 - q (nu t)^{1/nu} / N behaves like (1/nu^3) log t / t; the
    # pinned-slope constant estimate lands within 15% of 1/nu^3 = 8
    ts = np.logspace(6, 10, 9)
    resid = np.array(
        [1.0 - exact_R(COUPLED, 0.0, t) * (0.5 * t) ** 2 / solve_normalizer(COUPLED, t)
         for t in ts]
    )
    # fitted on the axis t / log t, so the log t / t decay reads as slope -1
    fit = fit_rate(ts=ts / np.log(ts), residuals=resid)
    assert fit.slope == pytest.approx(-1.0, abs=0.1)
    assert fit.r_squared >= 0.99
    pinned = float(np.mean(resid * ts / np.log(ts)))
    assert pinned == pytest.approx(8.0, rel=0.15)


def test_fit_rate_guards():
    with pytest.raises(DomainError):
        fit_rate(ts=np.array([1.0, 2.0, 3.0]), residuals=np.ones(3))
    with pytest.raises(DomainError):
        fit_rate(ts=np.linspace(10, 11, 6), residuals=np.ones(6))


def test_fit_rate_drops_non_finite_residuals():
    # a blank report cell reads as nan and an underflowed prediction gives
    # inf: both are dropped before the count and span checks
    ts = np.logspace(1, 5, 9)
    resid = 3.0 / ts
    with_gaps = np.concatenate([[np.nan, np.inf], resid, [-np.inf]])
    all_ts = np.concatenate([[0.1, 0.2], ts, [1e9]])
    assert fit_rate(ts=all_ts, residuals=with_gaps) == fit_rate(ts=ts, residuals=resid)
    with pytest.raises(DomainError, match=">= 5 records"):
        fit_rate(ts=ts[:6], residuals=np.concatenate([resid[:4], [np.nan, np.nan]]))
