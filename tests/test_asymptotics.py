"""Asymptotic predictors, invariant measure of the conditioned chain,
Laplace transforms and the limit law.

Partial-sum oracles are closed forms derived from the binomial structure
(cumulative sums of generalized binomial coefficients telescope), computed
here with log-gamma and frozen against the series machinery.
"""

import math
import re

import numpy as np
import pytest
from scipy.special import gammaln

from critlab import (
    DomainError,
    Family,
    ModelParams,
    SolverError,
    baseline_checks,
    d_limit,
    delta_sup,
    evolve_series,
    exact_R,
    fit_rate,
    make_scale_function,
    normalized_error_p11,
    normalized_error_q,
    p11_exact,
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
from critlab.asymptotics import default_theta_grid, laplace_sup_profile_max
from critlab.kolmogorov_engine import SolveConfig

CONST = make_scale_function(ModelParams(0.5, 1.0, Family.CONSTANT))
COUPLED = make_scale_function(ModelParams(0.5, 1.0, Family.COUPLED_DRIFT))


def binom_cumsum(alpha: float, m: int) -> float:
    """sum_{k=0..m} C(k+alpha, k) = C(m+alpha+1, m) by telescoping."""
    return math.exp(gammaln(m + alpha + 2.0) - gammaln(m + 1.0) - gammaln(alpha + 2.0))


def test_predict_q_constant_family():
    # leading term (nu a0 t)^{-1/nu}; correction vanishes with zero drift
    p = predict_q(CONST, 100.0)
    assert p.correction == 0.0
    assert p.leading == pytest.approx((0.5 * 100.0) ** -2.0, rel=1e-12)
    # (q/leading - 1) * t stays bounded (the 1/a0 offset drives it to -2/nu)
    vals = [(exact_R(CONST, 0.0, t) / predict_q(CONST, t).leading - 1.0) * t for t in (1e2, 1e4, 1e6)]
    assert all(abs(v) < 5.0 for v in vals)
    with pytest.raises(DomainError):
        predict_q(CONST, 0.5)


def test_predicted_value_close_at_large_t():
    # leftover terms are O(1/t) + o(log t / t); at t = 1e6 that is ~1e-5
    t = 1e6
    p = predict_q(COUPLED, t)
    assert p.value == pytest.approx(exact_R(COUPLED, 0.0, t), rel=2e-5)
    p2 = predict_p11(COUPLED, t)
    scaled = (0.5 * t) ** 3 * p11_exact(COUPLED, t)
    assert p2.value == pytest.approx(scaled, rel=2e-5)


def test_normalized_errors_in_band():
    assert 0.9 <= normalized_error_q(COUPLED, 1e8) <= 1.1
    assert 0.85 <= normalized_error_p11(COUPLED, 1e8) <= 1.15


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
        assert st.coeffs[1] == pytest.approx(p11_exact(CONST, t), abs=1e-8)


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


def test_d_limit_flags_non_finite_disagreement():
    # at x = 1e300 the Gaver-Stehfest sum overflows to a non-finite value
    with np.errstate(all="ignore"):
        _, meta = d_limit(0.5, [1.0, 1e300])
    assert meta["flagged_indices"] == [1]


@pytest.mark.parametrize(
    "fn, sf, t, quantity",
    [(predict_q, CONST, 1e160, "q prediction"),
     (predict_p11, COUPLED, 1e155, "normalizer"),
     (normalized_error_p11, CONST, 1e110, "scaled P11"),
     (lambda sf, t: qproc_gf_ratio(sf, 0.5, t), CONST, 1e110, "G ratio")],
    ids=["predict_q", "predict_p11", "normalized_error_p11", "qproc_gf_ratio"],
)
def test_overflowing_horizon_is_refused_by_name(fn, sf, t, quantity):
    with pytest.raises(SolverError, match=re.escape(f"{quantity} at t={t:g}")):
        fn(sf, t)


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


def test_baseline_binary_exact():
    bs = make_scale_function(ModelParams(1.0, 1.0, Family.BINARY_SPLIT))
    records = baseline_checks(bs, [1.0, 10.0, 100.0], 0.5, SolveConfig(rel_tol=1e-12, abs_tol=1e-14))
    assert [r[0] for r in records] == [1.0, 10.0, 100.0]
    assert max(abs(r[3]) for r in records) <= 1e-9


def test_baseline_first_order_ratio():
    for sf, tol in ((CONST, 0.01), (COUPLED, 0.02)):
        assert baseline_checks(sf, [1e6], 0.0)[0][1] == pytest.approx(1.0, abs=tol)


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
