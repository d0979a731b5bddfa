"""Scale-function machinery: closed forms, defining relations, inverses.

Derived expectations are computed by independent routes (finite differences
for the index relation, quadrature for the exponential representation,
antiderivatives for the measure integrals) before being asserted.
"""

import ast
import importlib
import inspect
import math
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from critlab import (
    DomainError,
    Family,
    G_of,
    ModelParams,
    ParameterError,
    ScaleFunction,
    SolveConfig,
    SolverError,
    build_sim_model,
    exact_R,
    make_scale_function,
    mechanism_series,
    solve_F,
    solve_normalizer,
)
import critlab
from critlab import _series, sv_kernel
from reference import (
    RateFormMpmath,
    coupled_R_mpmath,
    drift_integral,
    exact_R_scalar,
    invariant_measure_M,
    level_at_time,
    perturbation_ratio,
    remainder_rho,
    sv_elasticity,
    time_to_level,
)

CONST = make_scale_function(ModelParams(0.5, 1.0, Family.CONSTANT))
COUPLED = make_scale_function(ModelParams(0.5, 1.0, Family.COUPLED_DRIFT))
BINARY = make_scale_function(ModelParams(1.0, 1.0, Family.BINARY_SPLIT))
Y_GRID = np.logspace(-8, 0, 25)


def test_params_validation():
    with pytest.raises(ParameterError):
        ModelParams(1.2, 1.0, Family.CONSTANT)
    with pytest.raises(ParameterError):
        ModelParams(0.0, 1.0, Family.COUPLED_DRIFT)
    with pytest.raises(ParameterError):
        ModelParams(0.5, -1.0, Family.CONSTANT)
    assert ModelParams(0.3, 1.0, Family.BINARY_SPLIT).nu == 1.0


@pytest.mark.parametrize("sf", [CONST, COUPLED, BINARY], ids=lambda s: s.family.value)
def test_decay_rate_is_rescaled_sv(sf):
    for y in Y_GRID:
        lhs = sf.decay_rate(y)
        rhs = y**sf.nu * sf.sv(1.0 / y)
        assert abs(lhs - rhs) <= 1e-14 * lhs


@pytest.mark.parametrize("sf", [CONST, COUPLED, BINARY], ids=lambda s: s.family.value)
def test_value_at_one_is_a0(sf):
    assert sf.decay_rate(1.0) == pytest.approx(sf.a0, rel=1e-15)
    assert sf.sv(1.0) == pytest.approx(sf.a0, rel=1e-15)


@pytest.mark.parametrize("sf", [CONST, COUPLED], ids=lambda s: s.family.value)
def test_index_relation_by_finite_difference(sf):
    # y * D'(y)/D(y) = nu + drift(y), central difference with h = 1e-6 * y
    for y in np.logspace(-6, -0.1, 12):
        h = y * 1e-6
        d = (sf.decay_rate(y + h) - sf.decay_rate(y - h)) / (2 * h)
        assert abs(y * d / sf.decay_rate(y) - sf.nu - sf.index_drift(y)) <= 1e-6


def test_coupled_closed_form_solves_bernoulli_ode():
    # independent check of the closed form: substitute into the index ODE
    # rewritten as y * D' - (nu + D) * D = 0
    for y in [0.9, 0.5, 0.2, 0.05, 1e-3]:
        h = y * 1e-7
        d = (COUPLED.decay_rate(y + h) - COUPLED.decay_rate(y - h)) / (2 * h)
        D = COUPLED.decay_rate(y)
        assert abs(y * d - (0.5 + D) * D) <= 1e-8 * max(D, 1e-12)


def test_drift_vanishes_at_zero():
    drifts = [abs(COUPLED.index_drift(y)) for y in np.logspace(-1, -8, 8)]
    assert all(a > b for a, b in zip(drifts, drifts[1:]))
    assert drifts[-1] < 1e-3


@pytest.mark.parametrize("sf", [CONST, COUPLED], ids=lambda s: s.family.value)
def test_exponential_representation_of_sv(sf):
    # sv(x) = a0 * exp(int_1^x elasticity(u)/u du), checked by quadrature
    for x in (10.0, 1e3, 1e6):
        val, _ = quad(lambda v: float(sv_elasticity(sf, math.exp(v))), 0.0, math.log(x),
                      epsabs=1e-13, epsrel=1e-11, limit=200)
        assert sf.a0 * math.exp(val) == pytest.approx(float(sf.sv(x)), rel=1e-8)


def test_elasticity_bounded_by_remainder():
    # |elasticity(x)| <= C |rho(x)| with lam = 2; C frozen from the dev grid
    C = 2.0
    for x in np.logspace(1, 6, 11):
        assert abs(float(sv_elasticity(COUPLED, x))) <= C * abs(remainder_rho(COUPLED, 2.0, x))


def test_remainder_rho_constant_family_is_zero():
    for x in (1.0, 7.0, 1e5):
        assert remainder_rho(CONST, 3.0, x) == 0.0


def test_remainder_rho_coupled_bound_and_decay():
    # |rho(x)| <= C * sv(x)/x^nu on [10, 1e6]; C frozen from the dev grid
    C = 0.65
    xs = np.logspace(1, 6, 11)
    vals = [abs(remainder_rho(COUPLED, 2.0, x)) for x in xs]
    for x, v in zip(xs, vals):
        assert v <= C * float(COUPLED.sv(x)) / x**0.5
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_remainder_rho_domain():
    with pytest.raises(DomainError):
        remainder_rho(CONST, 2.0, 0.5)
    with pytest.raises(DomainError):
        remainder_rho(CONST, 0.0, 2.0)


def test_normalizer_constant_family_exact():
    assert solve_normalizer(CONST, 17.0) == pytest.approx(1.0, rel=1e-15)
    sf4 = make_scale_function(ModelParams(0.5, 4.0, Family.CONSTANT))
    assert solve_normalizer(sf4, 3.0) == pytest.approx(1.0 / 16.0, rel=1e-15)


@pytest.mark.parametrize("a0", [0.3, 1.0, 1.7, 40.0])
def test_binary_split_is_the_constant_family_at_nu_one(a0):
    # f(s) = a0*(1-s)**2: a0, -2a0, a0 and then exact zeros, so both sampling
    # tables carry all the mass and the nu = 1 tail hook is never drawn
    sf = make_scale_function(ModelParams(1.0, a0, Family.BINARY_SPLIT))
    J = 2**16
    want = np.zeros(J + 1)
    want[:3] = a0, -2.0 * a0, a0
    assert np.array_equal(mechanism_series(sf, J), want)
    model = build_sim_model(sf)
    assert model.offspring.tail_mass == 0.0
    assert model.size_biased.tail_mass == 0.0
    rng = np.random.default_rng(7)
    for y0, t in zip(rng.uniform(1e-6, 1.0, 200), 10.0 ** rng.uniform(-6.0, 6.0, 200)):
        want_R = 1.0 / (1.0 / y0 + a0 * t)
        assert abs(sf.exact_R(y0, t) - want_R) <= math.ulp(want_R)
        assert abs(sf.normalizer(t) - 1.0 / a0) <= math.ulp(1.0 / a0)


def test_normalizer_coupled_satisfies_defining_equation():
    for t in (10.0, 1e3, 1e6, 1e8):
        N = solve_normalizer(COUPLED, t)
        resid = N**0.5 * float(COUPLED.sv((0.5 * t) ** 2 / N)) - 1.0
        assert abs(resid) <= 1e-12
    # out to t = 1e300, against the root of the defining equation itself,
    # N**nu * sv((nu*t)**(1/nu)/N) = 1, found by mpmath at 50 digits in
    # log N; N(t) rises from 1 at t = 1/(nu*a0) = 2 toward 9
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        nu, a0 = mpmath.mpf(1) / 2, mpmath.mpf(1)

        def sv(x):
            return nu * a0 / (nu + a0 * (1 - x**-nu))

        for t in (2.0, 3.0, 10.0, 1e3, 1e8, 1e20, 1e50, 1e100, 1e155, 1e160, 1e200, 1e300):
            scale = (nu * mpmath.mpf(t)) ** (1 / nu)
            # sv's argument scale/N must stay >= 1, so N <= scale bounds the bracket
            log_ref = mpmath.findroot(
                lambda u: mpmath.exp(nu * u) * sv(scale * mpmath.exp(-u)) - 1,
                (mpmath.mpf(-1), min(mpmath.mpf(3), mpmath.log(scale))),
                solver="anderson",
            )
            assert abs(solve_normalizer(COUPLED, t) / mpmath.exp(log_ref) - 1) <= 1e-15


def test_normalizer_errors():
    with pytest.raises(DomainError):
        solve_normalizer(COUPLED, 0.0)
    with pytest.raises(SolverError):
        solve_normalizer(COUPLED, 0.5)  # below 1/(nu*a0)
    # 1/nu rounds to inf, so (1/a0)**(1/nu) reads inf without an OverflowError
    sf = make_scale_function(ModelParams(5e-324, 0.5, Family.CONSTANT))
    with pytest.raises(SolverError, match="normalizer at t=1 overflows"):
        solve_normalizer(sf, 1.0)


def test_invariant_measure_at_zero():
    for sf in (CONST, COUPLED, BINARY):
        assert invariant_measure_M(sf, 0.0) == 0.0


def test_invariant_measure_constant_closed_form():
    # antiderivative x^nu/nu for constant sv gives ((1-s)^-nu - 1)/(nu a0)
    assert invariant_measure_M(CONST, 0.75) == pytest.approx(2.0, rel=1e-10)
    for s in (0.1, 0.5, 0.9, 0.99):
        expect = ((1.0 - s) ** -0.5 - 1.0) / 0.5
        assert invariant_measure_M(CONST, s) == pytest.approx(expect, rel=1e-10)


def test_invariant_measure_coupled_closed_form():
    # (nu + a0)((1-s)^-nu - 1)/(nu^2 a0) + log(1-s)/nu, derived by splitting
    # 1/f into binomial terms and integrating
    for s in (0.1, 0.5, 0.9, 0.99):
        expect = 1.5 * ((1.0 - s) ** -0.5 - 1.0) / 0.25 + math.log1p(-s) / 0.5
        assert invariant_measure_M(COUPLED, s) == pytest.approx(expect, rel=1e-10)


def test_invariant_measure_increasing():
    grid = np.linspace(0.0, 0.99, 12)
    vals = [invariant_measure_M(COUPLED, s) for s in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_time_change_pair_inverse_identity():
    assert time_to_level(CONST, 1.0) == 0.0
    for x in (2.0, 10.0, 100.0):
        y = time_to_level(CONST, x)
        assert level_at_time(CONST, y) == pytest.approx(x, rel=1e-9)


def test_time_change_gives_survival_probability():
    # 1/U(t) equals the closed-form survival probability for constant sv
    for t in (1.0, 10.0, 1e3):
        q = 1.0 / level_at_time(CONST, t)
        assert q == pytest.approx((1.0 + t / 2.0) ** -2, rel=1e-8)


def test_time_change_monotone():
    xs = (1.5, 4.0, 30.0, 500.0)
    vs = [time_to_level(COUPLED, x) for x in xs]
    assert all(a < b for a, b in zip(vs, vs[1:]))
    us = [level_at_time(COUPLED, v) for v in vs]
    assert all(a < b for a, b in zip(us, us[1:]))


def test_perturbation_ratio_zero_cases():
    assert perturbation_ratio(COUPLED, 0.3, lambda y: 0.0) == 0.0
    for y in (0.5, 1e-3, 1e-6):
        assert perturbation_ratio(CONST, y, lambda y: y / 2.0) == 0.0


def test_perturbation_ratio_bounded():
    # sup over the dev grid measured at 0.0503; bounded well below 0.1
    vals = [abs(perturbation_ratio(COUPLED, 10.0**-k, lambda y: y / 2.0)) for k in range(1, 9)]
    assert max(vals) < 0.1
    with pytest.raises(DomainError):
        perturbation_ratio(COUPLED, 0.5, lambda y: 1.5)
    with pytest.raises(DomainError):
        perturbation_ratio(COUPLED, 1.5, lambda y: 0.0)


@given(
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.05, 5.0),
    y=st.floats(1e-9, 1.0, exclude_min=True),
)
@settings(max_examples=60, deadline=None)
def test_decay_identity_property(nu, a0, y):
    for fam in Family:
        sf = make_scale_function(ModelParams(nu, a0, fam))
        lhs = sf.decay_rate(y)
        assert abs(lhs - y**sf.nu * sf.sv(1.0 / y)) <= 1e-13 * max(lhs, 1e-300)


def _decay_rate_via_float_array(sf, y):
    """Reference: coupled_drift's decay_rate through a float array, as it once ran."""
    y = np.asarray(y, dtype=float)
    ypow = y**sf.nu
    val = sf.nu * sf.a0 * ypow / (sf.nu + sf.a0 * (1.0 - ypow))
    return float(val) if val.ndim == 0 else val


@given(
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.05, 5.0),
    ys=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
@example(nu=0.5, a0=0.05, ys=[0.0, 5e-324, 1e-300, 0.3712, 1.0])  # ** 0.5 on an array is sqrt
@settings(max_examples=200, deadline=None)
def test_coupled_decay_rate_is_bit_for_bit_the_array_route(nu, a0, ys):
    sf = make_scale_function(ModelParams(nu, a0, Family.COUPLED_DRIFT))
    for y in ys:
        got = sf.decay_rate(y)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(_decay_rate_via_float_array(sf, y)).tobytes()
    arr = np.array(ys)
    assert sf.decay_rate(arr).tobytes() == _decay_rate_via_float_array(sf, arr).tobytes()


@given(
    fam=st.sampled_from([Family.CONSTANT, Family.COUPLED_DRIFT]),
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.05, 5.0),
    ys=st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=20),
)
@example(fam=Family.COUPLED_DRIFT, nu=0.05, a0=5.0, ys=[1e-300, 0.3712, 1.0])
@settings(max_examples=100, deadline=None)
def test_decay_rate_is_rate_of_power_and_the_ode_form_is_accurate(fam, nu, a0, ys):
    mpmath = pytest.importorskip("mpmath")
    sf = make_scale_function(ModelParams(nu, a0, fam))
    arr = np.array(ys)
    assert sf.decay_rate(arr).tobytes() == sf.rate_of_power(np.power(arr, nu)).tobytes()
    mp = mpmath.mp.clone()
    mp.dps = 50
    for y in ys:
        got = sf.decay_rate(y)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(sf.rate_of_power(np.power(y, nu))).tobytes()
        # the ODE's form at x = log R: exp and pow round to about 1 ulp each
        # (exp's error shrinks by nu in R**nu), and the coupled denominator
        # amplifies the error of R**nu by at most a0/nu; over 20 000 random
        # points with y in [1e-300, 1] it stayed within 0.30 of this bound
        x = math.log(y)
        ode = sf.rate_of_power(math.exp(x) ** nu)
        p = mp.exp(mp.mpf(x)) ** nu
        want = a0 * p if fam is Family.CONSTANT else nu * a0 * p / (nu + a0 * (1 - p))
        bound = (4.0 + 2.0 * a0 / nu) * 2.0**-52
        assert abs(ode - want) <= bound * want


@given(t=st.floats(1.0, 1e6))
@settings(max_examples=30, deadline=None)
def test_survival_decreasing_property(t):
    assert exact_R(COUPLED, 0.0, 1.02 * t) < exact_R(COUPLED, 0.0, t) <= 1.0


# --- the family interface, over (family, nu, a0, s, t) -----------------------

SCALE_FUNCTIONS = st.builds(
    lambda fam, nu, a0: make_scale_function(ModelParams(nu, a0, fam)),
    st.sampled_from(list(Family)),
    st.floats(0.05, 0.95),
    st.floats(0.05, 5.0),
)
TIGHT = SolveConfig(rel_tol=1e-12, abs_tol=1e-14)


@given(sf=SCALE_FUNCTIONS)
@settings(max_examples=60, deadline=None)
def test_flow_series_of_the_identity_matches_mechanism_series(sf):
    # at F(s) = s, p = (1 - s)**nu and f(s) = (1 - s) * rate_of_power(p), so
    # (1 - s) * flow = -nu * p * f(s)
    J = 12
    p = _series.binom_series(sf.nu, J)
    flow = sf.flow_series(p, J)
    lhs = flow.copy()
    lhs[1:] -= flow[:-1]
    rhs = -sf.nu * _series.mul(p, mechanism_series(sf, J), J)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@given(sf=SCALE_FUNCTIONS, s=st.floats(0.0, 0.99), t=st.floats(0.0, 100.0))
@settings(max_examples=40, deadline=None)
def test_exact_R_matches_solver_and_is_monotone(sf, s, t):
    r = exact_R(sf, s, t)
    assert r == pytest.approx(solve_F(sf, s, t, TIGHT), rel=1e-9)
    assert exact_R(sf, s + 0.5 * (1.0 - s), t) < r  # decreasing in s
    assert exact_R(sf, s, 2.0 * t + 0.1) < r  # decreasing in t


@given(sf=SCALE_FUNCTIONS, s=st.floats(0.0, 0.1))
@settings(max_examples=60, deadline=None)
def test_sv_reciprocal_series_matches_pointwise(sf, s):
    c = sf.sv_reciprocal_series(40)
    assert np.polynomial.polynomial.polyval(s, c) == pytest.approx(1.0 / float(sf.sv(1.0 / (1.0 - s))), rel=1e-12)


# each family's rate form, rate_of_power(p) = c*p / (d0 + d1*(1 - p)), as (nu, a0) -> (c, d0, d1)
RATE_FORMS = {
    Family.CONSTANT: lambda nu, a0: (a0, 1.0, 0.0),
    Family.BINARY_SPLIT: lambda nu, a0: (a0, 1.0, 0.0),
    Family.COUPLED_DRIFT: lambda nu, a0: (nu * a0, nu, a0),
}


@given(
    fam=st.sampled_from(list(Family)),
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.05, 5.0),
    J=st.integers(2, 32),
    q=st.floats(0.05, 1.0),
    x=st.floats(1.0, 1e300),
    u=st.floats(1e-300, 1.0),
    t=st.floats(1e-2, 1e12),
)
# the coefficients of f grow fastest here, by about 4.5 per order
@example(fam=Family.COUPLED_DRIFT, nu=0.05, a0=5.0, J=32, q=1.0, x=1.0, u=1.0, t=1e12)
# N(t) near 1 at small nu, where the base's rounding dominates
@example(fam=Family.COUPLED_DRIFT, nu=0.0525418871490958, a0=0.9999998284416911, J=2, q=1.0,
         x=1.0, u=1.0, t=19.032437284496645)
@settings(max_examples=15, deadline=None)
def test_derived_evaluators_match_the_rate_form_in_mpmath(fam, nu, a0, J, q, x, u, t):
    # the evaluators the base class derives from (c, d0, d1), against a
    # 50-digit mpmath route written from the same form (series by
    # mpmath.taylor, N(t) by mpmath.findroot on its defining equation); u is
    # both a p and a y in (0, 1], and p = q*(1 - s)**nu is a series of the
    # kind the series engine evolves
    pytest.importorskip("mpmath")
    sf = make_scale_function(ModelParams(nu, a0, fam))
    form = RATE_FORMS[fam](sf.nu, sf.a0)
    assert sf.rate_form() == form
    ref = RateFormMpmath(form, sf.nu)
    # a few roundings each, which the denominator amplifies by at most 1 + d1/d0;
    # over 100 random draws the worst error was about a tenth of this bound
    # pointwise and a quarter of the series bound below
    _, d0, d1 = form
    rel = 4.0 * (1.0 + d1 / d0) * 2.0**-52
    assert type(sf.rate_of_power(u)) is float
    for got, want in [(sf.sv(x), ref.sv(x)), (sf.rate_of_power(u), ref.rate_of_power(u)),
                      (sf.index_drift(u), ref.index_drift(u))]:
        assert abs(got - want) <= rel * want
    # a series coefficient j carries the rounding of the j + 1 before it, each
    # relative to the largest of them
    p = q * _series.binom_series(sf.nu, J)
    for got, want in [(sf.mechanism_series(J), ref.mechanism_series(J)),
                      (sf.flow_series(p, J), ref.flow_series(p, J)),
                      (sf.sv_reciprocal_series(J), ref.sv_reciprocal_series(J))]:
        want = np.array(want)
        bound = rel * np.arange(1, J + 2) * np.maximum.accumulate(np.abs(want))
        assert np.all(np.abs(got - want) <= bound)
    # N = base**(1/nu): the rounding of 1/nu scales with |log N| and that of
    # the base with 1/nu. Over 4000 log-uniform draws (nu in (0.01, 0.99), a0
    # in [1e-4, 1e4], t in [1e-2, 1e12]) the error stayed within
    # 3.9 eps*(1 + |log N|), but a base near 1 at small nu needs the 1/nu:
    # 28 eps*(1 + |log N|) at the second example above
    if sf.normalizer_defined(t):
        got, want = sf.normalizer(t), ref.normalizer(t)
        assert abs(got - want) <= 4.0 * 2.0**-52 * (1.0 / sf.nu + abs(math.log(want))) * want


@given(
    fam=st.sampled_from(list(Family)),
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.05, 5.0),
    q=st.floats(0.05, 1.0),
    J=st.sampled_from([_series._BLOCK - 1, _series._BLOCK, _series._BLOCK + 1,
                       2 * _series._BLOCK, 2 * _series._BLOCK + 1]),
)
@example(fam=Family.COUPLED_DRIFT, nu=0.05, a0=5.0, q=1.0, J=2 * _series._BLOCK + 1)
@settings(max_examples=12, deadline=None)
def test_flow_series_matches_mpmath_at_the_block_edges(fam, nu, a0, q, J):
    # coupled_drift's flow is a blocked solve, so its first, second and third
    # blocks are checked at their edges against the 50-digit mpmath.taylor
    # route, with the series bound of the test above: a coefficient j carries
    # the rounding of the j + 1 before it, which the denominator amplifies by
    # at most 1 + d1/d0. Over 300 random draws and the 120 corners of these
    # ranges the worst error was 0.29 of this bound (1.2 eps for constant,
    # 4.1 eps for coupled_drift, relative to the largest coefficient so far);
    # 1200 more coupled_drift draws and its 40 corners gave at most 0.22, and
    # the example, where d1/d0 is largest, 0.044
    pytest.importorskip("mpmath")
    sf = make_scale_function(ModelParams(nu, a0, fam))
    _, d0, d1 = sf.rate_form()
    p = q * _series.binom_series(sf.nu, J)
    got = sf.flow_series(p, J)
    want = np.array(RateFormMpmath(sf.rate_form(), sf.nu).flow_series(p, J))
    bound = 4.0 * (1.0 + d1 / d0) * 2.0**-52 * np.arange(1, J + 2) * np.maximum.accumulate(np.abs(want))
    assert got.shape == (J + 1,)
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize(
    "fam, divs",
    [(Family.CONSTANT, 0), (Family.BINARY_SPLIT, 0), (Family.COUPLED_DRIFT, 1)],
    ids=["constant", "binary_split", "coupled_drift"],
)
def test_a_constant_denominator_is_a_scalar_division(monkeypatch, fam, divs):
    # at d1 = 0 the denominator d0 + d1*(1 - p) is the scalar d0: no series
    # (1 - s)**nu is built and nothing is divided as a series, which at
    # order 2**16 would cost a constant build_sim_model 0.6 s; the flow of
    # coupled_drift is one square_ratio, with no div
    sf = make_scale_function(ModelParams(0.5, 1.3, fam))
    p = _series.binom_series(sf.nu, 1024)
    div, square_ratio, binom_series = _series.div, _series.square_ratio, _series.binom_series
    calls = {"div": 0, "square_ratio": 0, "binom_nu": 0}

    def counting_div(*args):
        calls["div"] += 1
        return div(*args)

    def counting_square_ratio(*args):
        calls["square_ratio"] += 1
        return square_ratio(*args)

    def counting_binom_series(alpha, order):
        calls["binom_nu"] += alpha == sf.nu
        return binom_series(alpha, order)

    monkeypatch.setattr(_series, "div", counting_div)
    monkeypatch.setattr(_series, "square_ratio", counting_square_ratio)
    monkeypatch.setattr(_series, "binom_series", counting_binom_series)
    sf.mechanism_series(2**16 if divs == 0 else 256)
    assert calls == {"div": divs, "square_ratio": 0, "binom_nu": divs}
    sf.flow_series(p, 1024)
    assert calls == {"div": divs, "square_ratio": divs, "binom_nu": divs}


@given(sf=SCALE_FUNCTIONS, s=st.floats(0.0, 0.99), t=st.floats(0.0, 100.0))
@example(sf=make_scale_function(ModelParams(0.35, 1.0, Family.COUPLED_DRIFT)), s=0.0, t=5e-324)
@example(sf=BINARY, s=0.5, t=100.0)
@settings(max_examples=40, deadline=None)
def test_drift_integral_is_zero_exactly_without_drift(sf, s, t):
    oracle = drift_integral(sf, 1.0 - s, t)
    if sf.rate_form()[2] == 0.0:
        # constant sv (binary_split included): the drift, its integral and the
        # second-order term that stands for it vanish identically
        assert oracle == 0.0
        assert sf.second_order(1.0 - s, t)[0] == 0.0
        assert np.all(sf.index_drift(Y_GRID) == 0.0)
    elif t > 0.0:
        # the integral is t/w0 + O(t**2), which may round to 0 at subnormal t;
        # there it must agree with t/w0 to one subnormal ulp
        if t < 1e-300:
            w0 = 1.0 / sf.decay_rate(1.0 - s)
            assert oracle == pytest.approx(t / w0, rel=1e-12, abs=5e-324)
        else:
            assert oracle > 0.0


@given(
    sf=SCALE_FUNCTIONS,
    s=st.floats(0.0, 0.99),
    t=st.floats(0.0, 1e3),
    tau=st.floats(0.0, 1e3),
)
# the implicit equation once returned R(0; 0) = 1.0000000000000007 here,
# which is not a valid one_minus_s
@example(
    sf=make_scale_function(ModelParams(0.375, 0.05, Family.COUPLED_DRIFT)),
    s=0.0,
    t=0.0,
    tau=0.0,
)
@settings(max_examples=60, deadline=None)
def test_semigroup_property(sf, s, t, tau):
    # F(t + tau; s) = F(tau; F(t; s)), i.e. R(t + tau; s) = R(tau; 1 - R(t; s)),
    # with 1 - F(t; s) = R(t; s) carried exactly through one_minus_s
    r = exact_R(sf, s, t)
    composed = exact_R(sf, 1.0 - r, tau, one_minus_s=r)
    assert composed == pytest.approx(exact_R(sf, s, t + tau), rel=1e-12)


@pytest.mark.parametrize("fam", [Family.CONSTANT, Family.COUPLED_DRIFT], ids=lambda f: f.value)
@pytest.mark.parametrize("t", [0.0, 5e-324, 1e-300])
def test_exact_R_never_exceeds_its_start(fam, t):
    # R(t; s) is nonincreasing from R(0; s) = 1 - s; rounded closed forms and
    # the implicit equation overshoot 1 - s by a few ulps at tiny t (R > 1 at
    # s = 0 for coupled_drift), so exact_R caps the result there
    for nu in np.linspace(0.05, 0.95, 13):
        for a0 in (0.05, 0.5, 1.0, 5.0):
            sf = make_scale_function(ModelParams(float(nu), a0, fam))
            for s in np.linspace(0.0, 0.99, 12):
                y0 = 1.0 - float(s)
                r = exact_R(sf, float(s), t)
                assert 0.0 < r <= y0
                assert r == pytest.approx(y0, rel=1e-14)


@given(
    sf=SCALE_FUNCTIONS,
    s=st.floats(2.0**-53, 1.0 - 1e-9),
    t=st.floats(0.0, 1e300),
)
@settings(max_examples=60, deadline=None)
def test_G_of_is_a_nondecreasing_probability(sf, s, t):
    # G_of takes s with 0 < 1 - s < 1 in double precision, i.e. s >= 2**-53;
    # there G(t; s) lies in [0, 1], not (0, 1), because for small s at large
    # t the product s * R * decay_rate(R) underflows to 0
    g = G_of(sf, s, t)
    assert 0.0 <= g <= 1.0
    assert g <= G_of(sf, s + 0.5 * (1.0 - s), t)


def test_G_of_holds_where_f_of_s_underflows():
    # f(s) = y0*decay_rate(y0) = 1e-450 is 0.0 in double precision, but G
    # divides R by y0 and decay_rate(R) by decay_rate(y0), all normal numbers;
    # for the constant family G = s*(R/y0)**(1 + nu) in closed form
    y0 = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1.0, 1e150):
            g = G_of(CONST, 1.0 - y0, t, one_minus_s=y0)
            r = exact_R(CONST, 1.0 - y0, t, one_minus_s=y0)
            assert math.isfinite(g)
            assert g == pytest.approx((1.0 - y0) * (r / y0) ** 1.5, rel=1e-15)
    # R**-nu = y0**-nu + nu*a0*t = 1.5e150 at t = 1e150, so G = 1.5**-3
    assert G_of(CONST, 1.0 - y0, 1e150, one_minus_s=y0) == pytest.approx(1.5**-3, rel=1e-15)


# --- the exact R over arrays: one Newton root for coupled_drift --------------

SLOWLY_VARYING = st.sampled_from([Family.CONSTANT, Family.COUPLED_DRIFT])
# log10 of the horizon: the whole range, or the decades where t is near
# w0**2 and the root leaves both of its asymptotes
LOG10_T = st.floats(-300.0, 300.0) | st.floats(-3.0, 6.0)


@given(fam=SLOWLY_VARYING, nu=st.floats(0.05, 0.95), a0=st.floats(0.05, 5.0),
       log10_y0=st.floats(-300.0, 0.0), log10_t=LOG10_T)
# 29 ulp of R apart at nu = 0.053, where t is near w0**2 (1.5 ulp/nu)
@example(fam=Family.COUPLED_DRIFT, nu=0.05283, a0=0.5635, log10_y0=math.log10(1.2055e-3),
         log10_t=math.log10(996.88))
# the bracket reaches 215 decades above the root, and brentq takes 1571 steps
@example(fam=Family.COUPLED_DRIFT, nu=0.24026, a0=0.73222, log10_y0=-299.176,
         log10_t=290.25)
@settings(max_examples=150, deadline=None)
def test_exact_R_agrees_with_the_scalar_reference(fam, nu, a0, log10_y0, log10_t):
    # R = ypow**(1/nu) turns a relative error in ypow (from w, from the root)
    # into 1/nu of it, so the bound is 8 ulp of R over nu; the brentq
    # reference is itself up to 20 ulp of e off mpmath where nu*w0 is small
    sf = make_scale_function(ModelParams(nu, a0, fam))
    y0, t = 10.0**log10_y0, 10.0**log10_t
    r = exact_R(sf, 1.0 - y0, t, one_minus_s=y0)
    want = exact_R_scalar(sf, y0, t)
    assert abs(r - want) <= 8.0 * math.ulp(want) / nu


@given(fam=SLOWLY_VARYING, nu=st.floats(0.05, 0.95), a0=st.floats(0.05, 5.0),
       ys=st.lists(st.floats(1e-300, 1.0 - 2.0**-53), min_size=1, max_size=30),
       log10_t=LOG10_T)
@settings(max_examples=60, deadline=None)
def test_exact_R_and_G_over_an_array_are_the_scalar_calls_bit_for_bit(fam, nu, a0, ys, log10_t):
    # a point's Newton iterates do not depend on the other points, and numpy
    # rounds a one-element array as it rounds any element of a longer one
    sf = make_scale_function(ModelParams(nu, a0, fam))
    y, t = np.array(ys), 10.0**log10_t
    r = exact_R(sf, 1.0 - y, t, one_minus_s=y)
    assert r.tobytes() == np.array([exact_R(sf, 1.0 - v, t, one_minus_s=v) for v in ys]).tobytes()
    # G is a product of ratios of normal numbers down to 1 - s = 1e-300
    g = G_of(sf, 1.0 - y, t, one_minus_s=y)
    assert g.tobytes() == np.array([G_of(sf, 1.0 - v, t, one_minus_s=v) for v in y]).tobytes()
    assert type(exact_R(sf, 1.0 - ys[0], t, one_minus_s=ys[0])) is float


@given(nu=st.floats(1e-3, 0.999), log10_a0=st.floats(-12.0, 300.0),
       log10_y0=st.floats(-300.0, 0.0), log10_t=st.floats(-300.0, 300.0))
# two configs that made the scalar brentq route fail: a NaN residual
# (nu = 0.001, a0 = 1e12, t = 1e300, s = 0.9 and s = 0), and no convergence
# at a near-double root, nu*w0 = 1e-300 with the true excess 1.8e-61
@example(nu=0.001, log10_a0=12.0, log10_y0=-1.0, log10_t=300.0)
@example(nu=0.001, log10_a0=12.0, log10_y0=0.0, log10_t=300.0)
@example(nu=0.999, log10_a0=300.0, log10_y0=0.0, log10_t=math.log10(1.7e-122))
@settings(max_examples=60, deadline=None)
def test_coupled_exact_R_is_confirmed_by_mpmath_or_fails_by_name(nu, log10_a0, log10_y0, log10_t):
    pytest.importorskip("mpmath")
    sf = make_scale_function(ModelParams(nu, 10.0**log10_a0, Family.COUPLED_DRIFT))
    y0, t = 10.0**log10_y0, 10.0**log10_t
    try:
        r = exact_R(sf, 1.0 - y0, t, one_minus_s=y0)
    except SolverError as exc:
        assert f"t={t:g}" in str(exc)
        return
    want = coupled_R_mpmath(nu, sf.a0, y0, t)
    # float rounding of w0 and of R**nu, each a few ulp, scaled by 1/nu, and
    # of the exponent 1/nu in R = (R**nu)**(1/nu), scaled by |log R|
    rel = (16.0 / nu + 2.0 * abs(math.log(want))) * 2.0**-52 if want > 0.0 else 0.0
    assert r == pytest.approx(want, rel=rel, abs=2.0**-1022)


def test_coupled_root_refuses_non_finite_values_by_name():
    # z = a*t*(nu + x) is infinite, so is every iterate: named, not a hang
    with pytest.raises(SolverError, match="root is not finite at t=inf, w0=1"):
        exact_R(COUPLED, 0.0, math.inf)
    # decay_rate(5e-324) underflows to 0 here, so w0 = 1/decay_rate is not a
    # number to start from, even at t = 0 (R would read 0 instead of 1 - s)
    sf = make_scale_function(ModelParams(0.999, 1e-12, Family.COUPLED_DRIFT))
    with pytest.raises(SolverError, match="decay rate underflows at t=0, w0=inf"):
        exact_R(sf, 1.0, 0.0, one_minus_s=5e-324)
    # where nu*a0 underflows, c = 0 and every point is refused so; an empty
    # array has no point and gives an empty R, with no beta = nu*d1/c formed
    sf = make_scale_function(ModelParams(0.5, 5e-324, Family.COUPLED_DRIFT))
    assert sf.rate_form()[0] == 0.0
    for t in (0.0, 1.0):
        assert exact_R(sf, np.array([]), t).shape == (0,)
        with pytest.raises(SolverError, match="decay rate underflows"):
            exact_R(sf, 0.5, t)


@pytest.mark.parametrize("s", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("nu, a0", [(0.5, 1.0), (0.3, 0.05), (0.9, 3.7)])
def test_coupled_second_order_is_the_drift_from_its_start(nu, a0, s):
    # the closed form stands for the drift num*nu**2*t/den accumulated from
    # R(0) = 1 - s; its relative gap to drift_integral(1 - s, t) shrinks over
    # the horizons (0.0600 at t = 1e12 for nu = 0.9, a0 = 3.7, s = 0)
    sf = make_scale_function(ModelParams(nu, a0, Family.COUPLED_DRIFT))
    gaps = []
    for t in (1e4, 1e6, 1e8, 1e12):
        num, den = sf.second_order(1.0 - s, t)
        gaps.append(num * nu**2 * t / den / drift_integral(sf, 1.0 - s, t) - 1.0)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert abs(gaps[-1]) < 0.061


@pytest.mark.parametrize("fam", list(Family), ids=lambda f: f.value)
def test_a_family_is_one_row_of_the_rate_form_table(fam):
    # no subclass and no hook that raises: ScaleFunction derives everything,
    # exact_R and exact_tail included, from the family's row (c, d0, d1)
    for mod in pkgutil.iter_modules(critlab.__path__):
        importlib.import_module(f"critlab.{mod.name}")
    assert ScaleFunction.__subclasses__() == []
    raised = [
        node.exc for node in ast.walk(ast.parse(inspect.getsource(sv_kernel)))
        if isinstance(node, ast.Raise) and node.exc is not None
    ]
    assert raised and not any("NotImplementedError" in ast.unparse(exc) for exc in raised)
    sf = make_scale_function(ModelParams(0.5, 1.3, fam))
    assert type(sf) is ScaleFunction
    assert sf.rate_form() == sv_kernel._RATE_FORMS[fam](sf.nu, sf.a0) == RATE_FORMS[fam](sf.nu, sf.a0)
    assert (sf.exact_tail() is None) == (fam is Family.COUPLED_DRIFT)


LOG_UNIFORM = st.floats(-4.0, 4.0).map(lambda v: 10.0**v)


@given(
    nu=st.floats(0.05, 0.95),
    c=LOG_UNIFORM,
    d0=LOG_UNIFORM,
    d1=st.just(0.0) | LOG_UNIFORM,
    log10_y0=st.floats(-100.0, 0.0),
    log10_t=st.floats(-12.0, 12.0),
)
# beta = nu*d1/c = 1/8 and 8, far from the beta = 1 of the built-in rows
@example(nu=0.5, c=4.0, d0=1.0, d1=1.0, log10_y0=0.0, log10_t=0.0)
@example(nu=0.5, c=0.25, d0=1.0, d1=4.0, log10_y0=-3.0, log10_t=2.0)
@settings(max_examples=60, deadline=None)
def test_exact_R_matches_the_rate_form_time_map_in_mpmath(nu, c, d0, d1, log10_y0, log10_t):
    # exact_R is derived from (c, d0, d1) alone, so any rate form is a family:
    # the flow of w = 1/decay_rate(R) has beta = nu*d1/c, here away from 0 and
    # 1, or d1 = 0 with its closed form. The reference is a 50-digit findroot
    # of the time map of p = R**nu. The bound is the one of the coupled_drift
    # mpmath test; over 3000 random draws in these ranges the worst error was
    # 0.24 of it
    pytest.importorskip("mpmath")
    assume(d1 == 0.0 or nu * d1 / c != 1.0)
    sf = make_scale_function(ModelParams(nu, 1.0, Family.COUPLED_DRIFT))
    sf._form = (c, d0, d1)
    y0, t = 10.0**log10_y0, 10.0**log10_t
    want = RateFormMpmath(sf._form, nu).exact_R(y0, t)
    got = exact_R(sf, 1.0 - y0, t, one_minus_s=y0)
    rel = (16.0 / nu + 2.0 * abs(math.log(want))) * 2.0**-52
    assert got == pytest.approx(want, rel=rel, abs=0.0)
