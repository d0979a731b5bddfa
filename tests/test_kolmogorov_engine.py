"""Backward-equation engine: closed forms, exact identity, series evolution.

The separable closed forms are derived independently in comments and used
as oracles for the adaptive solver; the implicit-equation route and the ODE
route cross-validate each other everywhere both are defined.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlab import (
    DEFAULT_CFG,
    DomainError,
    Family,
    G_of,
    ModelParams,
    SolveConfig,
    SolverError,
    TruncationError,
    evolve_series,
    exact_R,
    identity_residual,
    make_scale_function,
    psi_finite,
    solve_F,
    transition_matrix,
)
from critlab import _dop853, _series, kolmogorov_engine
from critlab.kolmogorov_engine import SeriesState, _solve_log_path, size_biased
from reference import (
    drift_integral,
    invariant_measure_M,
    level_at_time,
    time_to_level,
    transition_matrix_longdouble,
)

CONST = make_scale_function(ModelParams(0.5, 1.0, Family.CONSTANT))
COUPLED = make_scale_function(ModelParams(0.5, 1.0, Family.COUPLED_DRIFT))
BINARY = make_scale_function(ModelParams(1.0, 1.0, Family.BINARY_SPLIT))
TIGHT = SolveConfig(rel_tol=1e-12, abs_tol=1e-14)


def test_solve_config_validation():
    with pytest.raises(DomainError):
        SolveConfig(rel_tol=1e-2)
    with pytest.raises(DomainError):
        SolveConfig(abs_tol=1e-15)


def test_solve_config_refuses_a_rel_tol_that_scipy_would_raise():
    # scipy's solve_ivp, whose steps _dop853 keeps, raises an rtol below
    # 100 eps to 100 eps with a warning; the config refuses it, and at the
    # floor itself neither integration warns
    # (pytest turns every warning into an error)
    with pytest.raises(DomainError, match="rel_tol must lie in"):
        SolveConfig(rel_tol=1e-14)
    with pytest.raises(DomainError, match="rel_tol must lie in"):
        SolveConfig(rel_tol=math.nextafter(100.0 * np.finfo(float).eps, 0.0))
    floor = SolveConfig(rel_tol=100.0 * np.finfo(float).eps, abs_tol=1e-14)
    assert solve_F(CONST, 0.5, 2.0, floor) == pytest.approx((2.0**0.5 + 1.0) ** -2.0, rel=1e-12)
    evolve_series(CONST, 16, 0.5, floor)


def test_solve_F_refuses_more_points_than_the_tolerance_can_split():
    # the vector pass divides rel_tol by sqrt(m): 1e-13 allows m <= 20
    cfg = SolveConfig(rel_tol=1e-13, abs_tol=1e-14)
    assert solve_F(COUPLED, np.full(20, 0.5), 1.0, cfg).shape == (20,)
    with pytest.raises(DomainError, match="21 starting points"):
        solve_F(COUPLED, np.full(21, 0.5), 1.0, cfg)


def test_initial_condition():
    for sf in (CONST, COUPLED, BINARY):
        for s in (0.0, 0.5, 0.9):
            assert solve_F(sf, s, 0.0) == 1.0 - s
            assert exact_R(sf, s, 0.0) == pytest.approx(1.0 - s, rel=1e-14)


def test_constant_family_closed_form():
    # dR/dt = -a0 R^{1+nu} separates to R^-nu = (1-s)^-nu + nu a0 t
    for t in (0.1, 2.0, 50.0, 1000.0):
        for s in (0.0, 0.5, 0.9):
            expect = ((1.0 - s) ** -0.5 + 0.5 * t) ** -2.0
            assert solve_F(CONST, s, t, TIGHT) == pytest.approx(expect, rel=1e-10)
    assert exact_R(CONST, 0.0, 2.0) == pytest.approx(0.25, rel=1e-14)


def test_binary_family_reciprocal_rule():
    # dR/dt = -a0 R^2 gives 1/R = 1/(1-s) + a0 t exactly
    for t in (1.0, 10.0, 100.0):
        for s in (0.0, 0.5, 0.9):
            r = solve_F(BINARY, s, t, TIGHT)
            assert 1.0 / r == pytest.approx(1.0 / (1.0 - s) + t, rel=1e-11)


def test_exact_coupled_matches_ode():
    for t in (0.1, 1.0, 10.0, 100.0, 1000.0):
        for s in (0.0, 0.5, 0.9):
            r1 = exact_R(COUPLED, s, t)
            r2 = solve_F(COUPLED, s, t, TIGHT)
            assert abs(r1 / r2 - 1.0) <= 1e-9
    assert exact_R(COUPLED, 0.3, 0.0) == pytest.approx(0.7)


def test_ode_overflow_is_a_solver_error():
    # exp(log R) overflows past log R = 709 in the right-hand side; the
    # solver names it instead of raising OverflowError
    with pytest.raises(SolverError, match=r"overflowed from log R=\[710\]"):
        _solve_log_path(CONST, 710.0, 1.0, DEFAULT_CFG)
    # far past the horizon R is (1 + t/2)**-2 = 4e-600, which rounds to 0
    assert solve_F(CONST, 0.0, 1e300) == 0.0


def test_ode_division_by_zero_is_a_solver_error():
    # Python floats raise where numpy would warn: at R = 2.25 the coupled
    # rate's denominator nu + a0*(1 - R**nu) is 0.5 + (1 - 1.5) = 0 exactly
    assert math.exp(math.log(2.25)) ** 0.5 == 1.5
    with pytest.raises(SolverError, match="floating-point float division by zero"):
        _solve_log_path(COUPLED, math.log(2.25), 1.0, DEFAULT_CFG)


@pytest.mark.parametrize("nu, a0", [(0.5, 0.05), (0.5, 1.0), (0.2, 5.0), (0.8, 1.0)])
def test_coupled_oracle_matches_mpmath_at_extremes(nu, a0):
    # independent route: with z = R**-nu the backward equation integrates to
    # (nu+a0)(z - z0) - a0 log(z/z0) = nu**2 a0 t, solved by mpmath.findroot
    # at 60 digits; the points include w0 = 1/decay_rate(1-s) far above t
    # (s = 1 - 1e-12) and t = 1e14, where subtracting g(w0) in double
    # precision used to lose every digit
    mpmath = pytest.importorskip("mpmath")
    sf = make_scale_function(ModelParams(nu, a0, Family.COUPLED_DRIFT))
    with mpmath.workdps(60):
        m_nu, m_a0 = mpmath.mpf(nu), mpmath.mpf(a0)

        def decay(y):
            return m_nu * m_a0 * y**m_nu / (m_nu + m_a0 * (1 - y**m_nu))

        for s in (0.0, 0.5, 1.0 - 1e-12):
            y0 = mpmath.mpf(1.0 - s)
            z0 = y0**-m_nu
            for t in (1e-3, 0.1, 1.0, 1e3, 1e8, 1e14):
                z = mpmath.findroot(
                    lambda z: (m_nu + m_a0) * (z - z0) - m_a0 * mpmath.log(z / z0)
                    - m_nu**2 * m_a0 * t,
                    z0 + m_nu**2 * m_a0 * t / (m_nu + m_a0),
                )
                r = z ** (-1 / m_nu)
                drift = 1 / decay(r) - 1 / decay(y0) - m_nu * t
                assert exact_R(sf, s, t) == pytest.approx(float(r), rel=1e-13)
                assert drift_integral(sf, 1.0 - s, t) == pytest.approx(float(drift), rel=1e-12)


def test_transformed_variable_linear_growth():
    # w(t) = 1/decay_rate(R(t;0)) grows like nu*t
    for t in (1e6, 1e8):
        w = 1.0 / COUPLED.decay_rate(exact_R(COUPLED, 0.0, t))
        assert abs(w / (0.5 * t) - 1.0) < 0.01


def test_survival_monotone_and_normalized():
    ts = np.logspace(-1, 3, 9)
    qs = [exact_R(COUPLED, 0.0, t) for t in ts]
    assert all(a > b for a, b in zip(qs, qs[1:]))
    assert exact_R(COUPLED, 0.0, 0.0) == 1.0
    rs = [exact_R(COUPLED, s, 5.0) for s in (0.0, 0.3, 0.6, 0.9)]
    assert all(a > b for a, b in zip(rs, rs[1:]))


def test_identity_residual_constant_reduces_to_linear():
    # zero drift: 1/decay(R) - 1/decay(1-s) = nu*t exactly
    for t in (1.0, 100.0, 1000.0):
        assert abs(identity_residual(CONST, 0.5, t, TIGHT)) <= 1e-8


def test_identity_residual_coupled():
    for t in (1.0, 10.0, 100.0, 300.0):
        for s in (0.0, 0.3, 0.9):
            assert abs(identity_residual(COUPLED, s, t, TIGHT)) <= 1e-6


def test_drift_integral_routes_agree(monkeypatch):
    # the drift component that identity_residual integrates along the
    # adaptive ODE path against the exact drift integral
    ends = []

    def recording(*args):
        ends.append(integrate(*args))
        return ends[-1]

    integrate = kolmogorov_engine._integrate
    monkeypatch.setattr(kolmogorov_engine, "_integrate", recording)
    for t in (1.0, 10.0, 300.0):
        identity_residual(COUPLED, 0.3, t, TIGHT)
        b = drift_integral(COUPLED, 1.0 - 0.3, t)
        assert ends[-1][1] == pytest.approx(b, rel=1e-7, abs=1e-9)
    assert drift_integral(CONST, 1.0, 50.0) == 0.0


def test_identity_residual_names_its_stage_on_a_float_failure():
    # a decay rate of 1e300 overflows the stepper's first-step estimate
    huge = make_scale_function(ModelParams(0.5, 1e300, Family.CONSTANT))
    with pytest.raises(SolverError, match="identity integration from s=0 over t=1: floating-point"):
        identity_residual(huge, 0.0, 1.0)


def test_identity_residual_refuses_a_rel_tol_it_would_split_below_the_floor():
    # the 2-vector (log R, drift integral) divides rel_tol by sqrt(2), so the
    # floor itself is refused by name instead of raised by scipy with a warning
    floor = SolveConfig(rel_tol=100.0 * np.finfo(float).eps, abs_tol=1e-14)
    with pytest.raises(DomainError, match="identity integration from s=0.5 over t=1 needs rel_tol"):
        identity_residual(COUPLED, 0.5, 1.0, floor)
    cfg = SolveConfig(rel_tol=100.0 * np.finfo(float).eps * math.sqrt(2.0), abs_tol=1e-14)
    assert abs(identity_residual(COUPLED, 0.5, 1.0, cfg)) <= 1e-10


@given(
    fam=st.sampled_from(list(Family)),
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.05, 5.0),
    s=st.floats(0.0, 0.99),
    log10_ts=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=6, unique=True),
    cfg=st.sampled_from([DEFAULT_CFG, TIGHT]),
)
@settings(max_examples=30, deadline=None)
def test_chained_solve_F_stays_within_tolerance(fam, nu, a0, s, log10_ts, cfg):
    # each segment starts from the end point of the one before (the semigroup
    # property), so a chained value depends on the horizons before it; over
    # 300 random grids it stayed within 0.09 rel_tol of the one-shot solve and
    # 0.54 rel_tol of the oracle
    sf = make_scale_function(ModelParams(nu, a0, fam))
    ts = np.unique(10.0 ** np.array(log10_ts))
    chained = solve_F(sf, s, ts, cfg)
    one_shot = np.array([solve_F(sf, s, t, cfg) for t in ts])
    exact = np.array([exact_R(sf, s, t) for t in ts])
    assert np.max(np.abs(chained / one_shot - 1.0)) <= cfg.rel_tol
    assert np.max(np.abs(chained / exact - 1.0)) <= 2.0 * cfg.rel_tol
    # the first segment is the one-shot solve, and a one-element grid is the scalar call
    assert chained[0] == one_shot[0]
    assert solve_F(sf, s, ts[:1], cfg).tobytes() == np.float64(one_shot[0]).tobytes()


@given(
    fam=st.sampled_from(list(Family)),
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.05, 5.0),
    s_list=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=5),
    log10_ts=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=6, unique=True),
    cfg=st.sampled_from([DEFAULT_CFG, TIGHT]),
)
@settings(max_examples=30, deadline=None)
def test_vector_solve_F_stays_within_tolerance(fam, nu, a0, s_list, log10_ts, cfg):
    # the m values of log R share one integration whose tolerances are
    # divided by sqrt(m); over 300 random cases each component stayed within
    # 0.31 rel_tol of its own chained pass and 0.28 rel_tol of the oracle
    sf = make_scale_function(ModelParams(nu, a0, fam))
    ts = np.unique(10.0 ** np.array(log10_ts))
    s = np.array(s_list)
    vector = solve_F(sf, s, ts, cfg)
    assert vector.shape == (len(s), len(ts))
    per_s = np.array([solve_F(sf, v, ts, cfg) for v in s_list])
    exact = np.array([[exact_R(sf, v, t) for t in ts] for v in s_list])
    assert np.max(np.abs(vector / per_s - 1.0)) <= cfg.rel_tol
    assert np.max(np.abs(vector / exact - 1.0)) <= 2.0 * cfg.rel_tol
    # a one-element array is the scalar call, bit for bit, at a grid and at one horizon
    assert solve_F(sf, s[:1], ts, cfg).tobytes() == per_s[:1].tobytes()
    one = solve_F(sf, s[:1], ts[-1], cfg)
    assert one.shape == (1,)
    assert one.tobytes() == np.float64(solve_F(sf, s_list[0], ts[-1], cfg)).tobytes()


@pytest.mark.parametrize(
    "s",
    [[[0.1, 0.2]], [], [0.1, math.nan], [0.5, 1.0], [-0.1, 0.5]],
    ids=["2-d", "empty", "nan", "one", "negative"],
)
def test_solve_F_refuses_s_that_is_not_a_1d_array_in_the_unit_interval(s):
    with pytest.raises(DomainError, match=r"0 <= s < 1.*got s="):
        solve_F(COUPLED, np.array(s), np.array([1.0, 2.0]))


@pytest.mark.parametrize(
    "grid",
    [[1.0, 1.0], [2.0, 1.0], [-1.0, 2.0], [1.0, math.nan], [], [[1.0, 2.0]]],
    ids=["repeated", "decreasing", "negative", "nan", "empty", "2-d"],
)
def test_solve_F_refuses_a_grid_that_is_not_increasing(grid):
    with pytest.raises(DomainError, match="increasing 1-D grid"):
        solve_F(COUPLED, 0.5, np.array(grid))


def test_solve_F_grid_may_start_at_zero():
    r = solve_F(COUPLED, 0.5, np.array([0.0, 1.0, 3.0]))
    assert r[0] == 0.5
    assert r[1] == solve_F(COUPLED, 0.5, 1.0)
    assert r[2] == pytest.approx(exact_R(COUPLED, 0.5, 3.0), rel=2.0 * DEFAULT_CFG.rel_tol)


def test_log_flow_right_hand_side_makes_no_numpy_decay_rate_call():
    calls = {"rate_of_power": 0, "decay_rate": 0}

    class CountingScale(type(COUPLED)):
        def rate_of_power(self, p):
            calls["rate_of_power"] += 1
            return super().rate_of_power(p)

        def decay_rate(self, y):
            calls["decay_rate"] += 1
            return super().decay_rate(y)

    sf = CountingScale(COUPLED.params)
    solve_F(sf, 0.5, 1e3, TIGHT)
    # the right-hand side stays in Python floats: no numpy decay_rate call
    assert calls["rate_of_power"] > 0
    assert calls["decay_rate"] == 0


def test_drift_integral_log_asymptotics():
    # accumulated drift ~ (1/nu) log(decay(1-s) nu t + 1); the offset inside
    # the o(log) term keeps the ratio ~8% low at t = 1e6 and it approaches 1
    # from below along decades
    ratios = []
    for t in (1e4, 1e6, 1e8, 1e10):
        m = drift_integral(COUPLED, 1.0, t)
        ratios.append(m * 0.5 / math.log(COUPLED.decay_rate(1.0) * 0.5 * t + 1.0))
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) <= 0.05


def test_drift_integral_nondecreasing_and_sublinear():
    ts = [10.0**k for k in range(1, 7)]
    ms = [drift_integral(COUPLED, 1.0, t) for t in ts]
    assert all(a < b for a, b in zip(ms, ms[1:]))
    fractions = [m / t for m, t in zip(ms, ts)]
    assert all(a > b for a, b in zip(fractions, fractions[1:]))


def test_semigroup_property():
    for sf in (CONST, COUPLED):
        for s in (0.0, 0.6):
            for t, tau in ((0.5, 1.5), (2.0, 2.0)):
                f_t = 1.0 - solve_F(sf, s, t, TIGHT)
                lhs = 1.0 - solve_F(sf, s, t + tau, TIGHT)
                rhs = 1.0 - solve_F(sf, f_t, tau, TIGHT)
                assert abs(lhs - rhs) <= 1e-9


def test_time_change_representation_exact():
    # M(1 - R(t;s)) advances linearly in t, so 1/R = U(t + V(1/(1-s)))
    for t in (1.0, 30.0, 1000.0):
        for s in (0.0, 0.5):
            r = exact_R(CONST, s, t)
            rhs = level_at_time(CONST, t + time_to_level(CONST, 1.0 / (1.0 - s)))
            assert abs(1.0 / r - rhs) <= 1e-6 * rhs


def test_series_initial_state():
    st = evolve_series(CONST, 8, 0.0)
    assert st.coeffs[1] == 1.0 and st.coeffs.sum() == 1.0
    assert st.defect == 0.0


def test_series_evolution_consistency():
    cfg = SolveConfig(rel_tol=1e-11, abs_tol=1e-13)
    coupled_valid = make_scale_function(ModelParams(0.5, 0.1, Family.COUPLED_DRIFT))
    for sf in (CONST, BINARY, coupled_valid):
        st = evolve_series(sf, 128, 1.0, cfg)
        # rows are probabilities whenever the intensity sequence is valid
        assert np.all(st.coeffs >= -1e-12)
        assert st.coeffs.sum() <= 1.0 + 1e-12
        # P_10(t) = 1 - q(t)
        assert st.coeffs[0] == pytest.approx(1.0 - exact_R(sf, 0.0, 1.0), abs=1e-8)
    # the coupled flow at a0 = 1 is not an offspring law (a_3 < 0) and its
    # series coefficients can dip negative, while the flow identities still
    # hold; the row sum stays bounded by one
    st = evolve_series(COUPLED, 128, 1.0, cfg)
    assert st.coeffs.sum() <= 1.0 + 1e-12
    assert st.coeffs[0] == pytest.approx(1.0 - exact_R(COUPLED, 0.0, 1.0), abs=1e-8)


def test_series_p11_closed_form():
    # P_11(t) = q(t) * decay_rate(q)/a0 = q^{1+nu} for the constant family
    cfg = SolveConfig(rel_tol=1e-11, abs_tol=1e-13)
    st = evolve_series(CONST, 64, 2.0, cfg)
    assert st.coeffs[1] == pytest.approx(0.125, abs=1e-9)
    # at small nu q(100) is 4e-42, so F_0 rounds to 1, while p = R**nu = 1/1.1
    # keeps P_11 to relative precision
    sf = make_scale_function(ModelParams(0.001, 1.0, Family.CONSTANT))
    st = evolve_series(sf, 64, 100.0)
    assert st.coeffs[0] == 1.0
    assert st.coeffs[1] == pytest.approx(exact_R(sf, 0.0, 100.0) ** 1.001, rel=1e-9)


def test_series_pointwise_matches_solver():
    cfg = SolveConfig(rel_tol=1e-11, abs_tol=1e-13)
    st = evolve_series(COUPLED, 256, 0.7, cfg)
    for s in (0.2, 0.5):
        val = float(np.polynomial.polynomial.polyval(s, st.coeffs))
        expect = 1.0 - solve_F(COUPLED, s, 0.7, TIGHT)
        assert val == pytest.approx(expect, abs=1e-9)


@given(
    fam=st.sampled_from(list(Family)),
    nu=st.floats(0.05, 0.97),
    a0=st.floats(0.05, 1.0),
    t=st.floats(0.01, 10.0),
    J=st.sampled_from([64, 256]),
)
@settings(max_examples=25, deadline=None)
def test_series_route_in_p_matches_the_oracle(fam, nu, a0, t, J):
    # a0 <= 1 < nu/(2**nu - 1) keeps coupled_drift a valid mechanism, whose
    # coefficients stay bounded; 0.6**J is far below the tolerance
    sf = make_scale_function(ModelParams(nu, a0, fam))
    state = evolve_series(sf, J, t)
    for s in (0.0, 0.3, 0.6):
        val = float(np.polynomial.polynomial.polyval(s, state.coeffs))
        assert val == pytest.approx(1.0 - exact_R(sf, s, t), abs=DEFAULT_CFG.rel_tol)


@pytest.mark.parametrize(
    "sf, muls_per_rhs", [(CONST, 1), (COUPLED, 0)], ids=["constant", "coupled_drift"]
)
def test_series_route_makes_one_power_and_one_flow_series_per_rhs(monkeypatch, sf, muls_per_rhs):
    # coupled_drift's right-hand side is one square_ratio solve, with no
    # product and no division; constant's is one product
    calls = dict.fromkeys(("powf", "mul", "div", "flow_series", "exact_R", "normalizer", "nfev"), 0)

    class CountingScale(type(sf)):
        def flow_series(self, p, J):
            calls["flow_series"] += 1
            return super().flow_series(p, J)

        def exact_R(self, y0, t):
            calls["exact_R"] += 1
            return super().exact_R(y0, t)

        def normalizer(self, t):
            calls["normalizer"] += 1
            return super().normalizer(t)

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for name in ("powf", "mul", "div"):
        monkeypatch.setattr(_series, name, counting(name, getattr(_series, name)))
    dop853 = _dop853.dop853

    def dop853_nfev(*args):
        y, nfev, failure = dop853(*args)
        calls["nfev"] += nfev
        return y, nfev, failure

    monkeypatch.setattr(_dop853, "dop853", dop853_nfev)
    evolve_series(CountingScale(sf.params), 128, 1.0)
    assert calls["powf"] == 1
    assert calls["nfev"] > 0 and calls["flow_series"] == calls["nfev"]
    assert calls["mul"] == muls_per_rhs * calls["nfev"]
    assert calls["div"] == calls["exact_R"] == calls["normalizer"] == 0


def test_series_blow_up_is_a_named_solver_error():
    # nu + a0*(1 - (1-s)**nu) vanishes inside the unit disc once
    # a0 > nu/(2**nu - 1), so the coefficients grow geometrically in j
    sf = make_scale_function(ModelParams(0.5, 5.0, Family.COUPLED_DRIFT))
    with pytest.raises(SolverError, match="coupled_drift series evolution with J=256 to t=1"):
        evolve_series(sf, 256, 1.0)


# sha256 of the C8 computation's float64 bytes: (evolved coefficients,
# transition_matrix) at J = 1024, t = 1, recorded with numpy 2.4.6 and
# OpenBLAS 0.3.31 on x86_64; C8 and C10 read these states, so a
# change to the series kernels that moves any bit moves a digest
SERIES_DIGESTS = {
    Family.CONSTANT: (
        "1fafb98db63b2fc26093870c2f730f431b22bb0d7cae84f89b687578990811da",
        "7afec21c0a79a03fd179f70443273693f1477e03a352549114e1a6c7265126a1",
    ),
    Family.COUPLED_DRIFT: (
        "2dbcf9bc4330196c401e52e2757d0ce327040c8fd90a8522f5204d48f7426338",
        "3e406de986c5319054d40a4a544e00d29a860c6a457acb67d21f279d48c97147",
    ),
}


@pytest.mark.parametrize("sf", [CONST, COUPLED], ids=lambda sf: sf.family.value)
def test_series_engine_matches_frozen_digests(sf):
    st = evolve_series(sf, 1024, 1.0, SolveConfig(rel_tol=1e-11, abs_tol=1e-13))
    got = tuple(
        hashlib.sha256(a.tobytes()).hexdigest() for a in (st.coeffs, transition_matrix(st))
    )
    assert got == SERIES_DIGESTS[sf.family]


def test_series_guards():
    with pytest.raises(DomainError):
        evolve_series(CONST, 1, 1.0)
    # mass spread peaks at moderate horizons; a 2-term series loses > 1%
    with pytest.raises(TruncationError):
        evolve_series(CONST, 2, 5.0)


def test_power_row_binary_exponentiation():
    st = evolve_series(CONST, 64, 1.0)
    P = transition_matrix(st, imax=9)
    # row for i initial individuals is the i-fold convolution: from i the
    # chance of extinction by t is (1-q)^i
    q1 = exact_R(CONST, 0.0, 1.0)
    for i in range(2, 10):
        assert P[i, 0] == pytest.approx((1.0 - q1) ** i, abs=1e-9)


def test_transition_rows_match_the_catalan_closed_form():
    # F = 1 - (1 - s)**(1/2) satisfies F = s/(2 - F), so Lagrange inversion
    # gives [s**n] F**i = 2**i * (i/n) * C(2n - i - 1, n - 1) / 4**n for
    # n >= i, and 0 below. The rows are the first one of every doubling
    # level, and the last. Entries below 1e-290 lose digits to underflow, so
    # they are held to 1e-300 absolute.
    J = 1024
    F = -_series.binom_series(0.5, J)
    F[0] = 0.0
    P = transition_matrix(SeriesState(1.0, F))
    for i in [2] + [2**m + 1 for m in range(1, 10)] + [J]:
        exact = np.array([
            float(Fraction(2**i * i * math.comb(2 * n - i - 1, n - 1), n * 4**n)) if n >= i else 0.0
            for n in range(J + 1)
        ])
        assert np.all(P[i, :i] == 0.0)
        bound = np.where(exact > 1e-290, 1e-14 * exact, 1e-300)
        assert np.all(np.abs(P[i] - exact) <= bound), i


@pytest.mark.parametrize("sf", [CONST, COUPLED], ids=lambda sf: sf.family.value)
def test_transition_matrix_matches_the_long_double_row_loop(sf):
    # doubling compounds the rounding of P[k] over the log2 J levels: at
    # J = 1024 it is within 3.0e-14 relative and 1.1e-16 absolute of the
    # reference, the float64 row loop within 2.0e-15 and 2.6e-17
    st = evolve_series(sf, 256, 1.0, SolveConfig(rel_tol=1e-11, abs_tol=1e-13))
    ref = transition_matrix_longdouble(st.coeffs)
    err = np.abs(transition_matrix(st) - ref)
    kept = np.abs(ref) >= 1e-290
    assert float(np.max(err[kept] / np.abs(ref[kept]))) < 1e-13
    assert float(np.max(err)) < 5e-16


def test_q_matrix_structure():
    st = evolve_series(CONST, 64, 1.0, SolveConfig(rel_tol=1e-11, abs_tol=1e-13))
    Q = size_biased(transition_matrix(st))
    assert np.allclose(Q[1], st.coeffs * np.arange(65), atol=1e-14)
    assert np.all(Q[0] == 0.0)
    # row sums equal 1 minus the size-biased truncation defect, which decays
    # like the k^{-nu} tail of the row; fit the defect from the row tail
    rs = Q[1].sum()
    tail = Q[1, 40:].sum() * 2.0
    assert 0.0 < 1.0 - rs <= 4.0 * tail
    # generating-function consistency at s = 1/2
    g = G_of(CONST, 0.5, 1.0)
    val = float(np.polynomial.polynomial.polyval(0.5, Q[1]))
    assert val == pytest.approx(g, abs=1e-6)


def test_G_initial_and_derivative():
    for sf in (CONST, COUPLED):
        assert G_of(sf, 0.37, 0.0) == pytest.approx(0.37, rel=1e-12)
    # G(t;s) = -s dR/ds by central difference
    s, h = 0.5, 1e-5
    for sf in (CONST, COUPLED):
        dR = (exact_R(sf, s + h, 2.0) - exact_R(sf, s - h, 2.0)) / (2 * h)
        assert G_of(sf, s, 2.0) == pytest.approx(-s * dR, rel=1e-5)


def test_G_semigroup_identity():
    # G(t+tau;s) = G(t;s)/F(t;s) * G(tau; F(t;s))
    sf = COUPLED
    s, t, tau = 0.4, 3.0, 7.0
    F_t = 1.0 - exact_R(sf, s, t)
    lhs = G_of(sf, s, t + tau)
    rhs = G_of(sf, s, t) / F_t * G_of(sf, F_t, tau)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_G_domain():
    with pytest.raises(DomainError):
        G_of(CONST, 0.0, 1.0)
    with pytest.raises(DomainError):
        G_of(CONST, 1.0, 1.0)
    with pytest.raises(DomainError):
        G_of(CONST, 0.5, 1.0, one_minus_s=0.0)


def test_G_names_a_decay_rate_that_underflows_at_1_minus_s():
    # decay_rate(0.1) = a0 * 0.1**0.5 rounds to 0 at a0 = 5e-324: f(F)/f(s)
    # would be 0/0, for a float s and inside an array alike
    sf = make_scale_function(ModelParams(0.5, 5e-324, Family.CONSTANT))
    for s in (0.9, np.array([0.5, 0.9])):
        with pytest.raises(SolverError, match=r"s=0.9, t=0.1: decay_rate\(1 - s\) underflows to 0"):
            G_of(sf, s, 0.1)
    with pytest.raises(SolverError, match="decay_rate"):
        psi_finite(sf, 1.0, np.array([0.1, 1.0]))


def test_G_one_minus_s_survives_rounding_of_s():
    # when 1 - y rounds to 1.0 the carried y = 1 - s keeps G well defined:
    # constant family against its closed form s*(1 + c*y**nu)**-(1+1/nu)
    for t in (1e8, 1e10, 1e12):
        q = exact_R(CONST, 0.0, t)
        y = -math.expm1(-1e-3 * q)
        assert 1.0 - y == 1.0
        closed = (1.0 + 0.5 * t * y**0.5) ** -3.0
        assert G_of(CONST, 1.0 - y, t, one_minus_s=y) == pytest.approx(closed, rel=1e-9)


def test_invariant_measure_flow_identity():
    # M(F(t;s)) = M(s) + t along the flow (smoke version of the acceptance
    # identity at series level)
    for sf in (CONST, COUPLED):
        for s in (0.0, 0.4):
            F_t = 1.0 - exact_R(sf, s, 2.5)
            assert invariant_measure_M(sf, F_t) == pytest.approx(
                invariant_measure_M(sf, s) + 2.5, rel=1e-9
            )
