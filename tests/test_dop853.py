"""The DOP853 stepper against scipy's solve_ivp(method="DOP853"), bit for bit.

critlab steps DOP853 itself (``critlab._dop853``) and no longer imports
scipy.integrate; scipy 1.17.1's solver stays here as the reference. On the
flows critlab integrates, the stepper must give the same end state, the
same number of right-hand sides and the same outcome: a step that shrinks
below the spacing of floats, or the same floating-point error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from critlab import Family, ModelParams, SolverError, _series, make_scale_function
from critlab._dop853 import dop853
from critlab.kolmogorov_engine import _integrate

FAMILIES = [Family.CONSTANT, Family.COUPLED_DRIFT]
FLOAT_ERRORS = (FloatingPointError, OverflowError, ZeroDivisionError)


def log_path_rhs(sf):
    # the right-hand side of kolmogorov_engine._solve_log_path
    def rhs(u, x):
        return [-sf.rate_of_power(math.exp(v) ** sf.nu) for v in x.tolist()]

    return rhs


def series_rhs(sf, J):
    # the right-hand side of kolmogorov_engine.evolve_series
    def rhs(u, p):
        return sf.flow_series(p, J)

    return rhs


def outcome(run):
    # _integrate's numpy error state; a float error is its type and message
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return run()
    except FLOAT_ERRORS as exc:
        return type(exc), str(exc)


def assert_same_as_solve_ivp(fun, y0, span, rtol, atol):
    ours = outcome(lambda: dop853(fun, y0, span, rtol, atol))
    ref = outcome(
        lambda: solve_ivp(fun, (0.0, span), y0, method="DOP853", rtol=rtol, atol=atol)
    )
    if isinstance(ref, tuple):
        assert ours == ref
        kind = "floating-point"
    else:
        y, nfev, failure = ours
        assert np.array_equal(y, ref.y[:, -1])
        assert nfev == ref.nfev
        assert failure == (None if ref.success else ref.message)
        if ref.success:
            return "success"
        kind = "failed"
    # _integrate names the stage and place, and carries scipy's own message
    with pytest.raises(SolverError) as info:
        _integrate(fun, y0, span, rtol, atol, "stage", "here")
    if kind == "failed":
        assert str(info.value) == f"stage failed here: {ref.message}"
    else:
        assert str(info.value) == f"stage here: floating-point {ref[1]}"
    return kind


RTOL_FLOOR = 100.0 * np.finfo(float).eps
# log-uniform rtol from the floor of 100 eps and atol from 1e-14, both to 1e-4
tolerances = st.tuples(
    st.floats(math.log10(RTOL_FLOOR), -4.0),
    st.floats(-14.0, -4.0),
).map(lambda lg: (max(10.0 ** lg[0], RTOL_FLOOR), 10.0 ** lg[1]))


@given(
    fam=st.sampled_from(FAMILIES),
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.05, 5.0),
    s=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=4),
    log10_span=st.floats(-6.0, 8.0),
    tol=tolerances,
)
@settings(max_examples=60, deadline=None)
def test_log_path_steps_match_solve_ivp(fam, nu, a0, s, log10_span, tol):
    sf = make_scale_function(ModelParams(nu, a0, fam))
    x0 = np.array([math.log1p(-v) for v in s])
    assert_same_as_solve_ivp(log_path_rhs(sf), x0, 10.0**log10_span, *tol)


@given(
    fam=st.sampled_from(FAMILIES),
    nu=st.floats(0.05, 0.95),
    a0=st.floats(0.05, 5.0),
    J=st.sampled_from([8, 64, 100]),
    log10_span=st.floats(-6.0, 8.0),
    tol=tolerances,
)
@settings(max_examples=30, deadline=None)
def test_series_steps_match_solve_ivp(fam, nu, a0, J, log10_span, tol):
    sf = make_scale_function(ModelParams(nu, a0, fam))
    p0 = _series.binom_series(nu, J)
    assert_same_as_solve_ivp(series_rhs(sf, J), p0, 10.0**log10_span, *tol)


def test_failures_match_solve_ivp():
    # a decay rate of 1e300 overflows the first-step estimate
    huge = make_scale_function(ModelParams(0.5, 1e300, Family.CONSTANT))
    assert assert_same_as_solve_ivp(log_path_rhs(huge), np.zeros(1), 1.0, 1e-10, 1e-12) == (
        "floating-point"
    )
    # y' = y**2 from y(0) = 1 blows up at t = 1: the step shrinks below the
    # spacing of floats there
    def square(u, y):
        return [v * v for v in y.tolist()]

    assert assert_same_as_solve_ivp(square, np.ones(1), 2.0, 1e-10, 1e-12) == "failed"
