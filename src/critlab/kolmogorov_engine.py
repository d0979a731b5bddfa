"""Exact and numerical evolution of the transition generating function.

The backward equation dF/dt = f(F), F(0;s) = s drives everything. We track
R = 1 - F. Because R decays to zero like t**(-1/nu), the ODE route
integrates x = log R, a contracting flow, which holds *relative* accuracy
in R all the way down and is what makes the exact integral identity

    1/decay_rate(R(t;s)) - 1/decay_rate(1-s) = nu*t + int_0^t drift(R(u;s)) du

testable to 1e-6 at t = 1e3.

For the coupled-drift family the same identity closes: w = 1/decay_rate(R)
satisfies dw/dt = nu + 1/w, so

    w/nu - log(nu*w + 1)/nu**2 = t + (same at w0),       w0 = 1/decay_rate(1-s),

a monotone scalar equation solved to machine precision for any t, by one
Newton iteration over a whole array of starting points. The exact oracles
themselves live on the family classes (``ScaleFunction.exact_R``,
``ScaleFunction.drift_integral``); ``exact_R`` and ``G_of`` here validate and
dispatch, for a scalar or an array of s, and ``identity_residual`` checks
the identity by quadrature along the ODE path.
Each quantity has one route: q(t) is ``exact_R(sf, 0.0, t)`` (any horizon),
and ``solve_F`` is the independent ODE route, which integrates to whatever
horizon it is given, so callers can compare the two there. Given an
increasing grid of horizons it chains them by the semigroup property
F(t_k; s) = F(t_k - t_{k-1}; F(t_{k-1}; s)), integrating each segment from
the end point of the one before. Given an array of starting points s it
integrates their log R together as one vector, one ``solve_ivp`` call per
segment: the flow is autonomous and its right-hand side elementwise, and
the tolerances are divided by the square root of the number of points, so
each one keeps the accuracy of its own pass. The right-hand side,
d x/dt = -decay_rate(e^x), only needs R**nu = (e^x)**nu, so it is the
family's ``rate_of_power`` of that, computed in Python floats. It reads
only the end points and skips the dense interpolant, which
``identity_residual`` keeps for its quadrature along the path.

Transition probabilities P_1j(t) are the coefficients of F(t;s).
``evolve_series`` integrates them in the variable of the log-R flow,
p = (1 - F)**nu = R**nu, whose backward equation dp/dt = -nu*p*rate_of_power(p)
needs no fractional power of a series: the family's ``rate_series`` and one
product per right-hand side. The coefficient system is triangular
(coefficient j only involves coefficients 0..j), so a truncated solve is
exact for every kept column, and one series power at the end gives
F = 1 - p**(1/nu).
``transition_matrix`` builds the rows for i initial individuals as series
powers of F, and ``size_biased`` turns them into the conditioned chain's Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.integrate is imported where it is used (the ODE solves and the identity
# quadrature): it costs about 0.2 s at start-up, and neither the Monte Carlo
# commands nor the exact oracles integrate.

from . import _series
from .errors import DomainError, SolverError, TruncationError
from .sv_kernel import ScaleFunction

__all__ = [
    "SolveConfig",
    "DEFAULT_CFG",
    "SeriesState",
    "solve_F",
    "exact_R",
    "identity_residual",
    "evolve_series",
    "transition_matrix",
    "size_biased",
    "G_of",
]

_ODE_METHOD = "DOP853"  # the Runge-Kutta pair of every adaptive integration
# scipy raises a smaller rtol to this floor with a warning; refuse it instead
_RTOL_FLOOR = 100.0 * np.finfo(float).eps


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances for the adaptive ODE integrations."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name, tol, lo in (
            ("rel_tol", self.rel_tol, _RTOL_FLOOR),
            ("abs_tol", self.abs_tol, 1e-14),
        ):
            if not (lo <= tol <= 1e-3):
                raise DomainError(f"{name} must lie in [{lo:g}, 1e-3], got {tol}")


DEFAULT_CFG = SolveConfig()


def _check_ts(s, t) -> np.ndarray:
    """s as a 1-D array, after checking s (a float or a nonempty 1-D array
    in [0, 1)) and t (a horizon or an increasing 1-D grid of them)."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if s_arr.ndim > 1 or s_arr.size == 0 or not np.all((0.0 <= s_arr) & (s_arr < 1.0)):
        raise DomainError(f"requires 0 <= s < 1, a float or a nonempty 1-D array, got s={s}")
    if np.ndim(t) == 0:
        if not t >= 0.0:
            raise DomainError(f"requires t >= 0, got t={t}")
    elif np.ndim(t) > 1 or np.size(t) == 0 or not (t[0] >= 0.0 and np.all(np.diff(t) > 0.0)):
        raise DomainError(f"requires an increasing 1-D grid of horizons t >= 0, got t={t}")
    return s_arr


def _solve_log_path(sf: ScaleFunction, x0, span: float, cfg: SolveConfig, *, dense: bool = True):
    """Solution of x(u) = log R on [0, span] from x(0) = x0, with its
    interpolant when ``dense``.

    x0 is a float or a 1-D array of m start values, integrated together as
    one m-vector: the flow is autonomous and elementwise, so a segment of a
    longer path starts at u = 0 from its start values. scipy's error norm is
    the RMS over the components, so both tolerances are divided by sqrt(m),
    which bounds each component's local error by the configured ones (m = 1
    divides by 1.0). The right-hand side is d x/dt = -rate_of_power(R**nu)
    with R**nu = math.exp(x)**nu, all in Python floats: no numpy call per
    element, and each element is computed alone, so one start value keeps
    the bits of the scalar route. (``math.exp(nu*x)`` would round nu*x with
    an error that grows with |x|.) A float error in it raises where numpy
    would warn: exp past log R = 709 overflows, and a trial stage can hit a
    zero denominator (``coupled_drift`` at nu = 1/2, a0 = 1 and R**nu = 1.5);
    each is a SolverError. The interpolant costs DOP853 3 more right-hand
    sides on each 12-stage step. It is built after each step and never
    steers the next, so ``sol.y`` has the same bits either way.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    root_m = math.sqrt(x0.size)
    rate, nu, exp = sf.rate_of_power, sf.nu, math.exp

    def rhs(u, x):
        return [-rate(exp(v) ** nu) for v in x.tolist()]

    from scipy.integrate import solve_ivp

    log_r = ", ".join(f"{v:g}" for v in x0.tolist())
    where = f"from log R=[{log_r}] over t={span:g}"
    try:
        # a huge decay rate overflows scipy's first-step estimate; raise there
        # instead of stepping on with inf and nan
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = solve_ivp(
                rhs,
                (0.0, span),
                x0,
                method=_ODE_METHOD,
                rtol=cfg.rel_tol / root_m,
                atol=cfg.abs_tol / root_m,
                dense_output=dense,
            )
    except OverflowError as exc:
        # a trial step past log R = 709 overflows exp in the right-hand side
        raise SolverError(f"backward integration overflowed {where}: {exc}") from None
    except (FloatingPointError, ZeroDivisionError) as exc:
        raise SolverError(f"backward integration {where}: floating-point {exc}") from None
    if not sol.success:
        raise SolverError(f"backward integration failed {where}: {sol.message}")
    return sol


def solve_F(sf: ScaleFunction, s, t, cfg: SolveConfig = DEFAULT_CFG):
    """Adaptive integration of the backward equation; returns R(t;s) = 1 - F(t;s).

    t is a horizon or an increasing 1-D array of them, and s a starting
    point or a nonempty 1-D array of m of them; a float s gives a float or
    shape (len(t),), an array s gives shape (m,) or (m, len(t)). The m
    values of log R are integrated together, one ``solve_ivp`` call per
    segment, each within the configured tolerances (see ``_solve_log_path``),
    so m is refused where rel_tol/sqrt(m) would fall below scipy's floor of
    100 eps. A float s is the one-element array, bit for bit. Each segment
    [t_{k-1}, t_k] is integrated from the end point of the one before, so a
    value on a grid depends, within the solver tolerance, on the horizons
    before it (and an array value on the other s); a scalar t is the
    one-point grid from 0, integrated in one piece.
    """
    s_arr = _check_ts(s, t)
    m = s_arr.size
    if cfg.rel_tol / math.sqrt(m) < _RTOL_FLOOR:
        raise DomainError(
            f"{m} starting points s need rel_tol >= {_RTOL_FLOOR:g}*sqrt({m}), got {cfg.rel_tol}"
        )
    x, prev, cols = [math.log1p(-v) for v in s_arr.tolist()], 0.0, []
    for tk in np.atleast_1d(t).tolist():
        if tk == 0.0:  # only the first horizon can be 0
            cols.append(1.0 - s_arr)
            continue
        x = _solve_log_path(sf, x, tk - prev, cfg, dense=False).y[:, -1]
        prev = tk
        cols.append(np.array([math.exp(v) for v in x.tolist()]))
    r = np.stack(cols, axis=-1) if np.ndim(t) else cols[0]
    if np.ndim(s):
        return r
    return r[0] if np.ndim(t) else float(r[0])


def exact_R(sf: ScaleFunction, s, t: float, *, one_minus_s=None):
    """Exact R(t;s) from the family's closed form or implicit equation; any horizon.

    s (or ``one_minus_s``) is a float (gives a float) or an array (gives its
    shape). ``one_minus_s`` may carry 1 - s when s is within roundoff of 1.
    R is nonincreasing from R(0;s) = 1 - s, but the closed forms and the
    implicit equation can round a few ulps above 1 - s at tiny t, so the
    result is capped there; it can then be passed back as ``one_minus_s``.
    """
    y0 = 1.0 - np.asarray(s, dtype=float) if one_minus_s is None else one_minus_s
    y0 = np.asarray(y0, dtype=float)
    if not np.all((0.0 < y0) & (y0 <= 1.0)) or not t >= 0.0:
        raise DomainError(f"invalid (s, t) = ({s}, {t})")
    r = np.minimum(sf.exact_R(y0, t), y0)
    return float(r) if r.ndim == 0 else r


def identity_residual(
    sf: ScaleFunction, s: float, t: float, cfg: SolveConfig = DEFAULT_CFG
) -> float:
    """Residual of the exact integral identity along the ODE solution.

    Computes [1/decay_rate(R(t;s)) - 1/decay_rate(1-s)] minus
    [nu*t + int_0^t index_drift(R(u;s)) du] with R from the adaptive solver
    and the integral by adaptive quadrature over the dense output. Must
    vanish to solver tolerance.
    """
    _check_ts(s, t)
    if t == 0.0:
        return 0.0
    sol = _solve_log_path(sf, math.log1p(-s), t, cfg)
    r_end = math.exp(float(sol.y[0, -1]))
    lhs = 1.0 / sf.decay_rate(r_end) - 1.0 / sf.decay_rate(1.0 - s)
    from scipy.integrate import quad

    integral, _ = quad(
        lambda u: sf.index_drift(math.exp(float(sol.sol(u)[0]))),
        0.0,
        t,
        epsabs=1e-12,
        epsrel=1e-11,
        limit=400,
    )
    return float(lhs - (sf.nu * t + integral))


# ---------------------------------------------------------------------------
# power-series evolution of the transition probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesState:
    """Coefficients F_j(t) of F(t;s); F_j(t) = P_1j(t), j <= order.

    The kept coefficients are exact solutions of the truncated coefficient
    system (the composition is triangular); the row defect 1 - sum_j F_j is
    exactly the probability mass sitting beyond the truncation order.
    """

    t: float
    coeffs: np.ndarray

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def defect(self) -> float:
        return 1.0 - float(np.sum(self.coeffs))


def evolve_series(
    sf: ScaleFunction, J: int, t: float, cfg: SolveConfig = DEFAULT_CFG
) -> SeriesState:
    """Coefficients F_j(t), j <= J, from the coefficient system of p = (1 - F)**nu.

    Along the backward flow p = R**nu obeys dp/dt = -nu * p * rate_of_power(p),
    so the right-hand side is one ``mul`` of p by the family's ``rate_series(p)``
    (a scaled copy of p for ``constant``, one ``div`` for ``coupled_drift``) and
    needs no fractional power. The integration starts from p(0) = (1 - s)**nu,
    the solver's tolerances act on p's coefficients, and one ``powf`` at the
    end gives F = 1 - p**(1/nu). Raises SolverError, naming the family, J and
    t, when the coefficients overflow (a mechanism whose series diverges inside
    the unit disc, such as ``coupled_drift`` with a0 > nu/(2**nu - 1)), and
    TruncationError when more than 1 % of the mass has escaped past the
    truncation order, which signals that row sums (not the kept columns, which
    stay exact) are no longer meaningful.
    """
    if J < 2:
        raise DomainError(f"evolve_series requires J >= 2, got {J}")
    if t < 0.0:
        raise DomainError(f"evolve_series requires t >= 0, got {t}")
    if t == 0.0:
        coeffs = np.zeros(J + 1)
        coeffs[1] = 1.0
        return SeriesState(0.0, coeffs)
    nu = sf.nu

    def rhs(u, p):
        return -nu * _series.mul(p, sf.rate_series(p, J), J)

    from scipy.integrate import solve_ivp

    where = f"{sf.family.value} series evolution with J={J} to t={t:g}"
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sol = solve_ivp(
                rhs,
                (0.0, t),
                _series.binom_series(nu, J),
                method=_ODE_METHOD,
                rtol=cfg.rel_tol,
                atol=cfg.abs_tol,
            )
            if not sol.success:
                raise SolverError(f"{where} failed: {sol.message}")
            coeffs = -_series.powf(sol.y[:, -1], 1.0 / nu)
    except (FloatingPointError, ZeroDivisionError) as exc:
        raise SolverError(f"{where}: floating-point {exc}") from None
    coeffs[0] += 1.0
    state = SeriesState(t, coeffs)
    if state.defect > 1e-2:
        raise TruncationError(
            f"series defect {state.defect:.3e} at t={t} with J={J}; increase J"
        )
    return state


def transition_matrix(state: SeriesState, imax: int | None = None) -> np.ndarray:
    """Matrix P[i, j] = P_ij(t) for 0 <= i <= imax via cumulative products."""
    J = state.order
    imax = J if imax is None else imax
    P = np.zeros((imax + 1, J + 1))
    P[0, 0] = 1.0
    if imax >= 1:
        P[1] = state.coeffs
    for i in range(2, imax + 1):
        P[i] = _series.mul(P[i - 1], state.coeffs, J)
    return P


def size_biased(P: np.ndarray) -> np.ndarray:
    """Size-biased matrix Q_ij = (j/i) * P_ij, i >= 1, of a transition matrix.

    Row 0 is identically zero: the conditioned chain never occupies state 0.
    """
    j = np.arange(P.shape[1], dtype=float)
    Q = P * j[None, :]
    Q[0] = 0.0
    Q[1:] /= np.arange(1, P.shape[0], dtype=float)[:, None]
    return Q


def G_of(sf: ScaleFunction, s, t: float, *, one_minus_s=None):
    """Generating function of the conditioned chain, G(t;s) = s*f(F(t;s))/f(s).

    Evaluated as s * (R/y0) * (decay_rate(R)/decay_rate(y0)), y0 = 1 - s,
    with R from the exact oracle: a product of ratios of normal numbers,
    where f(s) = y0 * decay_rate(y0) itself would underflow for y0 far
    below 1e-200. s is a float (gives a float) or an array (gives its shape).
    ``one_minus_s`` may be passed to keep precision when s is within
    roundoff of 1; the domain check is then made on ``one_minus_s``, since
    s itself may have rounded to 1.0; a tiny s may round 1 - s to 1.0.
    """
    s = np.asarray(s, dtype=float)
    y0 = 1.0 - s if one_minus_s is None else np.asarray(one_minus_s, dtype=float)
    if not np.all((s > 0.0) & (0.0 < y0) & (y0 <= 1.0)):
        raise DomainError(f"G_of requires s > 0 and 0 < 1-s <= 1, got s={s}, 1-s={y0}")
    if t < 0.0:
        raise DomainError(f"G_of requires t >= 0, got t={t}")
    r = exact_R(sf, s, t, one_minus_s=y0)
    val = s * (r / y0) * (sf.decay_rate(r) / sf.decay_rate(y0))
    return float(val) if np.ndim(val) == 0 else val
