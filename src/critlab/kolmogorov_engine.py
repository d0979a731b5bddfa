"""Exact and numerical evolution of the transition generating function.

The backward equation dF/dt = f(F), F(0;s) = s drives everything. We track
R = 1 - F. Because R decays to zero like t**(-1/nu), the ODE route
integrates x = log R (d x/dt = -decay_rate(e^x), a contracting flow), which
holds *relative* accuracy in R all the way down and is what makes the exact
integral identity

    1/decay_rate(R(t;s)) - 1/decay_rate(1-s) = nu*t + int_0^t drift(R(u;s)) du

testable to 1e-6 at t = 1e3.

For the coupled-drift family the same identity closes: w = 1/decay_rate(R)
satisfies dw/dt = nu + 1/w, so

    w/nu - log(nu*w + 1)/nu**2 = t + (same at w0),       w0 = 1/decay_rate(1-s),

a monotone scalar equation solved to machine precision for any t. The exact
oracles themselves live on the family classes (``ScaleFunction.exact_R``,
``ScaleFunction.drift_integral``); ``exact_R`` and ``index_drift_integral``
here validate and dispatch, and ``identity_residual`` checks the identity
by quadrature along the ODE path.
Each quantity has one route: q(t) is ``exact_R(sf, 0.0, t)`` (any horizon),
and ``solve_F`` is the independent ODE route, which integrates to whatever
horizon it is given, so callers can compare the two there.

Transition probabilities P_1j(t) are the coefficients of F(t;s); their
coupled coefficient ODE is triangular (coefficient j only involves
coefficients 0..j), so a truncated solve is exact for every kept column.
``transition_matrix`` builds the rows for i initial individuals as series
powers of F, and ``size_biased`` turns them into the conditioned chain's Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp

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
    "index_drift_integral",
    "evolve_series",
    "transition_matrix",
    "size_biased",
    "G_of",
]

_ODE_METHOD = "DOP853"  # the Runge-Kutta pair of every adaptive integration


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances for the adaptive ODE integrations."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (1e-14 <= tol <= 1e-3):
                raise DomainError(f"{name} must lie in [1e-14, 1e-3], got {tol}")


DEFAULT_CFG = SolveConfig()


def _check_ts(s: float, t: float) -> None:
    if not (0.0 <= s < 1.0):
        raise DomainError(f"requires 0 <= s < 1, got s={s}")
    if not t >= 0.0:
        raise DomainError(f"requires t >= 0, got t={t}")


def _solve_log_path(sf: ScaleFunction, s: float, t: float, cfg: SolveConfig):
    """Dense solution of x(u) = log R(u;s) on [0, t]."""

    def rhs(u, x):
        return [-sf.decay_rate(math.exp(x[0]))]

    try:
        sol = solve_ivp(
            rhs,
            (0.0, t),
            [math.log1p(-s)],
            method=_ODE_METHOD,
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
            dense_output=True,
        )
    except OverflowError as exc:
        # a trial step past log R = 709 overflows exp in the right-hand side
        raise SolverError(f"backward integration overflowed at s={s}, t={t}: {exc}") from None
    if not sol.success:
        raise SolverError(f"backward integration failed at s={s}, t={t}: {sol.message}")
    return sol


def solve_F(sf: ScaleFunction, s: float, t: float, cfg: SolveConfig = DEFAULT_CFG) -> float:
    """Adaptive integration of the backward equation; returns R(t;s) = 1 - F(t;s)."""
    _check_ts(s, t)
    if t == 0.0:
        return 1.0 - s
    sol = _solve_log_path(sf, s, t, cfg)
    return math.exp(float(sol.y[0, -1]))


def exact_R(
    sf: ScaleFunction, s: float, t: float, *, one_minus_s: float | None = None
) -> float:
    """Exact R(t;s) from the family's closed form or implicit equation; any horizon.

    ``one_minus_s`` may carry 1 - s when s is within roundoff of 1.
    """
    y0 = 1.0 - s if one_minus_s is None else one_minus_s
    if not (0.0 < y0 <= 1.0) or not t >= 0.0:
        raise DomainError(f"invalid (s, t) = ({s}, {t})")
    return sf.exact_R(y0, t)


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
    sol = _solve_log_path(sf, s, t, cfg)
    r_end = math.exp(float(sol.y[0, -1]))
    lhs = 1.0 / sf.decay_rate(r_end) - 1.0 / sf.decay_rate(1.0 - s)
    integral = 0.0
    if sf.has_drift:
        integral, _ = quad(
            lambda u: sf.index_drift(math.exp(float(sol.sol(u)[0]))),
            0.0,
            t,
            epsabs=1e-12,
            epsrel=1e-11,
            limit=400,
        )
    return float(lhs - (sf.nu * t + integral))


def index_drift_integral(sf: ScaleFunction, s: float, t: float) -> float:
    """Accumulated index drift int_0^t index_drift(R(u;s)) du; any horizon.

    Evaluated by the family's exact ``drift_integral``, i.e. through the
    identity as 1/decay_rate(R) - 1/decay_rate(1-s) - nu*t. Families without
    drift return 0 exactly.
    """
    _check_ts(s, t)
    if t == 0.0 or not sf.has_drift:
        return 0.0
    return sf.drift_integral(1.0 - s, t)


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
    """Integrate the coupled coefficient system dF_j/dt = [f(F)]_j to time t.

    Starts from F(0;s) = s. Raises TruncationError when more than 1 % of the
    mass has escaped past the truncation order, which signals that row sums
    (not the kept columns, which stay exact) are no longer meaningful.
    """
    if J < 2:
        raise DomainError(f"evolve_series requires J >= 2, got {J}")
    if t < 0.0:
        raise DomainError(f"evolve_series requires t >= 0, got {t}")
    y0 = np.zeros(J + 1)
    y0[1] = 1.0
    if t == 0.0:
        return SeriesState(0.0, y0)

    def rhs(u, c):
        # coefficients of f(F) from those of F, through y = 1 - F, y[0] > 0
        y = -np.asarray(c)
        y[0] += 1.0
        return sf.f_series(y, J)

    sol = solve_ivp(
        rhs,
        (0.0, t),
        y0,
        method=_ODE_METHOD,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
    )
    if not sol.success:
        raise SolverError(f"series evolution failed at t={t}: {sol.message}")
    coeffs = sol.y[:, -1].copy()
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


def G_of(
    sf: ScaleFunction, s: float, t: float, *, one_minus_s: float | None = None
) -> float:
    """Generating function of the conditioned chain, G(t;s) = s*f(F(t;s))/f(s).

    Evaluated as s * R * decay_rate(R) / f(s) with R from the exact oracle.
    ``one_minus_s`` may be passed to keep precision when s is within
    roundoff of 1; the domain check is then made on ``one_minus_s``, since
    s itself may have rounded to 1.0.
    """
    y0 = 1.0 - s if one_minus_s is None else one_minus_s
    if not (0.0 < y0 < 1.0):
        raise DomainError(f"G_of requires 0 < s < 1, got s={s}, 1-s={y0}")
    if t < 0.0:
        raise DomainError(f"G_of requires t >= 0, got t={t}")
    r = exact_R(sf, s, t, one_minus_s=y0)
    f_s = y0 * sf.decay_rate(y0)
    return float(s * r * sf.decay_rate(r) / f_s)
