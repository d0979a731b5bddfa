"""Second-order asymptotic predictions and normalized-error measurement.

Each predictor mirrors one limit statement of the theory:

* ``predict_q``: q(t) ~ N(t)/(nu*t)**(1/nu) * (1 + correction), where the
  correction is -drift_integral/(nu**2 t) in general and collapses to
  -log(a0*nu*t + 1)/(nu**3 t) for the coupled-drift family (the family's
  ``ScaleFunction.second_order`` supplies it).
* ``predict_p11``: same shape for (nu*t)**(1+1/nu) * P_11(t) with leading
  factor N(t)/a0 and the correction scaled by (1+nu).
* ``pi_of`` / ``pi_coeffs``: invariant measure of the conditioned chain,
  pi(s) = s * (1-s)**-(1+nu) / sv(1/(1-s)); coefficient-wise it is the
  size-biased branching invariant measure.
* ``psi_limit`` / ``psi_finite``: limiting and finite-horizon Laplace
  transforms of the scaled conditioned population q(t)*W(t); their gap
  decays like log t / t with an explicit theta profile.
* ``d_limit``: the limiting distribution function recovered by fixed
  Talbot inversion, every point checked against Gaver-Stehfest.

Every exact survival probability comes from ``exact_R(sf, 0.0, t)``, and
every time scale (nu*t)**p from ``sv_kernel.nu_t_power``, which refuses a
horizon where it overflows.
``baseline_checks`` returns (t, exact, predicted, normalized error) tuples;
``fit_rate`` turns times and residuals into a log-log convergence-rate
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from . import _series
from .errors import DomainError, SolverError
from .kolmogorov_engine import DEFAULT_CFG, SolveConfig, G_of, exact_R, solve_F
from .laplace import gaver_stehfest, talbot
from .sv_kernel import ScaleFunction, nu_t_power, solve_normalizer

__all__ = [
    "AsymptoticPrediction",
    "RateFit",
    "PiMeasure",
    "predict_q",
    "predict_p11",
    "normalized_error_q",
    "normalized_error_p11",
    "p11_exact",
    "pi_of",
    "pi_coeffs",
    "tauberian_ratio",
    "psi_limit",
    "psi_finite",
    "default_theta_grid",
    "delta_sup",
    "laplace_sup_profile_max",
    "qproc_gf_ratio",
    "qproc_gf_second_order",
    "d_limit",
    "baseline_checks",
    "fit_rate",
]


@dataclass(frozen=True)
class AsymptoticPrediction:
    """Leading factor and first correction of one expansion.

    The predicted quantity is leading * (1 + correction).
    """

    leading: float
    correction: float

    @property
    def value(self) -> float:
        return self.leading * (1.0 + self.correction)


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def predict_q(sf: ScaleFunction, t: float) -> AsymptoticPrediction:
    """Second-order prediction of the survival probability at t >= 1."""
    if t < 1.0:
        raise DomainError(f"predict_q requires t >= 1, got {t}")
    nu = sf.nu
    N = solve_normalizer(sf, t)
    leading = N / nu_t_power(nu, t, 1.0 / nu, "q prediction")
    num, den = sf.second_order(t)
    corr = -num / den
    return AsymptoticPrediction(leading, corr)


def p11_exact(sf: ScaleFunction, t: float) -> float:
    """Exact P_11(t) = q(t) * decay_rate(q(t)) / a0 via the survival oracle."""
    q = exact_R(sf, 0.0, t)
    return float(q * sf.decay_rate(q) / sf.a0)


def predict_p11(sf: ScaleFunction, t: float) -> AsymptoticPrediction:
    """Second-order prediction of (nu*t)**(1+1/nu) * P_11(t)."""
    if t < 1.0:
        raise DomainError(f"predict_p11 requires t >= 1, got {t}")
    nu = sf.nu
    N = solve_normalizer(sf, t)
    leading = N / sf.a0
    num, den = sf.second_order(t)
    corr = -(1.0 + nu) * num / den
    return AsymptoticPrediction(leading, corr)


def normalized_error_q(sf: ScaleFunction, t: float) -> float:
    """E(t) = (1 - q(t)*(nu*t)**(1/nu)/N(t)) * nu**3 * t / log(a0*nu*t + 1).

    Converges to 1 for the coupled-drift family; the acceptance band lives
    on this quantity.
    """
    nu = sf.nu
    q = exact_R(sf, 0.0, t)
    pred = predict_q(sf, t)
    return float((1.0 - q / pred.leading) * nu**3 * t / math.log(sf.a0 * nu * t + 1.0))


def normalized_error_p11(sf: ScaleFunction, t: float) -> float:
    """Same normalization for P_11 with the (1+nu) coefficient divided out."""
    nu = sf.nu
    val = nu_t_power(nu, t, 1.0 + 1.0 / nu, "scaled P11") * p11_exact(sf, t)
    pred = predict_p11(sf, t)
    return float(
        (1.0 - val / pred.leading)
        * nu**3
        * t
        / ((1.0 + nu) * math.log(sf.a0 * nu * t + 1.0))
    )


# ---------------------------------------------------------------------------
# invariant measure of the conditioned chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiMeasure:
    """Coefficients pi_j (j >= 1) with cumulative partial sums."""

    coeffs: np.ndarray  # index j = 0..J with coeffs[0] = 0

    @property
    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.coeffs)


def pi_of(sf: ScaleFunction, s: float) -> float:
    """pi(s) = s * (1-s)**-(1+nu) / sv(1/(1-s)) on 0 < s < 1."""
    if not (0.0 < s < 1.0):
        raise DomainError(f"pi_of requires 0 < s < 1, got {s}")
    y = 1.0 - s
    return float(s * y ** (-(1.0 + sf.nu)) / sf.sv(1.0 / y))


def pi_coeffs(sf: ScaleFunction, J: int) -> PiMeasure:
    """Coefficients of pi(s) to order J by series expansion."""
    if J < 1:
        raise DomainError(f"pi_coeffs requires J >= 1, got {J}")
    B = _series.binom_series(-(1.0 + sf.nu), J - 1)
    body = _series.mul(B, sf.sv_reciprocal_series(J - 1), J - 1)
    out = np.zeros(J + 1)
    out[1:] = body
    if np.any(out < -1e-12):
        raise SolverError("pi coefficients lost positivity; increase precision")
    return PiMeasure(np.clip(out, 0.0, None))


def tauberian_ratio(sf: ScaleFunction, n: int) -> float:
    """Partial-sum check sum_{j<=n} pi_j * Gamma(2+nu) / (n**(1+nu) * (1/sv(n))).

    Tends to 1 as n grows; evaluated with the series coefficients.
    """
    pm = pi_coeffs(sf, n)
    nu = sf.nu
    lpi_n = 1.0 / sf.sv(float(n))
    return float(pm.partial_sums[n] * gamma_fn(2.0 + nu) / (n ** (1.0 + nu) * lpi_n))


# ---------------------------------------------------------------------------
# Laplace transforms of the scaled conditioned population
# ---------------------------------------------------------------------------


def psi_limit(nu: float, theta) -> float:
    """Limiting transform (1 + theta**nu)**-(1 + 1/nu) for theta >= 0."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0):
        raise DomainError("psi_limit requires theta >= 0")
    val = (1.0 + theta**nu) ** (-(1.0 + 1.0 / nu))
    return float(val) if val.ndim == 0 else val


def psi_finite(sf: ScaleFunction, t: float, theta: float) -> float:
    """Finite-horizon transform E exp(-theta * q(t) * W(t)) = G(t; e^{-theta q(t)}).

    Uses the exact survival oracle; 1 - s is carried as expm1 so precision
    survives theta*q(t) down to the 1e-14 scale.
    """
    if theta <= 0.0:
        raise DomainError(f"psi_finite requires theta > 0, got {theta}")
    if t < 1.0:
        raise DomainError(f"psi_finite requires t >= 1, got {t}")
    q = exact_R(sf, 0.0, t)
    y = -math.expm1(-theta * q)
    return G_of(sf, 1.0 - y, t, one_minus_s=y)


def default_theta_grid(n: int = 200) -> np.ndarray:
    """Log-spaced theta grid on [1e-3, 1e3] used by the sup measurements."""
    if n < 200:
        raise DomainError(f"theta grid needs >= 200 points, got {n}")
    return np.logspace(-3.0, 3.0, n)


def delta_sup(
    sf: ScaleFunction, t: float, theta_grid: np.ndarray | None = None
) -> tuple[float, float]:
    """Sup over the grid of |psi_finite - psi_limit|; returns (sup, argmax).

    Raises SolverError when the maximum sits on the grid boundary, which
    would mean the grid no longer brackets the interior maximum.
    """
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid)
    nu = sf.nu
    q = exact_R(sf, 0.0, t)
    best, arg, idx = -1.0, grid[0], 0
    for i, th in enumerate(grid):
        y = -math.expm1(-th * q)
        val = abs(G_of(sf, 1.0 - y, t, one_minus_s=y) - psi_limit(nu, th))
        if val > best:
            best, arg, idx = val, th, i
    if idx in (0, len(grid) - 1):
        raise SolverError(f"delta_sup argmax on grid boundary at theta={arg}")
    return float(best), float(arg)


def laplace_sup_profile_max(nu: float) -> float:
    """Maximum over theta of the second-order profile theta**nu/(1+theta**nu)*Psi.

    The pointwise gap psi_finite - psi_limit carries this profile; its max
    is (u/(1+u)**(2+1/nu)) at u = nu/(1+nu), strictly below 4/27 for all
    nu in (0, 1).
    """
    u = nu / (1.0 + nu)
    return float(u / (1.0 + u) ** (2.0 + 1.0 / nu))


# ---------------------------------------------------------------------------
# conditioned-chain generating function ratios
# ---------------------------------------------------------------------------


def qproc_gf_ratio(sf: ScaleFunction, s: float, t: float) -> float:
    """(nu*t)**(1+1/nu) * G(t;s) / (pi(s) * N(t)): tends to 1."""
    nu = sf.nu
    G = G_of(sf, s, t)
    N = solve_normalizer(sf, t)
    return float(nu_t_power(nu, t, 1.0 + 1.0 / nu, "G ratio") * G / (pi_of(sf, s) * N))


def qproc_gf_second_order(sf: ScaleFunction, s: float, t: float) -> float:
    """Normalized second-order error of the generating-function expansion.

    (1 - ratio) * nu**3 * t / ((1+nu) * log(decay_rate(1-s)*nu*t + 1));
    approaches 1 for the coupled-drift family.
    """
    nu = sf.nu
    ratio = qproc_gf_ratio(sf, s, t)
    log_ts = math.log(sf.decay_rate(1.0 - s) * nu * t + 1.0)
    return float((1.0 - ratio) * nu**3 * t / ((1.0 + nu) * log_ts))


# ---------------------------------------------------------------------------
# limiting distribution by Laplace inversion
# ---------------------------------------------------------------------------


def d_limit(nu: float, x_grid) -> tuple[np.ndarray, dict]:
    """Limit CDF values D(x) on a positive grid by transform inversion.

    The transform of the CDF is psi_limit(nu, p)/p. Fixed Talbot gives the
    values; Gaver-Stehfest checks each one, and points where the two
    disagree by more than 1e-4, or where either is not finite, are flagged.
    Returns (values, metadata) where metadata records the flagged indices and
    the largest disagreement.
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if x_grid.size == 0 or not np.all(np.isfinite(x_grid) & (x_grid > 0.0)):
        raise DomainError("d_limit requires a non-empty grid of finite, strictly positive x")

    def cdf_transform(p):
        return (1.0 + p**nu) ** (-(1.0 + 1.0 / nu)) / p

    vals = np.array([talbot(cdf_transform, x) for x in x_grid])
    disagreements = np.abs(vals - [gaver_stehfest(cdf_transform, x) for x in x_grid])
    meta = {
        "flagged_indices": [int(i) for i in np.flatnonzero(~(disagreements <= 1e-4))],
        "max_disagreement": float(np.max(disagreements)),
    }
    return np.clip(vals, 0.0, 1.0), meta


# ---------------------------------------------------------------------------
# finite-variance and regular-variation baselines
# ---------------------------------------------------------------------------


def baseline_checks(
    sf: ScaleFunction,
    t_grid,
    s: float,
    cfg: SolveConfig = DEFAULT_CFG,
) -> list[tuple[float, float, float, float]]:
    """Classical first-order checks as (t, exact, predicted, normalized error)
    tuples sorted by t.

    binary_split: 1/R(t;s) - 1/(1-s) - a0*t vanishes identically (quadratic
    mechanism); recorded with the ODE solution so the residual measures the
    solver. Slowly varying families: the ratio q(t) / (f(1-q(t)) * nu * t)
    tends to 1 and is recorded from the exact oracle. A non-finite entry
    raises DomainError.
    """
    records = []
    for t in np.sort(np.atleast_1d(np.asarray(t_grid, dtype=float))):
        if sf.finite_variance:
            r_ode = solve_F(sf, s, t, cfg)
            exact = 1.0 / (1.0 - s) + sf.a0 * t
            rec = (t, 1.0 / r_ode, exact, 1.0 / r_ode - exact)
        else:
            q = exact_R(sf, 0.0, t)
            ratio = q / (sf.f(1.0 - q) * sf.nu * t)
            rec = (t, ratio, 1.0, ratio - 1.0)
        if not all(math.isfinite(v) for v in rec):
            raise DomainError(f"non-finite baseline entry at t={t}")
        records.append(tuple(float(v) for v in rec))
    return records


def fit_rate(ts: np.ndarray, residuals: np.ndarray) -> RateFit:
    """Least-squares fit log|residual| = slope*log t + c.

    Requires at least 5 records spanning two decades of t; degenerate
    spreads are rejected.
    """
    ts = np.asarray(ts, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    if len(ts) < 5:
        raise DomainError(f"fit_rate needs >= 5 records, got {len(ts)}")
    if np.max(ts) / np.min(ts) < 100.0:
        raise DomainError("fit_rate needs records spanning >= 2 decades of t")
    mask = residuals != 0.0
    if mask.sum() < 5:
        raise DomainError("fit_rate: too many exactly-zero residuals")
    ly = np.log(np.abs(residuals[mask]))
    lx = np.log(ts[mask])
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(coef[0]), float(coef[1]), r2)
