"""Second-order asymptotic predictions and normalized-error measurement.

The three second-order statements, for q(t), P_11(t) and the conditioned
generating function G(t;s), are one ratio (``_ratio``),

    (nu*t)**(k + 1/nu) * R*decay_rate(R)**k / N(t),    R = R(t;s) from ``exact_R``:

q's at k = 0, s = 0, and at k = 1, where R*decay_rate(R) = f(F(t;s)), P_11's
at s = 0 (P_11 = f(F(t;0))/a0) and G's on 0 < s < 1 (G = pi(s)*f(F(t;s))).
The time scale comes from ``sv_kernel.nu_t_power``, which refuses a horizon
where it overflows, and N(t) from ``solve_normalizer``. Each statement's
normalized error is (1 - ratio) * den / ((1 + k*nu) * num), num/den the
family's ``ScaleFunction.second_order`` term from R(0) = 1 - s.

* ``predict_q``: q(t) ~ N(t)/(nu*t)**(1/nu) * (1 + correction), where the
  correction is minus the index drift accumulated along R(u; 0), u <= t,
  over nu**2 t: 0 for the constant family and -log(a0*nu*t + 1)/(nu**3 t)
  for the coupled-drift family.
* ``predict_p11``: same shape for (nu*t)**(1+1/nu) * P_11(t) with leading
  factor N(t)/a0 and the correction scaled by (1+nu).
* ``pi_of`` / ``pi_coeffs``: invariant measure of the conditioned chain,
  pi(s) = s * (1-s)**-(1+nu) / sv(1/(1-s)); coefficient-wise it is the
  size-biased branching invariant measure.
* ``psi_limit`` / ``psi_finite``: limiting and finite-horizon Laplace
  transforms of the scaled conditioned population q(t)*W(t), on a scalar
  or an array of theta; their gap decays like log t / t with an explicit
  theta profile, and ``delta_sup`` takes its sup over a grid.
* ``d_limit``: the limiting distribution function on [1e-6, 1e14] by fixed
  Talbot inversion, every point checked against Gaver-Stehfest.

``first_order_ratio`` is the classical first-order check q(t) / (f(1-q) nu t);
``fit_rate`` turns times and residuals into a log-log convergence-rate
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _series
from .errors import DomainError, SolverError
from .kolmogorov_engine import G_of, exact_R
from .laplace import gaver_stehfest, talbot
from .sv_kernel import ScaleFunction, nu_t_power, solve_normalizer

__all__ = [
    "RateFit",
    "PiMeasure",
    "predict_q",
    "predict_p11",
    "normalized_error_q",
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
    "first_order_ratio",
    "fit_rate",
]


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def predict_q(sf: ScaleFunction, t: float) -> float:
    """Second-order prediction of the survival probability at t >= 1."""
    if t < 1.0:
        raise DomainError(f"predict_q requires t >= 1, got {t}")
    nu = sf.nu
    N = solve_normalizer(sf, t)
    scale = nu_t_power(nu, t, 1.0 / nu, "q prediction")
    if scale == 0.0:
        raise SolverError(f"q prediction at t={t:g}: (nu*t)**{1.0 / nu:g} underflows to 0")
    num, den = sf.second_order(1.0, t)
    return N / scale * (1.0 - num / den)


def predict_p11(sf: ScaleFunction, t: float) -> float:
    """Second-order prediction of (nu*t)**(1+1/nu) * P_11(t)."""
    if t < 1.0:
        raise DomainError(f"predict_p11 requires t >= 1, got {t}")
    N = solve_normalizer(sf, t)
    num, den = sf.second_order(1.0, t)
    return N / sf.a0 * (1.0 - (1.0 + sf.nu) * num / den)


def _ratio(sf: ScaleFunction, s: float, t: float, k: int) -> float:
    """Every statement's ratio, (nu*t)**(k + 1/nu) * R*decay_rate(R)**k / N(t) at R = R(t;s):
    q's at k = 0, s = 0, and f(F(t;s))'s at k = 1, P11's at s = 0 and G's at 0 < s < 1."""
    statement = "q" if k == 0 else "G" if s > 0.0 else "P11"
    if not t >= 1.0:
        raise DomainError(f"{statement} ratio requires t >= 1, got {t}")
    p = k + 1.0 / sf.nu
    scale = nu_t_power(sf.nu, t, p, f"{statement} ratio")
    if scale == 0.0:
        raise SolverError(f"{statement} ratio at t={t:g}: (nu*t)**{p:g} underflows to 0")
    r = exact_R(sf, s, t)
    return scale * (r * sf.decay_rate(r) ** k) / solve_normalizer(sf, t)


def _normalized_error(sf: ScaleFunction, s: float, t: float, k: int) -> float:
    """(1 - ratio) * den / ((1 + k*nu) * num), with num/den the second-order term from R(0) = 1 - s."""
    ratio = _ratio(sf, s, t, k)
    num, den = sf.second_order(1.0 - s, t)  # a zero num leaves nothing to normalize by
    if num == 0.0:
        raise DomainError(f"normalized error at t={t:g}: {sf.family.value} family has no second-order term")
    return float((1.0 - ratio) * den / ((1.0 + k * sf.nu) * num))


def normalized_error_q(sf: ScaleFunction, t: float) -> float:
    """E(t) = (1 - q(t)*(nu*t)**(1/nu)/N(t)) * den / num, with -num/den the family's
    second-order correction of q(t). Tends to 1 for the coupled-drift family, where
    the acceptance band lives; a family without the term raises DomainError."""
    return _normalized_error(sf, 0.0, t, 0)


def qproc_gf_ratio(sf: ScaleFunction, s: float, t: float) -> float:
    """(nu*t)**(1+1/nu) * f(F(t;s)) / N(t) on 0 <= s < 1, which tends to 1: G(t;s)
    over pi(s) * N(t)/(nu*t)**(1+1/nu) at s > 0, and P_11(t) over N(t)/a0 at s = 0."""
    return _ratio(sf, s, t, 1)


def qproc_gf_second_order(sf: ScaleFunction, s: float, t: float) -> float:
    """Normalized second-order error of ``qproc_gf_ratio``, 0 <= s < 1, P_11's at s = 0:
    (1 - ratio) * den / ((1+nu) * num), num/den the second-order term from R(0) = 1 - s.
    Tends to 1 for the coupled-drift family; DomainError for a family without the term."""
    return _normalized_error(sf, s, t, 1)


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
    return float(pm.partial_sums[n] * math.gamma(2.0 + nu) / (n ** (1.0 + nu) * lpi_n))


# ---------------------------------------------------------------------------
# Laplace transforms of the scaled conditioned population
# ---------------------------------------------------------------------------


def _psi(nu: float, p):  # real or complex p; the transform of D', and p times that of D
    return (1.0 + p**nu) ** (-(1.0 + 1.0 / nu))


def psi_limit(nu: float, theta) -> float:
    """Limiting transform (1 + theta**nu)**-(1 + 1/nu) for theta >= 0."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0):
        raise DomainError("psi_limit requires theta >= 0")
    val = _psi(nu, theta)
    return float(val) if val.ndim == 0 else val


def psi_finite(sf: ScaleFunction, t: float, theta):
    """Finite-horizon transform E exp(-theta * q(t) * W(t)) = G(t; e^{-theta q(t)}).

    theta is a scalar (gives a float) or an array (gives its shape), and G
    is taken in one call over all of it. s and 1 - s = -expm1(-theta q) are
    both formed directly, so precision survives theta*q(t) from the 1e-14
    scale up to where s underflows. Past that the value is 0.0: W >= 1 gives
    psi <= s, so 0.0 is the correctly rounded value.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(th > 0.0):
        raise DomainError(f"psi_finite requires theta > 0, got {theta}")
    if t < 1.0:
        raise DomainError(f"psi_finite requires t >= 1, got {t}")
    x = np.ravel(th * exact_R(sf, 0.0, t))
    s = np.exp(-x)
    live = s > 0.0
    vals = np.zeros(x.size)
    vals[live] = G_of(sf, s[live], t, one_minus_s=-np.expm1(-x[live]))
    return float(vals[0]) if th.ndim == 0 else vals.reshape(th.shape)


def default_theta_grid(n: int = 200) -> np.ndarray:
    """Log-spaced theta grid on [1e-3, 1e3] used by the sup measurements."""
    if n < 200:
        raise DomainError(f"theta grid needs >= 200 points, got {n}")
    return np.logspace(-3.0, 3.0, n)


def delta_sup(
    sf: ScaleFunction, t: float, theta_grid: np.ndarray | None = None
) -> tuple[float, float]:
    """Sup over the grid of |psi_finite - psi_limit|; returns (sup, argmax).

    Raises SolverError when the gap is not finite or its maximum sits on
    the grid boundary (the grid no longer brackets the interior maximum).
    """
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    gap = np.abs(psi_finite(sf, t, grid) - psi_limit(sf.nu, grid))
    if not np.all(np.isfinite(gap)):
        raise SolverError(f"delta_sup: non-finite transform gap at t={t:g}")
    idx = int(np.argmax(gap))
    if idx in (0, len(grid) - 1):
        raise SolverError(f"delta_sup argmax on grid boundary at theta={grid[idx]}")
    return float(gap[idx]), float(grid[idx])


def laplace_sup_profile_max(nu: float) -> float:
    """Maximum over theta of the second-order profile theta**nu/(1+theta**nu)*Psi.

    The pointwise gap psi_finite - psi_limit carries this profile; its max
    is (u/(1+u)**(2+1/nu)) at u = nu/(1+nu), strictly below 4/27 for all
    nu in (0, 1).
    """
    u = nu / (1.0 + nu)
    return float(u / (1.0 + u) ** (2.0 + 1.0 / nu))


# ---------------------------------------------------------------------------
# limiting distribution by Laplace inversion
# ---------------------------------------------------------------------------


def d_limit(nu: float, x_grid) -> tuple[np.ndarray, dict]:
    """Limit CDF values D(x) on a grid in [1e-6, 1e14] by transform inversion.

    The transform of the CDF is psi_limit(nu, p)/p. Fixed Talbot gives the
    values; Gaver-Stehfest checks each one, and points where the two
    disagree by more than 1e-4, or where either is not finite, are flagged.
    Returns (values, metadata) where metadata records the flagged indices and
    the largest disagreement. An x outside the tested range is a DomainError.
    """
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    outside = x_grid[~((x_grid >= 1e-6) & (x_grid <= 1e14))]  # far out, the inversions give nan
    if x_grid.size == 0 or outside.size:
        raise DomainError(f"d_limit requires a non-empty grid of x in [1e-6, 1e14], got x={outside}")

    def cdf_transform(p):
        return _psi(nu, p) / p

    vals = talbot(cdf_transform, x_grid)
    disagreements = np.abs(vals - gaver_stehfest(cdf_transform, x_grid))
    meta = {
        "flagged_indices": [int(i) for i in np.flatnonzero(~(disagreements <= 1e-4))],
        "max_disagreement": float(np.max(disagreements)),
    }
    return np.clip(vals, 0.0, 1.0), meta


# ---------------------------------------------------------------------------
# first-order baseline
# ---------------------------------------------------------------------------


def first_order_ratio(sf: ScaleFunction, t: float) -> float:
    """Classical first-order ratio q(t) / (f(1-q(t)) * nu * t) from the exact oracle.

    Tends to 1 for every family (for binary_split it is 1 + 1/(a0*t)). A
    non-finite ratio, such as 0/0 once q(t) underflows, raises DomainError.
    """
    t = np.float64(t)
    q = exact_R(sf, 0.0, t)
    # f(1 - q) as q * decay_rate(q): forming 1 - q would round q away
    with np.errstate(all="ignore"):
        ratio = q / (q * sf.decay_rate(q) * sf.nu * t)
    if not math.isfinite(ratio):
        raise DomainError(f"non-finite first-order ratio at t={t:g}")
    return float(ratio)


def fit_rate(ts: np.ndarray, residuals: np.ndarray) -> RateFit:
    """Least-squares fit log|residual| = slope*log t + c.

    Drops non-finite residuals, then requires at least 5 records spanning
    two decades of t; degenerate spreads are rejected.
    """
    residuals = np.asarray(residuals, dtype=float)
    finite = np.isfinite(residuals)  # a blank report cell reads as nan
    ts, residuals = np.asarray(ts, dtype=float)[finite], residuals[finite]
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
