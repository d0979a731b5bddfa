"""Acceptance checks: every quantitative band the artifact commits to.

Each criterion returns a CriterionResult with pass/fail, runtime, report
rows and human-readable details. ``run_all`` drives them in order; the CLI
``verify`` command and the pytest acceptance module are both thin wrappers
around this module, so the bands live in exactly one place.

Two criteria rest on a derivation recorded in their docstrings:

* ``laplace-sup-rate``: the sup over theta of the Laplace-transform gap
  carries the maximum M(nu) of its second-order theta profile (27/256 at
  nu = 1/2), so the band is placed on the sup normalized by M(nu).
* ``mc-ks-rate``: the conditioned population W(t) has infinite mean, so
  no event engine reaches n = 1e6 draws at t = 1e3; W(t) is drawn exactly
  from its mixed-Poisson representation instead, and the expected
  Kolmogorov distance at each horizon follows from the same
  representation before the run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# scipy.interpolate is imported where it is used (C11's limit law): it costs
# start-up time that every other command would pay.

from .asymptotics import (
    baseline_checks,
    d_limit,
    default_theta_grid,
    delta_sup,
    laplace_sup_profile_max,
    normalized_error_p11,
    normalized_error_q,
    pi_coeffs,
    qproc_gf_ratio,
    qproc_gf_second_order,
    tauberian_ratio,
)
from .branching_model import mechanism_series
from .errors import SolverError
from .kolmogorov_engine import (
    SeriesState,
    SolveConfig,
    evolve_series,
    exact_R,
    identity_residual,
    size_biased,
    solve_F,
    transition_matrix,
)
from .simulator import (
    EmpiricalCDF,
    build_sim_model,
    dkw_band,
    estimate_survival,
    ks_distance,
    population_at,
    sample_qprocess_exact,
)
from .sv_kernel import Family, ModelParams, make_scale_function
from . import _series

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all"]

_NU, _A0 = 0.5, 1.0
_TIGHT = SolveConfig(rel_tol=1e-12, abs_tol=1e-14)
_SERIES_CFG = SolveConfig(rel_tol=1e-11, abs_tol=1e-13)


@dataclass
class CriterionResult:
    cid: str
    tag: str
    passed: bool
    runtime: float = 0.0
    details: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # (experiment, tag, t, exact, predicted, err, method, stderr)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.cid} [{self.tag}] ({self.runtime:.1f}s): {self.details[0] if self.details else ''}"


def _sf(family: Family, nu: float = _NU, a0: float = _A0):
    return make_scale_function(ModelParams(nu, a0, family))


def c1_closed_form_q() -> CriterionResult:
    """ODE survival matches the constant-family closed form to 1e-8."""
    res = CriterionResult("C1", "closed-form-q", True)
    sf = _sf(Family.CONSTANT)
    worst = 0.0
    for t in (0.1, 1.0, 10.0, 100.0, 1000.0):
        q_ode = solve_F(sf, 0.0, t, _TIGHT)
        q_exact = (1.0 + t / 2.0) ** (-2.0)
        rel = abs(q_ode - q_exact) / q_exact
        worst = max(worst, rel)
        res.rows.append(("closed-form", "q", t, q_exact, q_ode, rel, "ode", ""))
    res.passed = worst <= 1e-8
    res.details.append(f"max relative error {worst:.3e} (band 1e-8)")
    return res


def c2_exact_identity() -> CriterionResult:
    """Integral identity residual <= 1e-6 for both slowly varying families."""
    res = CriterionResult("C2", "exact-identity", True)
    worst = 0.0
    for fam in (Family.CONSTANT, Family.COUPLED_DRIFT):
        sf = _sf(fam)
        for s in (0.0, 0.5, 0.9):
            for t in (1.0, 10.0, 100.0, 1000.0):
                r = abs(identity_residual(sf, s, t, _SERIES_CFG))
                worst = max(worst, r)
                res.rows.append((fam.value, "exact-identity", t, 0.0, r, r, "ode", ""))
    res.passed = worst <= 1e-6
    res.details.append(f"max |residual| {worst:.3e} (band 1e-6)")
    return res


def c3_semigroup() -> CriterionResult:
    """|F(t+tau;s) - F(tau;F(t;s))| <= 1e-8 on a 5x5x3 grid."""
    res = CriterionResult("C3", "semigroup", True)
    sf = _sf(Family.COUPLED_DRIFT)
    grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for s in (0.0, 0.5, 0.9):
        for t in grid:
            f_t = 1.0 - solve_F(sf, s, t, _TIGHT)
            for tau in grid:
                lhs = 1.0 - solve_F(sf, s, t + tau, _TIGHT)
                rhs = 1.0 - solve_F(sf, f_t, tau, _TIGHT)
                d = abs(lhs - rhs)
                worst = max(worst, d)
                res.rows.append(("semigroup", "F", t + tau, lhs, rhs, d, "ode", ""))
    res.passed = worst <= 1e-8
    res.details.append(f"max |defect| {worst:.3e} (band 1e-8)")
    return res


def c4_survival_second_order() -> CriterionResult:
    """Normalized survival error in [0.9, 1.1] at t=1e8, monotone toward 1."""
    res = CriterionResult("C4", "survival-second-order", True)
    sf = _sf(Family.COUPLED_DRIFT)
    ts = [1e4, 1e5, 1e6, 1e7, 1e8]
    Es = [normalized_error_q(sf, t) for t in ts]
    for t, E in zip(ts, Es):
        res.rows.append(("survival", "survival-second-order", t, 1.0, E, E - 1.0, "oracle", ""))
    gaps = [abs(E - 1.0) for E in Es]
    monotone = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    in_band = 0.9 <= Es[-1] <= 1.1
    res.passed = monotone and in_band
    res.details.append(
        f"E(1e8)={Es[-1]:.4f} (band [0.9,1.1]); E over decades: "
        + ", ".join(f"{e:.4f}" for e in Es)
    )
    return res


def c5_p11_second_order() -> CriterionResult:
    """Normalized single-survivor error within [0.85, 1.15] at t=1e8."""
    res = CriterionResult("C5", "p11-second-order", True)
    sf = _sf(Family.COUPLED_DRIFT)
    E = normalized_error_p11(sf, 1e8)
    res.rows.append(("p11", "p11-second-order", 1e8, 1.0, E, E - 1.0, "oracle", ""))
    res.passed = 0.85 <= E <= 1.15
    res.details.append(f"E2(1e8)={E:.4f} (band [0.85,1.15])")
    return res


def c6_qproc_gf() -> CriterionResult:
    """Conditioned-chain GF ratio within 2% at t=1e6; second order within 20%."""
    res = CriterionResult("C6", "qproc-gf", True)
    sf = _sf(Family.COUPLED_DRIFT)
    t = 1e6
    ok = True
    msgs = []
    for s in (0.25, 0.5, 0.75):
        ratio = qproc_gf_ratio(sf, s, t)
        second = qproc_gf_second_order(sf, s, t)
        ok &= abs(ratio - 1.0) <= 0.02 and 0.8 <= second <= 1.2
        msgs.append(f"s={s}: ratio={ratio:.6f}, second={second:.3f}")
        res.rows.append((f"s={s}", "qproc-gf", t, 1.0, ratio, ratio - 1.0, "oracle", ""))
        res.rows.append((f"s={s}", "qproc-gf-second", t, 1.0, second, second - 1.0, "oracle", ""))
    res.passed = ok
    res.details.append("; ".join(msgs) + " (bands 2% / [0.8,1.2])")
    return res


def c7_laplace_sup_rate() -> CriterionResult:
    """Band [0.8, 1.2] on delta_sup * nu^3 t / ((1+nu) log t * M(nu)) at t=1e6.

    With u = theta**nu the pointwise gap is
    psi_finite - psi_limit = (1+nu)/nu**3 * (log t / t) * u/(1+u)**(2+1/nu) * (1+o(1)),
    which is -theta * psi_limit'(theta) times the log t / (nu**3 t)
    correction of q(t) in ``predict_q``. Its sup over theta therefore
    carries the profile maximum M(nu) = ``laplace_sup_profile_max(nu)``
    (27/256 at nu = 1/2, attained at theta = (nu/(1+nu))**(1/nu)), so
    delta_sup * nu^3 t / ((1+nu) log t) tends to M(nu), not to 1, and the
    criterion divides by M(nu). The sup must also decrease over 1e3..1e7.
    """
    res = CriterionResult("C7", "laplace-sup-rate", True)
    sf = _sf(Family.COUPLED_DRIFT)
    nu = sf.nu
    M = laplace_sup_profile_max(nu)
    grid = default_theta_grid(200)
    sups, profiles = {}, {}
    for t in (1e3, 1e4, 1e5, 1e6, 1e7):
        sup, arg = delta_sup(sf, t, grid)
        stated = sup * nu**3 * t / ((1.0 + nu) * math.log(t))
        sups[t], profiles[t] = sup, stated / M
        res.rows.append(("sup", "laplace-sup-rate", t, stated, stated / M, stated / M - 1.0, "oracle", ""))
    profile = profiles[1e6]
    decreasing = all(sups[a] > sups[b] for a, b in zip((1e3, 1e4, 1e5, 1e6), (1e4, 1e5, 1e6, 1e7)))
    res.passed = (0.8 <= profile <= 1.2) and decreasing
    res.details.append(
        f"profile-normalized sup {profile:.4f} at t=1e6 (band [0.8,1.2]), i.e. "
        f"stated normalization {profile * M:.4f} against M(nu)={M:.4f}; "
        f"sup decreasing over 1e3..1e7: {decreasing}"
    )
    return res


def _invariance_residuals(fam: Family, J: int = 1024, jmax: int = 50):
    sf = _sf(fam)
    state = evolve_series(sf, J, 1.0, _SERIES_CFG)
    # rows 0..J, columns 0..jmax: column j of row i needs only F_0..F_j
    P = transition_matrix(SeriesState(state.t, state.coeffs[: jmax + 1]), imax=J)
    one = np.zeros(J + 1)
    one[0] = 1.0
    inv_f = _series.div(one, mechanism_series(sf, J))
    mu = np.zeros(J + 1)
    mu[1:] = inv_f[:-1] / np.arange(1, J + 1)
    mu_res = float(np.max(np.abs((mu @ P)[1 : jmax + 1] - mu[1 : jmax + 1])))
    pi = mu * np.arange(J + 1)
    Q = size_biased(P)
    pi_res = float(np.max(np.abs((pi @ Q)[1 : jmax + 1] - pi[1 : jmax + 1])))
    pi_series = pi_coeffs(sf, jmax).coeffs
    pi_match = float(np.max(np.abs(pi_series[1 : jmax + 1] - pi[1 : jmax + 1])))
    return mu_res, pi_res, pi_match


def c8_invariant_measures() -> CriterionResult:
    """Both invariance identities to 1e-6 at J=1024, columns j <= 50."""
    res = CriterionResult("C8", "invariant-measures", True)
    worst = 0.0
    for fam in (Family.CONSTANT, Family.COUPLED_DRIFT):
        mu_res, pi_res, pi_match = _invariance_residuals(fam)
        worst = max(worst, mu_res, pi_res)
        res.details.append(
            f"{fam.value}: mu-residual {mu_res:.2e}, pi-residual {pi_res:.2e}, "
            f"pi-series agreement {pi_match:.2e}"
        )
        res.rows.append((fam.value, "invariant-mu", 1.0, 0.0, mu_res, mu_res, "series", ""))
        res.rows.append((fam.value, "invariant-pi", 1.0, 0.0, pi_res, pi_res, "series", ""))
    res.passed = worst <= 1e-6
    res.details.insert(0, f"max residual {worst:.3e} (band 1e-6)")
    return res


def c9_tauberian() -> CriterionResult:
    """Partial-sum ratio within [0.95, 1.05] at n = 1e4."""
    res = CriterionResult("C9", "tauberian-partial-sums", True)
    ok = True
    for fam in (Family.CONSTANT, Family.COUPLED_DRIFT):
        r = tauberian_ratio(_sf(fam), 10**4)
        ok &= 0.95 <= r <= 1.05
        res.details.append(f"{fam.value}: ratio {r:.5f}")
        res.rows.append((fam.value, "tauberian", 1e4, 1.0, r, r - 1.0, "series", ""))
    res.passed = ok
    res.details.insert(0, "band [0.95, 1.05]")
    return res


def c10_mc_triangle() -> CriterionResult:
    """Monte Carlo agreement: survival at t=2 and conditioned cells at t=1."""
    res = CriterionResult("C10", "mc-triangle", True)
    sf = _sf(Family.CONSTANT)
    model = build_sim_model(sf)
    est = estimate_survival(model, [2.0], 10**5, seed=20240811)[0]
    gap = abs(est.value - 0.25)
    q_ok = gap <= 3.0 * est.stderr
    res.rows.append(("mc-q", "mc-q", 2.0, 0.25, est.value, gap, "mc", est.stderr))
    sample = population_at(model, [1.0], 10**5, seed=20240812, conditioned=True, pop_cap=10**4)
    state = evolve_series(sf, 64, 1.0, _SERIES_CFG)
    q_row = state.coeffs * np.arange(65)
    W = sample.sizes[:, 0]
    worst_z = 0.0
    for j in range(1, 11):
        pj = float(q_row[j])
        fj = float(np.mean(W == j))
        sd = math.sqrt(pj * (1.0 - pj) / len(W))
        worst_z = max(worst_z, abs(fj - pj) / sd)
        res.rows.append((f"j={j}", "mc-qcell", 1.0, pj, fj, (fj - pj) / sd, "mc", sd))
    cells_ok = worst_z <= 4.0
    res.passed = q_ok and cells_ok
    res.details.append(
        f"survival gap {gap:.2e} vs 3*stderr {3*est.stderr:.2e}; worst cell z {worst_z:.2f} (band 4)"
    )
    return res


_C11_TS = (10.0, 100.0, 1000.0)
_C11_ALPHA = 0.05 / len(_C11_TS)  # Bonferroni over the horizons, fixed before any draw


def _limit_cdf(nu: float):
    """D(x) by Laplace inversion on a log grid, PCHIP-interpolated in log x.

    At nu = 1/2 the interpolant agrees with the closed form
    D(x) = E erfc(G / (2 sqrt x)), G ~ Gamma(3), to 2e-8 on [1e-6, 1e14];
    outside that range it is clamped, where D < 1e-9 and 1 - D < 2e-7.
    """
    xs = np.logspace(-6.0, 14.0, 801)
    dv, meta = d_limit(nu, xs)
    if meta["flagged_indices"]:
        raise SolverError(f"limit-law inversion disagrees at x={xs[meta['flagged_indices']]}")
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(np.log(xs), dv)
    lo, hi = math.log(xs[0]), math.log(xs[-1])
    return lambda x: interp(np.clip(np.log(x), lo, hi))


def _ks_predicted(cdf, nu: float, c: float) -> float:
    """sup_x |D(x * (1+1/c)**(1/nu)) - D(x)|, the KS distance of q(t)*Lambda from D."""
    x = np.logspace(-6.0, 14.0, 20001)
    return float(np.max(np.abs(cdf(x * (1.0 + 1.0 / c) ** (1.0 / nu)) - cdf(x))))


def _c11_verdict(ecdfs, cdf, nu: float, a0: float):
    """C11 pass condition on empirical laws of q(t)*W(t), one per horizon.

    Passes when, at every horizon, |KS_n - KS_pred| <= dkw_band(n, alpha)
    and the censored fraction is at most that band, and KS_n decreases
    along t. alpha is Bonferroni-split over the horizons. Returns
    (passed, report rows, detail strings).
    """
    ok, ks, preds, rows, lines = True, [], [], [], []
    for e in ecdfs:
        eps = dkw_band(e.n, _C11_ALPHA)
        ks_n = ks_distance(e, cdf)
        ks_pred = _ks_predicted(cdf, nu, nu * a0 * e.t)
        ok &= abs(ks_n - ks_pred) <= eps and e.censored / e.n <= eps
        ks.append(ks_n)
        preds.append(ks_pred)
        rows.append(("ks", "mc-ks-rate", e.t, ks_pred, ks_n, (ks_n - ks_pred) / eps, "mc", ""))
        lines.append(
            f"t={e.t:g}: KS {ks_n:.5f}, predicted {ks_pred:.5f}, band {eps:.5f}, "
            f"censored {e.censored}/{e.n}"
        )
    decreasing = all(a > b for a, b in zip(ks, ks[1:]))
    summary = (
        "KS " + "/".join(f"{k:.5f}" for k in ks)
        + " against predicted " + "/".join(f"{k:.5f}" for k in preds)
        + f" (band {eps:.5f}); decreasing along t: {decreasing}"
    )
    return ok and decreasing, rows, [summary] + lines


def c11_mc_ks_rate() -> CriterionResult:
    """Empirical-law convergence at t in {10, 100, 1000}, n=1e6, 10 minutes.

    W(t) is drawn exactly for the constant family (``sample_qprocess_exact``),
    so the cost does not grow with the infinite-mean population. The same
    mixture representation fixes the expected distance before the run:
    q(t) * W(t) is q(t) * (1 + Poisson(Lambda)) with q(t) * Lambda
    distributed as D(x * (1+1/c)**(1/nu)), c = nu*a0*t, which gives KS_pred.
    KS_pred leaves out the Poisson noise and the shift by one; with common
    random numbers these move the measured distance by about 6e-4 at t = 10
    and by at most 2e-5 at t >= 100, against a band of 1.5e-3.
    """
    res = CriterionResult("C11", "mc-ks-rate", True)
    sf = _sf(Family.CONSTANT)
    cdf = _limit_cdf(sf.nu)
    n = 10**6
    ecdfs = []
    for t in _C11_TS:
        sample = sample_qprocess_exact(sf, t, n, seed=20240813)
        ecdfs.append(EmpiricalCDF.from_sample(sample, exact_R(sf, 0.0, t)))
    res.passed, res.rows, res.details = _c11_verdict(ecdfs, cdf, sf.nu, sf.a0)
    return res


def c12_baselines() -> CriterionResult:
    """Quadratic-mechanism identity and the first-order survival ratio."""
    res = CriterionResult("C12", "baselines", True)
    bs = _sf(Family.BINARY_SPLIT, nu=1.0)
    worst = 0.0
    for s in (0.0, 0.5, 0.9):
        for t in (1.0, 10.0, 100.0):
            # the quadratic mechanism makes 1/R(t;s) - 1/(1-s) - a0*t vanish
            # identically, so with the ODE's R the residual measures the solver
            inv_r = 1.0 / solve_F(bs, s, t, _TIGHT)
            exact = 1.0 / (1.0 - s) + bs.a0 * t
            err = inv_r - exact
            worst = max(worst, abs(err))
            res.rows.append((f"s={s}", "quadratic-baseline", t, inv_r, exact, err, "ode", ""))
    bin_ok = worst <= 1e-9
    zol_ok = True
    for fam in (Family.CONSTANT, Family.COUPLED_DRIFT):
        ratio = baseline_checks(_sf(fam), [1e6])[0][1]
        zol_ok &= abs(ratio - 1.0) <= 0.01
        res.details.append(f"{fam.value} first-order ratio {ratio:.6f}")
        res.rows.append((fam.value, "first-order-ratio", 1e6, 1.0, ratio, ratio - 1.0, "oracle", ""))
    res.passed = bin_ok and zol_ok
    res.details.insert(0, f"quadratic-mechanism residual {worst:.2e} (band 1e-9); ratio band 1%")
    return res


CRITERIA = {
    "C1": c1_closed_form_q,
    "C2": c2_exact_identity,
    "C3": c3_semigroup,
    "C4": c4_survival_second_order,
    "C5": c5_p11_second_order,
    "C6": c6_qproc_gf,
    "C7": c7_laplace_sup_rate,
    "C8": c8_invariant_measures,
    "C9": c9_tauberian,
    "C10": c10_mc_triangle,
    "C11": c11_mc_ks_rate,
    "C12": c12_baselines,
}

_TAG_TO_CID = {
    "closed-form-q": "C1",
    "exact-identity": "C2",
    "semigroup": "C3",
    "survival-second-order": "C4",
    "p11-second-order": "C5",
    "qproc-gf": "C6",
    "laplace-sup-rate": "C7",
    "invariant-measures": "C8",
    "tauberian-partial-sums": "C9",
    "mc-triangle": "C10",
    "mc-ks-rate": "C11",
    "baselines": "C12",
}


def run_criterion(key: str) -> CriterionResult:
    """Run one criterion by id (C1..C12) or by catalog tag."""
    cid = key if key in CRITERIA else _TAG_TO_CID.get(key)
    if cid is None:
        raise KeyError(f"unknown criterion {key!r}")
    fn = CRITERIA[cid]
    t0 = time.time()
    out = fn()
    out.runtime = time.time() - t0
    return out


def run_all(only: str | None = None) -> list[CriterionResult]:
    if only is not None:
        return [run_criterion(only)]
    return [run_criterion(cid) for cid in CRITERIA]
