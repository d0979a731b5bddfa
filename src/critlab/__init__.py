"""critlab: a numerical laboratory for critical branching with heavy tails.

Exact oracles, adaptive solvers, series engines, asymptotic predictors and
Monte Carlo simulators for continuous-time critical branching processes
whose mechanism f(1-y) = y**(1+nu) * sv(1/y) has a slowly varying factor
and infinite offspring variance (0 < nu < 1).
"""

from .asymptotics import (
    AsymptoticPrediction,
    PiMeasure,
    RateFit,
    VerifyReport,
    baseline_checks,
    d_limit,
    delta_sup,
    fit_rate,
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
    tauberian_ratio,
)
from .branching_model import (
    OffspringCoeffs,
    OffspringDistribution,
    build_offspring_distribution,
    build_size_biased_distribution,
    expand_coeffs,
    mechanism_series,
)
from .errors import (
    ConfigError,
    CritlabError,
    DomainError,
    ParameterError,
    SolverError,
    TruncationError,
)
from .kolmogorov_engine import (
    DEFAULT_CFG,
    SeriesState,
    SolveConfig,
    G_of,
    evolve_series,
    exact_R,
    identity_residual,
    index_drift_integral,
    nu_ts,
    q_matrix,
    series_power_row,
    solve_F,
    survival_q,
    transition_matrix,
)
from .simulator import (
    EmpiricalCDF,
    MCEstimate,
    PopulationSample,
    SimModel,
    Trajectory,
    build_sim_model,
    dkw_band,
    empirical_D,
    estimate_survival,
    ks_distance,
    population_at,
    qprocess_kernel_row,
    sample_qprocess_exact,
    simulate_mbp,
    simulate_qprocess,
)
from .sv_kernel import (
    Family,
    ModelParams,
    ScaleFunction,
    invariant_measure_M,
    make_scale_function,
    level_at_time,
    time_to_level,
    perturbation_ratio,
    remainder_rho,
    solve_normalizer,
)

__version__ = "0.1.0"
