"""critlab: a numerical laboratory for critical branching with heavy tails.

Exact oracles, adaptive solvers, series engines, asymptotic predictors and
Monte Carlo simulators for continuous-time critical branching processes
whose mechanism f(1-y) = y**(1+nu) * sv(1/y) has a slowly varying factor
and infinite offspring variance (0 < nu < 1).
"""

from .asymptotics import (
    PiMeasure,
    RateFit,
    d_limit,
    delta_sup,
    first_order_ratio,
    fit_rate,
    normalized_error_q,
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
    solve_F,
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
    estimate_survival,
    ks_distance,
    population_at,
    sample_qprocess_exact,
    simulate_mbp,
)
from .sv_kernel import (
    Family,
    ModelParams,
    ScaleFunction,
    make_scale_function,
    solve_normalizer,
)

__version__ = "0.1.0"
