"""Monte Carlo ground truth: event-driven simulation of the branching chain
and of its conditioned (never-extinct) counterpart.

The branching jump chain is a random walk: each event picks one individual
(total rate pop * |a1|), which is replaced by k individuals drawn from the
offspring law, so pop -> pop + k - 1 and state 0 absorbs. The conditioned
chain keeps the same total rate but tilts the jump by the future population:
from state i the jump to i + k - 1 has probability (i + k - 1) a_k / (i |a1|),
which splits into an ordinary event with probability (i-1)/i and a
size-biased event (law k * a_k / |a1|, supported on k >= 2) with probability
1/i. From state 1 every event is size-biased, so the chain can never die.

Populations here have infinite mean for every t > 0 (offspring tails with
index 2 + nu make the conditioned population tail index nu < 1), so every
run carries explicit population and event budgets; trajectories that hit a
budget are reported as censored, never silently dropped. Batches advance
all active trajectories one event per vectorized round.

For the ``constant`` family the law of W(t) is also drawn directly, at a
cost that does not grow with W(t) (``sample_qprocess_exact``); the event
engine stays the independent check of that sampler.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .branching_model import (
    OffspringCoeffs,
    OffspringDistribution,
    build_offspring_distribution,
    build_size_biased_distribution,
    expand_coeffs,
)
from .errors import DomainError, ParameterError
from .kolmogorov_engine import exact_R
from .sv_kernel import Family, ScaleFunction

__all__ = [
    "Trajectory",
    "MCEstimate",
    "PopulationSample",
    "EmpiricalCDF",
    "SimModel",
    "build_sim_model",
    "simulate_mbp",
    "simulate_qprocess",
    "population_at",
    "sample_qprocess_exact",
    "estimate_survival",
    "empirical_D",
    "dkw_band",
    "ks_distance",
    "qprocess_kernel_row",
]

DEFAULT_POP_CAP = 10**9
DEFAULT_SAMPLING_ORDER = 2**16
EXACT_POP_CAP = 2**62  # Poisson means at or past this are censored, not drawn


@dataclass(frozen=True)
class Trajectory:
    """One event-by-event path: state held on [times[k], times[k+1])."""

    times: np.ndarray
    sizes: np.ndarray
    extinction_time: float | None
    censored: bool


@dataclass(frozen=True)
class MCEstimate:
    """Proportion-type Monte Carlo estimate with its binomial stderr."""

    value: float
    stderr: float
    n: int
    seed: int


@dataclass(frozen=True)
class PopulationSample:
    """Population sizes of n trajectories recorded at each horizon."""

    horizons: np.ndarray
    sizes: np.ndarray  # shape (n, len(horizons))
    censored: np.ndarray  # bool, per trajectory
    extinction_time: np.ndarray  # inf when not extinct by the last horizon
    events: int
    budget_exhausted: bool


@dataclass
class SimModel:
    """Scale function plus the sampling tables derived from it."""

    sf: ScaleFunction
    coeffs: OffspringCoeffs
    offspring: OffspringDistribution
    size_biased: OffspringDistribution = field(default=None)

    @property
    def rate(self) -> float:
        return self.offspring.total_rate


def build_sim_model(sf: ScaleFunction, order: int = DEFAULT_SAMPLING_ORDER) -> SimModel:
    """Build sampling tables of the given order for one scale function."""
    coeffs = expand_coeffs(sf, order)
    return SimModel(
        sf=sf,
        coeffs=coeffs,
        offspring=build_offspring_distribution(coeffs, sf),
        size_biased=build_size_biased_distribution(coeffs),
    )


def qprocess_kernel_row(model: SimModel, i: int, kmax: int) -> np.ndarray:
    """Conditioned-chain jump law from state i over offspring counts k <= kmax.

    Entry k is (i + k - 1) * a_k / (i * |a1|) for k != 1; the full row sums
    to 1 minus the table's tail mass. Used to assert the mixture
    decomposition (i-1)/i ordinary + 1/i size-biased.
    """
    if i < 1:
        raise DomainError(f"kernel row needs i >= 1, got {i}")
    a = model.coeffs.coeffs[: kmax + 1]
    k = np.arange(kmax + 1, dtype=float)
    row = (i + k - 1.0) * a / (i * model.rate)
    row[1] = 0.0
    return row


def _record_remaining(out, gidx, h_a, values, H):
    """Fill all not-yet-recorded horizon slots of the given trajectories."""
    for h in range(H):
        rows = np.flatnonzero(h_a <= h)
        if rows.size:
            out[gidx[rows], h] = values[rows]


def _simulate_population_batch(
    model: SimModel,
    conditioned: bool,
    i0: int,
    horizons: np.ndarray,
    n: int,
    rng: np.random.Generator,
    pop_cap: int,
    max_events: int | None,
) -> PopulationSample:
    H = len(horizons)
    out = np.zeros((n, H), dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    ext = np.full(n, np.inf)
    pop = np.full(n, i0, dtype=np.int64)
    tnow = np.zeros(n)
    h_a = np.zeros(n, dtype=np.int64)
    gidx = np.arange(n)
    rate = model.rate
    events = 0
    exhausted = False
    while gidx.size:
        m = gidx.size
        if max_events is not None and events + m > max_events:
            censored[gidx] = True
            _record_remaining(out, gidx, h_a, pop, H)
            exhausted = True
            break
        events += m
        tnew = tnow + rng.exponential(1.0, m) / (rate * pop)
        # record states held across any horizons crossed by this waiting time
        while True:
            live = h_a < H
            if not live.any():
                break
            cross = live.copy()
            cross[live] = tnew[live] >= horizons[h_a[live]]
            if not cross.any():
                break
            rows = np.flatnonzero(cross)
            out[gidx[rows], h_a[rows]] = pop[rows]
            h_a[rows] += 1
        keep = h_a < H
        if not keep.all():
            gidx, pop, tnew, h_a = gidx[keep], pop[keep], tnew[keep], h_a[keep]
            m = gidx.size
            if m == 0:
                break
        # the event itself
        k = model.offspring.sample(rng, m)
        if conditioned:
            biased = rng.random(m) * pop < 1.0
            nb = int(biased.sum())
            if nb:
                k[biased] = model.size_biased.sample(rng, nb)
        pop = pop + k - 1
        tnow = tnew
        if not conditioned:
            dead = pop == 0
            if dead.any():
                ext[gidx[dead]] = tnow[dead]
                alivem = ~dead  # remaining horizons keep the initialized 0
                gidx, pop, tnow, h_a = gidx[alivem], pop[alivem], tnow[alivem], h_a[alivem]
                if gidx.size == 0:
                    break
        over = pop >= pop_cap
        if over.any():
            censored[gidx[over]] = True
            _record_remaining(out, gidx[over], h_a[over], pop[over], H)
            keep = ~over
            gidx, pop, tnow, h_a = gidx[keep], pop[keep], tnow[keep], h_a[keep]
    return PopulationSample(horizons, out, censored, ext, events, exhausted)


def population_at(
    sf_or_model: ScaleFunction | SimModel,
    horizons,
    n: int,
    seed: int,
    *,
    conditioned: bool = False,
    i0: int = 1,
    pop_cap: int = DEFAULT_POP_CAP,
    max_events: int | None = None,
    threads: int = 1,
    batches: int = 16,
) -> PopulationSample:
    """Population sizes at the given horizons for n independent trajectories.

    One RNG stream per batch is derived by seed-splitting, and batches are
    merged in index order, so results are identical for any thread count.
    The same trajectory serves every horizon (common random numbers).
    """
    if seed is None:
        raise ParameterError("a seed is mandatory for Monte Carlo runs")
    model = sf_or_model if isinstance(sf_or_model, SimModel) else build_sim_model(sf_or_model)
    horizons = np.sort(np.atleast_1d(np.asarray(horizons, dtype=float)))
    if horizons.size == 0 or np.any(horizons < 0.0):
        raise DomainError("horizons must be nonnegative and nonempty")
    batches = max(1, min(batches, n))
    sizes = [n // batches + (1 if b < n % batches else 0) for b in range(batches)]
    seqs = np.random.SeedSequence(seed).spawn(batches)
    per_batch = None if max_events is None else max(1, max_events // batches)
    args = [
        (model, conditioned, i0, horizons, nb, np.random.default_rng(sq), pop_cap, per_batch)
        for nb, sq in zip(sizes, seqs)
    ]
    if threads <= 1:
        parts = [_simulate_population_batch(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_simulate_population_batch_star, args))
    return PopulationSample(
        horizons,
        np.concatenate([p.sizes for p in parts]),
        np.concatenate([p.censored for p in parts]),
        np.concatenate([p.extinction_time for p in parts]),
        sum(p.events for p in parts),
        any(p.budget_exhausted for p in parts),
    )


def _simulate_population_batch_star(a):
    return _simulate_population_batch(*a)


def sample_qprocess_exact(sf: ScaleFunction, t: float, n: int, seed: int) -> PopulationSample:
    """Exact draws of the conditioned population W(t) from W(0) = 1, constant family.

    Here E s**W(t) = s * (1 + c*(1-s)**nu)**-(1+1/nu) with c = nu*a0*t, so
    W(t) = 1 + Poisson(Lambda) with Lambda = (c*G)**(1/nu) * S, where
    G ~ Gamma(1+1/nu) and S is positive nu-stable with Laplace transform
    exp(-lam**nu), drawn by Kanter's representation. Since q(t) = (1+c)**(-1/nu),
    q(t)*Lambda = (c/(1+c))**(1/nu) * G**(1/nu) * S, and G**(1/nu) * S has
    the limit transform ``psi_limit``.

    The cost per draw is constant. A draw whose Poisson mean is not below
    EXACT_POP_CAP (or not finite) is reported as censored, with EXACT_POP_CAP
    as its recorded lower bound, never wrapped.
    """
    if seed is None:
        raise ParameterError("a seed is mandatory for Monte Carlo runs")
    if sf.family is not Family.CONSTANT:
        raise DomainError(
            f"sample_qprocess_exact serves the constant family only, got {sf.family.value}"
        )
    if t < 0.0 or n < 1:
        raise DomainError(f"sample_qprocess_exact needs t >= 0 and n >= 1, got t={t}, n={n}")
    nu = sf.nu
    c = nu * sf.a0 * t
    rng = np.random.default_rng(seed)
    g = rng.gamma(1.0 + 1.0 / nu, 1.0, n)
    u = math.pi * (1.0 - rng.random(n))  # in (0, pi]
    e = rng.exponential(1.0, n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        stable = (
            np.sin(nu * u) / np.sin(u) ** (1.0 / nu)
            * (np.sin((1.0 - nu) * u) / e) ** ((1.0 - nu) / nu)
        )
        lam = (c * g) ** (1.0 / nu) * stable
    censored = ~(lam < EXACT_POP_CAP)  # also catches inf and nan
    sizes = np.full(n, EXACT_POP_CAP, dtype=np.int64)
    sizes[~censored] = 1 + rng.poisson(lam[~censored])
    return PopulationSample(
        np.array([float(t)]), sizes[:, None], censored, np.full(n, np.inf), 0, False
    )


def _simulate_single(
    model: SimModel,
    conditioned: bool,
    i0: int,
    horizon: float,
    rng: np.random.Generator,
    pop_cap: int,
    max_events: int,
) -> Trajectory:
    times = [0.0]
    sizes = [i0]
    pop = i0
    t = 0.0
    censored = False
    ext = None
    for _ in range(max_events):
        t_next = t + rng.exponential() / (model.rate * pop)
        if t_next > horizon:
            break
        t = t_next
        k = int(model.offspring.sample(rng, 1)[0])
        if conditioned and rng.random() * pop < 1.0:
            k = int(model.size_biased.sample(rng, 1)[0])
        pop += k - 1
        times.append(t)
        sizes.append(pop)
        if pop == 0:
            ext = t
            break
        if pop >= pop_cap:
            censored = True
            break
    else:
        censored = True
    return Trajectory(np.array(times), np.array(sizes, dtype=np.int64), ext, censored)


def simulate_mbp(
    model: SimModel | ScaleFunction,
    i0: int,
    horizon: float,
    rng: np.random.Generator,
    pop_cap: int = DEFAULT_POP_CAP,
    max_events: int = 10**8,
) -> Trajectory:
    """Exact event simulation of the branching chain to extinction or horizon."""
    if i0 < 1:
        raise DomainError(f"i0 must be >= 1, got {i0}")
    m = model if isinstance(model, SimModel) else build_sim_model(model)
    return _simulate_single(m, False, i0, horizon, rng, pop_cap, max_events)


def simulate_qprocess(
    model: SimModel | ScaleFunction,
    i0: int,
    horizon: float,
    rng: np.random.Generator,
    pop_cap: int = DEFAULT_POP_CAP,
    max_events: int = 10**8,
) -> Trajectory:
    """Exact event simulation of the conditioned chain (never absorbs at 0)."""
    if i0 < 1:
        raise DomainError(f"i0 must be >= 1, got {i0}")
    m = model if isinstance(model, SimModel) else build_sim_model(model)
    return _simulate_single(m, True, i0, horizon, rng, pop_cap, max_events)


def estimate_survival(
    sf_or_model,
    t,
    n: int,
    seed: int,
    *,
    i0: int = 1,
    threads: int = 1,
    pop_cap: int = DEFAULT_POP_CAP,
) -> list[MCEstimate]:
    """Survival proportion P{pop(t) > 0 | pop(0) = i0} at each horizon."""
    sample = population_at(
        sf_or_model, t, n, seed, conditioned=False, i0=i0, pop_cap=pop_cap, threads=threads
    )
    out = []
    for col in range(sample.sizes.shape[1]):
        p = float(np.mean(sample.sizes[:, col] > 0))
        out.append(MCEstimate(p, math.sqrt(p * (1.0 - p) / n), n, seed))
    return out


@dataclass(frozen=True)
class EmpiricalCDF:
    """Sorted sample of q(t) * W(t) with right-censoring accounting.

    ``values`` holds the uncensored points; censored trajectories exceeded
    the population cap, so they lie above every recorded value and only
    shrink the empirical CDF by censored/n uniformly past the largest one.
    """

    t: float
    values: np.ndarray
    n: int
    censored: int
    scale_q: float


def dkw_band(n: int, alpha: float = 0.05) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ks_distance(ecdf: EmpiricalCDF, cdf, xmax: float | None = None) -> float:
    """Kolmogorov distance between the sample CDF and a callable CDF.

    Censored mass sits above every uncensored value, so the empirical CDF
    is exact at each uncensored point; the sup is taken over those points
    (optionally only up to xmax).
    """
    x = ecdf.values
    if xmax is not None:
        x = x[x <= xmax]
    if x.size == 0:
        raise DomainError("no uncensored sample points below xmax")
    F = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, len(x) + 1, dtype=float)
    return float(max(np.max(i / ecdf.n - F), np.max(F - (i - 1.0) / ecdf.n)))


def empirical_D(
    sf_or_model,
    t: float,
    n: int,
    seed: int,
    *,
    pop_cap: int = DEFAULT_POP_CAP,
    max_events: int | None = None,
    threads: int = 1,
) -> EmpiricalCDF:
    """Empirical law of q(t) * W(t) from n conditioned trajectories.

    q(t) comes from the exact engine oracle; W(t) from event simulation.
    """
    model = sf_or_model if isinstance(sf_or_model, SimModel) else build_sim_model(sf_or_model)
    q = exact_R(model.sf, 0.0, t)
    sample = population_at(
        model,
        [t],
        n,
        seed,
        conditioned=True,
        pop_cap=pop_cap,
        max_events=max_events,
        threads=threads,
    )
    keep = ~sample.censored
    vals = np.sort(q * sample.sizes[keep, 0].astype(float))
    return EmpiricalCDF(t, vals, n, int(np.sum(sample.censored)), q)
