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
budget are reported as censored, never silently dropped. One event engine
advances all active trajectories of a batch together. Between state-dependent
events (a size-biased pick, a horizon, a death, the cap) the jump chain is a
random walk with i.i.d. steps, so each vectorized round applies a block of
exact events per trajectory, cut at its first such event; this is the exact
stochastic simulation algorithm (Gillespie 1977), not tau-leaping. The
engine serves ``population_at`` and, run on a single trajectory that records
every event, the paths of ``simulate_mbp`` and ``simulate_qprocess``.

For the ``constant`` family the law of W(t) is also drawn directly, at a
cost that does not grow with W(t) (``sample_qprocess_exact``); the event
engine stays the independent check of that sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branching_model import (
    EXACT_POP_CAP,
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
_BATCHES = 16  # seed-split batches per population_at call; part of the seed-to-sample map
_BLOCK_DRAWS = 4096  # draws per engine round, shared by the live lanes; part of the same map


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
    size_biased: OffspringDistribution

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


def _check_seed(seed) -> None:
    if seed is None or seed < 0:
        raise ParameterError(f"a seed >= 0 is mandatory for Monte Carlo runs, got {seed}")


def _check_start(i0: int, pop_cap: int) -> None:
    if i0 < 1:
        raise DomainError(f"i0 must be >= 1, got {i0}")
    if pop_cap > EXACT_POP_CAP:
        # tail draws are clipped at EXACT_POP_CAP, which is a censored draw
        # only while the cap stops every population at or below it
        raise DomainError(f"pop_cap must be at most 2**62, got {pop_cap}")
    if pop_cap <= i0:
        # the engine assumes pop < pop_cap at the start
        raise DomainError(f"pop_cap must exceed i0, got pop_cap = {pop_cap} and i0 = {i0}")


def _record(out, gidx, h_from, h_to, values):
    """Write values[i] into the horizon slots h_from[i] <= h < h_to[i] of row gidx[i]."""
    if gidx.size:
        for h in range(h_from.min(), np.max(h_to)):
            rows = (h_from <= h) & (h < h_to)
            out[gidx[rows], h] = values[rows]


def _first(mask: np.ndarray, B: int) -> np.ndarray:
    """Index of the first True in each row of mask, or B where there is none."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), B)


def _simulate_population_batch(
    model: SimModel,
    conditioned: bool,
    i0: int,
    horizons: np.ndarray,
    n: int,
    rng: np.random.Generator,
    pop_cap: int,
    max_events: int | None,
    path: list | None = None,
) -> PopulationSample:
    """Advance n trajectories by blocks of exact events; the event engine of the module.

    Each round draws, for its m live lanes, B = _BLOCK_DRAWS // m offspring
    counts, waiting times and (conditioned chain) pick uniforms per lane,
    and builds each lane's ordinary path with cumsum. A lane's block is cut
    at its first state-dependent event L: a size-biased pick, a waiting time
    that crosses the lane's next horizon, a death or the cap. Events before
    L are applied in bulk, event L is applied alone with the values already
    drawn (a picked lane draws its size-biased count then), and the draws
    past L are discarded. L is a stopping time of an i.i.d. draw sequence,
    so the law of the jump chain is that of one event at a time.

    ``events`` counts the waiting times drawn and used, so it includes the
    horizon crossing that ends a lane, and a batch never applies more than
    ``max_events``. With n = 1, ``path`` (if given) receives (time, size)
    after every event.
    """
    H = len(horizons)
    out = np.zeros((n, H), dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    ext = np.full(n, np.inf)
    pop = np.full(n, i0, dtype=np.int64)
    tnow = np.zeros(n)
    h_a = np.zeros(n, dtype=np.int64)  # horizons recorded so far
    gidx = np.arange(n)
    rate = model.rate
    events = 0
    exhausted = False
    while gidx.size:
        m = gidx.size
        B = max(1, _BLOCK_DRAWS // m)
        if max_events is not None:
            B = min(B, (max_events - events) // m)
            if B == 0:
                censored[gidx] = True
                _record(out, gidx, h_a, H, pop)
                exhausted = True
                break
        # tentative ordinary path; pop < pop_cap <= 2**62 and k <= 2**62 keep
        # every entry up to the first cap crossing exact, and the entries
        # past a lane's cut (which may wrap) are never read
        k = model.offspring.sample(rng, m * B).reshape(m, B)
        wait = rng.exponential(1.0, (m, B))
        steps = k - 1
        steps[:, 0] += pop
        after = np.cumsum(steps, axis=1)
        before = np.concatenate((pop[:, None], after[:, :-1]), axis=1)
        stop = after >= pop_cap
        if conditioned:
            u = rng.random((m, B))
            stop |= u * before < 1.0
        else:
            stop |= after == 0
        L = _first(stop, B)
        # sizes up to the cut are >= 1; mask the rest before dividing
        held = np.where(np.arange(B) <= L[:, None], before, 1)
        dt = wait / (rate * held)
        dt[:, 0] += tnow
        tc = np.cumsum(dt, axis=1)
        L = np.minimum(L, _first(tc >= horizons[h_a][:, None], B))
        # events 0..L-1 in bulk
        events += int(L.sum())
        bulk = np.flatnonzero(L)
        pop[bulk] = after[bulk, L[bulk] - 1]
        tnow[bulk] = tc[bulk, L[bulk] - 1]
        if path is not None:
            path.extend(zip(tc[0, : L[0]].tolist(), after[0, : L[0]].tolist()))
        cut = np.flatnonzero(L < B)
        if cut.size == 0:
            continue
        # event L alone: record the state held across every horizon its
        # waiting time crosses
        Lc = L[cut]
        events += cut.size
        tnew = tc[cut, Lc]
        h_new = np.searchsorted(horizons, tnew, side="right")
        crossed = h_new > h_a[cut]
        if crossed.any():
            lanes = cut[crossed]
            _record(out, gidx[lanes], h_a[lanes], h_new[crossed], pop[lanes])
            h_a[lanes] = h_new[crossed]
        go = h_a[cut] < H
        live, Lg = cut[go], Lc[go]
        kk = k[live, Lg]
        if conditioned:
            biased = u[live, Lg] * pop[live] < 1.0
            nb = int(biased.sum())
            if nb:
                kk[biased] = model.size_biased.sample(rng, nb)
        pop[live] = pop[live] + kk - 1
        tnow[live] = tnew[go]
        if path is not None and live.size:
            path.append((tnow[0], pop[0]))
        # stop lanes that finished their horizons, reached the cap or died;
        # the remaining horizons of a dead lane keep the initialized 0
        stop_pop = pop[live]
        dead = stop_pop == 0  # never in the conditioned chain
        over = (stop_pop >= pop_cap) & ~dead
        ext[gidx[live[dead]]] = tnow[live[dead]]
        lanes = live[over]
        censored[gidx[lanes]] = True
        _record(out, gidx[lanes], h_a[lanes], H, stop_pop[over])
        keep = np.ones(m, dtype=bool)
        keep[cut[~go]] = False
        keep[live[over | dead]] = False
        if not keep.all():
            gidx, pop, tnow, h_a = gidx[keep], pop[keep], tnow[keep], h_a[keep]
    return PopulationSample(horizons, out, censored, ext, events, exhausted)


def population_at(
    model: SimModel,
    horizons,
    n: int,
    seed: int,
    *,
    conditioned: bool = False,
    i0: int = 1,
    pop_cap: int = DEFAULT_POP_CAP,
    max_events: int | None = None,
    threads: int = 1,
) -> PopulationSample:
    """Population sizes at the given horizons for n independent trajectories.

    One RNG stream per batch is derived by seed-splitting, and batches are
    merged in index order, so results are identical for any thread count.
    The same trajectory serves every horizon (common random numbers).
    """
    _check_seed(seed)
    if n < 1:
        raise DomainError(f"population_at needs n >= 1, got {n}")
    _check_start(i0, pop_cap)
    horizons = np.sort(np.atleast_1d(np.asarray(horizons, dtype=float)))
    if horizons.size == 0 or not np.all(horizons >= 0.0):
        raise DomainError("horizons must be nonnegative and nonempty")
    batches = min(_BATCHES, n)
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
        # imported here: it loads multiprocessing, which a one-thread run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, batches)) as pool:
            parts = list(pool.map(_simulate_population_batch, *zip(*args)))
    return PopulationSample(
        horizons,
        np.concatenate([p.sizes for p in parts]),
        np.concatenate([p.censored for p in parts]),
        np.concatenate([p.extinction_time for p in parts]),
        sum(p.events for p in parts),
        any(p.budget_exhausted for p in parts),
    )


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
    _check_seed(seed)
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


def _simulate_path(model, conditioned, i0, horizon, rng, pop_cap, max_events) -> Trajectory:
    _check_start(i0, pop_cap)
    path = [(0.0, i0)]
    s = _simulate_population_batch(
        model, conditioned, i0, np.array([horizon]), 1, rng, pop_cap, max_events, path
    )
    times, sizes = zip(*path)
    ext = float(s.extinction_time[0])
    return Trajectory(
        np.array(times), np.array(sizes, dtype=np.int64),
        ext if ext < math.inf else None, bool(s.censored[0]),
    )


def simulate_mbp(
    model: SimModel,
    i0: int,
    horizon: float,
    rng: np.random.Generator,
    pop_cap: int = DEFAULT_POP_CAP,
    max_events: int = 10**8,
) -> Trajectory:
    """Exact event simulation of the branching chain to extinction or horizon."""
    return _simulate_path(model, False, i0, horizon, rng, pop_cap, max_events)


def simulate_qprocess(
    model: SimModel,
    i0: int,
    horizon: float,
    rng: np.random.Generator,
    pop_cap: int = DEFAULT_POP_CAP,
    max_events: int = 10**8,
) -> Trajectory:
    """Exact event simulation of the conditioned chain (never absorbs at 0)."""
    return _simulate_path(model, True, i0, horizon, rng, pop_cap, max_events)


def estimate_survival(
    model: SimModel,
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
        model, t, n, seed, conditioned=False, i0=i0, pop_cap=pop_cap, threads=threads
    )
    out = []
    for col in range(sample.sizes.shape[1]):
        p = float(np.mean(sample.sizes[:, col] > 0))
        out.append(MCEstimate(p, math.sqrt(p * (1.0 - p) / n)))
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

    @classmethod
    def from_sample(cls, sample: PopulationSample, q: float) -> EmpiricalCDF:
        """Law of q * W at the sample's first horizon; censored draws are counted, not kept."""
        censored = sample.censored
        vals = np.sort(q * sample.sizes[~censored, 0].astype(float))
        return cls(float(sample.horizons[0]), vals, len(censored), int(censored.sum()), q)


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
    model: SimModel,
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
    return EmpiricalCDF.from_sample(sample, q)
