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
every event, the paths of ``simulate_mbp`` and of the conditioned chain
(``_simulate_path``).

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
from .sv_kernel import Family, ScaleFunction

__all__ = [
    "Trajectory",
    "MCEstimate",
    "PopulationSample",
    "EmpiricalCDF",
    "SimModel",
    "build_sim_model",
    "simulate_mbp",
    "population_at",
    "sample_qprocess_exact",
    "estimate_survival",
    "dkw_band",
    "ks_distance",
]

DEFAULT_POP_CAP = 10**9
DEFAULT_SAMPLING_ORDER = 2**16
_BATCHES = 16  # seed-split batches per population_at call; part of the seed-to-sample map
_BLOCK_DRAWS = 4096  # draws per engine round, shared by the live lanes; part of the same map
# a round's row scans loop over its B columns while B * 32 <= m, so at about
# 4096 draws while B <= 11: numpy's axis-1 scans pay per row, a column pass per
# column, and the loop measured faster up to B = 12 (cumsum) and B = 5 (first
# True); whole mc_survival runs did not tell 16, 32 and 64 apart
_SCAN_ROWS_PER_COLUMN = 32


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
    """Truncated coefficients plus the two jump laws built from them."""

    coeffs: OffspringCoeffs
    offspring: OffspringDistribution
    size_biased: OffspringDistribution


def build_sim_model(sf: ScaleFunction, order: int = DEFAULT_SAMPLING_ORDER) -> SimModel:
    """Build sampling tables of the given order for one scale function."""
    coeffs = expand_coeffs(sf, order)
    offspring = build_offspring_distribution(coeffs, sf)
    return SimModel(coeffs, offspring, build_size_biased_distribution(coeffs))


def _check_seed(seed) -> None:
    if seed is None or seed < 0:
        raise ParameterError(f"a seed >= 0 is mandatory for Monte Carlo runs, got {seed}")


def _check_start(model: SimModel, i0: int, pop_cap: int) -> None:
    if i0 < 1:
        raise DomainError(f"i0 must be >= 1, got {i0}")
    if pop_cap > EXACT_POP_CAP:
        # tail draws are clipped at EXACT_POP_CAP, which is a censored draw
        # only while the cap stops every population at or below it
        raise DomainError(f"pop_cap must be at most 2**62, got {pop_cap}")
    if pop_cap <= i0:
        # the engine assumes pop < pop_cap at the start
        raise DomainError(f"pop_cap must exceed i0, got pop_cap = {pop_cap} and i0 = {i0}")
    if model.coeffs.total_rate * pop_cap == math.inf:
        # the event rate |a1| * Z below the cap stays finite, so time advances
        raise DomainError(f"event rate |a1| * pop_cap overflows at pop_cap = {pop_cap}")


def _check_budget(max_events: int | None) -> None:
    if max_events is not None and max_events < 0:
        raise DomainError(f"max_events must be >= 0, got {max_events}")


def _record(out, gidx, h_from, h_to, values):
    """Write values[i] into the horizon slots h_from[i] <= h < h_to[i] of row gidx[i]."""
    span = h_to - h_from
    i = np.repeat(np.arange(span.size), span)
    # the j-th repeat of slot set i fills horizon h_from[i] + j
    h = np.arange(i.size) + (h_from + span - np.cumsum(span)).take(i)
    out[gidx.take(i), h] = values.take(i)


def _by_columns(x: np.ndarray) -> bool:
    """Whether a row scan of the (m, B) array x loops over its columns."""
    m, B = x.shape
    return B * _SCAN_ROWS_PER_COLUMN <= m


def _cumsum_rows(x: np.ndarray) -> np.ndarray:
    """np.cumsum(x, axis=1) in place, bit for bit: both add the running sum and
    the next entry, in that order, left to right within a row."""
    if not _by_columns(x):
        return x.cumsum(axis=1, out=x)
    for j in range(1, x.shape[1]):
        np.add(x[:, j - 1], x[:, j], out=x[:, j])
    return x


def _first(mask: np.ndarray) -> np.ndarray:
    """Index of the first True in each row of mask, or B = mask.shape[1] where there is none."""
    m, B = mask.shape
    if _by_columns(mask):
        first = np.full(m, B, dtype=np.intp)
        for j in range(B - 1, -1, -1):
            np.copyto(first, j, where=mask[:, j])
        return first
    first = mask.argmax(axis=1)
    first[~mask.take(first + B * np.arange(m))] = B
    return first


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
    and builds each lane's ordinary path and clock by running sums along
    its row (``_cumsum_rows``). A lane's block is cut at its first
    state-dependent event L: a size-biased pick, a waiting time that
    crosses the lane's next horizon, a death or the cap. All four go into
    one stop mask, so a round searches for its cuts once (``_first``).
    Events before L are applied in bulk, event L is applied alone with the
    values already drawn (a picked lane draws its size-biased count then),
    and the draws past L are discarded. L is a stopping time of an i.i.d.
    draw sequence, so the law of the jump chain is that of one event at a
    time. The bulk and cut values are read from the (m, B) arrays at flat
    indices row * B + L, and the lanes that go on are gathered by the
    indices of one keep mask.

    ``events`` counts the waiting times drawn and used, so it includes the
    horizon crossing that ends a lane, and a batch never applies more than
    ``max_events``. The horizon slots the rounds fill are written by one
    ``_record`` call at the end. With n = 1, ``path`` (if given) receives
    (time, size) after every event.
    """
    H = len(horizons)
    out = np.zeros((n, H), dtype=np.int64)
    censored = np.zeros(n, dtype=bool)
    ext = np.full(n, np.inf)
    pop = np.full(n, i0, dtype=np.int64)
    tnow = np.zeros(n)
    h_a = np.zeros(n, dtype=np.int64)  # horizons recorded so far
    gidx = np.arange(n)
    slots = []  # (rows, h_from, h_to, values) for one _record call at the end
    rate = model.coeffs.total_rate
    events = 0
    exhausted = False
    while gidx.size:
        m = gidx.size
        B = max(1, _BLOCK_DRAWS // m)
        if max_events is not None:
            B = min(B, (max_events - events) // m)
            if B == 0:
                censored[gidx] = True
                slots.append((gidx, h_a, np.full(m, H), pop))
                exhausted = True
                break
        # tentative ordinary path; pop < pop_cap <= 2**62 and k <= 2**62 keep
        # every entry up to the first cap crossing exact, and the entries
        # past a lane's cut (which may wrap) are never read
        k = model.offspring.sample(rng, m * B).reshape(m, B)
        wait = rng.exponential(1.0, (m, B))
        steps = k - 1
        steps[:, 0] += pop
        after = _cumsum_rows(steps)
        before = np.concatenate((pop[:, None], after[:, :-1]), axis=1)
        stop = after >= pop_cap
        if conditioned:
            pick = rng.random((m, B)) * before < 1.0
            stop |= pick
        else:
            stop |= after == 0
        # sizes up to the cut are >= 1; past it before may be 0 or wrapped,
        # and the clock there (inf, nan or negative) is never read
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dt = wait / (rate * before)
            dt[:, 0] += tnow
            tc = _cumsum_rows(dt)
        # horizon crossings join the stop mask: the first True of an OR is
        # the earlier of the two firsts, so one search finds every cut
        cross = tc >= horizons.take(h_a)[:, None]
        stop |= cross
        L = _first(stop)
        # events 0..L-1 in bulk; the (m, B) arrays are read at flat index
        # row * B + column
        events += int(L.sum())
        bulk = L.nonzero()[0]
        at = bulk * B + L.take(bulk) - 1
        pop[bulk] = after.take(at)
        tnow[bulk] = tc.take(at)
        if path is not None:
            path.extend(zip(tc[0, : L[0]].tolist(), after[0, : L[0]].tolist()))
        cut = (L < B).nonzero()[0]
        if cut.size == 0:
            continue
        # event L alone: record the state held across every horizon its
        # waiting time crosses
        events += cut.size
        at = cut * B + L.take(cut)
        tnew = tc.take(at)
        crossed = cross.take(at)
        if crossed.any():
            lanes = cut[crossed]
            h_new = np.searchsorted(horizons, tnew[crossed], side="right")
            slots.append((gidx[lanes], h_a[lanes], h_new, pop[lanes]))
            h_a[lanes] = h_new
        go = h_a.take(cut) < H
        live, at = cut[go], at[go]
        kk = k.take(at)
        if conditioned:
            # before[L] is the lane's size now, so the pick is the mask's entry
            biased = pick.take(at)
            nb = int(biased.sum())
            if nb:
                kk[biased] = model.size_biased.sample(rng, nb)
        stop_pop = pop.take(live) + kk - 1
        pop[live] = stop_pop
        tnew = tnew[go]
        tnow[live] = tnew
        if path is not None and live.size:
            path.append((tnow[0], pop[0]))
        # stop lanes that finished their horizons, reached the cap or died;
        # the remaining horizons of a dead lane keep the initialized 0
        dead = stop_pop == 0  # never in the conditioned chain
        over = (stop_pop >= pop_cap) & ~dead
        if dead.any():
            ext[gidx[live[dead]]] = tnew[dead]
        lanes = live[over]
        if lanes.size:
            censored[gidx[lanes]] = True
            slots.append((gidx[lanes], h_a[lanes], np.full(lanes.size, H), stop_pop[over]))
        keep = np.ones(m, dtype=bool)
        keep[cut[~go]] = False
        keep[live[over | dead]] = False
        kept = keep.nonzero()[0]
        if kept.size < m:
            gidx, pop, tnow, h_a = gidx.take(kept), pop.take(kept), tnow.take(kept), h_a.take(kept)
    if slots:
        # each slot is written at most once: h_a only grows, and a lane is
        # recorded to H only as it leaves
        _record(out, *map(np.concatenate, zip(*slots)))
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
    _check_start(model, i0, pop_cap)
    _check_budget(max_events)
    if threads < 1:
        raise DomainError(f"population_at needs threads >= 1, got {threads}")
    horizons = np.sort(np.atleast_1d(np.asarray(horizons, dtype=float)))
    if horizons.size == 0 or not np.all(horizons >= 0.0):
        raise DomainError(f"horizons must be nonempty and t >= 0, got t={horizons}")
    batches = min(_BATCHES, n)
    sizes = [n // batches + (1 if b < n % batches else 0) for b in range(batches)]
    seqs = np.random.SeedSequence(seed).spawn(batches)
    # an equal share per batch, so the batches never run more than max_events
    per_batch = None if max_events is None else max_events // batches
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
    if not t >= 0.0 or n < 1:
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
    if not horizon >= 0.0:
        raise DomainError(f"simulate_mbp requires a horizon t >= 0, got t={horizon}")
    _check_start(model, i0, pop_cap)
    _check_budget(max_events)
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
    """Survival proportion P{pop(t) > 0 | pop(0) = i0} at each horizon, in the order given."""
    sample = population_at(
        model, t, n, seed, conditioned=False, i0=i0, pop_cap=pop_cap, threads=threads
    )
    out = []
    for col in np.searchsorted(sample.horizons, np.atleast_1d(np.asarray(t, dtype=float))):
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

    @classmethod
    def from_sample(cls, sample: PopulationSample, q: float) -> EmpiricalCDF:
        """Law of q * W at the sample's first horizon; censored draws are counted, not kept."""
        censored = sample.censored
        vals = np.sort(q * sample.sizes[~censored, 0].astype(float))
        return cls(float(sample.horizons[0]), vals, len(censored), int(censored.sum()))


def dkw_band(n: int, alpha: float = 0.05) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ks_distance(ecdf: EmpiricalCDF, cdf) -> float:
    """Kolmogorov distance between the sample CDF and a callable CDF.

    Censored mass sits above every uncensored value, so the empirical CDF
    is exact at each uncensored point; the sup is taken over those points.
    """
    x = ecdf.values
    if x.size == 0:
        raise DomainError("no uncensored sample points")
    F = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, len(x) + 1, dtype=float)
    return float(max(np.max(i / ecdf.n - F), np.max(F - (i - 1.0) / ecdf.n)))
