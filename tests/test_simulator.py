"""Event simulation: determinism, exactness at small scale, conditioning.

The engine oracle provides every expected value; Monte Carlo assertions use
fixed seeds so runs are reproducible bit for bit.
"""

import concurrent.futures
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from critlab import (
    DomainError,
    EmpiricalCDF,
    Family,
    ModelParams,
    OffspringDistribution,
    ParameterError,
    SolveConfig,
    build_sim_model,
    d_limit,
    dkw_band,
    empirical_D,
    estimate_survival,
    evolve_series,
    exact_R,
    ks_distance,
    make_scale_function,
    population_at,
    qprocess_kernel_row,
    sample_qprocess_exact,
    simulate_mbp,
    simulate_qprocess,
)

from critlab.acceptance import _c11_verdict, _limit_cdf
from critlab.simulator import EXACT_POP_CAP

CONST = make_scale_function(ModelParams(0.5, 1.0, Family.CONSTANT))


@pytest.fixture(scope="module")
def model():
    return build_sim_model(CONST, order=2**14)


def test_seed_determinism(model):
    a = population_at(model, [1.0, 2.0], 2000, seed=42, conditioned=False)
    b = population_at(model, [1.0, 2.0], 2000, seed=42, conditioned=False)
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.extinction_time, b.extinction_time)
    c = population_at(model, [1.0, 2.0], 2000, seed=43, conditioned=False)
    assert not np.array_equal(a.sizes, c.sizes)


def test_thread_count_does_not_change_results(model):
    a = population_at(model, [2.0], 2000, seed=7, threads=1)
    b = population_at(model, [2.0], 2000, seed=7, threads=2)
    assert np.array_equal(a.sizes, b.sizes)


def test_seed_mandatory(model):
    for seed in (None, -1):
        with pytest.raises(ParameterError):
            population_at(model, [1.0], 10, seed=seed)


def test_worker_count_is_bounded_by_batches(model, monkeypatch):
    # a huge thread count starts at most one worker per seed-split batch
    seen = {}

    class SerialPool:
        def __init__(self, max_workers):
            seen["workers"] = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    a = population_at(model, [1.0], 40, seed=3, threads=10**6)
    b = population_at(model, [1.0], 40, seed=3, threads=1)
    assert seen["workers"] == 16
    assert np.array_equal(a.sizes, b.sizes)


def test_clipped_tail_draw_is_censored_not_wrapped(model):
    # the tail sampler clips draws at 2**62; with pop_cap <= 2**62 a clipped
    # draw ends its trajectory censored at 2**62 + i0 - 1 < 2**63, never
    # wrapped past int64, and a larger cap is refused
    class Clipped:
        total_rate = model.rate

        def sample(self, rng, size):
            return np.full(size, EXACT_POP_CAP, dtype=np.int64)

    huge = dataclasses.replace(model, offspring=Clipped(), size_biased=Clipped())
    for conditioned in (False, True):
        s = population_at(huge, [1e9], 20, seed=5, conditioned=conditioned, i0=3,
                          pop_cap=EXACT_POP_CAP)
        assert s.censored.all() and np.all(s.sizes == EXACT_POP_CAP + 2)
    with pytest.raises(DomainError):
        population_at(model, [1.0], 10, seed=5, pop_cap=EXACT_POP_CAP + 1)
    with pytest.raises(DomainError):
        simulate_qprocess(model, 1, 1.0, np.random.default_rng(5), pop_cap=EXACT_POP_CAP + 1)


def test_pure_death_extinction_times():
    # all offspring mass on k = 0: lifetime of the single individual is
    # exponential with the table's total rate
    dist = OffspringDistribution(
        probs=np.array([1.0, 0.0]), tail_cutoff=1, tail_exponent=2.5,
        tail_mass=0.0, total_rate=2.0,
    )
    dead = build_sim_model(CONST, order=4)
    dead.offspring = dist
    sample = population_at(dead, [50.0], 20000, seed=3, conditioned=False)
    times = sample.extinction_time
    assert np.all(np.isfinite(times))
    mean = float(times.mean())
    assert abs(mean - 0.5) <= 3.0 * times.std() / math.sqrt(len(times))


def test_survival_against_closed_form(model):
    est = estimate_survival(model, [2.0], 20000, seed=11)[0]
    assert abs(est.value - 0.25) <= 4.0 * est.stderr
    assert est.stderr == pytest.approx(math.sqrt(est.value * (1 - est.value) / 20000))


def test_survival_from_several_ancestors(model):
    # P{alive at t | i0 = 3} = 1 - (1 - q(t))^3 by branching independence
    est = estimate_survival(model, [2.0], 20000, seed=13, i0=3)[0]
    expect = 1.0 - 0.75**3
    assert abs(est.value - expect) <= 3.0 * est.stderr


def test_martingale_mean_population(model):
    # criticality keeps E[pop(t)] = i0; the infinite offspring variance
    # makes the sample z-score heavy-tailed, so this is a seeded smoke check
    sample = population_at(model, [1.0], 100000, seed=101, conditioned=False)
    z = sample.sizes[:, 0].astype(float)
    assert abs(z.mean() - 1.0) <= 4.0 * z.std() / math.sqrt(len(z))


def test_qprocess_kernel_mixture_identity(model):
    # (i+k-1) a_k / (i |a1|) = (i-1)/i * p_k + (1/i) * k p_k and rows add to
    # one up to the table's tail mass, for every i up to 1e3
    p = model.offspring.probs
    sb = model.size_biased.probs
    kmax = model.coeffs.order
    for i in (1, 2, 17, 1000):
        row = qprocess_kernel_row(model, i, kmax)
        mix = (i - 1.0) / i * p + sb / i
        assert np.allclose(row, mix, rtol=1e-12, atol=1e-15)
        tail = (i - 1.0) / i * model.offspring.tail_mass + model.size_biased.tail_mass / i
        assert row.sum() == pytest.approx(1.0 - tail, abs=1e-9)


def test_qprocess_never_absorbs(model):
    sample = population_at(model, [0.5, 1.0, 2.0], 5000, seed=17, conditioned=True,
                           pop_cap=10**4)
    assert int(sample.sizes.min()) >= 1


def test_qprocess_jump_from_one_is_size_biased(model):
    rng = np.random.default_rng(19)
    traj = simulate_qprocess(model, 1, 0.5, rng)
    # first jump from state 1 must go up (k >= 2 under the size-biased law)
    if len(traj.sizes) > 1:
        assert traj.sizes[1] >= 2


def _assert_cells_match_engine(W, t):
    # P{W(t) = j} = j * P_1j(t) from the coefficient engine, within 5 sd for j <= 10
    state = evolve_series(CONST, 64, t, SolveConfig(rel_tol=1e-11, abs_tol=1e-13))
    q_row = state.coeffs * np.arange(65)
    for j in range(1, 11):
        pj = float(q_row[j])
        sd = math.sqrt(pj * (1 - pj) / len(W))
        assert abs(float(np.mean(W == j)) - pj) <= 5.0 * sd


def test_qprocess_cells_match_engine(model):
    sample = population_at(model, [1.0], 20000, seed=23, conditioned=True, pop_cap=10**4)
    _assert_cells_match_engine(sample.sizes[:, 0], 1.0)


def test_trajectory_structure(model):
    rng = np.random.default_rng(29)
    traj = simulate_mbp(model, 2, 10.0, rng)
    assert np.all(np.diff(traj.times) > 0.0)
    jumps = np.diff(traj.sizes)
    assert np.all(jumps != 0)  # k = 1 never occurs
    assert np.all(traj.sizes >= 0)
    if traj.extinction_time is not None:
        assert traj.sizes[-1] == 0
        assert not traj.censored
    # a long conditioned path crosses many block cuts and lists every event
    traj = simulate_qprocess(model, 1, 10.0, rng, pop_cap=10**4)
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.all(np.diff(traj.sizes) != 0)
    assert np.all(traj.sizes >= 1)


def test_event_budget_censors_explicitly(model):
    sample = population_at(model, [5.0], 500, seed=31, conditioned=True,
                           pop_cap=10**6, max_events=2000)
    assert sample.budget_exhausted
    assert sample.censored.sum() > 0
    assert sample.events <= 2000  # block cuts never overrun the budget


def test_qprocess_cells_match_engine_with_cap_hit(model):
    # the straggler regime: at t = 10 a cap of 1e3 censors a large share of
    # the conditioned trajectories, and the uncensored cells still match
    sample = population_at(model, [10.0], 20000, seed=83, conditioned=True, pop_cap=10**3)
    assert sample.censored.mean() > 0.2
    _assert_cells_match_engine(sample.sizes[:, 0], 10.0)


def test_event_count_grows_with_horizon(model):
    e1 = population_at(model, [0.5], 3000, seed=37, conditioned=True, pop_cap=10**4)
    e2 = population_at(model, [2.0], 3000, seed=37, conditioned=True, pop_cap=10**4)
    assert e2.events > e1.events


# sha256 of population_at over (sizes, censored, extinction times, events,
# budget flag) at horizons [0, 1, 1, 3], i0 = 3, n = 300, seed 2024; the
# cap of 40 is hit, and max_events = 3000 runs out
POPULATION_DIGESTS = {
    (False, 40, None): "35e13f293485af7c3a2a961902c3363fee4e647fde3c65e3d8bdd4ff083c447f",
    (False, 10**9, 3000): "5ddc2572ccbe6082e5df15b6effd443fb63daec05482633cbf79ebb36bed2c2d",
    (True, 40, None): "18876b5ca94df7ea00786634bb086134df00b59f994f66a53cde86f4e64b59eb",
    (True, 10**9, 3000): "62086bf3f856af4c757564ab36f5e61449f6de81ef99f4164c972e0542b83f4a",
}


@pytest.mark.parametrize("key", list(POPULATION_DIGESTS), ids=lambda k: "cond=%s-cap=%s-max=%s" % k)
@pytest.mark.parametrize("threads", [1, 2])
def test_population_at_is_frozen(model, key, threads):
    # The Monte Carlo contract for the event engine, bit for bit, at any
    # thread count. A numpy upgrade may change the random streams and
    # require regenerating the digests; log any regeneration, with the
    # reason, in CHANGES.md.
    conditioned, pop_cap, max_events = key
    s = population_at(model, [3.0, 1.0, 0.0, 1.0], 300, seed=2024, conditioned=conditioned,
                      i0=3, pop_cap=pop_cap, max_events=max_events, threads=threads)
    assert 0.0 < s.censored.mean() < 1.0 and s.budget_exhausted == (max_events is not None)
    h = hashlib.sha256()
    for a in (s.horizons, s.sizes, s.censored, s.extinction_time):
        h.update(a.tobytes())
    h.update(f"{s.events},{s.budget_exhausted}".encode())
    assert h.hexdigest() == POPULATION_DIGESTS[key]


@pytest.mark.parametrize("simulate, digest", [
    (simulate_mbp, "1a3f81b98513c260f812820593e6f3e9e9afe7d4326b3fc261581d64c81e6463"),
    (simulate_qprocess, "fd979db27428c6ee77c782e01f9d56827a48ae92593f212f551f70bbaa7388e3"),
], ids=["simulate_mbp", "simulate_qprocess"])
def test_paths_are_frozen(model, simulate, digest):
    # 27 paths from one generator: a cap of 8 from i0 = 3, a budget of 5
    # events, and horizon 0; same regeneration rule as above
    rng = np.random.default_rng(2024)
    paths = [simulate(model, 3, 3.0, rng, pop_cap=8) for _ in range(20)]
    paths += [simulate(model, 1, 3.0, rng, max_events=5) for _ in range(5)]
    paths += [simulate(model, 2, 0.0, rng) for _ in range(2)]
    assert any(p.censored for p in paths)
    h = hashlib.sha256()
    for p in paths:
        h.update(p.times.tobytes())
        h.update(p.sizes.tobytes())
        h.update(f"{p.extinction_time!r},{p.censored}".encode())
    assert h.hexdigest() == digest


def test_empirical_law_mass_above_zero(model):
    e = empirical_D(model, 1.0, 5000, seed=41, pop_cap=10**4)
    assert np.all(e.values > 0.0)  # W >= 1 always
    assert e.n == 5000


def test_empirical_law_converges_to_limit(model):
    # the event engine's own evidence for the distributional convergence at
    # small t: the Kolmogorov distance to the inverted limit law decreases
    # along t (C11 checks the rate at t up to 1e3 with exact W(t) draws)
    xs = np.concatenate([[1e-9], np.logspace(-4, 6, 300)])
    dv, _ = d_limit(0.5, xs[1:])
    dv = np.concatenate([[0.0], dv])

    def cdf(x):
        return np.interp(np.log10(np.maximum(x, 1e-9)), np.log10(xs), dv)

    cap = 10**4
    ks = []
    for t in (1.0, 2.0, 5.0):
        e = empirical_D(model, t, 6000, seed=43, pop_cap=cap)
        ks.append(ks_distance(e, cdf, xmax=0.5 * e.scale_q * cap))
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert ks[0] > 5.0 * dkw_band(6000)  # far from the limit at t = 1


def test_mc_engine_oracle_triangle(model):
    # three-way agreement at t = 2: closed form, ODE solver, Monte Carlo
    from critlab import solve_F

    q_closed = 0.25
    q_ode = solve_F(CONST, 0.0, 2.0, SolveConfig(rel_tol=1e-12, abs_tol=1e-14))
    est = estimate_survival(model, [2.0], 20000, seed=47)[0]
    assert q_ode == pytest.approx(q_closed, rel=1e-10)
    assert abs(est.value - q_closed) <= 4.0 * est.stderr
    assert exact_R(CONST, 0.0, 2.0) == pytest.approx(q_closed, rel=1e-14)


def test_exact_sampler_cells_match_engine():
    # P{W(1) = j} = j * P_1j(1) from the coefficient engine, at n = 1e6
    n = 10**6
    sample = sample_qprocess_exact(CONST, 1.0, n, seed=53)
    state = evolve_series(CONST, 64, 1.0, SolveConfig(rel_tol=1e-11, abs_tol=1e-13))
    q_row = state.coeffs * np.arange(65)
    W = sample.sizes[:, 0]
    assert not sample.censored.any() and sample.events == 0
    for j in range(1, 11):
        pj = float(q_row[j])
        sd = math.sqrt(pj * (1 - pj) / n)
        assert abs(float(np.mean(W == j)) - pj) <= 4.0 * sd


def test_exact_sampler_agrees_with_event_engine(model):
    # two-sample Kolmogorov distance over j below the event engine's cap
    # (its censored draws are >= cap); two independent samples of size n
    # stay within sqrt(2) * dkw_band(n) at level 0.05
    n, cap = 20000, 10**4
    ev = population_at(model, [2.0], n, seed=59, conditioned=True, pop_cap=cap).sizes[:, 0]
    ex = sample_qprocess_exact(CONST, 2.0, n, seed=61).sizes[:, 0]
    j = np.arange(1, cap)
    F_ev = np.searchsorted(np.sort(ev), j, side="right") / n
    F_ex = np.searchsorted(np.sort(ex), j, side="right") / n
    assert np.max(np.abs(F_ev - F_ex)) <= math.sqrt(2.0) * dkw_band(n)


def test_exact_sampler_seed_determinism():
    a = sample_qprocess_exact(CONST, 10.0, 2000, seed=42)
    b = sample_qprocess_exact(CONST, 10.0, 2000, seed=42)
    c = sample_qprocess_exact(CONST, 10.0, 2000, seed=43)
    assert np.array_equal(a.sizes, b.sizes)
    assert not np.array_equal(a.sizes, c.sizes)
    with pytest.raises(ParameterError):
        sample_qprocess_exact(CONST, 10.0, 10, seed=None)


def test_exact_sampler_censors_past_int64():
    # c**2 = 2.5e23 at t = 1e12 puts nearly every Poisson mean past 2**62;
    # at t = 1e300 the mean overflows to inf. Such draws are censored with
    # the cap as their lower bound, never wrapped to a negative size.
    for t in (1e12, 1e300):
        sample = sample_qprocess_exact(CONST, t, 2000, seed=71)
        W = sample.sizes[:, 0]
        assert sample.censored.mean() > 0.9
        assert np.all(W[sample.censored] == EXACT_POP_CAP)
        assert np.all(W >= 1)
    small = sample_qprocess_exact(CONST, 1.0, 2000, seed=71)
    assert not small.censored.any()


def test_exact_sampler_rejects_other_families():
    coupled = make_scale_function(ModelParams(0.5, 0.1, Family.COUPLED_DRIFT))
    with pytest.raises(DomainError):
        sample_qprocess_exact(coupled, 1.0, 10, seed=1)
    with pytest.raises(DomainError):
        sample_qprocess_exact(CONST, -1.0, 10, seed=1)


def test_c11_band_rejects_wrong_mixing_law():
    # W = 1 + Poisson((c*G)**(1/nu) * S) with G ~ Gamma(1/nu) instead of
    # Gamma(1+1/nu): the mixture behind F(t;s) itself rather than behind
    # s * F'(t;s). Its scaled law is far from D, so the C11 band check,
    # run on the same horizons, fails, while exact draws pass it.
    nu, n = 0.5, 10**5
    cdf = _limit_cdf(nu)
    rng = np.random.default_rng(73)
    wrong, right = [], []
    for t in (10.0, 100.0, 1000.0):
        c, q = nu * t, exact_R(CONST, 0.0, t)
        g = rng.gamma(1.0 / nu, 1.0, n)
        u = math.pi * (1.0 - rng.random(n))
        e = rng.exponential(1.0, n)
        stable = np.sin(nu * u) / np.sin(u) ** (1 / nu) * (np.sin((1 - nu) * u) / e) ** ((1 - nu) / nu)
        W = 1 + rng.poisson((c * g) ** (1 / nu) * stable)
        wrong.append(EmpiricalCDF(t, np.sort(q * W), n, 0, q))
        ok = sample_qprocess_exact(CONST, t, n, seed=79)
        right.append(EmpiricalCDF(t, np.sort(q * ok.sizes[~ok.censored, 0]), n, int(ok.censored.sum()), q))
    passed, rows, _ = _c11_verdict(wrong, cdf, nu, 1.0)
    assert not passed
    assert all(abs(r[5]) > 10.0 for r in rows)  # gap in units of the band
    assert _c11_verdict(right, cdf, nu, 1.0)[0]
