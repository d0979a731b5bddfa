"""Event simulation: determinism, exactness at small scale, conditioning.

The engine oracle provides every expected value; Monte Carlo assertions use
fixed seeds so runs are reproducible bit for bit.
"""

import concurrent.futures
import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critlab import (
    DomainError,
    EmpiricalCDF,
    Family,
    ModelParams,
    OffspringDistribution,
    ParameterError,
    SolveConfig,
    build_sim_model,
    dkw_band,
    estimate_survival,
    evolve_series,
    exact_R,
    ks_distance,
    make_scale_function,
    population_at,
    sample_qprocess_exact,
    simulate_mbp,
)

from critlab import simulator
from critlab.acceptance import _c11_verdict, _limit_cdf
from critlab.simulator import EXACT_POP_CAP

import reference


def simulate_qprocess(model, i0, horizon, rng, pop_cap=simulator.DEFAULT_POP_CAP,
                      max_events=10**8):
    """A path of the conditioned chain, which never absorbs at 0: the event
    engine's single-trajectory route with the conditioned flag set."""
    return simulator._simulate_path(model, True, i0, horizon, rng, pop_cap, max_events)


CONST = make_scale_function(ModelParams(0.5, 1.0, Family.CONSTANT))
COUPLED = make_scale_function(ModelParams(0.5, 0.1, Family.COUPLED_DRIFT))


@pytest.fixture(scope="module")
def model():
    return build_sim_model(CONST, order=2**14)


@pytest.fixture(scope="module")
def coupled_model():
    return build_sim_model(COUPLED)


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
    assert seen["workers"] == simulator._BATCHES
    assert np.array_equal(a.sizes, b.sizes)


@pytest.mark.parametrize("threads", [0, -3])
def test_population_at_refuses_fewer_than_one_thread(model, threads):
    # below 1 the batches ran serially; a count that is no worker count is refused
    with pytest.raises(DomainError, match=f"threads >= 1, got {threads}"):
        population_at(model, [1.0], 40, seed=3, threads=threads)


def test_simulate_mbp_refuses_a_negative_horizon(model):
    # horizon -1 returned the one-point path [0.]
    with pytest.raises(DomainError, match="horizon t >= 0, got t=-1.0"):
        simulate_mbp(model, 1, -1.0, np.random.default_rng(1))


def test_clipped_tail_draw_is_censored_not_wrapped(model):
    # the tail sampler clips draws at 2**62; with pop_cap <= 2**62 a clipped
    # draw ends its trajectory censored at 2**62 + i0 - 1 < 2**63, never
    # wrapped past int64, and a larger cap is refused
    class Clipped:
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
    # exponential with the model's total rate
    dead = build_sim_model(CONST, order=4)
    dead.offspring = OffspringDistribution(np.array([1.0, 0.0]), 2.5)
    sample = population_at(dead, [50.0], 20000, seed=3, conditioned=False)
    times = sample.extinction_time
    assert np.all(np.isfinite(times))
    mean = float(times.mean())
    assert abs(mean - 1.0 / dead.coeffs.total_rate) <= 3.0 * times.std() / math.sqrt(len(times))


def test_survival_against_closed_form(model):
    est = estimate_survival(model, [2.0], 20000, seed=11)[0]
    assert abs(est.value - 0.25) <= 4.0 * est.stderr
    assert est.stderr == pytest.approx(math.sqrt(est.value * (1 - est.value) / 20000))


def test_survival_estimates_follow_the_callers_order():
    # population_at sorts the horizons; each estimate must still sit at its own t
    small = build_sim_model(CONST, order=2**10)
    late, early = estimate_survival(small, [5.0, 0.5], 20000, seed=1)
    for est, t in ((late, 5.0), (early, 0.5)):
        assert abs(est.value - exact_R(CONST, 0.0, t)) <= 4.0 * est.stderr
    assert [late, early] == estimate_survival(small, [0.5, 5.0], 20000, seed=1)[::-1]


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
    a = model.coeffs.coeffs
    k = np.arange(len(a), dtype=float)
    for i in (1, 2, 17, 1000):
        row = (i + k - 1.0) * a / (i * model.coeffs.total_rate)
        row[1] = 0.0
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


def _assert_cells_match_engine(W, t, sf=CONST, band=5.0):
    # P{W(t) = j} = j * P_1j(t) from the coefficient engine, within band sd for j <= 10
    state = evolve_series(sf, 64, t, SolveConfig(rel_tol=1e-11, abs_tol=1e-13))
    q_row = state.coeffs * np.arange(65)
    for j in range(1, 11):
        pj = float(q_row[j])
        sd = math.sqrt(pj * (1 - pj) / len(W))
        assert abs(float(np.mean(W == j)) - pj) <= band * sd


def test_qprocess_cells_match_engine(model):
    sample = population_at(model, [1.0], 20000, seed=23, conditioned=True, pop_cap=10**4)
    _assert_cells_match_engine(sample.sizes[:, 0], 1.0)


def test_coupled_drift_survival_matches_exact_R(coupled_model):
    # C10's checks for the other family, within C10's 4 sd; the seeds were
    # fixed before any draw
    est = estimate_survival(coupled_model, [1.0], 10**5, seed=31)[0]
    assert abs(est.value - exact_R(COUPLED, 0.0, 1.0)) <= 4.0 * est.stderr


def test_coupled_drift_qprocess_cells_match_engine(coupled_model):
    sample = population_at(coupled_model, [1.0], 10**5, seed=37, conditioned=True,
                           pop_cap=10**4)
    _assert_cells_match_engine(sample.sizes[:, 0], 1.0, COUPLED, band=4.0)


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


_NB = simulator._BATCHES


@pytest.mark.parametrize("k", [-1, 0, 1, _NB - 1, _NB, _NB + 1])
def test_event_budget_is_named_and_never_overrun(model, k):
    # a negative budget is refused by name on every entry point; any other
    # budget, also one below the seed-split batches of one trajectory each,
    # bounds the events run in total (no trajectory ends in one event)
    rng = np.random.default_rng(11)
    samples = [
        functools.partial(population_at, model, [50.0], _NB, seed=13, conditioned=c, i0=2,
                          max_events=k)
        for c in (False, True)
    ]
    paths = [functools.partial(sim, model, 2, 50.0, rng, max_events=k)
             for sim in (simulate_mbp, simulate_qprocess)]
    if k < 0:
        for run in samples + paths:
            with pytest.raises(DomainError, match="max_events"):
                run()
        return
    for run in samples:
        s = run()
        assert s.budget_exhausted and s.censored.any() and s.events <= k
    for run in paths:
        assert len(run().times) - 1 <= k


def test_qprocess_cells_match_engine_with_cap_hit(model):
    # the straggler regime: at t = 10 a cap of 1e3 censors a large share of
    # the conditioned trajectories, and the uncensored cells still match
    sample = population_at(model, [10.0], 20000, seed=83, conditioned=True, pop_cap=10**3)
    assert sample.censored.mean() > 0.2
    _assert_cells_match_engine(sample.sizes[:, 0], 10.0)


def test_stragglers_share_rounds(model, monkeypatch):
    # perfbench's mc_conditioned shape: each seed-split batch runs engine
    # rounds until its slowest lane is done, so the fewer the batches, the
    # more trajectories' stragglers share each round. With 16 batches this
    # call made 476 rounds (one _first call each); 4 batches make 237
    rounds = []
    first = simulator._first

    def counting(mask):
        rounds.append(mask.shape)
        return first(mask)

    monkeypatch.setattr(simulator, "_first", counting)
    population_at(model, [10.0], 512, seed=2024, conditioned=True, pop_cap=10**3)
    assert len(rounds) <= 0.6 * 476


def test_event_count_grows_with_horizon(model):
    e1 = population_at(model, [0.5], 3000, seed=37, conditioned=True, pop_cap=10**4)
    e2 = population_at(model, [2.0], 3000, seed=37, conditioned=True, pop_cap=10**4)
    assert e2.events > e1.events


# sha256 of population_at over (sizes, censored, extinction times, events,
# budget flag) at horizons [0, 1, 1, 3], i0 = 3, n = 300, seed 2024; the
# cap of 40 is hit, and max_events = 3000 runs out
POPULATION_DIGESTS = {
    (False, 40, None): "95ab07c3e9b343095ac1182d06fa696705c52b53759e16b84e9128e746b10916",
    (False, 10**9, 3000): "495911698c670ffbf9f57e130a812aa7f1ebb6b6357a72458ceddbd05232ceaa",
    (True, 40, None): "035ab0a756bf0ec5a6877756bad06ff655af66945c6a3281ebedd1275b040743",
    (True, 10**9, 3000): "9707d58a9752a0d059373e35851fb75f92de9b0fabe235bd9e30a096fae8dfa7",
}


def _population_digest(s):
    h = hashlib.sha256()
    for a in (s.horizons, s.sizes, s.censored, s.extinction_time):
        h.update(a.tobytes())
    h.update(f"{s.events},{s.budget_exhausted}".encode())
    return h.hexdigest()


def _frozen_population(model, key, threads=1):
    conditioned, pop_cap, max_events = key
    return population_at(model, [3.0, 1.0, 0.0, 1.0], 300, seed=2024, conditioned=conditioned,
                         i0=3, pop_cap=pop_cap, max_events=max_events, threads=threads)


@pytest.mark.parametrize("key", list(POPULATION_DIGESTS), ids=lambda k: "cond=%s-cap=%s-max=%s" % k)
@pytest.mark.parametrize("threads", [1, 2])
def test_population_at_is_frozen(model, key, threads):
    # The Monte Carlo contract for the event engine, bit for bit, at any
    # thread count. A numpy upgrade may change the random streams and
    # require regenerating the digests; log any regeneration, with the
    # reason, in CHANGES.md.
    s = _frozen_population(model, key, threads)
    assert 0.0 < s.censored.mean() < 1.0 and s.budget_exhausted == (key[2] is not None)
    assert _population_digest(s) == POPULATION_DIGESTS[key]


@pytest.mark.parametrize("key", list(POPULATION_DIGESTS), ids=lambda k: "cond=%s-cap=%s-max=%s" % k)
def test_population_at_is_frozen_under_raising_float_errors(model, key):
    # Past a lane's cut the tentative size may be 0 (a death in the ordinary
    # chain) and the clock divides by it; the engine keeps such entries
    # inside its own errstate, so a caller's raising settings change nothing
    with np.errstate(all="raise"):
        s = _frozen_population(model, key)
    assert _population_digest(s) == POPULATION_DIGESTS[key]


@pytest.mark.parametrize("conditioned", [False, True])
def test_wrapped_sizes_past_a_cut_do_not_raise(model, conditioned):
    # one offspring draw in 4 clipped at 2**62: a block whose lane crosses
    # the cap keeps adding draws past its cut, so the tentative sizes there
    # wrap past 2**63 and the clock divides by negative sizes and by 0
    class Clipping:
        def sample(self, rng, size):
            k = model.offspring.sample(rng, size)
            k[rng.random(size) < 0.25] = EXACT_POP_CAP
            return k

    clipping = dataclasses.replace(model, offspring=Clipping())

    def run():
        return population_at(clipping, [0.5, 2.0], 64, seed=19, conditioned=conditioned,
                             pop_cap=10**6)

    with np.errstate(all="raise"):
        raising = run()
    plain = run()
    assert raising.censored.any() and not raising.censored.all()
    assert _population_digest(raising) == _population_digest(plain)


_R = simulator._SCAN_ROWS_PER_COLUMN
# both sides of the switch between the column loop (B * _R <= m) and numpy's
# axis-1 routines, with B = 1 and m = 1 on each side where they exist
_TALL = st.integers(1, 5).flatmap(
    lambda B: st.tuples(st.integers(B * _R, B * _R + 40), st.just(B))
)
_WIDE = st.integers(1, 60).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(m // _R + 1, m // _R + 60))
)


@settings(max_examples=150, deadline=None)
@given(
    shape=_TALL | _WIDE,
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
)
def test_row_scans_match_numpys_axis_1_routines(shape, seed, p):
    # the round's running sums and first-True search, byte for byte, on the
    # entries a round makes past a cut: int64 sums that wrap past 2**63 and
    # clock values that are inf, nan or negative
    m, B = shape
    assert simulator._by_columns(np.empty(shape)) == (B * _R <= m)
    rng = np.random.default_rng(seed)
    sizes = rng.integers(-(2**62), 2**62, shape, endpoint=True)
    sizes[:, ::2] = rng.integers(2**61, 2**62, (m, (B + 1) // 2), endpoint=True)
    clock = rng.exponential(1.0, shape)
    cut = rng.integers(0, B + 1, m)
    past = np.arange(B) > cut[:, None]
    clock[past] = rng.choice([np.inf, -np.inf, np.nan, -2.5, 1e308], int(past.sum()))
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (sizes, clock):
            want = np.cumsum(x, axis=1)
            got = simulator._cumsum_rows(x.copy())
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    mask = rng.random(shape) < p
    want = np.where(mask.any(axis=1), mask.argmax(axis=1), B)
    got = simulator._first(mask)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    shape=_TALL | _WIDE,
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    q=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
)
def test_first_of_an_or_is_the_earlier_first(shape, seed, p, q):
    # a round searches once for the cut of its merged stop mask (cap, death
    # or pick, OR horizon crossing); that is the earlier of the two cuts,
    # also where one mask or both have rows with no True
    rng = np.random.default_rng(seed)
    a, b = rng.random(shape) < p, rng.random(shape) < q
    want = np.minimum(simulator._first(a), simulator._first(b))
    got = simulator._first(a | b)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 30),
    H=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_record_matches_the_loop_over_horizons(n, H, seed):
    # the slot sets a batch collects: per row, disjoint runs of horizons
    # h_from <= h < h_to in order, of spans 0..H, the last one possibly up
    # to H; recorded in shuffled order, and none at all for n = 0
    rng = np.random.default_rng(seed)
    rows, h_from, h_to = [], [], []
    for row in range(n):
        edges = np.sort(rng.integers(0, H + 1, rng.integers(1, H + 3)))
        for lo, hi in zip(edges[:-1], edges[1:]):
            if rng.random() < 0.8:
                rows.append(row), h_from.append(lo), h_to.append(hi)
    order = rng.permutation(len(rows))
    gidx, h_from, h_to = (np.array(x, dtype=np.int64)[order] for x in (rows, h_from, h_to))
    values = rng.integers(-(2**63), 2**63 - 1, gidx.size, endpoint=True)
    base = rng.integers(0, 100, (n, H))
    want, got = base.copy(), base.copy()
    reference.record_by_horizons(want, gidx, h_from, h_to, values)
    simulator._record(got, gidx, h_from, h_to, values)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("simulate, digest", [
    (simulate_mbp, "8aeac360a6bb448799a94c34a5f2b5f8c4e5e7ec9d8348baba9d9be149f08881"),
    (simulate_qprocess, "236ec8e674bd20fbc7c6c824dc1e9287b3e8574756627732b26fef2f9b054afa"),
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
    sample = population_at(model, [1.0], 5000, 41, conditioned=True, pop_cap=10**4)
    e = EmpiricalCDF.from_sample(sample, exact_R(CONST, 0.0, 1.0))
    assert np.all(e.values > 0.0)  # W >= 1 always
    assert e.n == 5000


def test_empirical_law_converges_to_limit(model):
    # the event engine's own evidence for the distributional convergence at
    # small t: the Kolmogorov distance to the inverted limit law decreases
    # along t (C11 checks the rate at t up to 1e3 with exact W(t) draws)
    cdf = _limit_cdf(0.5)
    cap = 10**4
    ks = []
    for t in (1.0, 2.0, 5.0):
        q = exact_R(CONST, 0.0, t)
        sample = population_at(model, [t], 6000, 43, conditioned=True, pop_cap=cap)
        e = EmpiricalCDF.from_sample(sample, q)
        # the sup over the points below half the cap (values are sorted and
        # i/n keeps the untrimmed n)
        below = dataclasses.replace(e, values=e.values[e.values <= 0.5 * q * cap])
        ks.append(ks_distance(below, cdf))
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
        wrong.append(EmpiricalCDF(t, np.sort(q * W), n, 0))
        ok = sample_qprocess_exact(CONST, t, n, seed=79)
        right.append(EmpiricalCDF(t, np.sort(q * ok.sizes[~ok.censored, 0]), n, int(ok.censored.sum())))
    passed, rows, _ = _c11_verdict(wrong, cdf, nu, 1.0)
    assert not passed
    assert all(abs(r[5]) > 10.0 for r in rows)  # gap in units of the band
    assert _c11_verdict(right, cdf, nu, 1.0)[0]
