"""Mechanism coefficients and offspring sampling.

Coefficient expectations come from two independent routes: the binomial
recurrence (asserted values) and Cauchy-integral extraction on a complex
circle (cross-check oracle).
"""

import hashlib
import math
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from critlab import (
    DomainError,
    Family,
    ModelParams,
    OffspringDistribution,
    ParameterError,
    build_offspring_distribution,
    build_size_biased_distribution,
    expand_coeffs,
    make_scale_function,
    mechanism_series,
)
from critlab.branching_model import AliasTable, _validate_coeffs
from critlab.simulator import DEFAULT_SAMPLING_ORDER, build_sim_model

import reference

CONST = make_scale_function(ModelParams(0.5, 1.0, Family.CONSTANT))
COUPLED_OK = make_scale_function(ModelParams(0.5, 0.1, Family.COUPLED_DRIFT))
BINARY = make_scale_function(ModelParams(1.0, 1.0, Family.BINARY_SPLIT))


def taylor_by_circle(sf, n, radius=0.4):
    """Independent coefficient oracle: FFT of f on a complex circle."""
    m = 512
    z = radius * np.exp(2j * np.pi * np.arange(m) / m)
    y = 1.0 - z
    if sf.family is Family.CONSTANT:
        vals = sf.a0 * y ** 1.5
    else:
        yp = y**sf.nu
        vals = sf.nu * sf.a0 * y * yp / (sf.nu + sf.a0 * (1.0 - yp))
    c = np.fft.fft(vals) / m
    return (c[: n + 1] / radius ** np.arange(n + 1)).real


def test_f_of_values():
    assert reference.f(CONST, 0.0) == pytest.approx(1.0)
    assert reference.f(CONST, 0.75) == pytest.approx(0.25**1.5)
    assert reference.f(BINARY, 0.5) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        reference.f(CONST, 1.0)


def test_f_vanishes_at_one():
    for sf in (CONST, COUPLED_OK, BINARY):
        assert reference.f(sf, 1.0 - 1e-12) < 1e-11


def test_constant_coefficients():
    c = expand_coeffs(CONST, 8)
    assert np.allclose(c.coeffs[:4], [1.0, -1.5, 0.375, 0.0625], rtol=1e-14)
    assert c.tail_exponent == 2.5
    assert c.total_rate == pytest.approx(1.5)


def test_binary_coefficients():
    c = expand_coeffs(BINARY, 4)
    assert np.allclose(c.coeffs, [1.0, -2.0, 1.0, 0.0, 0.0])
    assert c.mass_deficit == 0.0
    assert c.criticality_deficit == 0.0


def test_coefficients_match_circle_oracle():
    # extraction precision is limited by radius**-order times FFT roundoff
    for sf in (CONST, COUPLED_OK):
        a = mechanism_series(sf, 16)
        oracle = taylor_by_circle(sf, 16)
        assert np.allclose(a, oracle, rtol=1e-6, atol=1e-12)


def test_mass_deficit_shrinks_with_order():
    deficits = [expand_coeffs(CONST, J).mass_deficit for J in (16, 64, 256, 1024)]
    assert all(a > b for a, b in zip(deficits, deficits[1:]))
    assert deficits[-1] < 1e-4


def test_partial_sum_approximates_f():
    c = expand_coeffs(CONST, 512)
    for s in (0.3, 0.9, 0.99):
        approx = np.polynomial.polynomial.polyval(s, c.coeffs)
        assert abs(approx - reference.f(CONST, s)) <= 2.0 * c.mass_deficit


def test_criticality_and_infinite_variance():
    # slope at 1- tends to 0; second difference quotient diverges
    hs = np.array([1e-2, 1e-4, 1e-6])
    slopes = [reference.f(CONST, 1.0 - h) / h for h in hs]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] < 1e-2
    curls = [reference.f(CONST, 1.0 - h) / h**2 for h in hs]
    assert all(a < b for a, b in zip(curls, curls[1:]))


def test_coupled_rejects_invalid_intensities():
    bad = make_scale_function(ModelParams(0.5, 1.0, Family.COUPLED_DRIFT))
    with pytest.raises(ParameterError, match="negative beyond slack"):
        expand_coeffs(bad, 256)
    # the formal series is still available for the analytic machinery
    a = mechanism_series(bad, 8)
    assert a[0] == pytest.approx(1.0)
    assert a[3] < 0.0


def test_expand_coeffs_order_check():
    with pytest.raises(DomainError):
        expand_coeffs(CONST, 1)


def test_alias_table_distribution():
    w = np.array([0.5, 0.0, 0.3, 0.2])
    tab = AliasTable(w)
    rng = np.random.default_rng(11)
    draws = tab.sample(rng, 200_000)
    freq = np.bincount(draws, minlength=4) / 200_000
    assert np.allclose(freq, w, atol=4 * np.sqrt(0.25 / 200_000))


def _vose_numpy_scalars(w):
    """Reference: Vose's loop indexing numpy scalars, as AliasTable once ran it."""
    n = len(w)
    p = w * (n / w.sum())
    prob = np.ones(n)
    alias = np.arange(n)
    small = [i for i in range(n) if p[i] < 1.0]
    large = [i for i in range(n) if p[i] >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        prob[s] = p[s]
        alias[s] = g
        p[g] = (p[g] + p[s]) - 1.0
        (small if p[g] < 1.0 else large).append(g)
    return prob, alias


WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-300, 1e300, allow_subnormal=False)),
    min_size=1,
    max_size=300,
).filter(lambda ws: any(ws))


# within 4 ulp of 1: the chain's r lands within rounding of 1 within a few
# steps, so the speculated merge misses and Vose's loop builds most of the table
NEAR_UNIFORM = st.builds(
    lambda n, seed: (1.0 + np.random.default_rng(seed).integers(-4, 5, n) * 2.0**-52).tolist(),
    st.integers(1, 4096),
    st.integers(0, 2**32 - 1),
)


@given(weights=st.one_of(WEIGHTS, NEAR_UNIFORM))
@example(weights=[2.5])  # n = 1
@example(weights=[0.0, 0.0, 3.0, 0.0])  # a single positive weight
@example(weights=[0.25, 0.25, 0.25, 0.25])  # every weight normalizes to exactly 1.0
@example(weights=[0.5, 1.0, 1.5])  # one weight normalizes to exactly 1.0
@example(weights=[1.0, 1.0, 1.0, 5.0])  # one large entry: the speculation has no miss
@example(weights=[1.0 + k * 2.0**-52 for k in (2, 1, -1, 0, 0, 0)])  # misses at the 2nd step
@settings(max_examples=200, deadline=None)
def test_alias_table_matches_numpy_scalar_loop(weights):
    w = np.array(weights)
    tab = AliasTable(w)
    prob, alias = _vose_numpy_scalars(w)
    assert tab.prob.dtype == prob.dtype and tab.alias.dtype == alias.dtype
    assert tab.prob.tobytes() == prob.tobytes()
    assert tab.alias.tobytes() == alias.tobytes()


def test_alias_table_repairs_near_uniform_table_bit_for_bit():
    # +-2 ulp noise at the production size: the speculation misses within a
    # few steps and Vose's loop builds the rest of the table
    w = 1.0 + np.random.default_rng(2024).integers(-2, 3, DEFAULT_SAMPLING_ORDER + 2) * 2.0**-52
    tab = AliasTable(w)
    prob, alias = _vose_numpy_scalars(w)
    assert tab.prob.tobytes() == prob.tobytes()
    assert tab.alias.tobytes() == alias.tobytes()


# sha256 of prob.tobytes() + alias.tobytes() of both sampling tables at
# DEFAULT_SAMPLING_ORDER; the tables are part of the seed-to-sample map
ALIAS_DIGESTS = {
    (Family.CONSTANT, 1.0): (
        "ab709d67ba8c8b3c6de5452113675e05dea2228c4376ff59a83c65d332c8cd2a",
        "fb50ea83c8e78ef4aa50ec5567d42a5aee07a5f9d3af724ac5a48b13632a1f57",
    ),
    (Family.COUPLED_DRIFT, 0.05): (
        "92cf64fdf5e01824d009e48c9cc25d2124a43167171c9daa0952994f33b4c41c",
        "98347cc38feb32f80bbb088951b5825ad5fd6413987e13336afd1d305553d841",
    ),
}


@pytest.mark.parametrize("key", list(ALIAS_DIGESTS), ids=lambda k: f"{k[0].value}-a0={k[1]}")
def test_sampling_tables_are_frozen(key):
    model = build_sim_model(make_scale_function(ModelParams(0.5, key[1], key[0])))
    digests = tuple(
        hashlib.sha256(d._alias.prob.tobytes() + d._alias.alias.tobytes()).hexdigest()
        for d in (model.offspring, model.size_biased)
    )
    assert len(model.offspring.probs) == DEFAULT_SAMPLING_ORDER + 1
    assert digests == ALIAS_DIGESTS[key]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_alias_table_rejects_non_finite_weights(bad):
    # nan < 0 and nan > 0 are both False, so a nan weight would land in
    # neither of Vose's stacks and its symbol would keep probability 1
    with pytest.raises(ParameterError, match="finite"):
        AliasTable(np.array([bad, 1.0]))


def test_binary_sampling_half_half():
    model = build_offspring_distribution(expand_coeffs(BINARY, 4), BINARY)
    rng = np.random.default_rng(5)
    k = model.sample(rng, 100_000)
    assert set(np.unique(k)) == {0, 2}
    assert np.mean(k == 0) == pytest.approx(0.5, abs=4 * math.sqrt(0.25 / 100_000))


def test_offspring_frequencies_match_table():
    dist = build_offspring_distribution(expand_coeffs(CONST, 2**16), CONST)
    rng = np.random.default_rng(7)
    k = dist.sample(rng, 10**6)
    freq = np.bincount(k, minlength=11)[:11] / 1e6
    for j in range(11):
        p = dist.probs[j]
        sd = math.sqrt(p * (1 - p) / 1e6)
        assert abs(freq[j] - p) <= 4 * max(sd, 1e-9), f"cell {j}"


def test_tail_sampler_exact_against_binomial_masses():
    # force frequent tail draws with a tiny table; the constant family tail
    # rejection targets the exact binomial intensities
    dist = build_offspring_distribution(expand_coeffs(CONST, 8), CONST)
    assert dist.tail_mass > 1e-3
    rng = np.random.default_rng(13)
    k = dist.sample(rng, 2 * 10**6)
    assert int(k.max()) > 8
    coeffs = expand_coeffs(CONST, 64).coeffs
    for j in range(9, 25):
        p = coeffs[j] / 1.5
        freq = np.mean(k == j)
        sd = math.sqrt(p * (1 - p) / 2e6)
        assert abs(freq - p) <= 5 * sd, f"tail cell {j}"


def test_hill_estimator_recovers_tail_exponent():
    dist = build_offspring_distribution(expand_coeffs(CONST, 2**16), CONST)
    rng = np.random.default_rng(23)
    k = dist.sample(rng, 10**6).astype(float)
    k = k[k >= 1]
    top = np.sort(k)[-int(len(k) * 0.01) :]
    hill = 1.0 / np.mean(np.log(top / top[0]))
    # offspring tail index is (2 + nu) - 1 = 1 + nu for the counts
    assert hill + 1.0 == pytest.approx(2.5, abs=0.1)


def test_size_biased_distribution():
    coeffs = expand_coeffs(CONST, 2**12)
    sb = build_size_biased_distribution(coeffs)
    assert sb.probs[0] == 0.0 and sb.probs[1] == 0.0
    assert sb.probs[2] == pytest.approx(2 * coeffs.coeffs[2] / 1.5)
    assert sb.probs.sum() + sb.tail_mass == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(2)
    k = sb.sample(rng, 10**5)
    assert int(k.min()) >= 2


def test_size_biased_sampler_draws_or_refuses_a_tiny_nu_by_name():
    # the size-biased tail exponent is 1 + nu; at nu = 1e-13 its envelope
    # mass (k - 1/2)**-nu - (k + 1/2)**-nu rounds to 0 past the table, where
    # no accept test can pass, and almost all the mass is in the tail, so 10
    # draws reach the tail sampler; an alarm turns a regressed refusal, which
    # would loop forever, into a failure
    def expire(*_):
        raise TimeoutError("the tail sampler did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        tiny = build_sim_model(make_scale_function(ModelParams(1e-13, 1.0, Family.CONSTANT)))
        with pytest.raises(ParameterError, match="rounds to 0 past the table order J = 65536"):
            tiny.size_biased.sample(np.random.default_rng(0), 10)
        # at nu = 1e-9 the envelope still resolves: every tail draw lands at the 2**62 clip
        small = build_sim_model(make_scale_function(ModelParams(1e-9, 1.0, Family.CONSTANT)))
        k = small.size_biased.sample(np.random.default_rng(0), 10)
        assert np.all(k >= 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 1000), min_size=2, max_size=40).filter(any),
    st.floats(0.0, 1.0),
)
def test_distribution_derives_tail_mass_and_cutoff(weights, mass):
    w = np.array(weights, dtype=float)
    probs = w * (mass / w.sum())
    d = OffspringDistribution(probs, 2.5)
    assert d.tail_mass == max(0.0, 1.0 - float(probs.sum()))
    assert d.tail_cutoff == len(probs) - 1
    with pytest.raises(ParameterError, match="mass"):
        OffspringDistribution(w * (1.1 / w.sum()), 2.5)


def test_distribution_validation():
    with pytest.raises(ParameterError):
        OffspringDistribution(np.array([0.5, 0.0, 0.6]), 2.5)


def test_distribution_rejects_nan_mass():
    # abs(nan) > 1e-9 is False, so a nan probability once passed the mass check
    with pytest.raises(ParameterError, match="mass"):
        OffspringDistribution(np.array([0.5, 0.0, np.nan]), 2.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_coeffs_rejects_non_finite(bad):
    a = np.array([1.0, -1.5, 0.375, bad, 0.0625])
    with pytest.raises(ParameterError, match=r"a\[3\] = .* is not finite"):
        _validate_coeffs(a, Family.CONSTANT)


# ---------------------------------------------------------------------------
# the unnormalized rejection target against scipy.special and mpmath
# ---------------------------------------------------------------------------


def _binomial_tail_gammaln(nu, k):
    # the scipy.special route: Gamma(k-1-nu) / Gamma(k+1)
    from scipy.special import gammaln

    return np.exp(gammaln(k - 1.0 - nu) - gammaln(k + 1.0))


@pytest.mark.parametrize("nu", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("J", [4, 2**16])
def test_binomial_tail_matches_gammaln_and_mpmath(nu, J):
    # The tail is a difference of Stirling's series in log(k + 1) and
    # log1p(-(2 + nu)/(k + 1)), so it keeps about 1e-14 relative where
    # gammaln(k-1-nu) - gammaln(k+1), a difference of two values near
    # L = lgamma(k+1), keeps only a few eps*L (about 1e-10 at k = 2**16 and
    # 1e-6 at k = 1e9) and also rounds its argument k - 1 - nu to the ulp
    # of k. mpmath takes k - 1 - nu exactly; over every k below, both J and
    # every nu, the largest relative error is 1.2e-14 (at k = 2**53 + 2).
    mpmath = pytest.importorskip("mpmath")
    sf = make_scale_function(ModelParams(nu, 1.0, Family.CONSTANT))
    scattered = [1e5, 3.3e6, 1.7e7, 123456789.0, 5e8, 1e9]
    k = np.concatenate([np.arange(J + 1, J + 4001, dtype=float), scattered])
    got = sf.exact_tail()(k)
    scale = np.array([math.lgamma(v + 1.0) for v in k]) * 2.0**-52
    ref = _binomial_tail_gammaln(nu, k)
    assert np.all(np.abs(got / ref - 1.0) <= 1e-14 + 8.0 * scale)
    huge = [2.0**40, 2.0**53 + 2.0, 2.0**62]  # k - 1 - nu keeps less of nu, none at 2**62
    got = np.concatenate([got, sf.exact_tail()(np.array(huge))])
    k = np.concatenate([k, huge])
    with mpmath.workprec(120):
        for i in list(range(0, 4000, 97)) + list(range(4000, len(k))):
            kk = mpmath.mpf(k[i])
            exact = mpmath.exp(mpmath.loggamma(kk - 1 - nu) - mpmath.loggamma(kk + 1))
            assert abs(float(got[i] / exact) - 1.0) <= 1.5e-14


@pytest.mark.parametrize("order", [4, 2**16])
def test_tail_draws_do_not_depend_on_the_normalizer_route(order, monkeypatch):
    # The rejection target is unnormalized: k**-beta for the envelope laws and
    # Gamma(k-1-nu)/Gamma(k+1) for the constant ordinary law. The normalized
    # target, with scipy's Hurwitz zeta and the binomial tail's constants
    # divided by the tail mass, must make every accept decision the same way,
    # so the seed-to-sample map does not move.
    from scipy.special import zeta

    coeffs = [(sf, expand_coeffs(sf, order)) for sf in (CONST, COUPLED_OK)]

    def tail_draws():
        laws = []
        for sf, c in coeffs:
            laws += [build_offspring_distribution(c, sf), build_size_biased_distribution(c)]
        return [d._sample_tail(np.random.default_rng(20260), 2**20) for d in laws]

    def normalized_target(d, k):
        if d._exact_tail is not None:
            nu = CONST.nu
            c = CONST.a0 / coeffs[0][1].total_rate / abs(math.gamma(-1.0 - nu))
            return c * _binomial_tail_gammaln(nu, k) / d.tail_mass
        return k ** (-d.tail_exponent) / float(zeta(d.tail_exponent, d.tail_cutoff + 1))

    plain = tail_draws()
    monkeypatch.setattr(OffspringDistribution, "_tail_target", normalized_target)
    normalized = tail_draws()
    for a, b in zip(plain, normalized):
        assert np.array_equal(a, b)
