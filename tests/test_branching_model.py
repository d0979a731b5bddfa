"""Mechanism coefficients and offspring sampling.

Coefficient expectations come from two independent routes: the binomial
recurrence (asserted values) and Cauchy-integral extraction on a complex
circle (cross-check oracle).
"""

import math

import numpy as np
import pytest

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
from critlab.branching_model import AliasTable

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
    assert CONST.f(0.0) == pytest.approx(1.0)
    assert CONST.f(0.75) == pytest.approx(0.25**1.5)
    assert BINARY.f(0.5) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        CONST.f(1.0)


def test_f_vanishes_at_one():
    for sf in (CONST, COUPLED_OK, BINARY):
        assert sf.f(1.0 - 1e-12) < 1e-11


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
        assert abs(approx - CONST.f(s)) <= 2.0 * c.mass_deficit


def test_criticality_and_infinite_variance():
    # slope at 1- tends to 0; second difference quotient diverges
    hs = np.array([1e-2, 1e-4, 1e-6])
    slopes = [CONST.f(1.0 - h) / h for h in hs]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] < 1e-2
    curls = [CONST.f(1.0 - h) / h**2 for h in hs]
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


def test_distribution_validation():
    with pytest.raises(ParameterError):
        OffspringDistribution(
            probs=np.array([0.5, 0.0, 0.4]), tail_cutoff=2, tail_exponent=2.5,
            tail_mass=0.5, total_rate=1.0,
        )
