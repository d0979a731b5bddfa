"""Power-series utilities checked against direct polynomial arithmetic."""

import numpy as np
import pytest
from scipy.special import binom

from critlab import _series


def test_binom_series_matches_scipy():
    alpha = 1.5
    c = _series.binom_series(alpha, 10)
    expect = [(-1.0) ** j * binom(alpha, j) for j in range(11)]
    assert np.allclose(c, expect, rtol=1e-14, atol=0)


def test_mul_truncates_exactly():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0])
    out = _series.mul(a, b, 3)
    # (1 + 2s + 3s^2)(4 + 5s) = 4 + 13s + 22s^2 + 15s^3
    assert np.allclose(out, [4.0, 13.0, 22.0, 15.0])


def test_div_inverts_mul():
    rng = np.random.default_rng(0)
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    b[0] = 2.0
    q = _series.div(_series.mul(a, b, 11), b, 11)
    assert np.allclose(q, a, rtol=1e-11, atol=1e-12)


def test_div_rejects_non_unit():
    with pytest.raises(ZeroDivisionError):
        _series.div(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_powf_matches_binomial():
    # (1 - s)^0.7 through powf on the series of (1 - s)
    y = np.zeros(16)
    y[0], y[1] = 1.0, -1.0
    w = _series.powf(y, 0.7)
    assert np.allclose(w, _series.binom_series(0.7, 15), rtol=1e-13, atol=1e-15)


def test_powf_integer_power_matches_convolution():
    rng = np.random.default_rng(3)
    y = rng.uniform(0.1, 1.0, size=10)
    w = _series.powf(y, 3.0)
    direct = _series.mul(_series.mul(y, y, 9), y, 9)
    assert np.allclose(w, direct, rtol=1e-12, atol=1e-12)


def test_integrate_and_eval():
    I = np.array([0.0, 1.0, 1.0])  # s + s^2
    assert _series.eval_series(I, 0.5) == pytest.approx(0.75)
