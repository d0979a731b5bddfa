"""Power-series utilities checked against direct polynomial arithmetic,
closed forms and a 50-digit mpmath recurrence."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError
from scipy.special import binom

from critlab import _series


def test_binom_series_matches_scipy():
    alpha = 1.5
    c = _series.binom_series(alpha, 10)
    expect = [(-1.0) ** j * binom(alpha, j) for j in range(11)]
    assert np.allclose(c, expect, rtol=1e-14, atol=0)


@given(alpha=st.floats(-3.0, 3.0), order=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_binom_series_matches_the_numpy_scalar_recurrence(alpha, order):
    # the recurrence runs on Python floats; numpy float64 scalars give the
    # same IEEE doubles
    c = np.empty(order + 1)
    c[0] = 1.0
    for j in range(order):
        c[j + 1] = c[j] * (j - alpha) / (j + 1)
    out = _series.binom_series(alpha, order)
    assert out.dtype == np.float64
    assert out.tobytes() == c.tobytes()


def test_mul_truncates_exactly():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0])
    out = _series.mul(a, b, 3)
    # (1 + 2s + 3s^2)(4 + 5s) = 4 + 13s + 22s^2 + 15s^3
    assert np.allclose(out, [4.0, 13.0, 22.0, 15.0])


def test_mul_is_exact_on_long_integer_series():
    # integer-valued products stay below 2**53, so the convolution is exact
    rng = np.random.default_rng(5)
    a = rng.integers(0, 10, size=4096)
    b = rng.integers(0, 10, size=4096)
    out = _series.mul(a.astype(float), b.astype(float))
    assert np.array_equal(out, np.convolve(a, b)[:4096].astype(float))


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


# the long order spans three column chunks of a history term
LONG_ORDERS = (15, 2 * _series._DOT_CHUNK + 5)


def test_powf_matches_binomial():
    # (1 - s)^0.7 through powf on the series of (1 - s)
    for order in LONG_ORDERS:
        y = np.zeros(order + 1)
        y[0], y[1] = 1.0, -1.0
        w = _series.powf(y, 0.7)
        assert np.allclose(w, _series.binom_series(0.7, order), rtol=1e-13, atol=1e-15)


def test_div_matches_binomial():
    # (1 - s)^1.1 / (1 - s)^0.4 = (1 - s)^0.7
    for order in LONG_ORDERS:
        q = _series.div(_series.binom_series(1.1, order), _series.binom_series(0.4, order))
        assert np.allclose(q, _series.binom_series(0.7, order), rtol=1e-11, atol=0)


def test_powf_integer_power_matches_convolution():
    rng = np.random.default_rng(3)
    y = rng.uniform(0.1, 1.0, size=10)
    w = _series.powf(y, 3.0)
    direct = _series.mul(_series.mul(y, y, 9), y, 9)
    assert np.allclose(w, direct, rtol=1e-12, atol=1e-12)


B = _series._BLOCK
EDGE_ORDERS = (0, 1, B - 1, B, B + 1, 2 * B + 3)


def _mp_powf(y, alpha, n):
    """w = y**alpha by the recurrence at 50 digits, with the majorant of |w|.

    The majorant runs the same recurrence with every coefficient
    k*(alpha+1) - n replaced by k*|alpha+1| + n, the size of the products it
    is formed from, so it bounds how far float64 rounding can move each
    coefficient (at small alpha those products cancel).
    """
    with mpmath.workdps(50):
        yy = [mpmath.mpf(float(v)) for v in y[:n]] + [mpmath.mpf(0)] * max(0, n - len(y))
        a1 = mpmath.mpf(float(alpha)) + 1
        w = [yy[0] ** mpmath.mpf(float(alpha))]
        bound = [w[0]]
        for m in range(1, n):
            w.append(
                mpmath.fsum((k * a1 - m) * yy[k] * w[m - k] for k in range(1, m + 1)) / (m * yy[0])
            )
            bound.append(
                mpmath.fsum((k * abs(a1) + m) * abs(yy[k]) * bound[m - k] for k in range(1, m + 1))
                / (m * yy[0])
            )
        return np.array(w, dtype=float), np.array(bound, dtype=float)


def _mp_div(a, b, n):
    """c = a / b by the recurrence at 50 digits, with the majorant of |c|."""
    with mpmath.workdps(50):
        aa = [mpmath.mpf(float(v)) for v in a[:n]] + [mpmath.mpf(0)] * max(0, n - len(a))
        bb = [mpmath.mpf(float(v)) for v in b[:n]] + [mpmath.mpf(0)] * max(0, n - len(b))
        c, bound = [], []
        for m in range(n):
            c.append((aa[m] - mpmath.fsum(bb[k] * c[m - k] for k in range(1, m + 1))) / bb[0])
            bound.append(
                (abs(aa[m]) + mpmath.fsum(abs(bb[k]) * bound[m - k] for k in range(1, m + 1)))
                / abs(bb[0])
            )
        return np.array(c, dtype=float), np.array(bound, dtype=float)


@st.composite
def decaying_series(draw, order):
    """c[0] in [0.5, 2] and |c[k]| <= c[0] * r**k with r in [0, 0.9].

    Its length lies below, at or above order + 1, so the kernels both
    truncate and zero-pad it.
    """
    length = draw(st.sampled_from(sorted({max(1, order - 3), order + 1, order + 6})))
    head = draw(st.floats(0.5, 2.0))
    r = draw(st.floats(0.0, 0.9))
    seed = draw(st.integers(0, 2**32 - 1))
    c = head * np.random.default_rng(seed).uniform(-1.0, 1.0, size=length) * r ** np.arange(length)
    c[0] = head
    return c


def _assert_within_rounding(got, ref, bound):
    # relative rounding on the majorant, plus an absolute floor for the
    # subnormal range, where each operation can be off by a subnormal unit
    n = np.arange(1, len(ref) + 1)
    fin = np.finfo(float)
    assert np.all(np.abs(got - ref) <= 8.0 * n * (fin.eps * bound + fin.tiny))


@given(order=st.sampled_from(EDGE_ORDERS), alpha=st.floats(-2.0, 3.0), data=st.data())
@settings(max_examples=12, deadline=None)
def test_powf_matches_mpmath_recurrence(order, alpha, data):
    y = data.draw(decaying_series(order))
    w = _series.powf(y, alpha, order)
    assert w.shape == (order + 1,)
    ref, bound = _mp_powf(y, alpha, order + 1)
    _assert_within_rounding(w, ref, bound)


@given(order=st.sampled_from(EDGE_ORDERS), data=st.data())
@settings(max_examples=12, deadline=None)
def test_div_matches_mpmath_recurrence(order, data):
    a = data.draw(decaying_series(order))
    b = data.draw(decaying_series(order))
    c = _series.div(a, b, order)
    assert c.shape == (order + 1,)
    ref, bound = _mp_div(a, b, order + 1)
    _assert_within_rounding(c, ref, bound)


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from critlab import Family, ModelParams, _series, d_limit, make_scale_function
from critlab.kolmogorov_engine import SeriesState, evolve_series, transition_matrix
n = 2**15
y = _series.binom_series(0.5, n) + 0.5 ** np.arange(n + 1)
a = _series.binom_series(-1.3, n)
for out in (_series.powf(y, 1.5), _series.div(a, y), _series.mul(y, y)):
    print(hashlib.sha256(out.tobytes()).hexdigest())
# a synthetic state: F(s) = 1 - (1 - s)**0.5 at J = 1024
F = -_series.binom_series(0.5, 1024)
F[0] = 0.0
print(hashlib.sha256(transition_matrix(SeriesState(1.0, F)).tobytes()).hexdigest())
# the limit law, inverted in one Talbot and one Gaver-Stehfest call
print(hashlib.sha256(d_limit(0.5, np.logspace(-6, 14, 801))[0].tobytes()).hexdigest())
# the series engine's coefficients, evolved in p = (1 - F)**nu
sf = make_scale_function(ModelParams(0.5, 1.0, Family.COUPLED_DRIFT))
print(hashlib.sha256(evolve_series(sf, 1024, 1.0).coeffs.tobytes()).hexdigest())
"""


def test_kernels_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product longer than 10000 terms over its threads,
    # which changes the summation order; order 2**15 reaches that length.
    # transition_matrix at J = 1024 runs a thousand products per call, the
    # series engine a div and a mul per right-hand side, and
    # d_limit's Gaver-Stehfest row sums must not become a BLAS product.
    src = str(Path(_series.__file__).resolve().parents[1])
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", _DIGEST_SCRIPT], env=env, stdout=subprocess.PIPE, text=True
            )
        )
    try:
        outs = [p.communicate(timeout=120)[0] for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0, 0]
    assert len(outs[0].split()) == 6
    assert outs[0] == outs[1]


def test_div_memory_is_linear_in_order():
    # a dense system matrix at order 2**15 would take 8 GB
    n = 2**15
    b = _series.binom_series(0.5, n)
    a = np.ones(n + 1)
    tracemalloc.start()
    try:
        _series.div(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# sha256 of the kernels' float64 output bytes, recorded with numpy 2.4.6,
# scipy 1.17.1 and OpenBLAS 0.3.31 on x86_64; a change to the solves that
# moves any bit moves a digest
KERNEL_DIGESTS = {
    ("powf", 1024): "2b4624c1a47a068b86cb3e1f7addae114602f6b822224a62d1171b55434c20a5",
    ("div", 1024): "3d4ee2a906d41db09694041ab1bc6ed21b993bb952a96cdf054071620978d352",
    ("powf", 4096): "fbe800eb91e7fa8d2db8b7c308e4a5cd267a73440abb71c78218ad220a9cc732",
    ("div", 4096): "0b4dbddfc3397a22ea36f7d0139646fe0727385960ff846a31a619d5305ff7f8",
}


@pytest.mark.parametrize("kernel, n", sorted(KERNEL_DIGESTS))
def test_kernels_match_frozen_digests(kernel, n):
    y = _series.binom_series(0.5, n) + 0.5 ** np.arange(n + 1)
    if kernel == "powf":
        out = _series.powf(y, 1.5)
    else:
        out = _series.div(_series.binom_series(-1.3, n), y)
    assert hashlib.sha256(out.tobytes()).hexdigest() == KERNEL_DIGESTS[kernel, n]


def test_singular_diagonal_block_raises():
    # the public kernels check their unit, so a zero pivot only reaches the
    # solve directly: row 100 (in the second block) has a zero row scale
    n = 3 * _series._BLOCK
    d = np.ones(n)
    d[100] = 0.0
    x = np.zeros(n)
    x[0] = 1.0
    with pytest.raises(LinAlgError, match="diagonal 100"):
        _series._lower_triangular_solve(x, np.ones(n), [(d, 0.5 ** np.arange(n))])
    # an unscaled term with a zero leading coefficient is singular in the
    # first block
    with pytest.raises(LinAlgError, match="diagonal 1$"):
        _series._lower_triangular_solve(x, np.ones(n), [(None, np.arange(n, dtype=float))])
