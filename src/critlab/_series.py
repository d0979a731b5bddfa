"""Truncated power-series arithmetic on numpy coefficient vectors.

A series is a 1-d float64 array ``c`` representing ``sum_j c[j] * s**j``
truncated after ``len(c) - 1``. All binary operations truncate the result to
the shorter operand's order, which is exact for the leading coefficients:
multiplication, division by a unit, and fractional powers of a unit are all
triangular in the coefficient index.
"""

from __future__ import annotations

import numpy as np


def binom_series(alpha: float, order: int) -> np.ndarray:
    """Coefficients of (1 - s)**alpha up to ``order``.

    Uses the stable ratio recurrence c[j+1] = c[j] * (j - alpha) / (j + 1);
    coefficients alternate against the binomial sign so every entry is the
    signed coefficient of s**j.
    """
    c = np.empty(order + 1)
    c[0] = 1.0
    for j in range(order):
        c[j + 1] = c[j] * (j - alpha) / (j + 1)
    return c


def mul(a: np.ndarray, b: np.ndarray, order: int | None = None) -> np.ndarray:
    """Product of two series truncated to ``order`` (default: shorter input)."""
    if order is None:
        order = min(len(a), len(b)) - 1
    n = order + 1
    full = np.convolve(a, b)
    out = np.zeros(n)
    m = min(n, len(full))
    out[:m] = full[:m]
    return out


def div(a: np.ndarray, b: np.ndarray, order: int | None = None) -> np.ndarray:
    """Series quotient a / b; requires b[0] != 0."""
    if b[0] == 0.0:
        raise ZeroDivisionError("series division by a non-unit (b[0] == 0)")
    if order is None:
        order = min(len(a), len(b)) - 1
    n = order + 1
    aa = np.zeros(n)
    aa[: min(n, len(a))] = a[: min(n, len(a))]
    bb = np.zeros(n)
    bb[: min(n, len(b))] = b[: min(n, len(b))]
    c = np.empty(n)
    c[0] = aa[0] / bb[0]
    for k in range(1, n):
        c[k] = (aa[k] - np.dot(bb[1 : k + 1], c[k - 1 :: -1])) / bb[0]
    return c


def powf(y: np.ndarray, alpha: float, order: int | None = None) -> np.ndarray:
    """Fractional power y**alpha of a series with y[0] > 0.

    Classical logarithmic-derivative recurrence: with w = y**alpha,
    y * w' = alpha * w * y', giving

        n * y[0] * w[n] = sum_{k=1..n} (k * (alpha + 1) - n) * y[k] * w[n-k].
    """
    if y[0] <= 0.0:
        raise ZeroDivisionError("fractional power of a series with y[0] <= 0")
    if order is None:
        order = len(y) - 1
    n = order + 1
    yy = np.zeros(n)
    yy[: min(n, len(y))] = y[: min(n, len(y))]
    ky = np.arange(n) * yy
    w = np.empty(n)
    w[0] = y[0] ** alpha
    for m in range(1, n):
        s1 = np.dot(ky[1 : m + 1], w[m - 1 :: -1])
        s2 = np.dot(yy[1 : m + 1], w[m - 1 :: -1])
        w[m] = ((alpha + 1.0) * s1 - m * s2) / (m * y[0])
    return w


def eval_series(c: np.ndarray, s: float) -> float:
    """Horner evaluation at a scalar point."""
    acc = 0.0
    for coef in c[::-1]:
        acc = acc * s + coef
    return acc
