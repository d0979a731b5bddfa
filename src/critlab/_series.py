"""Truncated power-series arithmetic on numpy coefficient vectors.

A series is a 1-d float64 array ``c`` representing ``sum_j c[j] * s**j``
truncated after ``len(c) - 1``. All binary operations truncate the result to
the shorter operand's order, which is exact for the leading coefficients:
multiplication, division by a unit, and fractional powers of a unit are all
triangular in the coefficient index.

The product is a direct convolution. The quotient, the fractional power and
``square_ratio``, k*p**2/(a - d*p), solve lower-triangular linear systems in
the coefficients by blocked forward substitution on numpy alone, each in its
own loop over blocks of rows: a block subtracts the columns already solved
(``_history``, a compiled convolution), then solves its small diagonal block,
built from the lower-triangular Toeplitz blocks of ``_toeplitz``. ``div`` and
``powf`` substitute row by row (``_solve_block``), which is far more accurate
than the block's condition number suggests, as ``div(1, f)`` needs for an f
that vanishes at s = 1. ``square_ratio``, the hot kernel, multiplies each
block by the inverse of its one diagonal block T(a - d*p), which is well
conditioned (|a - d*p| >= d0 on the unit disc), and never forms k*p**2 in full.
"""

from __future__ import annotations

import numpy as np

# rows per block of the triangular solves in div, powf and square_ratio
_BLOCK = 64
# longest dot product in a product or history term; OpenBLAS (x86_64)
# splits a dot product longer than 10000 terms over its threads
_DOT_CHUNK = 8192
# lag i - j of entry (i, j) of a diagonal block
_LAG = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
# blocks per matrix product in square_ratio: m*n*k = 32*64*64 = 2**17, half the
# size at which OpenBLAS (x86_64) splits a GEMM over its threads; its 64x64
# block solves are GEMVs, m*n = 4096 below OpenBLAS's split at 2304 * 4
_GEMM_ROWS = 32


def binom_series(alpha: float, order: int) -> np.ndarray:
    """Coefficients of (1 - s)**alpha up to ``order``.

    Uses the stable ratio recurrence c[j+1] = c[j] * (j - alpha) / (j + 1);
    coefficients alternate against the binomial sign so every entry is the
    signed coefficient of s**j.
    """
    # Python floats are IEEE doubles, so the list gives the bits numpy
    # scalars would, without their per-element indexing cost
    c = [1.0] * (order + 1)
    for j in range(order):
        c[j + 1] = c[j] * (j - alpha) / (j + 1)
    return np.array(c)


def mul(a: np.ndarray, b: np.ndarray, order: int | None = None) -> np.ndarray:
    """Product of two series truncated to ``order`` (default: shorter input).

    Summed over column chunks of ``_DOT_CHUNK`` coefficients of b in a fixed
    order, like ``_history``, so no dot product is long enough for OpenBLAS
    to thread it and the result does not depend on the BLAS thread count.
    """
    if order is None:
        order = min(len(a), len(b)) - 1
    n = order + 1
    out = np.zeros(n)
    for c0 in range(0, min(n, len(b)), _DOT_CHUNK):
        part = np.convolve(a[: n - c0], b[c0 : c0 + _DOT_CHUNK])
        m = min(n - c0, len(part))
        out[c0 : c0 + m] += part[:m]
    return out


def div(a: np.ndarray, b: np.ndarray, order: int | None = None) -> np.ndarray:
    """Series quotient a / b; requires b[0] != 0.

    The quotient c solves the lower-triangular Toeplitz system
    sum_{m<=n} b[n-m] * c[m] = a[n], i.e. the recurrence

        b[0] * c[n] = a[n] - sum_{k=1..n} b[k] * c[n-k],

    solved by blocks of rows, whose diagonal block is always T(b).
    """
    if b[0] == 0.0:
        raise ZeroDivisionError("series division by a non-unit (b[0] == 0)")
    if order is None:
        order = min(len(a), len(b)) - 1
    n = order + 1
    aa = _padded(a, n)
    bb = _padded(b, n)
    c = np.empty(n)
    c[0] = aa[0] / bb[0]
    B = min(_BLOCK, n)
    T = _toeplitz(bb, B)
    for s in range(1, n, B):
        e = min(s + B, n)
        c[s:e] = _solve_block(T[: e - s, : e - s], aa[s:e] - _history(bb, c, s, e), s)
    return c


def powf(y: np.ndarray, alpha: float, order: int | None = None) -> np.ndarray:
    """Fractional power y**alpha of a series with y[0] > 0.

    Classical logarithmic-derivative recurrence: with w = y**alpha,
    y * w' = alpha * w * y', giving

        n * y[0] * w[n] = sum_{k=1..n} (k * (alpha + 1) - n) * y[k] * w[n-k].

    With w[0] = y[0]**alpha, rows n >= 1 form the lower-triangular system
    sum_{m<=n} (n * y[n-m] - (alpha + 1) * (n-m) * y[n-m]) * w[m] = 0,
    solved by blocks of rows: with z[j] = -(alpha + 1) * j * y[j], the
    diagonal block at row s is T(y) with row i scaled by s + i, plus T(z).
    """
    if y[0] <= 0.0:
        raise ZeroDivisionError("fractional power of a series with y[0] <= 0")
    if order is None:
        order = len(y) - 1
    n = order + 1
    yy = _padded(y, n)
    k = np.arange(n, dtype=float)
    z = -(alpha + 1.0) * k * yy
    w = np.empty(n)
    w[0] = y[0] ** alpha
    B = min(_BLOCK, n)
    Ty, Tz = _toeplitz(yy, B), _toeplitz(z, B)
    for s in range(1, n, B):
        e = min(s + B, n)
        m = e - s
        rhs = 0.0 - k[s:e] * _history(yy, w, s, e) - _history(z, w, s, e)
        w[s:e] = _solve_block(k[s:e, None] * Ty[:m, :m] + Tz[:m, :m], rhs, s)
    return w


def square_ratio(p: np.ndarray, k: float, a: float, d: float, order: int) -> np.ndarray:
    """Series g = k * p**2 / (a - d*p) to ``order``; requires a - d*p[0] != 0.

    With h = d*g + k*p, a*g = p*h, so row n reads

        (a - d*p[0]) * g[n] - d * sum_{m<n} p[n-m] * g[m] = k * sum_{m<=n} p[n-m] * p[m],

    solved by blocks of rows like ``div`` and ``powf``.
    A block's history, the rows already solved, is the one convolution
    ``_history(p, h, s, e)``: it carries both the d*g and the k*p*p columns.
    The part of k*p*p inside each block is a row of p's block times the
    upper-triangular Toeplitz block of p, and all blocks' rows are made
    before the loop by one stacked ``np.matmul`` of ``_GEMM_ROWS`` x
    ``_BLOCK`` x ``_BLOCK`` GEMMs, too small for OpenBLAS to thread. Each
    diagonal block T(a - d*p) is solved by one inverse, the Toeplitz matrix of
    1/(a - d*p)'s head (``_reciprocal_head``). So the full product k*p*p,
    which a ``mul`` would form to order 2*order, is never formed.
    """
    n = order + 1
    pp = _padded(p, n)
    den0 = a - d * pp[0]
    if den0 == 0.0:
        raise ZeroDivisionError("series division by a non-unit (a - d*p[0] == 0)")
    g = np.empty(n)
    g[0] = k * pp[0] * pp[0] / den0
    B = min(_BLOCK, n)
    # p[1:] cut into one row of B per block of the solve, zero-padded to whole GEMMs
    nb = -(-(n - 1) // B)
    X = np.zeros((-(-nb // _GEMM_ROWS), _GEMM_ROWS, B))
    X.reshape(-1)[: n - 1] = pp[1:]
    # within[s - 1 + i] = k * sum_{s<=m<=s+i} p[s+i-m] * p[m] for the block at row s
    within = np.matmul(X, k * _toeplitz(pp, B).T).reshape(-1)
    den = -d * pp[:B]
    den[0] = den0
    inv = _toeplitz(_reciprocal_head(den), B)
    h = k * pp
    h[0] += d * g[0]
    for s in range(1, n, B):
        e = min(s + B, n)
        m = e - s
        rhs = _history(pp, h, s, e)
        rhs += within[s - 1 : e - 1]
        g[s:e] = sol = np.matmul(inv[:m, :m], rhs)
        h[s:e] += d * sol
    return g


def _reciprocal_head(b):
    """The first len(b) coefficients of 1/b by Newton doubling: with r right
    to L terms, b*r = 1 + e*s**L + ..., and each step forms only the new half
    r[L:2L] = -(r*e)[:L]."""
    n = len(b)
    r = np.zeros(n)
    r[0] = 1.0 / b[0]
    L = 1
    while L < n:
        M = min(2 * L, n)
        e = np.convolve(b[1:M], r[:L], "valid")
        r[L:M] = -np.convolve(r[: M - L], e)[: M - L]
        L = M
    return r


def _padded(c: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of c, zero-padded past its end."""
    out = np.zeros(n)
    m = min(n, len(c))
    out[:m] = c[:m]
    return out


def _toeplitz(p, B):
    """The B x B lower-triangular Toeplitz block of p, T[i, j] = p[i - j].
    A -0.0 in p enters as +0.0 (0.0 + p): numpy's one-term dot keeps a
    -0.0, whose sign would reach zeros of ``_solve_block``'s result."""
    v = np.zeros(2 * B - 1)
    v[:B] += p[:B]
    return v[_LAG[:B, :B]]  # a negative lag i - j reads the zero tail of v


def _solve_block(A, rhs, s):
    """The solution of A @ x = rhs for a lower-triangular diagonal block A
    whose first row is row s of the whole system, by forward substitution
    row by row (bit for bit with LAPACK ``trtrs``); rhs is overwritten."""
    diag = A.diagonal().tolist()
    if 0.0 in diag:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {s + diag.index(0.0)}"
        )
    for j, a in enumerate(diag):
        rhs[j] = (rhs[j] - A[j, :j].dot(rhs[:j])) / a
    return rhs


def _history(p, x, s, e):
    """sum_{m<s} p[i-m] * x[m] for rows i in [s, e).

    Summed over column chunks of ``_DOT_CHUNK`` in a fixed order, so every
    dot product stays shorter than the length at which OpenBLAS splits it
    over threads, and the result does not depend on the BLAS thread count.
    """
    if s <= _DOT_CHUNK:
        # one chunk, so its convolution is the sum. Adding it to a zero vector
        # would only turn a -0.0 entry into +0.0, and there is none: numpy's
        # dot loop, which forms each output of np.convolve, starts its sum at
        # +0.0, and +0.0 + (-0.0) is +0.0. So the bits are the same.
        return np.convolve(p[1:e], x[:s], "valid")
    h = np.zeros(e - s)
    for c0 in range(0, s, _DOT_CHUNK):
        c1 = min(c0 + _DOT_CHUNK, s)
        h += np.convolve(p[s - c1 + 1 : e - c0], x[c0:c1], "valid")
    return h
