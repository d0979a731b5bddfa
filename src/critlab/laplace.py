"""Numerical inversion of Laplace transforms on the positive half line.

Two independent classical methods are provided so callers can cross-check
(``asymptotics.d_limit`` runs both on its whole grid, one call each):

* fixed Talbot: deformed Bromwich contour sampled at M = 48 nodes; handles
  transforms with a branch cut along the negative real axis (our case).
* Gaver-Stehfest: purely real sampling at N = 16 points with alternating
  binomial weights; it loses roughly one digit per two terms in double
  precision, so N is kept moderate.

Both take a callable F(p) that maps a numpy array of (possibly complex)
Laplace variables elementwise, and a positive evaluation point or array of
points. F is called on every point's nodes at once, so one call inverts a
whole grid; a scalar x gives a float, an array x an array of its shape.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["talbot", "gaver_stehfest"]

_TALBOT_NODES = 48
_GS_TERMS = 16
_GS_HALF = _GS_TERMS // 2

# Talbot's contour p = r*z_k, z_k = phi_k*(cot phi_k + i), phi_k = k*pi/M,
# k = 1..M-1, with weights 1 + i*sigma_k, sigma_k = phi_k + (phi_k*cot phi_k - 1)*cot phi_k
_PHI = np.arange(1, _TALBOT_NODES) * math.pi / _TALBOT_NODES
_COT = 1.0 / np.tan(_PHI)
_TALBOT_Z = _PHI * _COT + 1j * _PHI
_TALBOT_W = 1.0 + 1j * (_PHI + (_PHI * _COT - 1.0) * _COT)

# Stehfest's weights V_k = (-1)**(k+H)/H! * sum_j j**(H+1) C(H,j) C(2j,j) C(j,k-j),
# H = N/2, summed in integers: the one true division rounds each correctly
_GS_WEIGHTS = np.array([
    (-1) ** (k + _GS_HALF) * sum(
        j ** (_GS_HALF + 1) * math.comb(_GS_HALF, j) * math.comb(2 * j, j) * math.comb(j, k - j)
        for j in range((k + 1) // 2, min(k, _GS_HALF) + 1)
    ) / math.factorial(_GS_HALF)
    for k in range(1, _GS_TERMS + 1)
])
_GS_K = np.arange(1.0, _GS_TERMS + 1.0)


def _points(x, name: str) -> np.ndarray:
    """x as a (len, 1) float column; refuses any x that is not > 0 (nan too)."""
    xs = np.asarray(x, dtype=float)
    if not np.all(xs > 0.0):
        raise ValueError(f"{name} requires x > 0, got {x}")
    return xs.reshape(-1, 1)


def _shaped(vals: np.ndarray, x):
    return float(vals[0]) if np.ndim(x) == 0 else vals.reshape(np.shape(x))


def talbot(F, x):
    """Fixed-Talbot inversion of F at x > 0 with M = 48 contour nodes.

    F is called twice: on the real column r = 2M/(5x) and on the complex
    (len x, M-1) array of contour nodes r*z_k.
    """
    xs = _points(x, "talbot")
    r = 2.0 * _TALBOT_NODES / (5.0 * xs)
    p = r * _TALBOT_Z
    terms = p * xs
    np.exp(terms, out=terms)
    terms *= F(p)
    terms *= _TALBOT_W
    r, xs = r[:, 0], xs[:, 0]
    acc = terms.real.sum(axis=1) + 0.5 * np.real(F(r)) * np.exp(r * xs)
    return _shaped(acc * r / _TALBOT_NODES, x)


def gaver_stehfest(F, x):
    """Gaver-Stehfest inversion of F at x > 0 with N = 16 terms.

    F is called once, on the real (len x, N) array (ln 2/x)*k, k = 1..N.
    """
    xs = _points(x, "gaver_stehfest")
    ln2_over_x = math.log(2.0) / xs
    vals = F(ln2_over_x * _GS_K)
    # an elementwise product and a row sum, not a BLAS call, so the bits do
    # not depend on the thread count
    return _shaped(ln2_over_x[:, 0] * np.sum(vals * _GS_WEIGHTS, axis=1), x)
