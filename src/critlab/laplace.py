"""Numerical inversion of Laplace transforms on the positive half line.

Two independent classical methods are provided so callers can cross-check
(``asymptotics.d_limit`` runs both at every point):

* fixed Talbot: deformed Bromwich contour sampled at M = 48 nodes; handles
  transforms with a branch cut along the negative real axis (our case).
* Gaver-Stehfest: purely real sampling at N = 16 points with alternating
  binomial weights; it loses roughly one digit per two terms in double
  precision, so N is kept moderate.

Both take a callable F(p) of a (possibly complex) Laplace variable and a
positive evaluation point.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = ["talbot", "gaver_stehfest"]

_TALBOT_NODES = 48
_GS_TERMS = 16
_GS_HALF = _GS_TERMS // 2

# Stehfest's weights V_k = (-1)**(k+H)/H! * sum_j j**(H+1) C(H,j) C(2j,j) C(j,k-j),
# H = N/2, summed in integers: the one true division rounds each correctly
_GS_WEIGHTS = np.array([
    (-1) ** (k + _GS_HALF) * sum(
        j ** (_GS_HALF + 1) * math.comb(_GS_HALF, j) * math.comb(2 * j, j) * math.comb(j, k - j)
        for j in range((k + 1) // 2, min(k, _GS_HALF) + 1)
    ) / math.factorial(_GS_HALF)
    for k in range(1, _GS_TERMS + 1)
])


def talbot(F, x: float) -> float:
    """Fixed-Talbot inversion of F at x > 0 with M = 48 contour nodes."""
    if x <= 0.0:
        raise ValueError(f"talbot requires x > 0, got {x}")
    M = _TALBOT_NODES
    r = 2.0 * M / (5.0 * x)
    acc = 0.5 * complex(F(r)).real * math.exp(r * x)
    for k in range(1, M):
        phi = k * math.pi / M
        cot = 1.0 / math.tan(phi)
        p = r * phi * complex(cot, 1.0)
        sigma = phi + (phi * cot - 1.0) * cot
        acc += (cmath.exp(x * p) * complex(F(p)) * complex(1.0, sigma)).real
    return acc * r / M


def gaver_stehfest(F, x: float) -> float:
    """Gaver-Stehfest inversion of F at x > 0 with N = 16 terms."""
    if x <= 0.0:
        raise ValueError(f"gaver_stehfest requires x > 0, got {x}")
    ln2_over_x = math.log(2.0) / x
    vals = np.array([float(F(ln2_over_x * k)) for k in range(1, _GS_TERMS + 1)])
    return ln2_over_x * float(np.dot(_GS_WEIGHTS, vals))
