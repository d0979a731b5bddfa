"""Numerical inversion of Laplace transforms on the positive half line.

Two independent classical methods are provided so callers can cross-check
(``asymptotics.d_limit`` runs both at every point):

* fixed Talbot: deformed Bromwich contour sampled at M nodes; handles
  transforms with a branch cut along the negative real axis (our case).
* Gaver-Stehfest: purely real sampling with alternating binomial weights;
  loses roughly one digit per two terms in double precision, so N is kept
  moderate.

Both take a callable F(p) of a (possibly complex) Laplace variable and a
positive evaluation point.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# scipy.special is imported where it is used (the Gaver-Stehfest weights): it
# costs about 0.2 s at start-up, and the Monte Carlo commands never invert.

__all__ = ["talbot", "gaver_stehfest"]


def talbot(F, x: float, M: int = 48) -> float:
    """Fixed-Talbot inversion of F at x > 0 with M contour nodes."""
    if x <= 0.0:
        raise ValueError(f"talbot requires x > 0, got {x}")
    r = 2.0 * M / (5.0 * x)
    acc = 0.5 * complex(F(r)).real * math.exp(r * x)
    for k in range(1, M):
        phi = k * math.pi / M
        cot = 1.0 / math.tan(phi)
        p = r * phi * complex(cot, 1.0)
        sigma = phi + (phi * cot - 1.0) * cot
        acc += (cmath.exp(x * p) * complex(F(p)) * complex(1.0, sigma)).real
    return acc * r / M


_GS_CACHE: dict[int, np.ndarray] = {}


def _gs_weights(N: int) -> np.ndarray:
    if N % 2:
        raise ValueError("Gaver-Stehfest order must be even")
    if N in _GS_CACHE:
        return _GS_CACHE[N]
    from scipy.special import gammaln

    half = N // 2
    w = np.zeros(N)
    for k in range(1, N + 1):
        acc = 0.0
        for j in range((k + 1) // 2, min(k, half) + 1):
            lg = (
                half * math.log(j)
                + gammaln(2 * j + 1)
                - gammaln(half - j + 1)
                - gammaln(j + 1)
                - gammaln(j)
                - gammaln(k - j + 1)
                - gammaln(2 * j - k + 1)
            )
            acc += math.exp(lg)
        w[k - 1] = (-1.0) ** (k + half) * acc
    _GS_CACHE[N] = w
    return w


def gaver_stehfest(F, x: float, N: int = 16) -> float:
    """Gaver-Stehfest inversion of F at x > 0 with N (even) terms."""
    if x <= 0.0:
        raise ValueError(f"gaver_stehfest requires x > 0, got {x}")
    w = _gs_weights(N)
    ln2_over_x = math.log(2.0) / x
    vals = np.array([float(F(ln2_over_x * k)) for k in range(1, N + 1)])
    return ln2_over_x * float(np.dot(w, vals))

