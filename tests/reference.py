"""Independent reference routes that only the tests compare against.

No module under ``src`` imports this one. Each route computes, by other
numerics, a quantity that ``critlab`` has a production route for: here the
invariant measure M(s) by quadrature and the time change of the level 1/R
built on it, a quadrature-and-brentq route to 1/q(t) next to ``exact_R``,
and the one-point-at-a-time Laplace inversions, a scalar Python node sum
with ``cmath``/``math`` next to ``laplace``'s array sums. The functions take
valid inputs only.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from critlab import ScaleFunction, SolverError
from critlab.laplace import _GS_TERMS, _GS_WEIGHTS, _TALBOT_NODES


def invariant_measure_M(sf: ScaleFunction, s: float) -> float:
    """Generating function of the invariant measure, 0 <= s < 1.

    Adaptive quadrature of integral_1^{1/(1-s)} dx / (x**(1-nu) * sv(x)),
    carried out in log space, relative tolerance 1e-10. M(0) = 0.
    """
    if s == 0.0:
        return 0.0
    vmax = -math.log1p(-s)  # log of the upper endpoint 1/(1-s)
    nu = sf.nu

    def integrand(v):
        x = math.exp(v)
        return x**nu / sf.sv(x)

    val, _ = quad(integrand, 0.0, vmax, epsabs=1e-15, epsrel=1e-10, limit=200)
    if not math.isfinite(val):
        raise SolverError(f"invariant measure quadrature failed at s={s}")
    return float(val)


def time_to_level(sf: ScaleFunction, x: float) -> float:
    """Elapsed time for 1/R to climb from 1 to x >= 1 along the backward flow.

    Equals M(1 - 1/x): the invariant-measure value advances linearly in
    time along the flow, so this is the exact time change of the level.
    Strictly increasing on x >= 1 with value 0 at x = 1.
    """
    return invariant_measure_M(sf, 1.0 - 1.0 / x)


def level_at_time(sf: ScaleFunction, y: float) -> float:
    """Monotone inverse of time_to_level at y >= 0: 1/R(y; 0)."""
    if y == 0.0:
        return 1.0
    hi = 2.0
    for _ in range(600):
        if time_to_level(sf, hi) >= y:
            break
        hi *= 4.0
    else:
        raise SolverError(f"level_at_time could not bracket y={y}")
    return float(brentq(lambda x: time_to_level(sf, x) - y, 1.0, hi, rtol=8.9e-16, maxiter=200))


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
