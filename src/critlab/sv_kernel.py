"""Slowly varying scale machinery behind the critical branching mechanisms.

Every mechanism handled by this package has the shape

    f(1 - y) = y * decay_rate(y),        decay_rate(y) = y**nu * sv(1/y),

for 0 < nu < 1, where ``sv`` is slowly varying at infinity, so the offspring
law is critical with infinite variance. ``decay_rate`` is literally the
instantaneous relative decay rate of the tail of the extinction probability:
d(log R)/dt = -decay_rate(R) along the backward flow.

The local index of ``decay_rate`` drifts away from ``nu`` by

    index_drift(y) = y * decay_rate'(y) / decay_rate(y) - nu,

which tends to 0 as y -> 0, and the elasticity of the slowly varying part is
sv_elasticity(x) = x * sv'(x) / sv(x) = -index_drift(1/x).

Three built-in families provide independent exact oracles:

``constant``
    sv(x) = a0 identically, index_drift = 0. Everything is closed form.

``coupled_drift``
    The index drift coincides with the decay rate itself. Integrating the
    index relation y*D'(y)/D(y) = nu + D(y) with D(1) = a0 gives the unique
    rational closed form

        decay_rate(y) = nu*a0*y**nu / (nu + a0*(1 - y**nu)).

``binary_split``
    ``constant`` at nu = 1: the finite-variance quadratic mechanism
    f(s) = a0*(1-s)**2, the classical baseline. ``ModelParams`` pins nu to 1,
    and the tag maps to the ``constant`` class.

Each family's sv is one ``ScaleFunction`` subclass, and everything that
differs between families lives on it: the closed forms above, the Taylor
coefficients of f, the decay rate of a series p = y**nu, the exact R(t;s)
oracle, the drift-integral oracle, the series of 1/sv, the normalizer, the
second-order term of the survival expansion and, where known, the exact
tail of the jump law. Adding a family means adding one subclass.

The normalizer N(t) used by the survival asymptotics is defined implicitly by
N**nu * sv((nu*t)**(1/nu) / N) = 1, equivalently N = (nu*t)**(1/nu) * y* with
decay_rate(y*) = 1/(nu*t). Every family solves this in closed form
(``ScaleFunction.normalizer``): a0**(-1/nu) for ``constant`` (1/a0 for
``binary_split``) and ((nu + a0)/(a0*(nu + 1/(nu*t))))**(1/nu) for
``coupled_drift``, which never forms y* and so holds at any horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

# No scipy here: the coupled-drift root is a numpy Newton iteration and the
# exact binomial tail takes log-gamma from ``math.lgamma``.

from . import _series
from .errors import DomainError, ParameterError, SolverError

__all__ = [
    "Family",
    "ModelParams",
    "ScaleFunction",
    "make_scale_function",
    "remainder_rho",
    "nu_t_power",
    "solve_normalizer",
    "perturbation_ratio",
]


class Family(str, Enum):
    """Built-in scale-function families."""

    CONSTANT = "constant"
    COUPLED_DRIFT = "coupled_drift"
    BINARY_SPLIT = "binary_split"


@dataclass(frozen=True)
class ModelParams:
    """Tail index, base intensity and family tag; fully determines f.

    ``nu`` must lie in (0, 1) for the two slowly varying families; the
    binary-split baseline pins nu = 1 internally regardless of the input.
    """

    nu: float
    a0: float
    family: Family = Family.CONSTANT

    def __post_init__(self):
        if not (self.a0 > 0.0 and math.isfinite(self.a0)):
            raise ParameterError(f"a0 must be positive and finite, got {self.a0}")
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if fam is Family.BINARY_SPLIT:
            object.__setattr__(self, "nu", 1.0)
        elif not (0.0 < self.nu < 1.0):
            raise ParameterError(
                f"nu must lie in (0, 1) for family {fam.value!r}, got {self.nu}"
            )


class ScaleFunction:
    """Evaluable bundle (sv, decay_rate, index_drift, sv_elasticity) for one family.

    Every hook that raises NotImplementedError here is required, and each
    family supplies it in closed form: ``sv``, ``rate_of_power`` (the decay
    rate as a function of y**nu), ``index_drift``, ``mechanism_series``,
    ``rate_series`` (``rate_of_power`` on a series p), the exact oracles
    ``exact_R`` and ``drift_integral`` that the solvers cross-validate
    against, ``sv_reciprocal_series``, ``normalizer`` and
    ``normalizer_defined``. ``decay_rate``, ``sv_elasticity``, ``f`` and
    ``second_order`` derive from them; ``exact_tail`` is the one hook a
    family may leave out.
    """

    def __init__(self, params: ModelParams):
        self.params = params

    @property
    def nu(self) -> float:
        return self.params.nu

    @property
    def a0(self) -> float:
        return self.params.a0

    @property
    def family(self) -> Family:
        return self.params.family

    # required evaluators -------------------------------------------------
    def sv(self, x):
        """Slowly varying component at infinity, defined on x >= 1."""
        raise NotImplementedError

    def rate_of_power(self, p):
        """The decay rate as a function of p = y**nu: p * sv(p**(-1/nu)).

        Plain arithmetic on p, so a Python float gives a Python float: the
        ODE right-hand side calls it on one float per element, with no
        numpy call, and a float error there raises where numpy would warn.
        """
        raise NotImplementedError

    def decay_rate(self, y):
        """decay_rate(y) = y**nu * sv(1/y) on y in (0, 1]; a float for a 0-d y."""
        val = self.rate_of_power(np.power(y, self.nu))
        return float(val) if np.ndim(val) == 0 else val

    def index_drift(self, y):
        """Local-index deviation of decay_rate at y in (0, 1]."""
        raise NotImplementedError

    def sv_elasticity(self, x):
        """x * sv'(x) / sv(x) = -index_drift(1/x) on x >= 1."""
        return -self.index_drift(1.0 / np.asarray(x, dtype=float))

    def f(self, s):
        """Infinitesimal generating function on [0, 1)."""
        s = np.asarray(s, dtype=float)
        if np.any(s >= 1.0) or np.any(s < 0.0):
            raise DomainError("f(s) requires 0 <= s < 1; the limit at 1- is 0")
        y = 1.0 - s
        val = y * self.decay_rate(y)
        return float(val) if np.ndim(val) == 0 else val

    # series and exact oracles -------------------------------------------
    def mechanism_series(self, J: int) -> np.ndarray:
        """Formal Taylor coefficients a_0..a_J of f(s) (J >= 2, unchecked)."""
        raise NotImplementedError

    def rate_series(self, p: np.ndarray, J: int) -> np.ndarray:
        """``rate_of_power`` in series arithmetic: the coefficients of the
        decay rate as a function of a series p = y**nu, to order J."""
        raise NotImplementedError

    def exact_R(self, y0, t: float):
        """Exact R(t;s) from R(0;s) = y0 = 1 - s in (0, 1], t >= 0 (unchecked).

        y0 is a float (gives a float) or an array (gives its shape); a float
        is computed as the one-element array, so both give the same bits.
        """
        raise NotImplementedError

    def drift_integral(self, y0: float, t: float) -> float:
        """Exact int_0^t index_drift(R(u;s)) du from R(0;s) = y0 (unchecked)."""
        raise NotImplementedError

    def sv_reciprocal_series(self, order: int) -> np.ndarray:
        """Series of 1/sv(1/(1-s)) in powers of s."""
        raise NotImplementedError

    def second_order(self, t: float) -> tuple[float, float]:
        """(num, den) such that the second-order correction of q(t) is -num/den.

        In general num is the accumulated index drift along q(u), u <= t,
        and den = nu**2 * t; a family may substitute a closed form.
        """
        return self.drift_integral(1.0, t), self.nu**2 * t

    def exact_tail(self) -> Callable | None:
        """The jump law's exact tail k -> c * a_k for some c > 0 where a_k has
        a tail, or None when only its power-law envelope is known; never
        evaluated where the sampling table's ``tail_mass`` is 0 (nu = 1)."""
        return None

    # normalizer -----------------------------------------------------------
    def normalizer(self, t: float) -> float:
        """Closed-form N(t) at t > 0 with ``normalizer_defined(t)`` (unchecked).

        Computed in Python floats, so a value past the float range raises
        OverflowError; ``solve_normalizer`` names it.
        """
        raise NotImplementedError

    def normalizer_defined(self, t: float) -> bool:
        """Whether the defining equation of N(t) has a root at t > 0."""
        raise NotImplementedError


class ConstantScale(ScaleFunction):
    """sv(x) = a0; all derived quantities in closed form.

    There is no index drift, 1/sv is the constant 1/a0, and N**nu * a0 = 1
    fixes N(t) for every t > 0. At nu = 1 this is ``binary_split``,
    f(s) = a0*(1-s)**2: the binomial series stops at a_2, so the jump law
    has no tail mass and ``exact_tail`` is never drawn.
    """

    def sv(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.float64(self.a0), x.shape).copy() if x.ndim else float(self.a0)

    def rate_of_power(self, p):
        return self.params.a0 * p

    def index_drift(self, y):
        y = np.asarray(y, dtype=float)
        return np.zeros(y.shape) if y.ndim else 0.0

    def mechanism_series(self, J):
        # a_j = a0 * (-1)**j * C(1+nu, j) by the binomial recurrence
        return self.a0 * _series.binom_series(1.0 + self.nu, J)

    def rate_series(self, p, J):
        return self.a0 * p[: J + 1]

    def exact_R(self, y0, t):
        # dR/dt = -a0 R**(1+nu) separates to R**-nu = y0**-nu + nu*a0*t
        nu = self.nu
        # np.power throughout: ** on a numpy scalar would round as libm does,
        # not as the array loop, and a float y0 is the one-element array
        val = np.power(np.power(np.asarray(y0, dtype=float), -nu) + nu * self.a0 * t, -1.0 / nu)
        return float(val) if val.ndim == 0 else val

    def drift_integral(self, y0, t):
        return 0.0

    def sv_reciprocal_series(self, order):
        out = np.zeros(order + 1)
        out[0] = 1.0 / self.a0
        return out

    def exact_tail(self):
        return self._binomial_tail

    def _binomial_tail(self, k):
        # a_k = a0 |C(1+nu, k)| = a0 Gamma(k-1-nu) / (Gamma(k+1) |Gamma(-1-nu)|) at
        # nu < 1; at nu = 1 Gamma(-2) is a pole, a_k = 0 past k = 2, tail_mass is 0
        nu = self.nu
        lg = [math.lgamma(kk - 1.0 - nu) - math.lgamma(kk + 1.0) for kk in np.ravel(k).tolist()]
        return np.exp(np.reshape(lg, np.shape(k)))

    def normalizer(self, t):
        return math.pow(self.a0, -1.0 / self.nu)

    def normalizer_defined(self, t):
        return True


# Newton steps allowed to ``CoupledDriftScale._solve_w``. It stops long before:
# at most 7 evaluations of the step over 20 000 random points with nu in
# [1e-3, 0.999], a0 in [1e-12, 1e300], 1 - s in [1e-300, 1], t in [1e-300, 1e300]
_ROOT_MAXITER = 64

# series of M(z) = 1 - log1p(z)/z in v = z/(2 + z) on z <= 1 (v <= 1/3):
# M = v - (1 - v)*v**2 * sum_j v**(2j)/(2j + 3), truncated below 1e-17
_M_SERIES = tuple(1.0 / (2 * j + 3) for j in range(18))


def _log1p_ratio(z):
    """(L, M) with L = log1p(z)/z and M = 1 - L on an array z >= 0, to a few ulp.

    On z <= 1 M comes from its series, which keeps its relative precision as
    z -> 0 (M ~ z/2, where 1 - L would cancel) and never divides by z; past
    z = 1 both come from log1p directly.
    """
    v = z / (2.0 + z)
    v2 = v * v
    acc = _M_SERIES[-1]
    for c in _M_SERIES[-2::-1]:
        acc = acc * v2 + c
    m_small = v - (1.0 - v) * v2 * acc
    zl = np.maximum(z, 1.0)
    l_large = np.log1p(zl) / zl
    small = z <= 1.0
    L = np.where(small, 1.0 - m_small, l_large)
    return L, np.where(small, m_small, 1.0 - l_large)


def _at_point(t: float, w0: np.ndarray, mask: np.ndarray) -> str:
    """'t=..., w0=...' at the first point of ``mask``, for an error message."""
    return f"t={t:g}, w0={w0.ravel()[np.flatnonzero(mask.ravel())[0]]:g}"


class CoupledDriftScale(ScaleFunction):
    """Family with index_drift(y) = decay_rate(y).

    The index relation integrates to the rational form
    decay_rate(y) = nu*a0*y**nu / (nu + a0*(1 - y**nu)), hence
    sv(x) = nu*a0 / (nu + a0*(1 - x**(-nu))), which decreases from a0 at
    x = 1 to nu*a0/(nu + a0) at infinity.
    """

    def sv(self, x):
        x = np.asarray(x, dtype=float)
        val = self.nu * self.a0 / (self.nu + self.a0 * (1.0 - x ** (-self.nu)))
        return float(val) if val.ndim == 0 else val

    def rate_of_power(self, p):
        nu, a0 = self.params.nu, self.params.a0
        return nu * a0 * p / (nu + a0 * (1.0 - p))

    def index_drift(self, y):
        return self.decay_rate(y)

    def mechanism_series(self, J):
        # series division of nu*a0*(1-s)**(1+nu) by nu + a0*(1 - (1-s)**nu)
        nu, a0 = self.nu, self.a0
        num = nu * a0 * _series.binom_series(1.0 + nu, J)
        den = -a0 * _series.binom_series(nu, J)
        den[0] = nu
        return _series.div(num, den)

    def rate_series(self, p, J):
        nu, a0 = self.nu, self.a0
        den = -a0 * p[: J + 1]
        den[0] += nu + a0
        return _series.div(nu * a0 * p[: J + 1], den, J)

    def _solve_w(self, y0, t):
        """(w0, e): w0 = 1/decay_rate(y0) = 1/decay_rate(R(0)) and the excess
        e = w - w0 - nu*t of w = 1/decay_rate(R(t)), for a float or an array y0.

        Every point is solved at once. w obeys dw/dt = nu + 1/w, which
        integrates to g(w) = t + g(w0) with g(w) = w/nu - log(nu*w + 1)/nu**2.
        Subtracting g(w0) by hand leaves nu*e = log1p(a*(nu*t + e)) with
        a = nu/(1 + nu*w0); unlike g(w) - g(w0), this loses no digits when w0
        is far above t. The root is found for x = e/t, so nothing underflows
        at subnormal t: with u0 = nu*w0, z = a*t*(nu + x) and
        L(z) = log1p(z)/z it is the root of

            H(x) = (nu + x)*L(z) - (1 + u0)*x,    H'(x) = -(u0 + z/(1 + z)),

        concave and decreasing from H(0) > 0. Newton's step is formed as
        x <- ((nu + x)*L(z) - x/(1 + z)) / (u0 + z/(1 + z)), which never
        subtracts a step from x, and on z <= 1 the numerator is taken as
        nu*L + x*(z/(1 + z) - M) with M = 1 - L from its series: no form
        cancels, even where nu*w0 << 1 makes the root near-double. The start
        min(1/w0, sqrt(nu**2 + 2/t)) lies above the root (log1p(y) <= y gives
        the first bound; u - log1p(u) >= d**2/(2(1 + d)) with d = u - nu*w0,
        u = nu*w, the second), so the iterates decrease; a point stops once
        its iterate no longer does. For tiny t the root is within rounding of
        1/w0, where the iteration starts. A decay rate that underflows at y0,
        a non-finite iterate, or no stop within ``_ROOT_MAXITER`` steps is a
        SolverError naming t and w0.
        """
        with np.errstate(divide="ignore"):
            w0 = 1.0 / np.asarray(self.decay_rate(y0), dtype=float)
        if not np.all(np.isfinite(w0)):
            raise SolverError(
                f"coupled_drift decay rate underflows at {_at_point(t, w0, ~np.isfinite(w0))}"
            )
        if t == 0.0:
            return w0, np.zeros(w0.shape)
        nu = self.nu
        u0 = nu * w0
        at = nu / (1.0 + u0) * t
        with np.errstate(all="ignore"):  # every iterate is checked for finiteness
            x = np.minimum(1.0 / w0, math.sqrt(nu * nu * t + 2.0) / math.sqrt(t))
            for _ in range(_ROOT_MAXITER):
                z = at * (nu + x)
                L, M = _log1p_ratio(z)
                zr = z / (1.0 + z)
                num = np.where(z <= 1.0, nu * L + x * (zr - M), (nu + x) * L - x / (1.0 + z))
                x_new = num / (u0 + zr)
                bad = ~np.isfinite(x_new)
                if bad.any():
                    raise SolverError(
                        f"coupled_drift root is not finite at {_at_point(t, w0, bad)}"
                    )
                down = x_new < x
                if not down.any():
                    return w0, t * x
                x = np.where(down, x_new, x)
        raise SolverError(
            f"coupled_drift root did not converge in {_ROOT_MAXITER} steps "
            f"at {_at_point(t, w0, down)}"
        )

    def exact_R(self, y0, t):
        w0, e = self._solve_w(y0, t)
        w = w0 + self.nu * t + e
        # the inverse of decay_rate at 1/w, formed from w so that nothing
        # overflows when w is tiny (np.power as in ``ConstantScale.exact_R``)
        val = np.power((1.0 + self.nu / self.a0) / (1.0 + self.nu * w), 1.0 / self.nu)
        return float(val) if val.ndim == 0 else val

    def drift_integral(self, y0, t):
        # the identity w(t) - w0 = nu*t + int_0^t index_drift(R(u)) du
        e = self._solve_w(y0, t)[1]
        return float(e) if e.ndim == 0 else e

    def sv_reciprocal_series(self, order):
        nu, a0 = self.nu, self.a0
        out = -a0 * _series.binom_series(nu, order)
        out[0] += nu + a0
        return out / (nu * a0)

    def second_order(self, t):
        # closed form log(a0*nu*t + 1)/nu**3 of the accumulated drift over nu**2
        return math.log(self.a0 * self.nu * t + 1.0), self.nu**3 * t

    def normalizer(self, t):
        # decay_rate(y*) = 1/(nu*t) gives N**nu = nu*t*(y*)**nu in closed form,
        # so y*, which underflows at large t, is never formed
        nu, a0 = self.nu, self.a0
        return math.pow((nu + a0) / (a0 * (nu + 1.0 / (nu * float(t)))), 1.0 / nu)

    def normalizer_defined(self, t):
        # sv is evaluated at (nu*t)**(1/nu)/N = 1/y*, which must be >= 1
        return 1.0 / (self.nu * t) <= self.a0


_FAMILY_CLASSES = {
    Family.CONSTANT: ConstantScale,
    Family.COUPLED_DRIFT: CoupledDriftScale,
    Family.BINARY_SPLIT: ConstantScale,
}


def make_scale_function(params: ModelParams) -> ScaleFunction:
    """Build the evaluable scale bundle for one parameter set.

    Raises ParameterError for nu outside (0, 1) on the slowly varying
    families or a0 <= 0 (enforced by ModelParams itself).
    """
    return _FAMILY_CLASSES[Family(params.family)](params)


def remainder_rho(sf: ScaleFunction, lam: float, x: float) -> float:
    """Slow-variation remainder sv(lam*x)/sv(x) - 1 for lam > 0, x >= 1.

    Both arguments of ``sv`` must stay >= 1, so lam*x >= 1 is required too.
    """
    if x < 1.0:
        raise DomainError(f"remainder_rho requires x >= 1, got {x}")
    if lam <= 0.0 or lam * x < 1.0:
        raise DomainError(f"remainder_rho requires lam > 0 and lam*x >= 1, got lam={lam}")
    return float(sf.sv(lam * x) / sf.sv(x) - 1.0)


def nu_t_power(nu: float, t: float, power: float, quantity: str) -> float:
    """(nu*t)**power, the time scale of the limit theorems.

    A horizon where it overflows raises a SolverError naming the quantity
    and t, so no inf or nan reaches a prediction or a report.
    """
    try:
        return math.pow(nu * t, power)
    except OverflowError:
        raise SolverError(f"{quantity} at t={t:g}: (nu*t)**{power:g} overflows") from None


def solve_normalizer(sf: ScaleFunction, t: float) -> float:
    """N(t), the root of N**nu * sv((nu*t)**(1/nu)/N) = 1, by the family's closed form.

    Requires t > 0 and a root (``sf.normalizer_defined(t)``; for
    ``coupled_drift`` that is t >= 1/(nu*a0), so that sv is evaluated on
    x >= 1), otherwise raises DomainError or SolverError. A normalizer past
    the float range raises a SolverError naming it and t.
    """
    if not t > 0.0:
        raise DomainError(f"solve_normalizer requires t > 0, got {t}")
    if not sf.normalizer_defined(t):
        raise SolverError(
            f"normalizer undefined for t={t}: needs t >= 1/(nu*a0) = {1.0/(sf.nu*sf.a0):g}"
        )
    try:
        return sf.normalizer(t)
    except OverflowError:
        raise SolverError(f"normalizer at t={t:g} overflows") from None


def perturbation_ratio(sf: ScaleFunction, y: float, K: Callable[[float], float]) -> float:
    """Normalized slow-variation increment under argument perturbation.

    With phi(y) = y - y*K(y) and K(y) -> 0 as y -> 0, returns

        (sv(1/phi(y)) / sv(1/y) - 1) / decay_rate(y),

    which stays bounded as y -> 0 for the coupled-drift family (and is
    identically 0 whenever sv is constant).
    """
    if not (0.0 < y < 1.0):
        raise DomainError(f"perturbation_ratio requires y in (0, 1), got {y}")
    k = float(K(y))
    if not (0.0 <= k < 1.0):
        raise DomainError(f"perturbation_ratio requires 0 <= K(y) < 1, got K({y}) = {k}")
    phi = y * (1.0 - k)
    num = sf.sv(1.0 / phi) / sf.sv(1.0 / y) - 1.0
    return float(num / sf.decay_rate(y))
