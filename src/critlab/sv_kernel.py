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
    Finite-variance quadratic mechanism f(s) = a0*(1-s)**2, the classical
    baseline; nu is pinned to 1 and index_drift = 0.

Each family is one ``ScaleFunction`` subclass, and everything that differs
between families lives on it: the closed forms above, the Taylor
coefficients of f and f composed with a series, the exact R(t;s) oracle,
the drift-integral oracle, the series of 1/sv, the normalizer, the
second-order term of the survival expansion and, where known, the exact
tail of the jump law. Adding a family means adding one subclass.

The normalizer N(t) used by the survival asymptotics is defined implicitly by
N**nu * sv((nu*t)**(1/nu) / N) = 1, equivalently N = (nu*t)**(1/nu) * y* with
decay_rate(y*) = 1/(nu*t). Every family solves this in closed form
(``ScaleFunction.normalizer``): a0**(-1/nu) for ``constant``, 1/a0 for
``binary_split`` and ((nu + a0)/(a0*(nu + 1/(nu*t))))**(1/nu) for
``coupled_drift``, which never forms y* and so holds at any horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

# scipy.integrate and scipy.optimize are imported where they are used: they
# cost about 0.2 s at start-up, and a closed-form family never needs them;
# the exact binomial tail takes its log-gamma values from ``math.lgamma``.

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
    "invariant_measure_M",
    "time_to_level",
    "level_at_time",
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
    family supplies it in closed form: ``sv``, ``decay_rate``,
    ``index_drift``, ``mechanism_series``, ``f_series``, the exact oracles
    ``exact_R`` and ``drift_integral`` that the solvers cross-validate
    against, ``sv_reciprocal_series``, ``normalizer`` and
    ``normalizer_defined``. ``sv_elasticity``, ``f`` and ``second_order``
    derive from them; ``exact_tail`` is the one hook a family may leave out.
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

    def decay_rate(self, y):
        """decay_rate(y) = y**nu * sv(1/y) on y in (0, 1]."""
        raise NotImplementedError

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

    def f_series(self, y: np.ndarray, J: int) -> np.ndarray:
        """Coefficients of f(1 - y) = y * decay_rate(y) for a series y, y[0] > 0."""
        raise NotImplementedError

    def exact_R(self, y0: float, t: float) -> float:
        """Exact R(t;s) from R(0;s) = y0 = 1 - s in (0, 1], t >= 0 (unchecked)."""
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
        """The jump law's exact tail k -> c * a_k for some c > 0, or None
        when only its power-law envelope is known."""
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


class _ConstantSV(ScaleFunction):
    """sv(x) = a0: no index drift, 1/sv is the constant 1/a0, and
    N**nu * a0 = 1 fixes N(t) for every t > 0."""

    def sv(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.float64(self.a0), x.shape).copy() if x.ndim else float(self.a0)

    def index_drift(self, y):
        y = np.asarray(y, dtype=float)
        return np.zeros(y.shape) if y.ndim else 0.0

    def drift_integral(self, y0, t):
        return 0.0

    def sv_reciprocal_series(self, order):
        out = np.zeros(order + 1)
        out[0] = 1.0 / self.a0
        return out

    def normalizer_defined(self, t):
        return True


class ConstantScale(_ConstantSV):
    """sv(x) = a0; all derived quantities in closed form."""

    def decay_rate(self, y):
        return self.a0 * np.asarray(y, dtype=float) ** self.nu

    def mechanism_series(self, J):
        # a_j = a0 * (-1)**j * C(1+nu, j) by the binomial recurrence
        return self.a0 * _series.binom_series(1.0 + self.nu, J)

    def f_series(self, y, J):
        return self.a0 * _series.powf(y, 1.0 + self.nu, J)

    def exact_R(self, y0, t):
        # dR/dt = -a0 R**(1+nu) separates to R**-nu = y0**-nu + nu*a0*t
        nu = self.nu
        return (y0 ** (-nu) + nu * self.a0 * t) ** (-1.0 / nu)

    def exact_tail(self):
        return self._binomial_tail

    def _binomial_tail(self, k):
        # a_k = a0 |C(1+nu, k)| = a0 Gamma(k-1-nu) / (Gamma(k+1) |Gamma(-1-nu)|)
        nu = self.nu
        lg = [math.lgamma(kk - 1.0 - nu) - math.lgamma(kk + 1.0) for kk in np.ravel(k).tolist()]
        return np.exp(np.reshape(lg, np.shape(k)))

    def normalizer(self, t):
        return math.pow(self.a0, -1.0 / self.nu)


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

    def decay_rate(self, y):
        # the ODE right-hand side calls this on one float: np.power on it gives
        # the bits of the 0-d array route without the array (math.pow and **
        # would not)
        nu, a0 = self.params.nu, self.params.a0
        ypow = np.power(y, nu)
        val = nu * a0 * ypow / (nu + a0 * (1.0 - ypow))
        return float(val) if val.ndim == 0 else val

    def index_drift(self, y):
        return self.decay_rate(y)

    def decay_inverse(self, z):
        """Inverse of decay_rate on (0, a0]."""
        z = np.asarray(z, dtype=float)
        ypow = z * (self.nu + self.a0) / (self.a0 * (self.nu + z))
        val = ypow ** (1.0 / self.nu)
        return float(val) if val.ndim == 0 else val

    def mechanism_series(self, J):
        # series division of nu*a0*(1-s)**(1+nu) by nu + a0*(1 - (1-s)**nu)
        nu, a0 = self.nu, self.a0
        num = nu * a0 * _series.binom_series(1.0 + nu, J)
        den = -a0 * _series.binom_series(nu, J)
        den[0] = nu
        return _series.div(num, den)

    def f_series(self, y, J):
        nu, a0 = self.nu, self.a0
        u = _series.powf(y, nu, J)
        den = -a0 * u
        den[0] += nu + a0
        return _series.div(nu * a0 * _series.mul(y, u, J), den, J)

    def _solve_w(self, w0, t):
        """Excess e = w - w0 - nu*t of w = 1/decay_rate(R(t)) over w0 = 1/decay_rate(R(0)).

        w obeys dw/dt = nu + 1/w, which integrates to g(w) = t + g(w0) with
        g(w) = w/nu - log(nu*w + 1)/nu**2. Subtracting g(w0) by hand leaves
        e = log1p(a*(nu*t + e))/nu with a = nu/(1 + nu*w0), whose root lies in
        [0, t/w0] because log1p(x) <= x. Unlike g(w) - g(w0), this loses no
        digits when w0 is far above t. The root is found for x = e/t, from
        x = a*(nu + x)/nu * L(a*t*(nu + x)) with L(z) = log1p(z)/z, so no
        residual underflows at subnormal t. The bracket is [0, 2/w0]: for tiny
        t the root sits within rounding of 1/w0, while the residual at 2/w0
        is at most -nu/(1 + nu*w0).
        """
        nu = self.nu
        if t == 0.0:
            return 0.0
        a = nu / (1.0 + nu * w0)

        def h(x):
            z = a * t * (nu + x)
            return a * (nu + x) / nu * (math.log1p(z) / z if z > 0.0 else 1.0) - x

        lo, hi = 0.0, 2.0 / w0
        hlo, hhi = h(lo), h(hi)
        if hlo < 0.0 or hhi > 0.0:
            raise SolverError(f"w bracket failed at t={t}, w0={w0}")
        if hlo == 0.0 or hhi == 0.0:
            return t * (lo if hlo == 0.0 else hi)
        from scipy.optimize import brentq

        return t * float(brentq(h, lo, hi, xtol=5e-324, rtol=8.9e-16, maxiter=200))

    def exact_R(self, y0, t):
        w0 = 1.0 / self.decay_rate(y0)
        w = w0 + self.nu * t + self._solve_w(w0, t)
        return float(self.decay_inverse(1.0 / w))

    def drift_integral(self, y0, t):
        # the identity w(t) - w0 = nu*t + int_0^t index_drift(R(u)) du
        return self._solve_w(1.0 / self.decay_rate(y0), t)

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


class BinarySplitScale(_ConstantSV):
    """Quadratic mechanism f(s) = a0*(1-s)**2 with finite variance (nu = 1)."""

    def decay_rate(self, y):
        return self.a0 * np.asarray(y, dtype=float)

    def mechanism_series(self, J):
        a = np.zeros(J + 1)
        a[0], a[1], a[2] = self.a0, -2.0 * self.a0, self.a0
        return a

    def f_series(self, y, J):
        return self.a0 * _series.mul(y, y, J)

    def exact_R(self, y0, t):
        # dR/dt = -a0 R**2 gives 1/R = 1/y0 + a0*t
        return 1.0 / (1.0 / y0 + self.a0 * t)

    def normalizer(self, t):
        return 1.0 / self.a0


_FAMILY_CLASSES = {
    Family.CONSTANT: ConstantScale,
    Family.COUPLED_DRIFT: CoupledDriftScale,
    Family.BINARY_SPLIT: BinarySplitScale,
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


def invariant_measure_M(sf: ScaleFunction, s: float) -> float:
    """Generating function of the invariant measure of the branching process.

    Adaptive quadrature of integral_1^{1/(1-s)} dx / (x**(1-nu) * sv(x)),
    carried out in log space, relative tolerance 1e-10. M(0) = 0.
    """
    if not (0.0 <= s < 1.0):
        raise DomainError(f"invariant_measure_M requires 0 <= s < 1, got {s}")
    if s == 0.0:
        return 0.0
    vmax = -math.log1p(-s)  # log of the upper endpoint 1/(1-s)
    nu = sf.nu

    def integrand(v):
        x = math.exp(v)
        return x**nu / sf.sv(x)

    from scipy.integrate import quad

    val, err = quad(integrand, 0.0, vmax, epsabs=1e-15, epsrel=1e-10, limit=200)
    if not math.isfinite(val):
        raise SolverError(f"invariant measure quadrature failed at s={s}")
    return float(val)


def time_to_level(sf: ScaleFunction, x: float) -> float:
    """Elapsed time for 1/R to climb from 1 to x along the backward flow.

    Equals M(1 - 1/x): the invariant-measure value advances linearly in
    time along the flow, so this is the exact time-change of the level.
    Strictly increasing on x >= 1 with value 0 at x = 1.
    """
    if x < 1.0:
        raise DomainError(f"time_to_level requires x >= 1, got {x}")
    return invariant_measure_M(sf, 1.0 - 1.0 / x)


def level_at_time(sf: ScaleFunction, y: float) -> float:
    """Monotone inverse of time_to_level: 1/R(y; 0); rejects y < 0."""
    if y < 0.0:
        raise DomainError(f"level_at_time requires y >= 0, got {y}")
    if y == 0.0:
        return 1.0
    hi = 2.0
    for _ in range(600):
        if time_to_level(sf, hi) >= y:
            break
        hi *= 4.0
    else:
        raise SolverError(f"level_at_time could not bracket y={y}")
    from scipy.optimize import brentq

    return float(brentq(lambda x: time_to_level(sf, x) - y, 1.0, hi, rtol=8.9e-16, maxiter=200))


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
