"""Independent reference routes that only the tests compare against.

No module under ``src`` imports this one. Each route computes, by other
numerics, a quantity that ``critlab`` has a production route for: here the
invariant measure M(s) by quadrature and the time change of the level 1/R
built on it, a quadrature-and-brentq route to 1/q(t) next to ``exact_R``,
the scalar ``brentq`` route to the exact R(t;s) next to the array Newton
root of ``ScaleFunction._solve_w``, the exact drift integral that the
closed-form second-order term stands for, an ``mpmath`` route to the same R
at any (nu, a0), the one-point-at-a-time Laplace inversions, a scalar
Python node sum with ``cmath``/``math`` next to ``laplace``'s array sums,
the limit law D(x) by ``mpmath``'s Talbot inversion at 30 digits, and the
evaluators ``ScaleFunction`` derives from a family's rate form, its exact
R(t;s), the quotient f(1 - R)/f(1 - y0) behind ``G_of`` and ``p11_exact``
and the second-order statements' ratio, by ``mpmath`` at 50 digits with
``mpmath.taylor`` in place of series arithmetic and ``mpmath.findroot`` in
place of the closed-form normalizer and of the Newton root, the exact P_11(t)
and the statements' ratio by the quotient routes of P_11 and G, dividing by
N(t)/a0 and by pi(s)*N(t), the transition matrix by the sequential
row loop in ``np.longdouble``, and the event engine's horizon slots written
by a loop over the horizons. These functions take valid inputs only.

Beside them are the relations of slow variation that only the tests
evaluate, as functions of a ``ScaleFunction``: f(s) itself, the elasticity
of sv, the remainder sv(lam*x)/sv(x) - 1 and the increment of sv under a
perturbed argument. They name an invalid input with a ``DomainError``.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from critlab import DomainError, Family, G_of, ScaleFunction, SolverError, exact_R, pi_of
from critlab.kolmogorov_engine import _f_quotient
from critlab.laplace import _GS_TERMS, _GS_WEIGHTS, _TALBOT_NODES
from critlab.sv_kernel import nu_t_power, solve_normalizer


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


def coupled_excess(nu: float, w0: float, t: float) -> float:
    """Excess e = w - w0 - nu*t of w = 1/decay_rate(R(t)) by ``brentq``, one point.

    w obeys dw/dt = nu + 1/w, which integrates to g(w) = t + g(w0) with
    g(w) = w/nu - log(nu*w + 1)/nu**2. Subtracting g(w0) by hand leaves
    e = log1p(a*(nu*t + e))/nu with a = nu/(1 + nu*w0), whose root lies in
    [0, t/w0] because log1p(x) <= x. The root is found for x = e/t, from
    x = a*(nu + x)/nu * L(a*t*(nu + x)) with L(z) = log1p(z)/z, on the bracket
    [0, 2/w0]. Where that bracket spans many decades above the root (t and
    w0 both huge) Brent's method falls back to bisection, one step per
    halving, so it is allowed 4000 steps rather than 200.
    """
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
    return t * float(brentq(h, lo, hi, xtol=5e-324, rtol=8.9e-16, maxiter=4000))


def exact_R_scalar(sf: ScaleFunction, y0: float, t: float) -> float:
    """R(t;s) from R(0;s) = y0 in Python floats, capped at y0: the closed form
    for ``constant``, the ``brentq`` excess for ``coupled_drift``."""
    nu, a0 = sf.nu, sf.a0
    if sf.family is Family.COUPLED_DRIFT:
        w0 = 1.0 / sf.decay_rate(y0)
        z = 1.0 / (w0 + nu * t + coupled_excess(nu, w0, t))
        r = (z * (nu + a0) / (a0 * (nu + z))) ** (1.0 / nu)
    else:
        r = (y0 ** (-nu) + nu * a0 * t) ** (-1.0 / nu)
    return min(r, y0)


def drift_integral(sf: ScaleFunction, y0, t: float):
    """Exact int_0^t index_drift(R(u;s)) du from R(0;s) = y0, a float or an array.

    0.0 without drift (d1 = 0 in the rate form). Otherwise it is the excess
    e of ``ScaleFunction._solve_w``, by the identity
    w(t) - w0 = nu*t + int_0^t index_drift(R(u)) du for w = 1/decay_rate(R).
    """
    if sf.rate_form()[2] == 0.0:
        return 0.0
    e = sf._solve_w(y0, t)[1]
    return float(e) if e.ndim == 0 else e


def coupled_R_mpmath(nu: float, a0: float, y0: float, t: float) -> float:
    """R(t;s) for ``coupled_drift`` from R(0;s) = y0, by mpmath at 360 digits.

    u = nu/decay_rate(R) obeys k(u) = k(u0) + nu**2 t with k(u) = u - log1p(u)
    (w = u/nu satisfies dw/dt = nu + 1/w). The step d = u - u0 solves
    d - log1p(d/(1 + u0)) = nu**2 t, which is convex and increasing in d;
    Newton runs down to it from d <= nu**2 t + sqrt(nu**4 t**2 + 2 nu**2 t).
    The left side loses about log10(1/(u0 + d)) digits to cancellation, at
    most about 160 for nu >= 1e-3, a0 <= 1e300 and t >= 1e-300 (u0 + d is at
    least max(u0, sqrt(2 nu**2 t))), hence the working precision. Then
    R**nu = (nu + a0)/(a0 (1 + u)).
    """
    import mpmath

    with mpmath.workdps(360):
        nu_, a0_, y0_, t_ = (mpmath.mpf(v) for v in (nu, a0, y0, t))
        yp = y0_**nu_
        u0 = (nu_ + a0_ * (1 - yp)) / (a0_ * yp)
        c, rhs = 1 / (1 + u0), nu_**2 * t_
        d = rhs + mpmath.sqrt(rhs**2 + 2 * rhs)
        for _ in range(400):
            step = (d - mpmath.log1p(c * d) - rhs) / (1 - c / (1 + c * d))
            d -= step
            if abs(step) <= d * mpmath.mpf(10) ** -40:  # far above the noise, 1e-200 of d
                break
        else:
            raise SolverError(f"mpmath reference did not converge at nu={nu}, a0={a0}, t={t}")
        return float(((nu_ + a0_) / (a0_ * (1 + u0 + d))) ** (1 / nu_))


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


def d_limit_mpmath(nu: float, x: float) -> float:
    """D(x) of the limit law: mpmath's Talbot inversion of (1 + p**nu)**-(1 + 1/nu) / p
    at 30 digits (at nu = 1/2 it meets the closed form E erfc(G / (2 sqrt x)),
    G ~ Gamma(3), to 5e-32 on [1e-6, 1e14])."""
    import mpmath

    with mpmath.workdps(30):
        nu_ = mpmath.mpf(nu)

        def cdf_transform(p):
            return (1 + p**nu_) ** -(1 + 1 / nu_) / p

        return float(mpmath.invertlaplace(cdf_transform, mpmath.mpf(x), method="talbot"))


class RateFormMpmath:
    """sv, rate_of_power, index_drift, the three series, the normalizer and the
    exact R of the rate form rate_of_power(p) = c*p / (d0 + d1*(1 - p)),
    p = y**nu, at 50 digits.

    Each is written from its formula: sv(x) = c / (d0 + d1*(1 - x**-nu)),
    index_drift(y) = nu*d1*p / (d0 + d1*(1 - p)), f(s) = (1 - s) times the
    decay rate at p = (1 - s)**nu, the flow -nu*p*rate_of_power(p) of a
    series p, and 1/sv(1/(1 - s)) = (d0 + d1*(1 - p))/c.
    The series are the Taylor coefficients at s = 0 that ``mpmath.taylor``
    takes by numerical differentiation, not by any series arithmetic, and
    N(t) and R(t;s) are the roots of their defining equations that
    ``mpmath.findroot`` finds.
    """

    def __init__(self, form, nu: float):
        import mpmath

        self.mp = mpmath.mp.clone()
        self.mp.dps = 50
        self.c, self.d0, self.d1 = (self.mp.mpf(v) for v in form)
        self.nu = self.mp.mpf(nu)

    def _den(self, p):
        return self.d0 + self.d1 * (1 - p)

    def _rate(self, p):
        return self.c * p / self._den(p)

    def _taylor(self, fn, order: int) -> list[float]:
        return [float(v) for v in self.mp.taylor(fn, 0, order)]

    def sv(self, x: float) -> float:
        return float(self.c / self._den(self.mp.mpf(x) ** -self.nu))

    def rate_of_power(self, p: float) -> float:
        return float(self._rate(self.mp.mpf(p)))

    def index_drift(self, y: float) -> float:
        p = self.mp.mpf(y) ** self.nu
        return float(self.nu * self.d1 * p / self._den(p))

    def mechanism_series(self, J: int) -> list[float]:
        return self._taylor(lambda s: (1 - s) * self._rate((1 - s) ** self.nu), J)

    def flow_series(self, p, J: int) -> list[float]:
        coeffs = [self.mp.mpf(float(v)) for v in p[: J + 1]]

        def flow(s):
            ps = self.mp.polyval(coeffs[::-1], s)
            return -self.nu * ps * self._rate(ps)

        return self._taylor(flow, J)

    def sv_reciprocal_series(self, order: int) -> list[float]:
        return self._taylor(lambda s: self._den((1 - s) ** self.nu) / self.c, order)

    def normalizer(self, t: float) -> float:
        """N(t), the root of N**nu * sv((nu*t)**(1/nu)/N) = 1 in u = log N,
        where it exists (nu*t*c >= d0 or d1 = 0).

        sv's argument is x = (nu*t)**(1/nu)/N, so x**-nu = exp(nu*(u - ls))
        with ls = log(nu*t)/nu, and the log of the left side is
        h(u) = nu*u + log(c) - log(d0 + d1*(1 - x**-nu)), increasing in u.
        h < 0 at u0 - 1, u0 = log(d0/c)/nu, because the denominator is at
        least d0 while x >= 1; with drift h(ls) = log(nu*t*c/d0) >= 0, at
        x = 1, and without it h is linear with its root at u0.
        """
        mp, nu = self.mp, self.nu
        ls = mp.log(nu * mp.mpf(t)) / nu
        u0 = mp.log(self.d0 / self.c) / nu

        def h(u):
            return nu * u + mp.log(self.c) - mp.log(self._den(mp.exp(nu * (u - ls))))

        bracket = (u0 - 1, ls if self.d1 else u0 + 1)
        return float(mp.exp(mp.findroot(h, bracket, solver="anderson")))

    def exact_R(self, y0: float, t: float) -> float:
        """R(t;s) from R(0;s) = y0 by the time map of p = R**nu: along the flow
        dp/dt = -nu*p*rate_of_power(p) integrates to

            (d0 + d1)*(1/p - 1/p0) + d1*log(p/p0) = nu*c*t,    p0 = y0**nu.

        ``mpmath.findroot`` solves it for the step d = 1/p - 1/p0, which keeps
        its relative precision at tiny t, on the bracket
        [nu*c*t/(d0 + d1), nu*c*t/(d0 + d1*(1 - p0))] that log1p(u) <= u
        gives; the bracket is one point at d1 = 0 or t = 0.
        """
        mp = self.mp
        q0 = mp.mpf(y0) ** -self.nu
        rhs = self.nu * self.c * mp.mpf(t)
        lo, hi = rhs / (self.d0 + self.d1), rhs / self._den(1 / q0)
        if lo == hi:
            d = lo
        else:
            d = mp.findroot(
                lambda d: (self.d0 + self.d1) * d - self.d1 * mp.log1p(d / q0) - rhs,
                (lo, hi), solver="anderson",
            )
        return float((q0 + d) ** (-1 / self.nu))

    def f_quotient(self, s: float, y0: float, r: float) -> float:
        """s * f(1 - r)/f(1 - y0) with f(1 - y) = y * rate(y**nu): G(t;s) at
        r = R(t;s) and y0 = 1 - s, P_11(t) at s = y0 = 1 and r = q(t)."""
        r, y0 = self.mp.mpf(r), self.mp.mpf(y0)
        return float(s * r * self._rate(r**self.nu) / (y0 * self._rate(y0**self.nu)))

    def statement_ratio(self, k: int, t: float, r: float, N: float) -> float:
        """(nu*t)**(k + 1/nu) * r*rate(r**nu)**k / N: the second-order statements'
        ratio at a given R = r and N(t), q's at k = 0 and f(F)'s at k = 1."""
        r = self.mp.mpf(r)
        scale = (self.nu * self.mp.mpf(t)) ** (k + 1 / self.nu)
        return float(scale * r * self._rate(r**self.nu) ** k / self.mp.mpf(N))


def p11_exact(sf: ScaleFunction, t: float) -> float:
    """Exact P_11(t) = f(1 - q(t))/f(0), the quotient of ``G_of`` at s = y0 = 1."""
    return _f_quotient(sf, 1.0, 1.0, exact_R(sf, 0.0, t), t)


def quotient_ratio(sf: ScaleFunction, s: float, t: float) -> float:
    """The ratio of ``qproc_gf_ratio`` by the quotient routes: (nu*t)**(1+1/nu)
    * P_11(t) / (N(t)/a0) at s = 0, (nu*t)**(1+1/nu) * G(t;s) / (pi(s)*N(t))
    on 0 < s < 1."""
    scale = nu_t_power(sf.nu, t, 1.0 + 1.0 / sf.nu, "quotient ratio")
    N = solve_normalizer(sf, t)
    if s == 0.0:
        return scale * p11_exact(sf, t) / (N / sf.a0)
    return float(scale * G_of(sf, s, t) / (pi_of(sf, s) * N))


def quotient_normalized_error(sf: ScaleFunction, s: float, t: float) -> float:
    """(1 - ``quotient_ratio``) * den / ((1+nu) * num), num/den the second-order
    term from R(0) = 1 - s: P_11's statistic at s = 0, G's on 0 < s < 1."""
    num, den = sf.second_order(1.0 - s, t)
    return float((1.0 - quotient_ratio(sf, s, t)) * den / ((1.0 + sf.nu) * num))


def transition_matrix_longdouble(coeffs, imax=None) -> np.ndarray:
    """P[i, j] = [s**j] F(s)**i for 0 <= i <= imax in ``np.longdouble``.

    The sequential row loop P[i] = P[i-1] * F, each product truncated at the
    order of F, with every operation in extended precision.
    """
    F = np.asarray(coeffs, dtype=np.longdouble)
    J = len(F) - 1
    imax = J if imax is None else imax
    P = np.zeros((imax + 1, J + 1), dtype=np.longdouble)
    P[0, 0] = 1
    if imax >= 1:
        P[1] = F
    for i in range(2, imax + 1):
        P[i] = np.convolve(P[i - 1], F)[: J + 1]
    return P


def record_by_horizons(out, gidx, h_from, h_to, values) -> None:
    """Write values[i] into the horizon slots h_from[i] <= h < h_to[i] of row gidx[i].

    One boolean row mask over every slot set per horizon, the route of
    ``simulator._record`` before it became one repeat and one scatter.
    """
    if gidx.size:
        for h in range(h_from.min(), np.max(h_to)):
            rows = (h_from <= h) & (h < h_to)
            out[gidx[rows], h] = values[rows]


def f(sf: ScaleFunction, s):
    """Infinitesimal generating function f(s) = (1 - s)*decay_rate(1 - s) on [0, 1)."""
    s = np.asarray(s, dtype=float)
    if np.any(s >= 1.0) or np.any(s < 0.0):
        raise DomainError("f(s) requires 0 <= s < 1; the limit at 1- is 0")
    y = 1.0 - s
    val = y * sf.decay_rate(y)
    return float(val) if np.ndim(val) == 0 else val


def sv_elasticity(sf: ScaleFunction, x):
    """x * sv'(x) / sv(x) = -index_drift(1/x) on x >= 1."""
    return -sf.index_drift(1.0 / np.asarray(x, dtype=float))


def remainder_rho(sf: ScaleFunction, lam: float, x: float) -> float:
    """Slow-variation remainder sv(lam*x)/sv(x) - 1 for lam > 0, x >= 1.

    Both arguments of ``sv`` must stay >= 1, so lam*x >= 1 is required too.
    """
    if x < 1.0:
        raise DomainError(f"remainder_rho requires x >= 1, got {x}")
    if lam <= 0.0 or lam * x < 1.0:
        raise DomainError(f"remainder_rho requires lam > 0 and lam*x >= 1, got lam={lam}")
    return float(sf.sv(lam * x) / sf.sv(x) - 1.0)


def perturbation_ratio(sf: ScaleFunction, y: float, K) -> float:
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
