"""Exact and numerical evolution of the transition generating function.

The backward equation dF/dt = f(F), F(0;s) = s drives everything. We track
R = 1 - F. Because R decays to zero like t**(-1/nu), the ODE route
integrates x = log R, a contracting flow, which holds *relative* accuracy
in R all the way down and is what makes the exact integral identity

    1/decay_rate(R(t;s)) - 1/decay_rate(1-s) = nu*t + int_0^t drift(R(u;s)) du

testable to 1e-6 at t = 1e3.

For every family with drift the same identity closes: in the rate form
(c, d0, d1) the drift is beta*decay_rate with beta = nu*d1/c (1 for
``coupled_drift``), so w = 1/decay_rate(R) satisfies dw/dt = nu + beta/w and
v = w/beta, in tau = t/beta,

    v/nu - log(nu*v + 1)/nu**2 = tau + (same at v0),     v0 = 1/(beta*decay_rate(1-s)),

a monotone scalar equation solved to machine precision for any t, by one
Newton iteration over a whole array of starting points. The exact oracle
itself is derived from the rate form (``ScaleFunction.exact_R``); ``exact_R``
validates and dispatches, for a scalar or an array of s. G(t;s) and P_11(t)
are one quotient f(1 - R)/f(1 - y0) of its R (``_f_quotient``), and
``identity_residual`` checks the identity along the ODE path, carrying the
drift integral as one more component of the same integration.
Each quantity has one route: q(t) is ``exact_R(sf, 0.0, t)`` (any horizon),
and ``solve_F`` is the independent ODE route, which integrates to whatever
horizon it is given, so callers can compare the two there. It chains a grid
of horizons by the semigroup property F(t_k; s) = F(t_k - t_{k-1}; F(t_{k-1}; s))
and integrates an array of starting points as one vector. Its right-hand
side, d x/dt = -decay_rate(e^x), only needs R**nu = (e^x)**nu, so it is the
family's ``rate_of_power`` of that, computed in Python floats. Every
integration, the series evolution below included, is one ``_integrate`` call.

Transition probabilities P_1j(t) are the coefficients of F(t;s).
``evolve_series`` integrates them in the variable of the log-R flow,
p = (1 - F)**nu = R**nu, whose backward equation dp/dt = -nu*p*rate_of_power(p)
needs no fractional power of a series: a right-hand side is the family's
``flow_series(p)``, one product for ``constant`` and one triangular solve for
``coupled_drift``. The coefficient system is triangular
(coefficient j only involves coefficients 0..j), so a truncated solve is
exact for every kept column, and one series power at the end gives
F = 1 - p**(1/nu).
``transition_matrix`` builds the rows for i initial individuals, the powers
F**i, by doubling: rows k+1..2k are rows 1..k times row k, as tiled matrix
products. ``size_biased`` turns them into the conditioned chain's Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _dop853, _series
from .errors import DomainError, SolverError, TruncationError
from .sv_kernel import ScaleFunction

__all__ = [
    "SolveConfig",
    "DEFAULT_CFG",
    "SeriesState",
    "solve_F",
    "exact_R",
    "identity_residual",
    "evolve_series",
    "transition_matrix",
    "size_biased",
    "G_of",
]

# scipy's DOP853 solver, whose bits _dop853 keeps, raises a smaller rtol to
# this floor with a warning; refuse it instead
_RTOL_FLOOR = 100.0 * np.finfo(float).eps
# transition_matrix multiplies _TILE_ROWS x _TILE tiles of rows by _TILE x _TILE
# Toeplitz tiles: m*n*k = 2**17, half the size at which OpenBLAS (x86_64)
# splits a GEMM over its threads
_TILE = 64
_TILE_ROWS = 32
# rows per chunk of a doubling level
_CHUNK_ROWS = 128
# lag n - m of entry (m, n) of a Toeplitz tile
_TILE_LAG = np.arange(_TILE)[None, :] - np.arange(_TILE)[:, None]


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances for the adaptive ODE integrations."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name, tol, lo in (
            ("rel_tol", self.rel_tol, _RTOL_FLOOR),
            ("abs_tol", self.abs_tol, 1e-14),
        ):
            if not (lo <= tol <= 1e-3):
                raise DomainError(f"{name} must lie in [{lo:g}, 1e-3], got {tol}")


DEFAULT_CFG = SolveConfig()


def _check_ts(s, t) -> np.ndarray:
    """s as a 1-D array, after checking s (a float or a nonempty 1-D array
    in [0, 1)) and t (a horizon or an increasing 1-D grid of them)."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if s_arr.ndim > 1 or s_arr.size == 0 or not np.all((0.0 <= s_arr) & (s_arr < 1.0)):
        raise DomainError(f"requires 0 <= s < 1, a float or a nonempty 1-D array, got s={s}")
    if np.ndim(t) == 0:
        if not t >= 0.0:
            raise DomainError(f"requires t >= 0, got t={t}")
    elif np.ndim(t) > 1 or np.size(t) == 0 or not (t[0] >= 0.0 and np.all(np.diff(t) > 0.0)):
        raise DomainError(f"requires an increasing 1-D grid of horizons t >= 0, got t={t}")
    return s_arr


def _integrate(rhs, y0, span: float, rtol: float, atol: float, stage: str, where: str):
    """End state of the DOP853 integration of y' = rhs(u, y) on [0, span]: the
    module's one ``_dop853.dop853`` call, with no dense interpolant. An rtol
    below the floor of 100 eps, which scipy's DOP853 solver (whose bits the
    stepper keeps) would raise with a warning, is refused. numpy's overflow,
    invalid and divide raise, so a huge decay rate stops in the first-step
    estimate instead of stepping on with inf and nan; that FloatingPointError,
    the OverflowError and ZeroDivisionError of a Python-float right-hand side,
    and a step that shrinks below the spacing of floats are each a SolverError
    naming ``stage`` and ``where``."""
    if rtol < _RTOL_FLOOR:
        raise DomainError(
            f"{stage} {where} needs rel_tol >= {_RTOL_FLOOR:g} per component, got {rtol:g}"
        )
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y, _, failure = _dop853.dop853(rhs, y0, span, rtol, atol)
    except OverflowError as exc:
        raise SolverError(f"{stage} overflowed {where}: {exc}") from None
    except (FloatingPointError, ZeroDivisionError) as exc:
        raise SolverError(f"{stage} {where}: floating-point {exc}") from None
    if failure is not None:
        raise SolverError(f"{stage} failed {where}: {failure}")
    return y


def _solve_log_path(sf: ScaleFunction, x0, span: float, cfg: SolveConfig) -> np.ndarray:
    """End values of x(u) = log R on [0, span] from x(0) = x0.

    x0 is a float or a 1-D array of m start values, integrated together as
    one m-vector: the flow is autonomous and elementwise, so a segment of a
    longer path starts at u = 0 from its start values. DOP853's error norm
    is the RMS over the components, so both tolerances are divided by sqrt(m),
    which bounds each component's local error by the configured ones. The
    right-hand side is d x/dt = -rate_of_power(R**nu) with R**nu =
    math.exp(x)**nu, all in Python floats: no numpy call per element, and
    each element is computed alone, so one start value keeps the bits of the
    scalar route. (``math.exp(nu*x)`` would round nu*x with an error that
    grows with |x|.) A float error in it raises where numpy would warn: exp
    past log R = 709 overflows, and a trial stage can hit a zero denominator
    (``coupled_drift`` at nu = 1/2, a0 = 1 and R**nu = 1.5).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    root_m = math.sqrt(x0.size)
    rate, nu, exp = sf.rate_of_power, sf.nu, math.exp

    def rhs(u, x):
        return [-rate(exp(v) ** nu) for v in x.tolist()]

    where = f"from log R=[{', '.join(f'{v:g}' for v in x0.tolist())}] over t={span:g}"
    return _integrate(rhs, x0, span, cfg.rel_tol / root_m, cfg.abs_tol / root_m,
                      "backward integration", where)


def solve_F(sf: ScaleFunction, s, t, cfg: SolveConfig = DEFAULT_CFG):
    """Adaptive integration of the backward equation; returns R(t;s) = 1 - F(t;s).

    t is a horizon or an increasing 1-D array of them, and s a starting
    point or a nonempty 1-D array of m of them; a float s gives a float or
    shape (len(t),), an array s gives shape (m,) or (m, len(t)). The m
    values of log R are integrated together, one ``_integrate`` call per
    segment, each within the configured tolerances (see ``_solve_log_path``),
    so m is refused where rel_tol/sqrt(m) would fall below the floor of
    100 eps. A float s is the one-element array, bit for bit. Each segment
    [t_{k-1}, t_k] is integrated from the end point of the one before, so a
    value on a grid depends, within the solver tolerance, on the horizons
    before it (and an array value on the other s); a scalar t is the
    one-point grid from 0, integrated in one piece.
    """
    s_arr = _check_ts(s, t)
    m = s_arr.size
    if cfg.rel_tol / math.sqrt(m) < _RTOL_FLOOR:
        raise DomainError(
            f"{m} starting points s need rel_tol >= {_RTOL_FLOOR:g}*sqrt({m}), got {cfg.rel_tol}"
        )
    x, prev, cols = [math.log1p(-v) for v in s_arr.tolist()], 0.0, []
    for tk in np.atleast_1d(t).tolist():
        if tk == 0.0:  # only the first horizon can be 0
            cols.append(1.0 - s_arr)
            continue
        x = _solve_log_path(sf, x, tk - prev, cfg)
        prev = tk
        cols.append(np.array([math.exp(v) for v in x.tolist()]))
    r = np.stack(cols, axis=-1) if np.ndim(t) else cols[0]
    if np.ndim(s):
        return r
    return r[0] if np.ndim(t) else float(r[0])


def exact_R(sf: ScaleFunction, s, t: float, *, one_minus_s=None):
    """Exact R(t;s) from the family's closed form or implicit equation; any horizon.

    s (or ``one_minus_s``) is a float (gives a float) or an array (gives its
    shape). ``one_minus_s`` may carry 1 - s when s is within roundoff of 1.
    R is nonincreasing from R(0;s) = 1 - s, but the closed forms and the
    implicit equation can round a few ulps above 1 - s at tiny t, so the
    result is capped there; it can then be passed back as ``one_minus_s``.
    """
    y0 = 1.0 - np.asarray(s, dtype=float) if one_minus_s is None else one_minus_s
    y0 = np.asarray(y0, dtype=float)
    if not np.all((0.0 < y0) & (y0 <= 1.0)) or not t >= 0.0:
        raise DomainError(f"invalid (s, 1 - s, t) = ({s}, {y0}, {t})")
    r = np.minimum(sf.exact_R(y0, t), y0)
    return float(r) if r.ndim == 0 else r


def identity_residual(
    sf: ScaleFunction, s: float, t: float, cfg: SolveConfig = DEFAULT_CFG
) -> float:
    """Residual of the exact integral identity along the ODE solution.

    Computes [1/decay_rate(R(t;s)) - 1/decay_rate(1-s)] minus [nu*t + int_0^t
    index_drift(R(u;s)) du], integrating y = (log R, the drift integral) as one
    2-vector with both tolerances divided by sqrt(2) (``_solve_log_path``'s
    sqrt(m) rule). Must vanish to solver tolerance.
    """
    _check_ts(s, t)
    if t == 0.0:
        return 0.0

    def rhs(u, y):
        r = math.exp(y[0])
        return [-sf.rate_of_power(r**sf.nu), sf.index_drift(r)]

    root_2 = math.sqrt(2.0)
    x, integral = _integrate(rhs, [math.log1p(-s), 0.0], t, cfg.rel_tol / root_2,
                             cfg.abs_tol / root_2, "identity integration",
                             f"from s={s:g} over t={t:g}").tolist()
    lhs = 1.0 / sf.decay_rate(math.exp(x)) - 1.0 / sf.decay_rate(1.0 - s)
    return float(lhs - (sf.nu * t + integral))


# ---------------------------------------------------------------------------
# power-series evolution of the transition probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesState:
    """Coefficients F_j(t) of F(t;s); F_j(t) = P_1j(t), j <= order.

    The kept coefficients are exact solutions of the truncated coefficient
    system (the composition is triangular); the row defect 1 - sum_j F_j is
    exactly the probability mass sitting beyond the truncation order.
    """

    t: float
    coeffs: np.ndarray

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def defect(self) -> float:
        return 1.0 - float(np.sum(self.coeffs))


def evolve_series(
    sf: ScaleFunction, J: int, t: float, cfg: SolveConfig = DEFAULT_CFG
) -> SeriesState:
    """Coefficients F_j(t), j <= J, from the coefficient system of p = (1 - F)**nu.

    Along the backward flow p = R**nu obeys dp/dt = -nu * p * rate_of_power(p),
    so the right-hand side is the family's ``flow_series(p)`` (one ``mul`` of p
    by a scaled copy of p for ``constant``; for ``coupled_drift`` one blocked
    triangular solve, ``_series.square_ratio``, with no full product) and
    needs no fractional power. The integration starts from p(0) = (1 - s)**nu,
    the solver's tolerances act on p's coefficients, and one ``powf`` at the
    end gives F = 1 - p**(1/nu). Raises SolverError, naming the family, J and
    t, when the coefficients overflow (a mechanism whose series diverges inside
    the unit disc, such as ``coupled_drift`` with a0 > nu/(2**nu - 1)), and
    TruncationError when more than 1 % of the mass has escaped past the
    truncation order, which signals that row sums (not the kept columns, which
    stay exact) are no longer meaningful.
    """
    if J < 2:
        raise DomainError(f"evolve_series requires J >= 2, got {J}")
    if not t >= 0.0:
        raise DomainError(f"evolve_series requires t >= 0, got t={t}")
    if t == 0.0:
        coeffs = np.zeros(J + 1)
        coeffs[1] = 1.0
        return SeriesState(0.0, coeffs)
    nu = sf.nu

    def rhs(u, p):
        return sf.flow_series(p, J)

    stage = f"{sf.family.value} series evolution"
    where = f"with J={J} to t={t:g}"
    p = _integrate(rhs, _series.binom_series(nu, J), t, cfg.rel_tol, cfg.abs_tol, stage, where)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            coeffs = -_series.powf(p, 1.0 / nu)
    except (FloatingPointError, ZeroDivisionError) as exc:
        raise SolverError(f"{stage} {where}: floating-point {exc}") from None
    coeffs[0] += 1.0
    state = SeriesState(t, coeffs)
    if state.defect > 1e-2:
        raise TruncationError(
            f"series defect {state.defect:.3e} at t={t} with J={J}; increase J"
        )
    return state


def transition_matrix(state: SeriesState, imax: int | None = None) -> np.ndarray:
    """Matrix P[i, j] = P_ij(t) = [s**j] F(t;s)**i for 0 <= i <= imax, j <= order.

    The rows are built by doubling. Once rows 1..k are known, rows
    k+1..min(2k, imax) are P[i] * P[k] truncated at the order, that is
    P[1..r] @ U(P[k]) with U(v) the upper-triangular Toeplitz matrix
    U[m, n] = v[n - m]. U is cut into ``_TILE`` x ``_TILE`` tiles, and tile
    (a, b) depends only on its block diagonal d = b - a. So for each d in
    increasing order one stacked matmul multiplies the ``_TILE_ROWS`` x
    ``_TILE`` tiles of the input rows by U_d and adds the result into the
    output. Every GEMM is ``_TILE_ROWS`` x ``_TILE`` x ``_TILE``, too small
    for OpenBLAS to thread, so the bits do not depend on the BLAS thread
    count. A level goes through its rows in chunks of ``_CHUNK_ROWS``, so the
    two accumulators take about 1 MB each at order 1024.

    The result is a view of a buffer padded to whole tiles: up to
    ``_TILE_ROWS - 1`` rows past imax and whole column tiles past the order.
    """
    J = state.order
    imax = J if imax is None else imax
    nb = -(-(J + 1) // _TILE)
    # the rows past imax and the columns past J complete the last tiles;
    # the columns stay zero, so they add nothing to the kept columns
    buf = np.zeros((imax + _TILE_ROWS, nb * _TILE))
    buf[0, 0] = 1.0
    if imax >= 1:
        buf[1, : J + 1] = state.coeffs
    acc = np.empty((_CHUNK_ROWS // _TILE_ROWS, nb, _TILE_ROWS, _TILE))
    part = np.empty_like(acc)

    def tiles(i, rows):
        # rows i..i+rows-1 of buf as (row tile, column tile, row in tile, column in tile)
        return buf[i : i + rows].reshape(rows // _TILE_ROWS, _TILE_ROWS, nb, _TILE).transpose(0, 2, 1, 3)

    k = 1
    while k < imax:
        # U_d[m, n] = P[k, d*_TILE + n - m], zero where n < m in the diagonal tile
        v = np.zeros(_TILE - 1 + nb * _TILE)
        v[_TILE - 1 : _TILE + J] = buf[k, : J + 1]
        U = v[_TILE - 1 + _TILE * np.arange(nb)[:, None, None] + _TILE_LAG]
        r = min(k, imax - k)
        for i0 in range(1, r + 1, _CHUNK_ROWS):
            n = min(_CHUNK_ROWS, r + 1 - i0)
            rows = -(-n // _TILE_ROWS) * _TILE_ROWS
            X = tiles(i0, rows)
            Y, T = acc[: rows // _TILE_ROWS], part[: rows // _TILE_ROWS]
            np.matmul(X, U[0], out=Y)
            for d in range(1, nb):
                np.matmul(X[:, : nb - d], U[d], out=T[:, : nb - d])
                Y[:, d:] += T[:, : nb - d]
            tiles(k + i0, rows)[...] = Y
            buf[k + i0 : k + i0 + rows, J + 1 :] = 0.0
        k += r
    return buf[: imax + 1, : J + 1]


def size_biased(P: np.ndarray) -> np.ndarray:
    """Size-biased matrix Q_ij = (j/i) * P_ij, i >= 1, of a transition matrix.

    Row 0 is identically zero: the conditioned chain never occupies state 0.
    """
    j = np.arange(P.shape[1], dtype=float)
    Q = P * j[None, :]
    Q[0] = 0.0
    Q[1:] /= np.arange(1, P.shape[0], dtype=float)[:, None]
    return Q


def _f_quotient(sf: ScaleFunction, s, y0, r, t: float):
    """s*f(1 - r)/f(1 - y0) as s * (r/y0) * (decay_rate(r)/decay_rate(y0)), finite where
    f underflows: G(t;s) at r = R(t;s), y0 = 1 - s; P_11(t) at s = y0 = 1, r = q(t)."""
    den = sf.decay_rate(y0)
    if np.any(np.equal(den, 0.0)):
        s_bad = np.broadcast_to(s, np.shape(den))[np.equal(den, 0.0)][0]
        raise SolverError(f"f(F)/f(s) at s={s_bad:g}, t={t:g}: decay_rate(1 - s) underflows to 0")
    val = s * (r / y0) * (sf.decay_rate(r) / den)
    return float(val) if np.ndim(val) == 0 else val


def G_of(sf: ScaleFunction, s, t: float, *, one_minus_s=None):
    """G(t;s) = s*f(F(t;s))/f(s) of the conditioned chain: ``_f_quotient`` of the
    oracle's R, for a float or an array s. ``one_minus_s`` may carry 1 - s when s
    is within roundoff of 1 (``exact_R`` checks it); a tiny s may round 1 - s to 1.0."""
    s = np.asarray(s, dtype=float)
    if not np.all(s > 0.0):
        raise DomainError(f"G_of requires s > 0, got s={s}")
    y0 = 1.0 - s if one_minus_s is None else np.asarray(one_minus_s, dtype=float)
    return _f_quotient(sf, s, y0, exact_R(sf, s, t, one_minus_s=y0), t)
