"""Concrete branching mechanisms: intensity coefficients and offspring sampling.

The infinitesimal generating function f(s) = sum_j a_j s^j has a0 > 0,
a1 < 0, a_j >= 0 for j >= 2, zero total mass (f(1-) = 0) and zero drift
(criticality, f'(1-) = 0). For the slowly varying families the coefficients
decay like j**-(2+nu), so truncation always leaves a polynomial tail; the
samplers keep a finite table plus an analytic power-law tail so that draws
are exact up to the documented tail approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# The envelope normalizer, the Monte Carlo path's one use of scipy.special,
# is a Hurwitz zeta value summed here with the standard library: importing
# scipy.special costs about 0.2 s at start-up.

from .errors import DomainError, ParameterError
from .sv_kernel import Family, ScaleFunction

__all__ = [
    "OffspringCoeffs",
    "OffspringDistribution",
    "AliasTable",
    "mechanism_series",
    "expand_coeffs",
    "build_offspring_distribution",
    "build_size_biased_distribution",
]

_NEG_COEFF_SLACK = 1e-12  # absolute roundoff slack for series-division output
EXACT_POP_CAP = 2**62  # tail draws are clipped at it, so a population cap may not exceed it

# _hurwitz_zeta sums the terms below this index directly
_EM_START = 16
# B_2j / (2j)! for j = 1..8, the Euler-Maclaurin correction coefficients
_EM_COEFFS = (
    1 / 12,
    -1 / 720,
    1 / 30240,
    -1 / 1209600,
    1 / 47900160,
    -691 / 1307674368000,
    1 / 74724249600,
    -3617 / 10670622842880000,
)


def _hurwitz_zeta(beta: float, n: int) -> float:
    """zeta(beta, n) = sum_{k >= n} k**-beta for beta > 1 and an integer n >= 1.

    Terms below max(n, _EM_START) are summed directly and the rest by
    Euler-Maclaurin at N = max(n, _EM_START) (DLMF 25.11(iii)):
    N**(1-beta)/(beta-1) + N**-beta/2 + sum_j B_2j/(2j)! * beta(beta+1)...
    (beta+2j-2) * N**(1-beta-2j). At N >= 16 and beta <= 3.5 the first
    dropped correction is below 1e-18 of the sum, and ``math.fsum`` adds the
    terms with one rounding, so the value is within a few ulp.
    """
    start = max(n, _EM_START)
    terms = [float(k) ** -beta for k in range(n, start)]
    x = float(start)
    terms.append(x ** (1.0 - beta) / (beta - 1.0))
    terms.append(0.5 * x**-beta)
    rising = beta  # beta (beta+1) ... (beta+2j-2)
    power = x ** (-beta - 1.0)  # x**(1-beta-2j)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        terms.append(coeff * rising * power)
        rising *= (beta + 2 * j - 1) * (beta + 2 * j)
        power /= x * x
    return math.fsum(terms)


@dataclass(frozen=True)
class OffspringCoeffs:
    """Truncated intensity sequence with its analytic tail exponent.

    mass_deficit is |sum of the kept coefficients| = mass of the dropped
    tail (the full sequence sums to zero); criticality_deficit is the same
    for the first-moment sum.
    """

    coeffs: np.ndarray
    tail_exponent: float
    mass_deficit: float
    criticality_deficit: float

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def total_rate(self) -> float:
        """Per-individual event rate |a1|."""
        return -float(self.coeffs[1])


def _validate_coeffs(a: np.ndarray, family: Family) -> None:
    nonfinite = np.flatnonzero(~np.isfinite(a))
    if nonfinite.size:
        j = int(nonfinite[0])
        raise ParameterError(
            f"intensity coefficient a[{j}] = {a[j]} is not finite; "
            f"the {family.value!r} parameters do not define a valid mechanism"
        )
    if not a[0] > 0.0:
        raise ParameterError(f"a0 must be positive, got {a[0]}")
    if not a[1] < 0.0:
        raise ParameterError(f"a1 must be negative, got {a[1]}")
    bad = np.flatnonzero(a[2:] < -_NEG_COEFF_SLACK)
    if bad.size:
        j = int(bad[0]) + 2
        raise ParameterError(
            f"intensity coefficient a[{j}] = {a[j]:.3e} is negative beyond slack; "
            f"the {family.value!r} parameters do not define a valid mechanism"
        )


def mechanism_series(sf: ScaleFunction, J: int) -> np.ndarray:
    """Formal Taylor coefficients a_0..a_J of f(s), without sign validation.

    Each family supplies its own (``ScaleFunction.mechanism_series``). The
    coupled_drift coefficients are a valid intensity sequence only for
    small enough a0; callers needing an offspring law must go through
    ``expand_coeffs``, which validates. The analytic machinery (invariant
    measures, series evolution) is well defined for the formal series.
    """
    if J < 2:
        raise DomainError(f"mechanism_series requires J >= 2, got {J}")
    return sf.mechanism_series(J)


def expand_coeffs(sf: ScaleFunction, J: int) -> OffspringCoeffs:
    """Validated intensity coefficients a_0..a_J of the mechanism.

    Rejects parameter combinations whose series has a negative a_j beyond
    roundoff slack (possible for coupled_drift at larger a0), and records
    mass/criticality deficits of the truncation.
    """
    a = mechanism_series(sf, J)
    _validate_coeffs(a, sf.family)
    a = a.copy()
    np.clip(a[2:], 0.0, None, out=a[2:])
    mass = abs(float(np.sum(a)))
    crit = abs(float(np.dot(np.arange(J + 1), a)))
    return OffspringCoeffs(a, 2.0 + sf.nu, mass, crit)


class AliasTable:
    """Vose alias table for O(1) draws from a finite weighted law.

    Vose's loop runs on Python floats and lists: they are IEEE doubles like
    numpy's, so the table has the same bits, built in about half the time
    that indexing numpy scalars takes.
    """

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if not np.all(np.isfinite(w)):
            raise ParameterError("alias table needs finite weights")
        if np.any(w < 0.0) or not np.any(w > 0.0):
            raise ParameterError("alias table needs nonnegative weights, not all zero")
        n = len(w)
        p = (w * (n / w.sum())).tolist()
        prob = [1.0] * n
        alias = list(range(n))
        small = [i for i, pi in enumerate(p) if pi < 1.0]
        large = [i for i, pi in enumerate(p) if pi >= 1.0]
        while small and large:
            s, g = small.pop(), large.pop()
            prob[s] = p[s]
            alias[s] = g
            p[g] = (p[g] + p[s]) - 1.0
            (small if p[g] < 1.0 else large).append(g)
        self.prob = np.array(prob)
        self.alias = np.array(alias, dtype=np.int64)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        n = len(self.prob)
        x = rng.random(size) * n
        idx = x.astype(np.int64)
        frac = x - idx
        return np.where(frac < self.prob[idx], idx, self.alias[idx])


@dataclass
class OffspringDistribution:
    """Jump law of one individual: p_k = a_k / |a1| for k != 1.

    The table covers k <= tail_cutoff; beyond that a Pareto envelope with
    the analytic tail exponent is inverted and corrected by one rejection
    step against the power-law target mass, or against the family's exact
    tail pmf where it has one.
    """

    probs: np.ndarray
    tail_cutoff: int
    tail_exponent: float
    tail_mass: float
    total_rate: float
    _alias: AliasTable = field(repr=False, default=None)
    _tail_norm: float = field(repr=False, default=0.0)
    _tail_accept_scale: float = field(repr=False, default=1.0)
    # exact tail pmf k -> a_k/|a1| where the family has one (ScaleFunction.exact_tail)
    _exact_tail: Callable | None = field(repr=False, default=None)

    def __post_init__(self):
        if np.any(self.probs < 0.0):
            raise ParameterError("offspring probabilities must be nonnegative")
        table_mass = float(self.probs.sum())
        if not abs(table_mass + self.tail_mass - 1.0) <= 1e-9:  # also refuses nan
            raise ParameterError(
                f"table + tail mass = {table_mass + self.tail_mass} != 1"
            )
        weights = np.append(self.probs, self.tail_mass)  # last symbol = tail escape
        self._alias = AliasTable(weights)
        if self.tail_mass > 0.0:
            J = self.tail_cutoff
            beta = self.tail_exponent
            if self._exact_tail is None:
                self._tail_norm = _hurwitz_zeta(beta, J + 1)
            # envelope mass of integer k under Pareto(index beta-1) on [J+1/2, inf)
            # is m(k) = (J+1/2)**(beta-1) * ((k-1/2)**(1-beta) - (k+1/2)**(1-beta));
            # the accept ratio target/(scale*m) needs scale >= max_k target/m.
            ks = np.arange(J + 1, J + 4000, dtype=float)
            m = (J + 0.5) ** (beta - 1.0) * ((ks - 0.5) ** (1.0 - beta) - (ks + 0.5) ** (1.0 - beta))
            self._tail_accept_scale = float(np.max(self._tail_pmf(ks) / m)) * (1.0 + 1e-9)

    def _tail_pmf(self, k: np.ndarray) -> np.ndarray:
        """Normalized tail pmf p(k | k > cutoff) used as rejection target."""
        if self._exact_tail is not None:
            return self._exact_tail(k) / self.tail_mass
        beta = self.tail_exponent
        return k ** (-beta) / self._tail_norm

    def _sample_tail(self, rng: np.random.Generator, size: int) -> np.ndarray:
        J = self.tail_cutoff
        beta = self.tail_exponent
        out = np.empty(size, dtype=np.int64)
        todo = size
        while todo:
            u = rng.random(todo)
            x = (J + 0.5) * u ** (-1.0 / (beta - 1.0))
            k = np.minimum(np.floor(x + 0.5), float(EXACT_POP_CAP)).astype(np.int64)
            k = np.maximum(k, J + 1)
            kf = k.astype(float)
            m = (J + 0.5) ** (beta - 1.0) * (
                (kf - 0.5) ** (1.0 - beta) - (kf + 0.5) ** (1.0 - beta)
            )
            accept = rng.random(todo) * self._tail_accept_scale * m < self._tail_pmf(kf)
            got = k[accept]
            out[size - todo : size - todo + len(got)] = got
            todo -= len(got)
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        k = self._alias.sample(rng, size)
        esc = k == len(self.probs)
        n_esc = int(esc.sum())
        if n_esc:
            k[esc] = self._sample_tail(rng, n_esc)
        return k


def build_offspring_distribution(
    coeffs: OffspringCoeffs, sf: ScaleFunction
) -> OffspringDistribution:
    """Normalize intensities into the jump law of a single individual."""
    a = coeffs.coeffs
    rate = coeffs.total_rate
    p = a / rate
    p[1] = 0.0
    # the dropped tail carries exactly the mass missing from the table
    tail_mass = max(0.0, 1.0 - float(p.sum()))
    exact_tail = sf.exact_tail(rate) if tail_mass > 0.0 else None
    return OffspringDistribution(
        probs=p,
        tail_cutoff=coeffs.order,
        tail_exponent=coeffs.tail_exponent,
        tail_mass=tail_mass,
        total_rate=rate,
        _exact_tail=exact_tail,
    )


def build_size_biased_distribution(coeffs: OffspringCoeffs) -> OffspringDistribution:
    """Jump law weighted by the offspring count: p~_k = k * a_k / |a1|.

    Criticality makes this a probability law supported on k >= 2; its tail
    exponent drops by one, so draws can be astronomically large and callers
    must cap them explicitly.
    """
    a = coeffs.coeffs
    rate = coeffs.total_rate
    k = np.arange(len(a), dtype=float)
    p = k * a / rate
    p[1] = 0.0
    tail_mass = max(0.0, 1.0 - float(p.sum()))
    return OffspringDistribution(
        probs=p,
        tail_cutoff=coeffs.order,
        tail_exponent=coeffs.tail_exponent - 1.0,
        tail_mass=tail_mass,
        total_rate=rate,
    )
