"""Concrete branching mechanisms: intensity coefficients and offspring sampling.

The infinitesimal generating function f(s) = sum_j a_j s^j has a0 > 0,
a1 < 0, a_j >= 0 for j >= 2, zero total mass (f(1-) = 0) and zero drift
(criticality, f'(1-) = 0). For the slowly varying families the coefficients
decay like j**-(2+nu), so truncation always leaves a polynomial tail; the
samplers keep a finite table plus an analytic power-law tail so that draws
are exact up to the documented tail approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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

    The table is the one Vose's loop builds (Vose 1991), bit for bit, from
    p = w * (n / sum(w)). The loop pops the smalls (p < 1) and the larges
    (p >= 1), each in descending index order, and runs one floating-point
    chain r <- (r + v) - 1 over a merge of the two: r starts at the first
    large's p; v is the next small while r >= 1, which is aliased to the
    current large, and the next large once r < 1, when the current large
    is demoted with prob r and aliased to that next large. The loop stops
    when the stack it needs is empty, so a large left below 1 with no large
    after it keeps prob 1 and its own index, as do the unpopped entries.

    The build speculates the merge instead of looping. In exact arithmetic
    a large follows the smalls whose deficits 1 - p sum to at most r - 1
    plus the surpluses p - 1 of the larges before it, which
    ``np.searchsorted`` reads off the two cumulative sums. One
    ``np.add.accumulate`` over [r, v0, -1, v1, -1, ...] then computes the
    chain in that order exactly as the loop rounds it: accumulate adds left
    to right, one rounding per entry, and x + (-1) is x - 1. Every step
    before the first one whose exact r contradicts the speculated choice
    is accepted and scattered with fancy indexing.

    A miss happens where the exact r lands within rounding of 1, which
    weights within a few ulp of their mean do every few steps. From the
    first miss, if there is one, the loop's own steps finish the table on
    Python lists of the remaining entries, so a build never costs much more
    than the loop; the production tables build without a miss.
    """

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if not np.all(np.isfinite(w)):
            raise ParameterError("alias table needs finite weights")
        if np.any(w < 0.0) or not np.any(w > 0.0):
            raise ParameterError("alias table needs nonnegative weights, not all zero")
        self.prob, self.alias = _vose_tables(w * (len(w) / w.sum()))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        n = len(self.prob)
        x = rng.random(size) * n
        idx = x.astype(np.int64)
        frac = x - idx
        return np.where(frac < self.prob[idx], idx, self.alias[idx])


def _vose_tables(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``prob`` and ``alias`` of Vose's loop on normalized weights p (see AliasTable)."""
    n = len(p)
    prob = np.ones(n)
    alias = np.arange(n, dtype=np.int64)
    small = np.flatnonzero(p < 1.0)[::-1]  # the stacks' pop order
    large = np.flatnonzero(p >= 1.0)[::-1]
    n_small, n_large = len(small), len(large)
    if not n_large:
        return prob, alias
    s_val, l_val = p[small], p[large]
    r = float(l_val[0])  # the remainder of the current large
    deficit = np.zeros(n_small + 1)
    np.cumsum(1.0 - s_val, out=deficit[1:])
    surplus = np.cumsum(l_val[:-1] - 1.0)
    # smalls popped before each later large, and the large's step in the merge
    before = np.minimum(np.searchsorted(deficit, surplus, side="right"), n_small)
    at = np.arange(n_large - 1) + before
    steps = n_small + n_large - 1
    is_large = np.zeros(steps, dtype=bool)
    is_large[at] = True
    chain = np.empty(2 * steps + 1)
    chain[0] = r
    chain[1::2][at] = l_val[1:]
    chain[1::2][~is_large] = s_val
    chain[2::2] = -1.0
    np.add.accumulate(chain, out=chain)
    r_at = chain[: 2 * steps : 2]  # r before each step
    miss = np.flatnonzero((r_at >= 1.0) == is_large)
    k = int(miss[0]) if len(miss) else steps
    kl = int(np.searchsorted(at, k))
    i, j, r = k - kl, kl + 1, float(chain[2 * k])  # smalls and larges popped
    # from the first miss, the loop's own steps on the remaining entries, on
    # Python floats; each demoted large records the smalls popped before it
    # and its prob, as the speculation's accepted steps do
    s_p, l_p = s_val[i:].tolist(), l_val[j:].tolist()
    cuts, demoted = [], []
    a = b = 0
    ns, nl = len(s_p), len(l_p)
    while True:
        if r >= 1.0:
            if a == ns:
                break
            r = (r + s_p[a]) - 1.0
            a += 1
        elif b < nl:
            cuts.append(i + a)
            demoted.append(r)
            r = (r + l_p[b]) - 1.0
            b += 1
        else:
            break
    i, j = i + a, j + b
    before = np.concatenate((before[:kl], np.array(cuts, dtype=before.dtype)))
    current = large[:j]
    alias[small[:i]] = np.repeat(current, np.diff(before, prepend=0, append=i))
    prob[current[:-1]] = np.concatenate((r_at[at[:kl]], demoted))
    alias[current[:-1]] = current[1:]
    prob[small[:i]] = s_val[:i]
    return prob, alias


@dataclass
class OffspringDistribution:
    """Jump law of one individual: p_k = a_k / |a1| for k != 1.

    The table covers k <= tail_cutoff; beyond that a Pareto envelope with
    the analytic tail exponent is inverted and corrected by one rejection
    step against the power law k**-tail_exponent, or against the family's
    exact tail where it has one. The target need not be normalized: the
    accept test u * scale * m(k) < target(k) takes its scale from the
    target, so a constant factor in the target cancels.
    """

    probs: np.ndarray
    tail_cutoff: int
    tail_exponent: float
    tail_mass: float
    total_rate: float
    _alias: AliasTable = field(repr=False, default=None)
    _tail_accept_scale: float = field(repr=False, default=1.0)
    # k -> c * a_k for some c > 0 where the family has it (ScaleFunction.exact_tail)
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
            # the accept ratio target/(scale*m) needs scale >= max_k target/m
            ks = np.arange(self.tail_cutoff + 1, self.tail_cutoff + 4000, dtype=float)
            ratio = self._tail_target(ks) / self._envelope_mass(ks)
            self._tail_accept_scale = float(np.max(ratio)) * (1.0 + 1e-9)

    def _tail_target(self, k: np.ndarray) -> np.ndarray:
        if self._exact_tail is not None:
            return self._exact_tail(k)
        return k ** (-self.tail_exponent)

    def _envelope_mass(self, k: np.ndarray) -> np.ndarray:
        """Mass m(k) of integer k > J under Pareto(index beta-1) on [J+1/2, inf)."""
        J, beta = self.tail_cutoff, self.tail_exponent
        return (J + 0.5) ** (beta - 1.0) * ((k - 0.5) ** (1.0 - beta) - (k + 0.5) ** (1.0 - beta))

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
            m = self._envelope_mass(kf)
            accept = rng.random(todo) * self._tail_accept_scale * m < self._tail_target(kf)
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
    return OffspringDistribution(
        probs=p,
        tail_cutoff=coeffs.order,
        tail_exponent=coeffs.tail_exponent,
        tail_mass=tail_mass,
        total_rate=rate,
        _exact_tail=sf.exact_tail(),
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
