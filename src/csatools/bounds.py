"""Splitting-field degree bounds for Azumaya algebras over etale extensions.

Three bounds live here:

* the general bound for an algebra of component degrees (d_1, ..., d_m)
  whose corestriction has index I and period P: the multinomial
  (sum d_i - m; d_1 - 1, ..., d_m - 1) times P^r with
  r = (sum d_i - m) mod I;
* its prime-power specialization, p^k components of degree p^n with
  corestriction index dividing p^k: the multinomial total (p^k (p^n - 1);
  p^n - 1, ..., p^n - 1) splits as p^{n(p^k - 1)} * m with gcd(m, p) = 1.
  prime_power_bound is its one route; cofactor_m reads m off it;
* the a-priori baseline prod (deg A_q)^{[F(q):F]} that requires no index
  hypothesis at all, taken over (deg A_q, [F(q):F]) pairs, one per point
  q of Spec L.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import ConsistencyError
from .valuation import Frozen, Prime, multinomial, multinomial_bits, product, refuse_oversized


class AlgebraShape(Frozen):
    """Input data for the general bound.

    degrees is the unordered multiset of component degrees (stored
    sorted); index and period are the index I and period P of the
    corestriction, validated so that P divides I.
    """

    __slots__ = ("degrees", "index", "period")

    def __init__(self, degrees: tuple[int, ...], index: int, period: int):
        degrees = tuple(sorted(map(operator.index, degrees)))
        if len(degrees) < 1:
            raise ValueError("need at least one component degree")
        if any(d < 1 for d in degrees):
            raise ValueError(f"component degrees must be >= 1, got {degrees}")
        index, period = operator.index(index), operator.index(period)
        if index < 1 or period < 1:
            raise ValueError("index and period must be positive")
        if index % period != 0:
            raise ValueError(f"period {period} must divide index {index}")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "period", period)


class BoundReport(NamedTuple):
    """The general bound with every factor recorded.

    total = multinomial_factor * period_power, where
    period_power = period^remainder.
    """

    multinomial_factor: int
    remainder: int
    period_power: int
    total: int


class PrimePowerBound(NamedTuple):
    """prime_power_bound's record: the multinomial total = p_part * cofactor, gcd(cofactor, p) = 1."""

    p_part: int
    cofactor: int
    total: int


def general_bound(shape: AlgebraShape) -> BoundReport:
    """Degree of a splitting extension from index and period alone.

    The total is sized, as the multinomial's estimate plus the period
    power's r * bit_length(period), before either factor is built.
    """
    parts = [d - 1 for d in shape.degrees]
    top = sum(parts)
    r = top % shape.index
    refuse_oversized("the general bound",
                     multinomial_bits(top, parts) + r * shape.period.bit_length())
    mult = multinomial(top, parts)
    period_power = shape.period**r
    return BoundReport(
        multinomial_factor=mult,
        remainder=r,
        period_power=period_power,
        total=mult * period_power,
    )


def _prime_power_instance(p: int, k: int, n: int) -> Prime:
    """Check (p, k, n), and the size of p^k and p^n, for the prime-power bounds."""
    p, k, n = Prime(p), operator.index(k), operator.index(n)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    refuse_oversized("p^(k+n)", (k + n) * p.bit_length())
    return p


def prime_power_bound(p: int, k: int, n: int) -> PrimePowerBound:
    """Splitting degree p^{n(p^k - 1)} * m with m coprime to p: the one prime-power route.

    The multinomial total is sized before its p^k parts are listed, then
    built once and divided by its p-part.  The division is exact; a nonzero
    remainder would mean the formula itself is wrong, so that raises
    ConsistencyError, not ValueError.  verify's bound-valuation suite checks
    gcd(m, p) = 1 and v_p(total) = n(p^k - 1) independently.
    """
    p = _prime_power_instance(p, k, n)
    pk = p**k
    pn = p**n
    top = pk * (pn - 1)
    refuse_oversized("the prime-power bound", multinomial_bits(top, (pn - 1,)))
    total = multinomial(top, [pn - 1] * pk)
    p_part = p ** (n * (pk - 1))
    cofactor, residue = divmod(total, p_part)
    if residue:
        raise ConsistencyError(
            f"cofactor division not exact for p={p}, k={k}, n={n}"
        )
    return PrimePowerBound(p_part, cofactor, total)


def cofactor_m(p: int, k: int, n: int) -> int:
    """The prime-to-p cofactor m = total / p^{n(p^k - 1)}, read off prime_power_bound."""
    return prime_power_bound(p, k, n).cofactor


def baseline_bound(points) -> int:
    """prod (component degree)^(residue degree), the no-hypothesis bound, as a balanced product.

    points is any iterable of (component degree, residue degree) pairs of
    integers >= 1.  One pass checks the entries and sums the size
    estimate, residue * bit_length(degree), building no object per point.
    """
    points = list(points)
    bits = 0
    for degree, residue in points:
        degree, residue = operator.index(degree), operator.index(residue)
        if degree < 1 or residue < 1:
            raise ValueError("baseline point entries must be >= 1")
        bits += residue * degree.bit_length()
    if not points:
        raise ValueError("baseline bound needs at least one point")
    refuse_oversized("the baseline product", bits)
    # an int-like entry such as numpy.int64 would overflow in **, so it is read as an int
    return product(operator.index(d) ** operator.index(r) for d, r in points)


class BoundImprovement(NamedTuple):
    baseline: int
    improved_p_part: int


def bound_improvement(p: int, k: int, n: int) -> BoundImprovement:
    """(p^{n p^k}, p^{n(p^k - 1)}): baseline vs index-aware p-part.

    The baseline is baseline_bound at the one point (p^n, p^k), sized by
    that route's estimate; the improved p-part times p^n is the baseline.
    """
    p = _prime_power_instance(p, k, n)
    pk = p**k
    return BoundImprovement(baseline_bound([(p**n, pk)]), p ** (n * (pk - 1)))
