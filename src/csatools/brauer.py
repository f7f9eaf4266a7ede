"""Generic Brauer classes mod p and Blanchet-style index reduction.

A family A_1, ..., A_n of degree-p algebras is *generic* when every
tensor monomial with all exponents coprime to p is a division algebra.
We model the Brauer span of such a family as vectors in (Z/p)^n, with
one axiom extending genericity to arbitrary exponent vectors: the index
of the class with exponents (c_1, ..., c_n) is p^(number of nonzero c_j).
(Each such class is a generic monomial in the sub-family where it has a
nonzero exponent, and a sub-family of a generic family is generic.)

On this model the index-reduction gcd over the function field of a
generalized Severi-Brauer variety X_{p^d}(A) becomes a finite exact
computation,

    gcd over i = 1..p^d of  (p^d / gcd(p^d, i)) * index(B + i*A),

which is what the counterexample scenarios below evaluate.  The range
stops at i = p^d because the model is p-periodic in i and i = p^d
realizes the factor-1 branch.  index_reduction and prop1_case_table
read the gcd terms from one generator, prop1/prop2 run one scenario
routine, and prop1's scenario and table share one instance check.  A
BrauerVector keeps p as a Prime, and combine alone checks that two
vectors live in one group.  `verify` checks index_reduction against the
gcd written as a minimum over the p - 1 nonzero shifts
(index_reduction_by_min_form), which uses none of this module.
"""

from __future__ import annotations

import math
import operator

from .errors import ConsistencyError
from .valuation import Frozen, Prime, refuse_overlong, refuse_oversized


class BrauerVector(Frozen):
    """A Brauer class in the generic model: residues mod p, one per generator.

    len() is the number of coordinates.
    """

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords: tuple[int, ...]):
        p = Prime(p)
        coords = tuple(map(operator.index, coords))
        if len(coords) < 1:
            raise ValueError("a Brauer vector needs at least one coordinate")
        for c in coords:
            if not 0 <= c < p:
                raise ValueError(f"coordinate {c} not a residue mod {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coords", coords)

    def __len__(self):
        return len(self.coords)


def model_index(v: BrauerVector) -> int:
    """p^(number of nonzero coordinates)."""
    return v.p ** sum(1 for c in v.coords if c != 0)


def combine(v: BrauerVector, w: BrauerVector, i: int) -> BrauerVector:
    """v + i*w with coordinates reduced mod p."""
    if v.p != w.p or len(v) != len(w):
        raise ValueError(
            f"vectors live in different groups: (p={v.p}, n={len(v)}) "
            f"vs (p={w.p}, n={len(w)})"
        )
    return BrauerVector(
        v.p, tuple((a + i * b) % v.p for a, b in zip(v.coords, w.coords))
    )


def _terms(target: BrauerVector, fiber: BrauerVector, d: int):
    """Yield (i, factor, index) for i = 1..p^d; term i of the gcd is factor * index.

    factor = p^d / gcd(p^d, i) and index = index(target + i*fiber).
    """
    pd = target.p**d
    for i in range(1, pd + 1):
        yield i, pd // math.gcd(pd, i), model_index(combine(target, fiber, i))


def index_reduction(target: BrauerVector, fiber: BrauerVector, d: int) -> int:
    """Index of `target` over the function field of X_{p^d}(fiber).

    Evaluates the gcd formula over i = 1..p^d; the last index covers the
    i = 0 residue class with multiplier 1.  Its p^d terms of n coordinates
    are refused past the step limit before any term is built.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    refuse_overlong("the index-reduction gcd", target.p, d, len(target))
    out = 0
    for _, factor, index in _terms(target, fiber, d):
        out = math.gcd(out, factor * index)
    return out


def _scenario(base: BrauerVector, twisted: BrauerVector, d: int) -> dict:
    """Report the indices of A = base (all exponents 1) and A' = twisted.

    Both are taken over the function field of X_{p^d}(A); a pair other
    than (p^d, p^n) raises ConsistencyError.
    """
    p = base.p
    computed = (index_reduction(base, base, d), index_reduction(twisted, base, d))
    expected = (p**d, p ** len(base))
    if computed != expected:
        raise ConsistencyError(f"expected {expected}, computed {computed}")
    return {"exponents_of_A_prime": twisted.coords,
            "index_of_A": computed[0], "index_of_A_prime": computed[1]}


def _prop1_instance(p: int) -> tuple[BrauerVector, BrauerVector]:
    """A = (1, ..., 1) and A' = (1, 1, 2, ..., p - 1), for a prime p >= 3 with p^p in the limit."""
    p = Prime(p)
    if p < 3:
        raise ValueError(f"prop1 needs p >= 3 (the exponent pattern degenerates at p=2), got {p}")
    refuse_oversized("p^p", p * p.bit_length())
    return BrauerVector(p, (1,) * p), BrauerVector(p, (1, 1) + tuple(range(2, p)))


def prop1_scenario(p: int) -> dict:
    """Sharpness scenario at index p^2.

    Takes A = A_1 x ... x A_p (all exponents 1) and the reweighted
    product A' with exponents (1, 1, 2, 3, ..., p-1), over the function
    field of X_{p^2}(A).  A drops to index p^2 there while A' keeps
    index p^p, so every common splitting field of the A_j has degree
    divisible by p^p.  Raises ConsistencyError if the computed pair is
    not (p^2, p^p), and refuses p^p past the size limit up front.
    """
    return _scenario(*_prop1_instance(p), 2)


def prop1_case_table(p: int) -> list[dict]:
    """Per-term breakdown of the prop1 gcd into its three residue cases.

    Every term (p^2/gcd(p^2, i)) * index(A' + i*A) for i = 1..p^2 falls
    into one of three buckets with a predicted value:

    * i = p-1 mod p (automatically coprime to p): p^2 * p^(p-2)
    * any other i coprime to p:                   p^2 * p^(p-1)
    * p | i:                                      p * p^p, or p^p at i = p^2

    Each predicted value is built from i and p alone; a term that misses
    it raises ConsistencyError.  The table is the output, so its size,
    p^2 rows of about (p + 2) * bit_length(p) bits, is refused past the
    size limit before any row is built.
    """
    base, twisted = _prop1_instance(p)
    p = base.p
    p2 = p * p
    refuse_oversized("the case table", p2 * (p + 2) * p.bit_length())
    rows = []
    for i, factor, idx in _terms(twisted, base, 2):
        term = factor * idx
        if i % p == p - 1:
            case = "i = p-1 mod p, p coprime to i"
            expected = p2 * p ** (p - 2)
        elif i % p != 0:
            case = "other i coprime to p"
            expected = p2 * p ** (p - 1)
        else:
            case = "p divides i"
            expected = (p if i < p2 else 1) * p**p
        if term != expected:
            raise ConsistencyError(
                f"term {term} at i={i} does not match its case value {expected}"
            )
        rows.append(
            {
                "i": i,
                "factor": factor,
                "index": idx,
                "term": term,
                "case": case,
            }
        )
    return rows


def prop2_scenario(p: int, d: int, n: int) -> dict:
    """Sharpness scenario at index p^d with d < n < p.

    Takes A = A_1 x ... x A_n (exponents all 1) and A' with exponents
    (1, 2, ..., n), over the function field of X_{p^d}(A).  The computed
    pair must be (p^d, p^n), from two index_reduction calls.  No d = 1
    reduction is re-run here: verify's brauer-model suite runs d = 1 as
    a scenario of its own for every (p, n) it covers.
    """
    p, d, n = Prime(p), operator.index(d), operator.index(n)
    if not 0 < d < n < p:
        raise ValueError(f"need 0 < d < n < p, got d={d}, n={n}, p={p}")
    refuse_overlong("the index-reduction gcd", p, d, n)  # before the n-coordinate vectors
    return _scenario(BrauerVector(p, (1,) * n), BrauerVector(p, tuple(range(1, n + 1))), d)
