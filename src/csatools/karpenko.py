"""Cycle-degree lower bounds on generic Severi-Brauer varieties.

For the generic division algebra of degree p^n and period p, the p-adic
valuation of the degree of any codimension-k cycle on its Severi-Brauer
variety is at least

    min( { i + n - v_p(k - i) : i = 0, ..., k-1 } u { k } ).

karpenko_lower_bound evaluates that minimum in closed form, in
O(log k) steps.  corestriction_certificate instantiates it for a
hypothetical presentation of the algebra as a corestriction from a
degree-p extension: such a presentation would produce a subvariety of
codimension p^{rp} - p^r - p - 1 whose degree has valuation exactly
rp - r, and the certificate records that this undershoots the lower
bound.  proof_inequalities returns the same violation symbolically: its
docstring proves it for every odd p and r >= 1, so it builds nothing and
loops over nothing, and verify checks the proof's lemma term by term.
Each route refuses only what it builds: corestriction_certificate
refuses p^{rp} past the size limit, and auxiliary_inequalities p^r.

The paper proves the corestriction result for odd p and index p^n with
n < p^2, that is n = rp with r < p.  Both routes take any r >= 1; for
r >= p their answer is the formula's, outside the range the paper states.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .valuation import Prime, refuse_oversized


def karpenko_lower_bound(p: int, n: int, codim: int) -> int:
    """min({ i + n - v_p(codim - i) } u { codim }) in closed form.

    Write j = codim - i.  A candidate with v_p(j) = v is at least
    (codim mod p^v) + n - v, and j = codim - (codim mod p^v) reaches at
    most that, so the minimum is

        min(codim, min over p^v <= codim of (codim mod p^v) + n - v).

    codim mod p^v is built from the p-adic digits of codim, lowest first.
    It never decreases, and n - v > n - codim.bit_length(), so the walk
    stops as soon as no later v can beat the best value so far.
    """
    p, n, codim = Prime(p), operator.index(n), operator.index(codim)
    if n < 1:
        raise ValueError(f"degree exponent must be positive, got {n}")
    if codim < 1:
        raise ValueError(f"codimension must be positive, got {codim}")
    best = codim
    floor = n - codim.bit_length()  # below n - v for every v with p^v <= codim
    rem, high, pv, v = 0, codim, 1, 0  # rem = codim mod p^v, high = codim // p^v
    while high and rem + floor < best:
        best = min(best, rem + n - v)
        high, digit = divmod(high, p)
        rem += digit * pv
        pv *= p
        v += 1
    return best


class CorestrictionCertificate(NamedTuple):
    """Numeric witness that a corestriction presentation is impossible.

    For an odd p, the hypothetical inner algebra has degree p^r over a
    degree-p extension, so the ambient generic algebra has degree p^{rp}.
    violated means the observed valuation undershoots the lower bound,
    refuting the presentation.
    """

    codim: int
    observed_valuation: int
    lower_bound: int
    violated: bool


def _certificate_instance(p: int, r: int) -> Prime:
    """Check that p is an odd prime and r >= 1; return p as a Prime."""
    p = Prime(p)
    if p == 2:
        raise ValueError(
            "the certificate requires an odd prime: for p = 2 the "
            "auxiliary inequality p^r >= r + 2 already fails at r = 1"
        )
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    return p


def corestriction_certificate(p: int, r: int) -> CorestrictionCertificate:
    """Closed-form certificate for the degree-p^{rp}, period-p case.

    lower_bound is always rp, so it exceeds the observed rp - r by r; the
    route still computes it.  With k = codim, the v = 0 candidate of
    karpenko_lower_bound is (k mod 1) + rp - 0 = rp.  The { k } branch is
    larger: p^{rp} >= p^{3r} >= 9p^r and p^r >= rp >= p, so k >= 7p^r - 1
    > rp.  A candidate v >= 1 is (k mod p^v) + rp - v, at least rp iff
    k mod p^v >= v.  p^v <= k < p^{rp} gives v < rp, so
    k = -s (mod p^v) with s = p^r + p + 1.  At v = 1, k mod p = p - 1 >= 1.
    At v >= 2, s mod p^v is p + 1 (v <= r) or s (v > r); both are positive
    and at most 2p^{v-1} + 1, so k mod p^v >= p^v - 2p^{v-1} - 1
    >= p^{v-1} - 1 >= 3^{v-1} - 1 >= v.

    The paper states the result for r < p only (n = rp < p^2); for r >= p
    this is the formula's answer, outside that range.  The ambient degree
    p^{rp} (inner degree p^r over a degree-p extension, s = 1) is estimated
    at r*p*bit_length(p) bits and refused past the size limit.
    """
    p = _certificate_instance(p, r)
    refuse_oversized("p^(r*p)", r * p * p.bit_length())
    n = r * p
    codim = p**n - p**r - p - 1
    lower = karpenko_lower_bound(p, n, codim)
    return CorestrictionCertificate(codim, n - r, lower, n - r < lower)


class AuxiliaryInequalities(NamedTuple):
    """Exact truth values of p^r >= r + 2 and p^r >= r*p."""

    pr_ge_r_plus_2: bool
    pr_ge_rp: bool


def auxiliary_inequalities(p: int, r: int) -> AuxiliaryInequalities:
    """Evaluate both auxiliary inequalities exactly.

    For p = 2, r = 1 the first one fails (2 < 3), which is exactly why
    the certificate is restricted to odd primes.  p^r is refused past the
    size limit, estimated as r*bit_length(p) bits.
    """
    p, r = Prime(p), operator.index(r)
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    refuse_oversized("p^r", r * p.bit_length())
    pr = p**r
    return AuxiliaryInequalities(pr >= r + 2, pr >= r * p)


def proof_inequalities(p: int, r: int) -> bool:
    """Symbolic certificate: proved for every odd p and r >= 1, so it returns True.

    Establishes, for k = p^{rp} - p^r - p - 1 and observed valuation rp - r:

    (a) rp - r < k, so the { k } branch of the minimum cannot save the
        corestriction presentation; and
    (b) v_p(k - i) < r + i for every i in [0, k-1], so no loop branch
        can either.

    (a): p^{rp} >= p^{3r} >= 9p^r, and p^r >= 1 + r(p - 1) and p^r >= p, so
    k - (rp - r) >= (p^r - 1 - r(p - 1)) + (p^r - p) + 6p^r > 0.
    (b) is a lemma in three ranges of i:
    - v_p(k - i) = 0 unless i = p - 1 (mod p), since k = p - 1 (mod p);
    - for i >= rp - r, 0 < k - i < p^{rp} gives v_p(k - i) <= rp - 1 < r + i;
    - on the window between, i = p - 1, 2p - 1, ... below rp - r,
      v_p(k - i) = v_p(p + 1 + i) <= i < r + i.  The window is empty at
      r = 1.  At r >= 2, p + 1 + i <= rp + p - r < p^r, so v_p(p + 1 + i)
      < r <= v_p(p^{rp} - p^r), and k - i = p^{rp} - p^r - (p + 1 + i) has
      the valuation of p + 1 + i.  Every window i is at least p - 1 >= 2,
      and p + 1 + i < p^{i+1} there, so v_p(p + 1 + i) <= i.
    verify.proof_inequalities_by_window checks the window term by term.
    As for corestriction_certificate, the paper states the result for
    r < p only; for r >= p this is the formula's answer, outside that range.
    """
    _certificate_instance(p, r)
    return True
