"""Cycle-degree lower bounds on generic Severi-Brauer varieties.

For the generic division algebra of degree p^n and period p, the p-adic
valuation of the degree of any codimension-k cycle on its Severi-Brauer
variety is at least

    min( { i + n - v_p(k - i) : i = 0, ..., k-1 } u { k } ).

karpenko_lower_bound evaluates that minimum by direct iteration (the
oracle route).  corestriction_certificate instantiates it for a
hypothetical presentation of the algebra as a corestriction from a
degree-p extension: such a presentation would produce a subvariety of
codimension p^{rp} - p^r - p - 1 whose degree has valuation exactly
rp - r, and the certificate records that this undershoots the lower
bound.  proof_inequalities establishes the same violation symbolically,
with no minimization loop, so it also covers parameter ranges where the
loop is infeasible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

from .valuation import Prime, vp

DEFAULT_ITERATION_BUDGET = 10**7
BUDGET_ENV_VAR = "CSATOOLS_ITERATION_BUDGET"


def iteration_budget(budget: int | None = None) -> int:
    """Resolve the loop budget: explicit arg, else env var, else default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"{BUDGET_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_ITERATION_BUDGET


def karpenko_lower_bound(
    p: int, n: int, codim: int, budget: int | None = None
) -> int:
    """min({ i + n - v_p(codim - i) } u { codim }) by direct iteration.

    codim beyond the iteration budget is rejected with a clean message;
    raise the budget (argument or CSATOOLS_ITERATION_BUDGET) to go
    further, or use the symbolic route where available.
    """
    p = int(Prime(p))
    if n < 1:
        raise ValueError(f"degree exponent must be positive, got {n}")
    if codim < 1:
        raise ValueError(f"codimension must be positive, got {codim}")
    limit = iteration_budget(budget)
    if codim > limit:
        raise ValueError(
            f"codimension {codim} exceeds the iteration budget {limit}"
        )
    best = codim
    for i in range(codim):
        t = codim - i
        v = 0
        while t % p == 0:
            t //= p
            v += 1
        cand = i + n - v
        if cand < best:
            best = cand
    return best


@dataclass(frozen=True)
class CorestrictionCertificate:
    """Numeric witness that a corestriction presentation is impossible.

    p odd; the hypothetical inner algebra has degree p^r over a degree-p
    extension, so the ambient generic algebra has degree p^{rp}.
    violated means the observed valuation undershoots the lower bound,
    refuting the presentation.
    """

    p: int
    r: int
    codim: int
    observed_valuation: int
    lower_bound: int
    violated: bool


def corestriction_certificate(
    p: int, r: int, budget: int | None = None
) -> CorestrictionCertificate:
    """Loop-evaluated certificate for the degree-p^{rp}, period-p case."""
    p = int(Prime(p))
    if p == 2:
        raise ValueError(
            "the certificate requires an odd prime: for p = 2 the "
            "auxiliary inequality p^r >= r + 2 already fails at r = 1"
        )
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    n = r * p  # inner degree p^r over a degree-p extension; s = 1
    codim = p ** (r * p) - p**r - p - 1
    limit = iteration_budget(budget)
    if codim > limit:
        raise ValueError(
            f"p^(r*p) = {p ** (r * p)} puts codimension {codim} beyond the "
            f"iteration budget {limit}; use proof_inequalities for this range"
        )
    observed = r * p - r
    lower = karpenko_lower_bound(p, n, codim, budget=limit)
    return CorestrictionCertificate(
        p=p,
        r=r,
        codim=codim,
        observed_valuation=observed,
        lower_bound=lower,
        violated=observed < lower,
    )


class AuxiliaryInequalities(NamedTuple):
    """Exact truth values of p^r >= r + 2 and p^r >= r*p."""

    pr_ge_r_plus_2: bool
    pr_ge_rp: bool


def auxiliary_inequalities(p: int, r: int) -> AuxiliaryInequalities:
    """Evaluate both auxiliary inequalities exactly.

    For p = 2, r = 1 the first one fails (2 < 3), which is exactly why
    the certificate is restricted to odd primes.
    """
    p = int(Prime(p))
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    pr = p**r
    return AuxiliaryInequalities(pr >= r + 2, pr >= r * p)


def proof_inequalities(p: int, r: int) -> bool:
    """Symbolic certificate: no loop over the full codimension range.

    Verifies, for k = p^{rp} - p^r - p - 1 and observed valuation rp - r:

    (a) rp - r < k, so the { k } branch of the minimum cannot save the
        corestriction presentation; and
    (b) v_p(k - i) < r + i for every i in [0, k-1], so no loop branch
        can either.

    (b) needs no check for i >= rp - r: there 0 < k - i < p^{rp} gives
    v_p(k - i) <= rp - 1 < rp <= r + i.  The remaining i < min(rp - r, k)
    are checked term by term with exact arithmetic, so the work is at
    most rp - r valuations no matter how large p^{rp} is.
    """
    p = int(Prime(p))
    if p == 2:
        raise ValueError("the symbolic certificate requires an odd prime")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    k = p ** (r * p) - p**r - p - 1
    observed = r * p - r

    inequality_a = observed < k
    window = min(r * p - r, k)
    small_i_ok = all(vp(p, k - i) < r + i for i in range(window))

    return inequality_a and small_i_ok
