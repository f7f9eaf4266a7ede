"""Randomized differential tests of the closed-form cycle bound.

The library's karpenko_lower_bound is checked against the literal
minimum for small codimensions and against the grouped route in verify
for codimensions up to 10^40.  The shapes p^e * m and p^e - m put long
runs of zero or p - 1 digits at the low end of codim, where the early
exit of the digit walk fires late or never.  The symbolic certificate,
whose answer is proved rather than computed, is checked against the
closed-form certificate, which builds p^{rp}, and the certificate's
lower bound is pinned to rp, as its docstring proves.  The lemma behind
the symbolic proof, v_p(p + 1 + i) <= i on every window term, is swept
over all odd primes below 400.  The profile is derandomized, so every
run draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from csatools.karpenko import (
    corestriction_certificate,
    karpenko_lower_bound,
    proof_inequalities,
)
from csatools.valuation import is_prime_64bit, vp
from csatools.verify import karpenko_lower_bound_grouped
from test_karpenko import minimum_by_definition

PRIMES = st.sampled_from((2, 3, 5, 7, 11))
ODD_PRIMES = st.sampled_from((3, 5, 7, 11, 13, 101))
CERTIFICATE_BITS = 4096  # largest r*p*bit_length(p) drawn
FIXED = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def large_codims(draw):
    p = draw(PRIMES)
    shape = draw(st.sampled_from(("plain", "times", "minus")))
    if shape == "plain":
        codim = draw(st.integers(1, 10**40))
    else:
        e = draw(st.integers(1, 132 if p == 2 else 40))
        m = draw(st.integers(0, 10**6))
        codim = p**e * max(m, 1) if shape == "times" else p**e - m
    return p, max(codim, 1)


@FIXED
@given(PRIMES, st.integers(1, 12), st.integers(1, 3000))
def test_matches_definition(p, n, codim):
    assert karpenko_lower_bound(p, n, codim) == minimum_by_definition(p, n, codim)


@FIXED
@given(large_codims(), st.integers(1, 200))
def test_matches_grouped_route(case, n):
    p, codim = case
    assert karpenko_lower_bound(p, n, codim) == karpenko_lower_bound_grouped(p, n, codim)


@FIXED
@given(st.data(), ODD_PRIMES)
def test_symbolic_route_matches_certificate(data, p):
    r = data.draw(st.integers(1, CERTIFICATE_BITS // (p * p.bit_length())))
    assert proof_inequalities(p, r) == corestriction_certificate(p, r).violated


@FIXED
@given(st.data(), ODD_PRIMES)
def test_certificate_lower_bound_is_rp(data, p):
    r = data.draw(st.integers(1, CERTIFICATE_BITS // (p * p.bit_length())))
    assert corestriction_certificate(p, r).lower_bound == r * p


def test_window_lemma_sweep():
    # proof_inequalities' window: v_p(p + 1 + i) <= i < r + i for i = p - 1, 2p - 1, ... below rp - r
    primes = [p for p in range(3, 400, 2) if is_prime_64bit(p)]
    terms = [(p, r, i) for p in primes for r in range(1, 60) for i in range(p - 1, r * p - r, p)]
    assert len(terms) == 130101
    assert all(vp(p, p + 1 + i) <= i for p, r, i in terms)
