"""Randomized differential tests of the splitting-field bounds.

The cofactor m is checked against the multinomial route: the
multinomial (p^k(p^n - 1); p^n - 1, ..., p^n - 1) divided exactly by
p^{n(p^k - 1)}.  The prime-power bound is checked for its factorization
total = p_part * cofactor, for v_p(total) = n(p^k - 1) and for a
cofactor prime to p.  The general bound is checked against full
factorials times period^r, and the baseline against the direct product
of its points; a baseline entry below 1 is reported as such wherever it
stands among points past the size limit.  Inputs stay small
(p^(k+n) <= 7^4), so every factorial is cheap.  The profile is
derandomized, so every run draws the same examples.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csatools.bounds import (
    AlgebraShape,
    baseline_bound,
    cofactor_m,
    general_bound,
    prime_power_bound,
)
from csatools.valuation import SIZE_LIMIT_BITS, multinomial, vp

PRIME_POWER_MAX = 7**4  # largest p^(k+n) drawn
FIXED = settings(derandomize=True, max_examples=200, deadline=None, database=None)
PRIMES = st.sampled_from((2, 3, 5, 7))


@st.composite
def prime_power_instances(draw):
    p = draw(PRIMES)
    k = draw(st.integers(0, 3))
    n = draw(st.integers(1, 3))
    assume(p ** (k + n) <= PRIME_POWER_MAX)
    return p, k, n


@FIXED
@given(prime_power_instances())
def test_cofactor_matches_the_multinomial_route(case):
    p, k, n = case
    pk, pn = p**k, p**n
    quotient, residue = divmod(multinomial(pk * (pn - 1), [pn - 1] * pk), p ** (n * (pk - 1)))
    assert residue == 0
    assert cofactor_m(p, k, n) == quotient


@FIXED
@given(prime_power_instances())
def test_prime_power_bound_splits_off_its_p_part(case):
    p, k, n = case
    report = prime_power_bound(p, k, n)
    assert report.total == report.p_part * report.cofactor
    assert vp(p, report.total) == n * (p**k - 1)
    assert math.gcd(report.cofactor, p) == 1


@FIXED
@given(st.lists(st.integers(1, 8), min_size=1, max_size=6), st.integers(1, 6),
       st.integers(1, 4))
def test_general_bound_matches_full_factorials(degrees, period, multiple):
    index = period * multiple
    report = general_bound(AlgebraShape(tuple(degrees), index, period))
    top = sum(degrees) - len(degrees)
    r = top % index
    by_factorials = math.factorial(top) // math.prod(math.factorial(d - 1) for d in degrees)
    assert report == (by_factorials, r, period**r, by_factorials * period**r)


@FIXED
@given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 12)), min_size=1, max_size=8))
def test_baseline_matches_the_direct_product(points):
    direct = math.prod(degree**residue for degree, residue in points)
    assert baseline_bound(points) == direct


@FIXED
@given(st.lists(st.tuples(st.integers(2, 50), st.integers(1, 12)), max_size=8), st.data(),
       st.integers(-3, 0), st.booleans())
def test_a_bad_entry_is_reported_before_the_size_refusal(points, data, bad, in_degree):
    # one point alone is past the size limit, so the valid points' product is too
    points.append((3, SIZE_LIMIT_BITS))
    with pytest.raises(ValueError, match="the baseline product"):
        baseline_bound(points)
    points.insert(data.draw(st.integers(0, len(points))), (bad, 1) if in_degree else (2, bad))
    with pytest.raises(ValueError, match="^baseline point entries must be >= 1$"):
        baseline_bound(points)
