"""Randomized checks of the valuation identities against independent routes.

Each closed form for v_p of a factorial is compared with the Legendre
oracle at its own argument (p^n, k p^n, or p^k (p^n - 1)), kept within
ORACLE_RANGE.  The multinomial is checked against full factorials,
and vp against a number built with a known p-adic valuation.  The
profile is derandomized, so every run draws the same examples.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csatools.valuation import (
    multinomial,
    vp,
    vp_factorial_k_times_prime_power,
    vp_factorial_misc,
    vp_factorial_oracle,
    vp_factorial_prime_power,
)

ORACLE_RANGE = 10**8  # largest oracle argument drawn
FIXED = settings(derandomize=True, max_examples=300, deadline=None, database=None)
PRIMES = st.sampled_from((2, 3, 5, 7, 11, 13, 31, 97, 9973))


def top_exponent(p, times=1):
    """Largest n >= 0 with times * p^n <= ORACLE_RANGE."""
    n = 0
    while times * p ** (n + 1) <= ORACLE_RANGE:
        n += 1
    return n


@FIXED
@given(st.data(), PRIMES)
def test_prime_power_matches_oracle(data, p):
    n = data.draw(st.integers(0, top_exponent(p)))
    assert vp_factorial_prime_power(p, n) == vp_factorial_oracle(p, p**n)


@FIXED
@given(st.data(), PRIMES)
def test_k_times_prime_power_matches_oracle(data, p):
    k = data.draw(st.integers(1, p - 1))
    n = data.draw(st.integers(0, top_exponent(p, k)))
    assert vp_factorial_k_times_prime_power(p, k, n) == vp_factorial_oracle(p, k * p**n)


@FIXED
@given(st.data(), PRIMES)
def test_misc_matches_oracle(data, p):
    n = data.draw(st.integers(0, top_exponent(p)))
    k = data.draw(st.integers(0, top_exponent(p, max(p**n - 1, 1))))
    assert vp_factorial_misc(p, k, n) == vp_factorial_oracle(p, p**k * (p**n - 1))


@FIXED
@given(st.lists(st.integers(0, 40), max_size=6))
def test_multinomial_times_part_factorials_is_top_factorial(parts):
    top = sum(parts)
    product = math.prod(math.factorial(part) for part in parts)
    assert multinomial(top, parts) * product == math.factorial(top)


@FIXED
@given(PRIMES, st.integers(0, 3000), st.integers(1, 2**64))
def test_vp_of_known_valuation(p, e, m):
    assume(m % p != 0)
    assert vp(p, p**e * m) == e
