"""Randomized checks of the valuation identities against independent routes.

Each closed form for v_p of a factorial is compared with the Legendre
oracle at its own argument (p^n, k p^n, or p^k (p^n - 1)), kept within
ORACLE_RANGE.  The multinomial is checked against full factorials, on
up to 200 parts, so its balanced product pairs them over several rounds;
that product is checked against math.prod, and vp against a number
built with a known p-adic valuation.  The tiered primality check is
compared with the full twelve-base Miller-Rabin loop on random n < 2^64
and on products of two primes near 2^32, the hard composites.  The
profile is derandomized, so every run draws the same examples.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csatools.valuation import (
    is_prime_64bit,
    multinomial,
    product,
    vp,
    vp_factorial_k_times_prime_power,
    vp_factorial_misc,
    vp_factorial_oracle,
    vp_factorial_prime_power,
)

ORACLE_RANGE = 10**8  # largest oracle argument drawn
FIXED = settings(derandomize=True, max_examples=300, deadline=None, database=None)
PRIMES = st.sampled_from((2, 3, 5, 7, 11, 13, 31, 97, 9973))


def twelve_base_is_prime(n):
    """Trial division by the primes up to 37, then Miller-Rabin to all twelve as bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n in bases:
        return n in bases
    if any(n % q == 0 for q in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# every prime in the 2^16 integers below 2^32; a product of two is below 2^64.
# Deferred, so the sieve runs only when a test draws from it.
PRIMES_NEAR_2_32 = st.deferred(lambda: st.sampled_from(
    [n for n in range(2**32 - 2**16, 2**32) if twelve_base_is_prime(n)]))


def byte_strings_up_to(most):
    """Byte strings of any length up to `most`, read as lists of small picks.

    st.lists alone rarely draws past a few dozen elements, and one draw of
    bytes is far cheaper than a draw per element.
    """
    return st.integers(0, most).flatmap(lambda size: st.binary(min_size=size, max_size=size))


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
@given(byte_strings_up_to(200))
def test_multinomial_times_part_factorials_is_top_factorial(picks):
    parts = [pick % 41 for pick in picks]
    top = sum(parts)
    factorials = math.prod(math.factorial(part) for part in parts)
    assert multinomial(top, parts) * factorials == math.factorial(top)


@FIXED
@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80)), min_size=1, max_size=8),
       byte_strings_up_to(300))
def test_product_is_math_prod(values, picks):
    factors = [values[pick % len(values)] for pick in picks]
    assert product(factors) == math.prod(factors)


@FIXED
@given(PRIMES, st.integers(0, 3000), st.integers(1, 2**64))
def test_vp_of_known_valuation(p, e, m):
    assume(m % p != 0)
    assert vp(p, p**e * m) == e


@FIXED
@given(st.integers(0, 2**64 - 1))
def test_is_prime_matches_the_twelve_base_loop(n):
    assert is_prime_64bit(n) == twelve_base_is_prime(n)


@FIXED
@given(PRIMES_NEAR_2_32, PRIMES_NEAR_2_32)
def test_rejects_products_of_two_primes_near_2_to_the_32(p, q):
    assert not is_prime_64bit(p * q)
    assert not twelve_base_is_prime(p * q)
    assert is_prime_64bit(p)
