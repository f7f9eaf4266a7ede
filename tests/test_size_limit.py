"""One size limit for every route that builds a big number, and one step limit.

Each route estimates the bits of what it is about to build and passes the
estimate to valuation.refuse_oversized.  Each guarded route is run one
step past the limit, where it must refuse before building anything, and
exactly at the limit, where it must answer with a number of at most
SIZE_LIMIT_BITS bits, wherever that is cheap.  The many-factor products,
multinomial's many parts, baseline_bound's many points and general_bound's
many small parts, and the prime-power routes are run at their worst shape
at the limit, against their known answers (the prime-power total's by
factorials) and a wall-clock bound.  The certificate routes have their
own boundary tests in test_karpenko.py.  index_reduction's p^d terms of
n coordinates are checked the same way against
valuation.refuse_overlong's STEP_LIMIT.
"""

import itertools
import math
import re
import time

import pytest

from csatools import bounds, brauer, valuation, verify
from csatools.valuation import SIZE_LIMIT_BITS as LIMIT
from csatools.valuation import STEP_LIMIT

MULTINOMIAL_TOP = 2**20  # bit_length 21
MULTINOMIAL_PART = LIMIT // MULTINOMIAL_TOP.bit_length()
# the most parts of 1 the multinomial estimate admits: (ONES - 1) * bit_length(ONES) <= LIMIT
ONES = 123_362
POINTS = 2**20  # points (2, 1), each 1 * bit_length(2) bits
SMALL_PARTS = 41_943  # the most degrees of 2 the general bound admits at index = period = 2^33
P64 = 18446744073709551557  # the largest prime below 2^64
# the first prime whose p^p is refused
PROP1_PAST = next(q for q in itertools.count(2) if q * q.bit_length() > LIMIT and valuation.is_prime_64bit(q))
# the first prime whose case table, p^2 rows of (p + 2) * bit_length(p) bits, is refused
TABLE_PAST = next(q for q in itertools.count(3)
                  if q * q * (q + 2) * q.bit_length() > LIMIT and valuation.is_prime_64bit(q))


def _within(seconds, want, call, *args):
    """call(*args), checked to equal want and to return within `seconds` of wall-clock time."""
    start = time.perf_counter()
    answer = call(*args)
    elapsed = time.perf_counter() - start
    assert elapsed <= seconds, f"{call.__name__} took {elapsed:.1f} s, more than {seconds} s"
    assert answer == want
    return answer


def _by_factorials(p, k, n):
    """(p_part, cofactor, total) of the prime-power bound, the total by verify's factorial ratio."""
    total = verify.prime_power_total_by_factorials(p, k, n)
    p_part = p ** (n * (p**k - 1))
    return p_part, total // p_part, total


def _small_parts(n):
    """general_bound's record for n degrees of 2 at index = period = 2^33: n! times (2^33)^n, r = n."""
    factorial = math.factorial(n)
    return factorial, n, 1 << (33 * n), factorial << (33 * n)


# route -> (call exactly at the limit, or None where that is not cheap;
#           call one step past it; the number it names when refusing)
BOUNDARY = {
    "vp_factorial_prime_power": (  # n * bit_length(3)
        lambda: valuation.vp_factorial_prime_power(3, LIMIT // 2),
        lambda: valuation.vp_factorial_prime_power(3, LIMIT // 2 + 1),
        "p^n",
    ),
    "vp_factorial_k_times_prime_power": (
        lambda: valuation.vp_factorial_k_times_prime_power(3, 2, LIMIT // 2),
        lambda: valuation.vp_factorial_k_times_prime_power(3, 2, LIMIT // 2 + 1),
        "p^n",
    ),
    "vp_factorial_misc": (  # p^(k+n) is built
        lambda: valuation.vp_factorial_misc(3, 10, LIMIT // 2 - 10),
        lambda: valuation.vp_factorial_misc(3, 10, LIMIT // 2 - 9),
        "p^n",
    ),
    "multinomial": (  # (top - largest part) * bit_length(top)
        lambda: valuation.multinomial(MULTINOMIAL_TOP, [MULTINOMIAL_TOP - MULTINOMIAL_PART, MULTINOMIAL_PART]),
        lambda: valuation.multinomial(MULTINOMIAL_TOP, [MULTINOMIAL_TOP - MULTINOMIAL_PART - 1, MULTINOMIAL_PART + 1]),
        "the multinomial",
    ),
    "multinomial, many parts": (  # (ONES - 1) * 17 = 2,097,137 bits; 0.4-0.8 s on 3.10-3.13
        lambda: _within(3.5, math.factorial(ONES), valuation.multinomial, ONES, [1] * ONES),
        lambda: valuation.multinomial(ONES + 1, [1] * (ONES + 1)),
        "the multinomial",
    ),
    # (k + n) * bit_length(p), before p^k is built.  It binds only at k = 0, where the total is
    # N! / N! = 1 and the cost is p^n: 0.10-0.24 s at 2^21 bits on 3.10-3.13
    "prime_power_instance": (
        lambda: _within(1, (1, 1, 1), bounds.prime_power_bound, P64, 0, LIMIT // 64).total,
        lambda: bounds.prime_power_bound(3, LIMIT // 2, 1),
        "p^(k+n)",
    ),
    # the multinomial estimate (p^k - 1)(p^n - 1) * bit_length(N), N = p^k (p^n - 1).  The slowest
    # admitted shapes: (2, 1, 16) on 3.10 (1.8-2.1 s, math.comb), (3, 10, 1) on 3.11-3.13 (0.4-0.7 s)
    "cofactor_m": (
        lambda: _within(9, _by_factorials(2, 1, 16)[1], bounds.cofactor_m, 2, 1, 16),
        lambda: bounds.cofactor_m(2, 1, 17),
        "the prime-power bound",
    ),
    "prime_power_bound": (
        lambda: _within(4, _by_factorials(3, 10, 1), bounds.prime_power_bound, 3, 10, 1).total,
        lambda: bounds.prime_power_bound(3, 11, 1),
        "the prime-power bound",
    ),
    "bound_improvement": (  # baseline_bound's p^k * bit_length(p^n): 3 * 699,050, then 3 * 699,051
        lambda: bounds.bound_improvement(3, 1, 441_051).baseline,
        lambda: bounds.bound_improvement(3, 1, 441_052),
        "the baseline product",
    ),
    "baseline_bound": (  # sum of residue degree * bit_length(component degree)
        lambda: bounds.baseline_bound([(3, LIMIT // 2)]),
        lambda: bounds.baseline_bound([(3, LIMIT // 2), (2, 1)]),
        "the baseline product",
    ),
    "baseline_bound, many points": (  # POINTS * 2 = LIMIT bits; 0.27-0.45 s on 3.11, about half of it the product
        lambda: _within(2, 1 << POINTS, bounds.baseline_bound, [(2, 1)] * POINTS),
        lambda: bounds.baseline_bound([(2, 1)] * (POINTS + 1)),
        "the baseline product",
    ),
    "general_bound": (  # multinomial estimate (0 for one part) + r * bit_length(period), r = top mod index
        lambda: bounds.general_bound(bounds.AlgebraShape((LIMIT // 2 + 1,), 3**13, 3)).total,
        lambda: bounds.general_bound(bounds.AlgebraShape((LIMIT // 2 + 2,), 3**13, 3)),
        "the general bound",
    ),
    # (N - 1) * bit_length(N) + N * bit_length(2^33) for N degrees of 2: 41,942 * 16 + 41,943 * 34
    # = 2,097,134 bits at SMALL_PARTS, 2,097,184 one past it; the past call's 59,999 * 16 + 60,000 * 34
    # = 2,999,984 bits.  The answer N! * (2^33)^N, 1,967,700 bits, took 0.11-0.14 s on 3.10-3.13
    "general_bound, many small parts": (
        lambda: _within(1, _small_parts(SMALL_PARTS), bounds.general_bound,
                        bounds.AlgebraShape((2,) * SMALL_PARTS, 2**33, 2**33)).total,
        lambda: bounds.general_bound(bounds.AlgebraShape((2,) * 60000, 2**33, 2**33)),
        "the general bound",
    ),
    "prop1_scenario": (  # p^p: p * bit_length(p)
        None,
        lambda: brauer.prop1_scenario(PROP1_PAST),
        "p^p",
    ),
    "prop1_case_table": (
        None,
        lambda: brauer.prop1_case_table(PROP1_PAST),
        "p^p",
    ),
    "prop1_case_table rows": (  # p^2 * (p + 2) * bit_length(p), checked after p^p
        None,
        lambda: brauer.prop1_case_table(TABLE_PAST),
        "the case table",
    ),
}


@pytest.mark.parametrize("route", list(BOUNDARY))
def test_answers_at_the_limit_and_refuses_past_it(route):
    at, past, what = BOUNDARY[route]
    if at is not None:
        assert 0 < at().bit_length() <= LIMIT
    with pytest.raises(ValueError, match=re.escape(what) + " would have .* bits, beyond the size limit"):
        past()


@pytest.mark.parametrize("bits, shown", [
    (2**64 - 1, "18446744073709551615"),
    (2**64, "2^65"),
    (3**1000000, "2^1584963"),  # str() of this estimate takes seconds before Python 3.12
], ids=["2^64 - 1", "2^64", "3^1000000"])
def test_an_estimate_of_2_64_bits_or_more_is_named_by_the_power_of_two_above_it(bits, shown):
    with pytest.raises(ValueError, match=f"^x would have up to {re.escape(shown)} bits, "):
        valuation.refuse_oversized("x", bits)


@pytest.mark.parametrize("route, bits", [("general_bound", 2 * (LIMIT // 2 + 1)),
                                         ("general_bound, many small parts", 2_999_984)])
def test_general_bound_refuses_before_it_builds_the_multinomial(monkeypatch, route, bits):
    def unreachable(top, parts):
        raise AssertionError("the multinomial was built")

    monkeypatch.setattr(bounds, "multinomial", unreachable)
    with pytest.raises(ValueError, match=f"^the general bound would have up to {bits} bits, "
                                         f"beyond the size limit of {LIMIT} bits$"):
        BOUNDARY[route][1]()


def test_prime_power_bound_with_k_0_answers_one_at_the_instance_limit():
    # N! for N = 3^(2^20) - 1 is far past the limit, but the total N! / N! = 1 is not
    assert bounds.prime_power_bound(3, 0, LIMIT // 2) == (1, 1, 1)


def test_case_table_answers_for_the_last_prime_before_its_limit():
    p = max(q for q in range(3, TABLE_PAST) if valuation.is_prime_64bit(q))
    assert (p, TABLE_PAST) == (61, 67)
    rows = brauer.prop1_case_table(p)
    assert len(rows) == p * p
    assert sum(row["term"].bit_length() for row in rows) <= LIMIT


def _reduce(p, n, d):
    """index_reduction of (1, ..., 1) over X_{p^d} of itself: p^d terms of n coordinates."""
    v = brauer.BrauerVector(p, (1,) * n)
    return brauer.index_reduction(v, v, d)


# route -> (call exactly at the step limit and its answer, or None; call past it)
STEP_BOUNDARY = {
    "index_reduction": (  # 2^2 terms of STEP_LIMIT / 4 coordinates, then one coordinate more
        (lambda: _reduce(2, STEP_LIMIT // 4, 2), 2**2),
        lambda: _reduce(2, STEP_LIMIT // 4 + 1, 2),
    ),
    "index_reduction, d far past the limit": (None, lambda: _reduce(3, 1, 10**18)),
    "prop1_scenario": (  # p^2 terms of p coordinates: 61^3 answers, 67^3 is refused
        (lambda: brauer.prop1_scenario(61)["index_of_A"], 61**2),
        lambda: brauer.prop1_scenario(67),
    ),
}


@pytest.mark.parametrize("route", list(STEP_BOUNDARY))
def test_answers_at_the_step_limit_and_refuses_past_it(route):
    at, past = STEP_BOUNDARY[route]
    if at is not None:
        call, want = at
        assert call() == want
    with pytest.raises(ValueError, match="the index-reduction gcd would take .* loop steps, "
                                         "beyond the step limit"):
        past()


@pytest.mark.parametrize("base", [2, 3, 7, 61, 2**18 - 5, 2**18 + 3])
def test_the_step_check_refuses_exactly_the_steps_past_the_limit(base):
    for exponent in range(0, 40):
        for factor in (1, 2, 3, 5, 60, 61, 2**16, 2**18, 2**18 + 1):
            over = base**exponent * factor > STEP_LIMIT
            try:
                valuation.refuse_overlong("the loop", base, exponent, factor)
            except ValueError:
                assert over
            else:
                assert not over
