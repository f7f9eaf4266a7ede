import math
import random
import time

import pytest

from csatools import valuation
from csatools.valuation import (
    Prime,
    is_prime_64bit,
    multinomial,
    vp,
    vp_factorial_k_times_prime_power,
    vp_factorial_misc,
    vp_factorial_oracle,
    vp_factorial_prime_power,
)

PRIMES_TO_13 = [2, 3, 5, 7, 11, 13]


class TestPrime:
    def test_accepts_primes(self):
        for p in PRIMES_TO_13 + [101, 2**31 - 1, 998244353, 1000000007, 4294967291, 2**61 - 1,
                                  18446744073709551557]:
            assert Prime(p) == p

    @pytest.mark.parametrize("bad", [-7, 0, 1, 4, 6, 9, 15, 21, 1024])
    def test_rejects_non_primes(self, bad):
        with pytest.raises(ValueError):
            Prime(bad)

    def test_rejects_strong_pseudoprime(self):
        # strong pseudoprime to bases 2, 3, 5, 7; the witness set must catch it
        assert 3215031751 == 151 * 751 * 28351
        with pytest.raises(ValueError):
            Prime(3215031751)

    def test_rejects_beyond_64_bits(self):
        with pytest.raises(ValueError, match="64"):
            Prime(2**64 + 13)

    def test_checked_prime_passes_through_unchecked(self, monkeypatch):
        p = Prime(7)
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return True

        monkeypatch.setattr(valuation, "is_prime_64bit", counting_is_prime)
        assert Prime(p) is p
        assert calls == []
        Prime(11)  # a plain int is still checked
        assert calls == [11]

    def test_behaves_as_int(self):
        p = Prime(7)
        assert p + 1 == 8
        assert isinstance(p, int)
        assert is_prime_64bit(7)
        assert not is_prime_64bit(8)


# OEIS A014233: the smallest strong pseudoprime to the first k prime bases, k = 1..12
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
           3825123056546413051, 318665857834031151167461)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The reference rule: (bound, k) means the first k of BASES decide every n
# below bound (A014233).  A prefix that reaches no further is left out.
PREFIX_TIERS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
                (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9), (2**64, 12))


def prefix_rule_is_prime(n):
    """Trial division by BASES, then Miller-Rabin to the shortest prefix of BASES deciding n."""
    if n < 2 or math.gcd(n, math.prod(BASES)) != 1:
        return n in BASES
    if n < 41 * 41:
        return True
    k = next(k for bound, k in PREFIX_TIERS if n < bound)
    return valuation._strong_probable_prime(n, BASES[:k])


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(limit - 1) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, limit, q)))
    return flags


class TestWitnessTiers:
    def test_rows_cover_the_range_with_bases_below_every_n_they_take(self):
        rows = valuation._WITNESS_TIERS
        assert [bound for bound, _ in rows] == [2047, 1373653, 4759123141, 2**64]
        lows = [41 * 41] + [bound for bound, _ in rows[:-1]]
        for low, (_, bases) in zip(lows, rows):  # the helper needs n > max(bases)
            assert max(bases) < low

    @pytest.mark.parametrize("bound,bases", valuation._WITNESS_TIERS[:-1])
    def test_each_row_bound_fools_its_own_bases(self, bound, bases):
        assert valuation._strong_probable_prime(bound, bases)
        assert not is_prime_64bit(bound)  # a later row's bases catch it

    def test_tiers_are_the_distinct_a014233_bounds(self):
        assert PREFIX_TIERS[-1] == (2**64, 12)
        assert [bound for bound, _ in PREFIX_TIERS[:-1]] == sorted(set(A014233[:-1]))
        for bound, k in PREFIX_TIERS[:-1]:  # k is the fewest bases that reach this bound
            assert A014233[k - 1] == bound and (k == 1 or A014233[k - 2] < bound)

    @pytest.mark.parametrize("bound,k", PREFIX_TIERS[:-1])
    def test_each_bound_fools_its_own_tier(self, bound, k):
        assert valuation._strong_probable_prime(bound, BASES[:k])
        assert not is_prime_64bit(bound)

    def test_merged_prefixes_are_fooled_by_the_same_bound(self):
        # why 2..19 gets no tier of its own, nor 2..29 or 2..31
        assert valuation._strong_probable_prime(341550071728321, BASES[:8])
        assert valuation._strong_probable_prime(3825123056546413051, BASES[:11])

    def test_twelve_bases_are_fooled_past_2_to_the_64(self):
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441 and n > 2**64
        assert valuation._strong_probable_prime(n, BASES)
        assert not valuation._strong_probable_prime(n, BASES + (41,))

    def test_agrees_with_the_prefix_rule_in_every_row(self):
        rng = random.Random(27)
        lows = [41 * 41] + [bound for bound, _ in valuation._WITNESS_TIERS[:-1]]
        cases = [n for n in A014233 if n < 2**64]
        for low, (high, _) in zip(lows, valuation._WITNESS_TIERS):
            cases += [rng.randrange(low, high) | 1 for _ in range(2000)]
            cases += range((high - 2) | 1, high - 400, -2)  # the odd n just below each bound
        assert [n for n in cases if is_prime_64bit(n) != prefix_rule_is_prime(n)] == []
        assert sum(map(is_prime_64bit, cases)) > 100  # primes, not only composites, compared

    def test_agrees_with_a_sieve_below_a_million(self):
        limit = 10**6
        flags = _sieve(limit)
        assert [n for n in range(limit) if is_prime_64bit(n) != flags[n]] == []

    def test_edges_of_the_cutoff_the_first_tiers_and_the_range(self):
        # 1681 = 41^2 and 1679 = 23 * 73; 1693 and 2039 take base 2 alone
        for n, prime in ((40, False), (41, True), (1679, False), (1681, False), (1693, True),
                         (2039, True), (1373651, False), (4294967291, True), (4759123141, False),
                         (2**64 - 59, True), (2**64 - 1, False)):
            assert is_prime_64bit(n) is prime, n


class TestVp:
    def test_examples(self):
        assert vp(3, 18) == 2
        assert vp(5, 7) == 0
        assert vp(2, 1024) == 10

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            vp(3, 0)

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            vp(4, 16)


class TestFactorialOracle:
    def test_examples(self):
        assert vp_factorial_oracle(3, 9) == 4  # floor(9/3) + floor(9/9)
        assert vp_factorial_oracle(2, 0) == 0
        assert vp_factorial_oracle(3, 6) == 2

    def test_matches_naive_product_valuation(self):
        # third route: count factors of p in 1*2*...*n directly
        for p in (2, 3, 5):
            for n in range(0, 200):
                naive = sum(vp(p, j) for j in range(1, n + 1))
                assert vp_factorial_oracle(p, n) == naive

    def test_answers_huge_inputs_quickly(self):
        # the loop runs log_p(n) times, so no input limit is needed
        started = time.perf_counter()
        assert vp_factorial_oracle(3, 3**9000) == vp_factorial_prime_power(3, 9000)
        assert time.perf_counter() - started < 0.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            vp_factorial_oracle(2, -1)


class TestClosedForms:
    def test_prime_power_examples(self):
        assert vp_factorial_prime_power(3, 2) == 4
        assert vp_factorial_prime_power(2, 0) == 0
        assert vp_factorial_prime_power(5, 3) == 31

    def test_prime_power_vs_oracle_sweep(self):
        for p in PRIMES_TO_13:
            for n in range(0, 7):
                assert vp_factorial_prime_power(p, n) == vp_factorial_oracle(p, p**n)

    def test_k_times_examples(self):
        assert vp_factorial_k_times_prime_power(3, 2, 2) == 8
        assert vp_factorial_k_times_prime_power(5, 1, 1) == 1
        assert vp_factorial_k_times_prime_power(7, 6, 1) == 6

    def test_k_times_vs_oracle_sweep(self):
        for p in PRIMES_TO_13:
            for k in range(1, p):
                for n in range(0, 5):
                    if k * p**n > 10**6:
                        continue
                    assert vp_factorial_k_times_prime_power(
                        p, k, n
                    ) == vp_factorial_oracle(p, k * p**n)

    @pytest.mark.parametrize("k", [-1, 0, 3, 10])
    def test_k_times_rejects_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            vp_factorial_k_times_prime_power(3, k, 1)

    @pytest.mark.parametrize("route,args", [
        (vp_factorial_prime_power, (3, -1)),
        (vp_factorial_misc, (3, -1, 1)),
        (vp_factorial_misc, (3, 1, -1)),
    ])
    def test_rejects_negative_exponents(self, route, args):
        with pytest.raises(ValueError, match="nonnegative"):
            route(*args)

    def test_misc_examples(self):
        assert vp_factorial_misc(3, 1, 1) == 2  # v_3(6!)
        assert vp_factorial_misc(2, 0, 1) == 0  # (2-1)! = 1
        assert vp_factorial_misc(3, 2, 1) == 8  # v_3(18!)

    def test_misc_vs_oracle_sweep(self):
        for p in (2, 3, 5, 7):
            for k in range(0, 4):
                for n in range(0, 4):
                    arg = p**k * (p**n - 1)
                    if arg > 10**6:
                        continue
                    assert vp_factorial_misc(p, k, n) == vp_factorial_oracle(p, arg)


def _partitions(total, maximum=None):
    if maximum is None:
        maximum = total
    if total == 0:
        yield ()
        return
    for head in range(min(total, maximum), 0, -1):
        for tail in _partitions(total - head, head):
            yield (head,) + tail


class TestMultinomial:
    def test_examples(self):
        assert multinomial(6, [2, 2, 2]) == 90
        assert multinomial(2, [1, 1]) == 2
        assert multinomial(0, []) == 1

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            multinomial(5, [2, 2])
        with pytest.raises(ValueError):
            multinomial(3, [4, -1])
        with pytest.raises(ValueError):
            multinomial(-1, [])

    def test_factorial_identity_all_partitions_to_20(self):
        for top in range(0, 21):
            for parts in _partitions(top):
                prod = 1
                for part in parts:
                    prod *= math.factorial(part)
                assert multinomial(top, parts) * prod == math.factorial(top)

    def test_valuation_matches_oracle_difference(self):
        rng = random.Random(5150)
        for _ in range(100):
            top = rng.randrange(0, 50)
            parts = []
            left = top
            while left:
                c = rng.randrange(1, left + 1)
                parts.append(c)
                left -= c
            coeff = multinomial(top, parts)
            for p in (2, 3, 5, 7):
                want = vp_factorial_oracle(p, top) - sum(
                    vp_factorial_oracle(p, part) for part in parts
                )
                assert vp(p, coeff) == want
