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
        for p in PRIMES_TO_13 + [101, 2**31 - 1, 2**61 - 1]:
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
