import random

import pytest

from csatools import valuation
from csatools.karpenko import (
    auxiliary_inequalities,
    corestriction_certificate,
    karpenko_lower_bound,
    proof_inequalities,
)
from csatools.valuation import vp
from csatools.verify import karpenko_lower_bound_grouped, proof_inequalities_by_window


def minimum_by_definition(p, n, k):
    """Literal transcription of the minimum, kept separate from the library."""
    candidates = {k}
    for i in range(k):
        candidates.add(i + n - vp(p, k - i))
    return min(candidates)


def proof_inequalities_full_window(p, r):
    """The window oracle's condition on its earlier, wider window of p^r + p + 1 terms."""
    k = p ** (r * p) - p**r - p - 1
    observed = r * p - r
    large_i_ok = r * p < r + p**r + p + 1
    small_i_ok = all(vp(p, k - i) < r + i for i in range(min(p**r + p + 1, k)))
    return observed < k and large_i_ok and small_i_ok


class TestLowerBound:
    def test_single_term_case(self):
        assert karpenko_lower_bound(2, 1, 1) == 1

    def test_hand_evaluated_case(self):
        # i = 0,1,2 give 1, 3, 4; the codimension branch gives 3
        assert karpenko_lower_bound(3, 2, 3) == 1

    def test_derived_case(self):
        assert karpenko_lower_bound(3, 3, 20) == 3
        assert karpenko_lower_bound_grouped(3, 3, 20) == 3

    def test_matches_definition_on_a_grid(self):
        rng = random.Random(8)
        cases = [(p, n, k) for p in (2, 3, 5) for n in (1, 2, 4) for k in (1, 2, 3, 9, 50)]
        cases += [
            (rng.choice((2, 3, 5, 7)), rng.randrange(1, 6), rng.randrange(1, 600))
            for _ in range(50)
        ]
        for p, n, k in cases:
            want = minimum_by_definition(p, n, k)
            assert karpenko_lower_bound(p, n, k) == want
            assert karpenko_lower_bound_grouped(p, n, k) == want

    def test_never_exceeds_codimension(self):
        for p in (2, 3):
            for n in (1, 2, 3):
                for k in range(1, 120):
                    assert karpenko_lower_bound(p, n, k) <= k

    def test_answers_codims_past_ten_million(self):
        for codim in (10**7 + 1, 10**30):
            assert karpenko_lower_bound(3, 3, codim) == karpenko_lower_bound_grouped(
                3, 3, codim
            )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            karpenko_lower_bound(4, 1, 1)
        with pytest.raises(ValueError):
            karpenko_lower_bound(3, 0, 1)
        with pytest.raises(ValueError):
            karpenko_lower_bound(3, 1, 0)
        with pytest.raises(ValueError):
            karpenko_lower_bound_grouped(3, 0, 1)


class TestCertificate:
    def test_p3_r1(self):
        cert = corestriction_certificate(3, 1)
        assert cert.codim == 20
        assert cert.observed_valuation == 2
        assert cert.lower_bound == 3
        assert cert.violated

    def test_record_holds_no_input(self):
        assert corestriction_certificate(3, 1)._asdict() == {
            "codim": 20, "observed_valuation": 2, "lower_bound": 3, "violated": True}

    def test_p5_r1(self):
        cert = corestriction_certificate(5, 1)
        assert cert.codim == 3114
        assert cert.observed_valuation == 4
        assert cert.violated

    def test_p3_r2(self):
        cert = corestriction_certificate(3, 2)
        assert cert.codim == 716
        assert cert.observed_valuation == 4
        assert cert.violated

    def test_uses_degree_exponent_r_times_p(self):
        # s = 1 is built in: the bound inside the certificate is the one at n = r*p
        cert = corestriction_certificate(3, 2)
        assert cert.lower_bound == karpenko_lower_bound(3, 6, cert.codim)

    def test_refuses_p2(self):
        with pytest.raises(ValueError, match="odd"):
            corestriction_certificate(2, 1)

    @pytest.mark.parametrize(
        "route", [corestriction_certificate, proof_inequalities, auxiliary_inequalities]
    )
    def test_refuses_r0(self, route):
        with pytest.raises(ValueError, match="r must be positive"):
            route(3, 0)

    def test_p7_r2(self):
        cert = corestriction_certificate(7, 2)  # codimension about 6.8 * 10^11
        assert cert.codim == 7**14 - 7**2 - 7 - 1
        assert cert.violated
        assert cert.violated == proof_inequalities(7, 2)

    def test_bit_limit_boundary(self):
        # p^(r*p) is estimated at r * p * bit_length(p) bits; only the certificate builds it
        for p in (3, 101):
            r = valuation.SIZE_LIMIT_BITS // (p * p.bit_length())
            assert corestriction_certificate(p, r).violated
            with pytest.raises(ValueError, match=r"p\^\(r\*p\).*limit"):
                corestriction_certificate(p, r + 1)
            assert proof_inequalities(p, r + 1) is True
            assert proof_inequalities(p, 10**9) is True


class TestSymbolicRoute:
    def test_matches_loop_certificates(self):
        for p, r in [(3, 1), (3, 2), (3, 3), (5, 1)]:
            assert proof_inequalities(p, r) == corestriction_certificate(p, r).violated

    def test_reaches_loop_infeasible_ranges(self):
        for p, r in [(3, 6), (3, 18), (5, 4), (7, 2), (7, 5), (11, 2), (13, 1), (101, 3)]:
            assert proof_inequalities(p, r) is True

    def test_answers_without_a_valuation(self, monkeypatch):
        def no_vp(p, n):
            raise AssertionError("the proved route takes no valuation")

        monkeypatch.setattr(valuation, "vp", no_vp)
        for p, r in [(3, 1), (7, 5), (101, 3), (3, 10**9)]:
            assert proof_inequalities(p, r) is True

    def test_checks_p_once(self, monkeypatch):
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return True

        monkeypatch.setattr(valuation, "is_prime_64bit", counting_is_prime)
        assert proof_inequalities(3, 10) is True
        assert calls == [3]

    def test_matches_full_window_reference(self):
        for p in (3, 5, 7, 11, 13):
            for r in range(1, 8):
                if p**r <= 3 * 10**4:
                    assert proof_inequalities_by_window(p, r) == proof_inequalities_full_window(p, r)

    def test_refuses_p2(self):
        with pytest.raises(ValueError, match="odd"):
            proof_inequalities(2, 1)

    def test_window_oracle_reads_the_small_numbers(self, monkeypatch):
        # each window term k - i = p^(rp) - p^r - (p + 1 + i) is read off
        # the small number p + 1 + i, whose valuation is that of k - i
        seen = []
        monkeypatch.setattr(valuation, "vp", lambda p, n: seen.append(n) or vp(p, n))
        for p in (3, 5, 7, 11, 13):
            for r in range(1, 7):
                seen.clear()
                assert proof_inequalities_by_window(p, r) is True
                k = p ** (r * p) - p**r - p - 1
                window = range(k % p, min(r * p - r, k), p)
                assert seen == [p + 1 + i for i in window]
                assert all(vp(p, p + 1 + i) == vp(p, k - i) < r for i in window)


class TestAuxiliaryInequalities:
    def test_examples(self):
        assert auxiliary_inequalities(3, 1) == (True, True)
        assert auxiliary_inequalities(3, 4) == (True, True)
        failing = auxiliary_inequalities(2, 1)
        assert failing.pr_ge_r_plus_2 is False

    def test_hold_for_all_odd_primes_in_range(self):
        for p in (3, 5, 7, 11, 13):
            for r in range(1, 12):
                aux = auxiliary_inequalities(p, r)
                assert aux.pr_ge_r_plus_2 and aux.pr_ge_rp

    def test_bit_limit(self):
        # p^r is estimated at r * bit_length(p) bits; p = 2 is allowed here
        for p in (2, 3, 101):
            r = valuation.SIZE_LIMIT_BITS // p.bit_length()
            assert auxiliary_inequalities(p, r) == (True, True)
            with pytest.raises(ValueError, match="limit"):
                auxiliary_inequalities(p, r + 1)
        with pytest.raises(ValueError, match="limit"):
            auxiliary_inequalities(3, 10**9)
