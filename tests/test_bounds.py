import math

import pytest

from csatools import bounds
from csatools.bounds import (
    AlgebraShape,
    BoundReport,
    PrimePowerBound,
    baseline_bound,
    bound_improvement,
    cofactor_m,
    general_bound,
    prime_power_bound,
)
from csatools.valuation import vp, vp_factorial_oracle


class TestAlgebraShape:
    def test_sorts_degrees(self):
        assert AlgebraShape((3, 1, 2), 2, 1).degrees == (1, 2, 3)

    def test_period_must_divide_index(self):
        with pytest.raises(ValueError):
            AlgebraShape((2, 2), 4, 3)

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            AlgebraShape((), 1, 1)
        with pytest.raises(ValueError):
            AlgebraShape((0, 2), 1, 1)
        with pytest.raises(ValueError):
            AlgebraShape((2,), 0, 1)


class TestGeneralBound:
    def test_two_quaternions(self):
        report = general_bound(AlgebraShape((2, 2), 2, 2))
        assert report.remainder == 0
        assert report.multinomial_factor == 2
        assert report.total == 2

    def test_three_cubics(self):
        report = general_bound(AlgebraShape((3, 3, 3), 3, 3))
        assert report.remainder == 0
        assert report.total == 90

    def test_single_component(self):
        split = general_bound(AlgebraShape((4,), 1, 1))
        assert (split.remainder, split.total) == (0, 1)
        division = general_bound(AlgebraShape((4,), 4, 4))
        assert division.multinomial_factor == 1
        assert (division.remainder, division.total) == (3, 64)

    def test_total_factorization_invariant(self):
        import random

        rng = random.Random(404)
        cases = [
            ((2, 3), 6, 2),
            ((2, 2, 2), 4, 2),
            ((5, 5), 5, 5),
            ((3, 4, 5), 12, 6),
        ]
        for _ in range(40):
            m = rng.randrange(1, 5)
            degrees = tuple(rng.randrange(1, 7) for _ in range(m))
            index = rng.randrange(1, 13)
            divisors = [q for q in range(1, index + 1) if index % q == 0]
            cases.append((degrees, index, rng.choice(divisors)))
        for degrees, index, period in cases:
            report = general_bound(AlgebraShape(degrees, index, period))
            assert report.total == report.multinomial_factor * report.period_power
            assert report.period_power == period**report.remainder
            assert 0 <= report.remainder < index

    def test_single_field_component_powers(self):
        # degrees (d), I = d: multinomial is 1 and total = P^(d-1)
        for d in range(1, 7):
            for period in {1, d}:
                report = general_bound(AlgebraShape((d,), d, period))
                assert report.multinomial_factor == 1
                assert report.total == period ** ((d - 1) % d)


class TestCofactor:
    def test_known_values(self):
        assert cofactor_m(2, 1, 1) == 1
        assert cofactor_m(3, 1, 1) == 10

    def test_value_3_1_2_against_oracle_factorials(self):
        # 24! / ((8!)^3 * 3^4), frozen after direct oracle computation
        want = math.factorial(24) // (math.factorial(8) ** 3 * 3**4)
        assert want == 116858170
        assert cofactor_m(3, 1, 2) == 116858170

    def test_value_5_1_1_against_oracle_factorials(self):
        want = math.factorial(20) // (math.factorial(4) ** 5 * 5**4)
        assert want == 488864376
        assert cofactor_m(5, 1, 1) == 488864376

    def test_always_coprime_to_p(self):
        for p in (2, 3, 5):
            for k in (0, 1, 2):
                for n in (1, 2):
                    if p**k * (p**n - 1) > 10**4:
                        continue
                    assert math.gcd(cofactor_m(p, k, n), p) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cofactor_m(3, -1, 1)
        with pytest.raises(ValueError):
            cofactor_m(3, 1, 0)
        with pytest.raises(ValueError):
            cofactor_m(4, 1, 1)


class TestPrimePowerBound:
    def test_quaternion_case(self):
        report = prime_power_bound(2, 1, 1)
        assert (report.total, report.p_part, report.cofactor) == (2, 2, 1)

    def test_split_cubic_case(self):
        report = prime_power_bound(3, 1, 1)
        assert (report.total, report.p_part, report.cofactor) == (90, 9, 10)

    def test_record_holds_only_what_the_route_computed(self):
        assert prime_power_bound(3, 1, 1) == PrimePowerBound(p_part=9, cofactor=10, total=90)
        assert type(prime_power_bound(3, 1, 1)) is PrimePowerBound
        assert BoundReport._fields == ("multinomial_factor", "remainder", "period_power", "total")
        assert BoundReport._field_defaults == {}

    def test_generic_p5(self):
        report = prime_power_bound(5, 1, 1)
        assert report.p_part == 625
        assert report.cofactor == 488864376
        assert vp(5, report.total) == 4

    @pytest.mark.parametrize("route, want", [(prime_power_bound, PrimePowerBound(9, 10, 90)),
                                             (cofactor_m, 10)], ids=["prime_power_bound", "cofactor_m"])
    def test_checks_the_instance_once(self, monkeypatch, route, want):
        # prime_power_bound makes the one check; cofactor_m reads its record and adds none
        calls = []
        check_instance = bounds._prime_power_instance

        def counting_instance(p, k, n):
            calls.append((p, k, n))
            return check_instance(p, k, n)

        monkeypatch.setattr(bounds, "_prime_power_instance", counting_instance)
        assert route(3, 1, 1) == want
        assert calls == [(3, 1, 1)]

    def test_valuation_identity_sweep(self):
        for p in (2, 3, 5):
            for k in (0, 1, 2):
                for n in (1, 2):
                    if p**k * (p**n - 1) > 10**4:
                        continue
                    report = prime_power_bound(p, k, n)
                    assert vp(p, report.total) == n * (p**k - 1)
                    # second route through the Legendre oracle
                    arg = p**k * (p**n - 1)
                    oracle = vp_factorial_oracle(p, arg) - p**k * vp_factorial_oracle(
                        p, p**n - 1
                    )
                    assert vp(p, report.total) == oracle

    def test_agrees_with_general_bound(self):
        for p in (2, 3, 5):
            for k in (0, 1, 2):
                for n in (1, 2):
                    if p**k * (p**n - 1) > 10**4:
                        continue
                    shape = AlgebraShape((p**n,) * p**k, p**k, p**k)
                    general = general_bound(shape)
                    assert general.remainder == 0
                    assert general.multinomial_factor == prime_power_bound(p, k, n).total


class TestBaseline:
    def test_examples(self):
        assert baseline_bound([(2, 1), (2, 1)]) == 4
        assert baseline_bound([(3, 3)]) == 27
        assert baseline_bound([(1, 5)]) == 1

    def test_accepts_plain_pairs(self):
        assert baseline_bound([(2, 3), (3, 1)]) == 24
        assert baseline_bound(iter([[2, 3], (3, 1)])) == 24  # any iterable of pairs, read once

    def test_an_int_like_entry_is_read_as_an_int(self):
        class Three:  # only __index__, as numpy.int64 is read: its own ** overflows
            def __index__(self):
                return 3

        assert baseline_bound([(Three(), 50), (2, Three())]) == 3**50 * 8

    def test_rejects_empty_and_invalid(self):
        with pytest.raises(ValueError, match="needs at least one point"):
            baseline_bound([])
        with pytest.raises(ValueError, match="entries must be >= 1"):
            baseline_bound([(2, 1), (0, 1)])
        with pytest.raises(ValueError, match="entries must be >= 1"):
            baseline_bound([(2, -1)])
        with pytest.raises(ValueError):  # not a pair: it fails as it is unpacked
            baseline_bound([(2, 1, 1)])


class TestBoundImprovement:
    def test_examples(self):
        assert bound_improvement(2, 1, 1) == (4, 2)
        assert bound_improvement(3, 1, 1) == (27, 9)
        assert bound_improvement(3, 2, 1) == (3**9, 3**8)

    def test_improved_part_divides_strictly_for_positive_k(self):
        for p in (2, 3, 5):
            for k in (1, 2):
                for n in (1, 2, 3):
                    baseline, improved = bound_improvement(p, k, n)
                    assert improved * p**n == baseline
                    assert baseline % improved == 0
                    assert improved < baseline
