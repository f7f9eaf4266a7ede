import itertools
import math
import random

import pytest

from csatools import brauer, valuation, verify
from csatools.brauer import (
    BrauerVector,
    combine,
    index_reduction,
    model_index,
    prop1_case_table,
    prop1_scenario,
    prop2_scenario,
)
from csatools.errors import ConsistencyError


class TestBrauerVector:
    def test_validation(self):
        v = BrauerVector(3, (1, 1, 2))
        assert len(v) == 3
        with pytest.raises(ValueError):
            BrauerVector(3, (1, 3))
        with pytest.raises(ValueError):
            BrauerVector(3, (-1, 0))
        with pytest.raises(ValueError):
            BrauerVector(4, (1, 1))
        with pytest.raises(ValueError):
            BrauerVector(3, ())


class TestModelIndex:
    def test_examples(self):
        assert model_index(BrauerVector(3, (1, 1, 2))) == 27
        assert model_index(BrauerVector(5, (0, 0, 0))) == 1
        assert model_index(BrauerVector(5, (1, 2, 3))) == 125

    def test_permutation_invariance(self):
        rng = random.Random(12)
        for _ in range(25):
            coords = tuple(rng.randrange(5) for _ in range(4))
            v = BrauerVector(5, coords)
            for perm in itertools.permutations(range(4)):
                w = BrauerVector(5, tuple(coords[j] for j in perm))
                assert model_index(w) == model_index(v)


class TestCombine:
    def test_examples(self):
        v = combine(BrauerVector(3, (1, 1, 2)), BrauerVector(3, (1, 1, 1)), 2)
        assert v.coords == (0, 0, 1)
        w = BrauerVector(5, (1, 2, 3))
        assert combine(w, BrauerVector(5, (1, 1, 1)), 0) == w
        assert combine(w, BrauerVector(5, (1, 1, 1)), 4).coords == (0, 1, 2)

    def test_checked_vectors_are_not_rechecked(self, monkeypatch):
        v, w = BrauerVector(7, (1, 2, 3)), BrauerVector(7, (1, 1, 1))
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return True

        monkeypatch.setattr(valuation, "is_prime_64bit", counting_is_prime)
        assert combine(v, w, 3).coords == (4, 5, 6)
        assert calls == []

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            combine(BrauerVector(3, (1, 1)), BrauerVector(3, (1, 1, 1)), 1)
        with pytest.raises(ValueError):
            combine(BrauerVector(3, (1, 1)), BrauerVector(5, (1, 1)), 1)

    def test_periodicity_in_i(self):
        rng = random.Random(7)
        for p in (3, 5, 7):
            v = BrauerVector(p, tuple(rng.randrange(p) for _ in range(4)))
            w = BrauerVector(p, tuple(rng.randrange(p) for _ in range(4)))
            for i in range(-6, 3 * p):
                assert combine(v, w, i) == combine(v, w, i % p)


class TestIndexReduction:
    def test_examples(self):
        assert index_reduction(BrauerVector(3, (1, 1, 2)), BrauerVector(3, (1, 1, 1)), 2) == 27
        assert index_reduction(BrauerVector(5, (1, 2, 3)), BrauerVector(5, (1, 1, 1)), 2) == 125
        assert index_reduction(BrauerVector(3, (1, 1, 1)), BrauerVector(3, (1, 1, 1)), 2) == 9

    def test_divides_target_index(self):
        rng = random.Random(99)
        for p in (3, 5):
            for _ in range(15):
                n = rng.randrange(1, 5)
                v = BrauerVector(p, tuple(rng.randrange(p) for _ in range(n)))
                w = BrauerVector(p, tuple(rng.randrange(p) for _ in range(n)))
                for d in (1, 2):
                    assert model_index(v) % index_reduction(v, w, d) == 0

    def test_zero_target_reduces_to_one(self):
        for p in (3, 5):
            zero = BrauerVector(p, (0, 0, 0))
            fiber = BrauerVector(p, (1, 2, 1))
            assert index_reduction(zero, fiber, 2) == 1

    def test_simultaneous_permutation_invariance(self):
        rng = random.Random(14)
        for _ in range(10):
            coords_v = tuple(rng.randrange(5) for _ in range(4))
            coords_w = tuple(rng.randrange(5) for _ in range(4))
            v, w = BrauerVector(5, coords_v), BrauerVector(5, coords_w)
            base = index_reduction(v, w, 2)
            for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)]:
                vs = BrauerVector(5, tuple(coords_v[j] for j in perm))
                ws = BrauerVector(5, tuple(coords_w[j] for j in perm))
                assert index_reduction(vs, ws, 2) == base

    def test_rejects_vectors_from_different_groups(self):
        for fiber in (BrauerVector(3, (1, 1, 1)), BrauerVector(5, (1, 1))):
            with pytest.raises(ValueError, match="different groups"):
                index_reduction(BrauerVector(3, (1, 1)), fiber, 1)

    def test_rejects_bad_d(self):
        v = BrauerVector(3, (1, 1))
        with pytest.raises(ValueError):
            index_reduction(v, v, 0)


class TestScenarios:
    @pytest.mark.parametrize("p,expected", [(3, (9, 27)), (5, (25, 3125)), (7, (49, 823543))])
    def test_prop1(self, p, expected):
        report = prop1_scenario(p)
        assert (report["index_of_A"], report["index_of_A_prime"]) == expected
        assert report["index_of_A_prime"] == p**p

    def test_scenarios_hold_no_input(self):
        assert prop1_scenario(3) == {
            "exponents_of_A_prime": (1, 1, 2), "index_of_A": 9, "index_of_A_prime": 27}
        assert prop2_scenario(5, 2, 3) == {
            "exponents_of_A_prime": (1, 2, 3), "index_of_A": 25, "index_of_A_prime": 125}

    def test_prop1_rejects_p2(self):
        for route in (prop1_scenario, prop1_case_table):
            with pytest.raises(ValueError, match="p >= 3"):
                route(2)

    def test_prop1_table_rows_p3(self):
        rows = {row["i"]: row for row in prop1_case_table(3)}
        assert rows[2]["term"] == 27  # i = p-1: p^2 * p^(p-2)
        assert rows[1]["term"] == 81  # coprime, not p-1: p^2 * p^(p-1)
        assert rows[9]["term"] == 27  # i = p^2: 1 * p^p
        assert rows[3]["term"] == 81  # p | i, factor p: p * p^p

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_prop1_table_buckets(self, p):
        rows = prop1_case_table(p)
        assert len(rows) == p * p
        g = 0
        for row in rows:
            g = math.gcd(g, row["term"])
        assert g == p**p  # the gcd of the table is the reduced index

    def test_prop1_table_predicts_the_multiplier_from_i(self, monkeypatch):
        real_terms = brauer._terms

        def multiplier_1_at_p(target, fiber, d):
            for i, factor, index in real_terms(target, fiber, d):
                yield i, 1 if i == target.p else factor, index

        monkeypatch.setattr(brauer, "_terms", multiplier_1_at_p)
        with pytest.raises(ConsistencyError, match="at i=5 "):
            prop1_case_table(5)

    @pytest.mark.parametrize(
        "p,d,n,expected",
        [(5, 2, 3, (25, 125)), (5, 1, 2, (5, 25)), (7, 2, 4, (49, 2401)), (3, 1, 2, (3, 9))],
    )
    def test_prop2(self, p, d, n, expected):
        report = prop2_scenario(p, d, n)
        assert (report["index_of_A"], report["index_of_A_prime"]) == expected

    def test_prop2_reduces_twice(self, monkeypatch):
        # d = 1 is not re-run: verify's brauer-model suite covers it as a scenario
        calls = []

        def counting_index_reduction(target, fiber, d):
            calls.append(d)
            return index_reduction(target, fiber, d)

        monkeypatch.setattr(brauer, "index_reduction", counting_index_reduction)
        assert prop2_scenario(7, 2, 4)["index_of_A_prime"] == 7**4
        assert calls == [2, 2]

    def test_prop2_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            prop2_scenario(5, 3, 3)  # d < n fails
        with pytest.raises(ValueError):
            prop2_scenario(5, 2, 5)  # n < p fails
        with pytest.raises(ValueError):
            prop2_scenario(5, 0, 3)  # d positive fails


class TestMinFormOracle:
    def test_brauer_model_names_a_route_that_tries_only_one_shift(self, monkeypatch):
        def only_c_is_1(target, fiber, d):
            shifted = model_index(combine(target, fiber, 1))
            return min(model_index(target), target.p**d * shifted)

        monkeypatch.setattr(brauer, "index_reduction", only_c_is_1)
        [result] = verify.run_suites(["brauer-model"])
        assert any(f.startswith("index reduction vs min form") for f in result.failures)

    def test_answers_without_the_library_model(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle called the library model")

        monkeypatch.setattr(brauer, "combine", refuse)
        monkeypatch.setattr(brauer, "model_index", refuse)
        assert verify.index_reduction_by_min_form(3, (1, 1, 2), (1, 1, 1), 2) == 27
        assert verify.index_reduction_by_min_form(5, (1, 2, 3), (1, 1, 1), 2) == 125
        assert verify.index_reduction_by_min_form(3, (1, 1, 1), (1, 1, 1), 2) == 9
