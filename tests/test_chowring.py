import itertools
import random
import time

import pytest

from csatools.chowring import (
    ChowClass,
    hyperplane_sum,
    multiply,
    point_degree,
    power,
    segre_degree_closed_form,
    segre_degree_expansion,
    unit,
)
from csatools.verify import segre_degree_walk


def random_class(rng, shape):
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        exps = tuple(rng.randrange(0, d) for d in shape)
        terms[exps] = rng.randrange(-4, 5)
    return ChowClass(shape, terms)


# each entry that takes exponent bounds -> a call of it on bounds
BOUNDS_ENTRIES = {
    "ChowClass": lambda bounds: ChowClass(bounds, {}),
    "unit": unit,
    "hyperplane_sum": hyperplane_sum,
    "segre_degree_expansion": segre_degree_expansion,
    "segre_degree_closed_form": segre_degree_closed_form,
    "segre_degree_walk": segre_degree_walk,
}


@pytest.mark.parametrize("name", list(BOUNDS_ENTRIES))
def test_each_entry_checks_its_bounds(name):
    call = BOUNDS_ENTRIES[name]
    with pytest.raises(ValueError, match=r"^a ring shape needs at least one factor$"):
        call(())
    with pytest.raises(ValueError, match=r"^all exponent bounds must be >= 1, got \(2, 0\)$"):
        call((2, 0))
    with pytest.raises(TypeError):
        call((2.0, 2))
    got = call((2, 2))
    assert call([2, 2]) == got
    assert call(d for d in (2, 2)) == got
    if isinstance(got, ChowClass):
        shape = call([2, 2]).shape
        assert type(shape) is tuple and shape == (2, 2)


class TestNormalization:
    def test_drops_out_of_range_monomials(self):
        shape = (2, 2)
        cls = ChowClass(shape, {(2, 0): 5, (1, 1): 3})
        assert cls.terms == {(1, 1): 3}

    def test_drops_zero_coefficients(self):
        shape = (2, 2)
        assert ChowClass(shape, {(1, 0): 0}).is_zero()

    def test_keys_that_normalize_alike_and_cancel_leave_zero(self):
        cls = ChowClass((2,), {(1,): 1, range(1, 2): -1})  # two keys, one exponent vector (1,)
        assert cls.terms == {}
        assert cls.is_zero()
        assert cls == ChowClass((2,), {})

    def test_merges_duplicate_keys_via_multiply(self):
        shape = (3, 3)
        h = hyperplane_sum(shape)
        sq = multiply(h, h)
        assert sq.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_rejects_wrong_arity_and_negative_exponents(self):
        shape = (2, 2)
        with pytest.raises(ValueError):
            ChowClass(shape, {(1,): 1})
        with pytest.raises(ValueError):
            ChowClass(shape, {(-1, 0): 1})
        # a negative exponent is rejected, not truncated, even past a bound
        with pytest.raises(ValueError, match="negative exponent"):
            ChowClass(shape, {(-1, 2): 1})
        # the arity is checked before the truncation could drop the term
        with pytest.raises(ValueError, match="does not match shape"):
            ChowClass(shape, {(5,): 1})

    def test_immutable(self):
        cls = unit((2, 2))
        with pytest.raises(AttributeError):
            cls.terms = {}


class TestOperations:
    def test_shape_one_allows_only_constants(self):
        shape = (1, 1)
        assert hyperplane_sum(shape).is_zero()
        assert point_degree(unit(shape)) == 1

    def test_hyperplane_sum_examples(self):
        assert hyperplane_sum((2, 2)).terms == {(1, 0): 1, (0, 1): 1}
        assert hyperplane_sum((3,)).terms == {(1,): 1}
        assert hyperplane_sum((2, 2, 2)).terms == {
            (1, 0, 0): 1,
            (0, 1, 0): 1,
            (0, 0, 1): 1,
        }

    def test_multiply_examples(self):
        shape = (2, 2)
        l1 = ChowClass(shape, {(1, 0): 1})
        assert multiply(l1, l1).is_zero()  # l1^2 = 0 when d1 = 2
        h = hyperplane_sum(shape)
        assert multiply(h, h).terms == {(1, 1): 2}
        rng = random.Random(3)
        a = random_class(rng, shape)
        assert multiply(a, unit(shape)) == a

    def test_multiply_shape_mismatch(self):
        with pytest.raises(ValueError):
            multiply(unit((2, 2)), unit((2, 3)))

    def test_power_examples(self):
        shape = (2, 2)
        h = hyperplane_sum(shape)
        assert power(h, 0) == unit(shape)
        assert power(h, 2).terms == {(1, 1): 2}
        big = (3, 3)
        assert power(hyperplane_sum(big), 4).terms == {(2, 2): 6}
        with pytest.raises(ValueError):
            power(h, -1)

    def test_power_matches_repeated_multiply(self):
        rng = random.Random(17)
        shape = (3, 2, 2)
        for _ in range(10):
            a = random_class(rng, shape)
            acc = unit(shape)
            for e in range(6):
                assert power(a, e) == acc
                acc = multiply(acc, a)

    def test_point_degree_examples(self):
        shape = (2, 2)
        assert point_degree(ChowClass(shape, {(1, 1): 2})) == 2
        assert point_degree(ChowClass(shape, {(1, 0): 1})) == 0
        big = (3, 3)
        assert point_degree(ChowClass(big, {(2, 2): 6})) == 6


class TestSerialization:
    def test_golden_forms(self):
        shape = (2, 2)
        assert ChowClass(shape, {}).to_text() == "0"
        assert unit(shape).to_text() == "1·l1^0*l2^0"
        assert hyperplane_sum(shape).to_text() == "1·l1^0*l2^1 + 1·l1^1*l2^0"
        sq = power(hyperplane_sum(shape), 2)
        assert sq.to_text() == "2·l1^1*l2^1"

    def test_lexicographic_term_order(self):
        shape = (3, 3)
        cls = ChowClass(shape, {(2, 0): 1, (0, 2): 1, (1, 1): -2})
        assert cls.to_text() == "1·l1^0*l2^2 + -2·l1^1*l2^1 + 1·l1^2*l2^0"

    def test_repr_names_the_shape_and_the_text(self):
        # verify's chow-laws failure messages print this form
        assert repr(ChowClass((2, 2), {(1, 1): 2})) == "ChowClass((2, 2), 2·l1^1*l2^1)"


class TestSegreDegrees:
    def test_known_degree_values(self):
        assert segre_degree_expansion((2, 2)) == 2
        assert segre_degree_closed_form((2, 2)) == 2
        assert segre_degree_expansion((3, 3, 3)) == 90
        assert segre_degree_closed_form((3, 3, 3)) == 90
        assert segre_degree_expansion((2, 6)) == 6
        assert segre_degree_closed_form((5,)) == 1

    def test_common_splitting_degrees_for_pairs(self):
        # shape (2, 2m): degree 2m for each m
        for m in range(1, 7):
            assert segre_degree_expansion((2, 2 * m)) == 2 * m
            assert segre_degree_closed_form((2, 2 * m)) == 2 * m

    def test_dimension_bound_and_point_positivity(self):
        for shape in [(2, 2), (3, 2), (4, 4), (2, 3, 4), (2, 2, 2, 2)]:
            h = hyperplane_sum(shape)
            top = power(h, sum(shape) - len(shape))
            assert point_degree(top) > 0
            assert multiply(top, h).is_zero()
            assert power(h, sum(shape) - len(shape) + 2).is_zero()

    def test_top_power_is_the_point_class_times_the_expansion(self):
        # the top monomial is the only monomial of degree sum(d_i - 1) in the box
        for m in range(1, 5):
            for shape in itertools.product(range(1, 6), repeat=m):
                top = tuple(d - 1 for d in shape)
                point = ChowClass(shape, {top: segre_degree_expansion(shape)})
                assert point == power(hyperplane_sum(shape), sum(shape) - len(shape))

    def test_walk_is_linear_on_the_oversized_shape(self):
        # 9^5 = 59,049 monomials; squaring ChowClasses here does not finish
        shape = (9, 9, 9, 9, 9)
        started = time.perf_counter()
        got = segre_degree_walk(shape)
        assert time.perf_counter() - started < 1
        assert got == (segre_degree_closed_form(shape), True)
