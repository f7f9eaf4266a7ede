"""The validated value types: normalised, immutable, equal and hashed by field."""

import pytest

from csatools import (AlgebraShape, BrauerVector, ChowClass, Prime, auxiliary_inequalities,
                      baseline_bound, cofactor_m, corestriction_certificate, index_reduction,
                      karpenko_lower_bound, multinomial, power, prop2_scenario,
                      vp, vp_factorial_k_times_prime_power, vp_factorial_misc, vp_factorial_oracle,
                      vp_factorial_prime_power)

# (the same value built two ways, a different value of the same type)
CASES = [
    (lambda: AlgebraShape((3, 2), 6, 3), lambda: AlgebraShape([2, 3], 6, 3),
     AlgebraShape((2, 3), 6, 6)),
    (lambda: BrauerVector(3, (1, 2)), lambda: BrauerVector(p=3, coords=[1, 2]),
     BrauerVector(5, (1, 2))),
]


@pytest.mark.parametrize("make, make_again, other", CASES)
def test_structural_equality_and_hashing(make, make_again, other):
    first, second = make(), make_again()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != other
    assert len({first, second, other}) == 2


FIELD = {AlgebraShape: "index", BrauerVector: "p"}


@pytest.mark.parametrize("make, make_again, other", CASES)
def test_immutable_with_a_readable_repr(make, make_again, other):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, FIELD[type(value)], None)
    assert repr(value).startswith(type(value).__name__ + "(")
    assert f"{FIELD[type(value)]}=" in repr(value)


def test_distinct_types_are_unequal():
    assert AlgebraShape((3, 2), 6, 3) != ChowClass((3, 2), {})


def test_brauer_vector_length_is_its_coordinate_count():
    assert len(BrauerVector(3, (1, 0, 2))) == 3


def test_chow_class_hash_follows_its_shape_and_terms():
    a = ChowClass((2, 2), {(1, 0): 1, (0, 1): 1})
    b = ChowClass([2, 2], {(0, 1): 1, (1, 0): 1})
    assert a == b and hash(a) == hash(b)


# what takes an integer -> (a call of it on x, an x it accepts)
INTEGER_ARGUMENTS = {
    "Prime": (Prime, 7),
    "AlgebraShape degree": (lambda x: AlgebraShape((x, 3), 6, 3), 3),
    "AlgebraShape index": (lambda x: AlgebraShape((3, 3), x, 2), 4),
    "AlgebraShape period": (lambda x: AlgebraShape((3, 3), 4, x), 2),
    "baseline_bound degree": (lambda x: baseline_bound([(x, 1)]), 2),
    "baseline_bound residue": (lambda x: baseline_bound([(2, x)]), 3),
    "ChowClass exponent": (lambda x: ChowClass((2, 2), {(x, 0): 2}), 1),
    "ChowClass coefficient": (lambda x: ChowClass((2, 2), {(1, 0): x}), 2),
    "BrauerVector": (lambda x: BrauerVector(3, (x, 2)), 1),
    "vp": (lambda x: vp(3, x), 9),
    "vp_factorial_oracle n": (lambda x: vp_factorial_oracle(3, x), 9),
    "vp_factorial_prime_power n": (lambda x: vp_factorial_prime_power(3, x), 2),
    "vp_factorial_k_times_prime_power k": (lambda x: vp_factorial_k_times_prime_power(3, x, 2), 1),
    "vp_factorial_k_times_prime_power n": (lambda x: vp_factorial_k_times_prime_power(3, 1, x), 2),
    "vp_factorial_misc k": (lambda x: vp_factorial_misc(3, x, 1), 1),
    "vp_factorial_misc n": (lambda x: vp_factorial_misc(3, 1, x), 1),
    "multinomial top": (lambda x: multinomial(x, [2, 2]), 4),
    "multinomial part": (lambda x: multinomial(4, [2, x]), 2),
    "karpenko_lower_bound n": (lambda x: karpenko_lower_bound(3, x, 20), 2),
    "karpenko_lower_bound codim": (lambda x: karpenko_lower_bound(3, 2, x), 20),
    "corestriction_certificate r": (lambda x: corestriction_certificate(3, x), 1),
    "auxiliary_inequalities r": (lambda x: auxiliary_inequalities(3, x), 1),
    "cofactor_m k": (lambda x: cofactor_m(3, x, 1), 1),
    "cofactor_m n": (lambda x: cofactor_m(3, 1, x), 1),
    "index_reduction d": (lambda x: index_reduction(BrauerVector(3, (1, 2)), BrauerVector(3, (1, 1)), x), 1),
    "prop2_scenario d": (lambda x: prop2_scenario(5, x, 3), 2),
    "prop2_scenario n": (lambda x: prop2_scenario(5, 2, x), 3),
    "power": (lambda x: power(ChowClass((2, 2), {(1, 0): 1}), x), 1),
}


@pytest.mark.parametrize("kind", [float, str])
@pytest.mark.parametrize("name", list(INTEGER_ARGUMENTS))
def test_a_float_or_a_numeric_string_is_a_type_error(name, kind):
    call, x = INTEGER_ARGUMENTS[name]
    call(x)
    with pytest.raises(TypeError):
        call(kind(x))
