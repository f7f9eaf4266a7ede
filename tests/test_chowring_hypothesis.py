"""Randomized differential tests of the Chow ring.

The ring expansion of (l_1 + ... + l_m)^(sum d_i - m) is checked against
the multinomial closed form for 1 to 5 factors whose bounds multiply to
at most 600, the rank of the ring the expansion works in.  On the same
shapes, verify's packed linear walk is checked against that expansion
and against the vanishing of the next power, so the oracle of the
segre-degree suite agrees with the ring route it stands in for.
multiply is checked against a product that keeps the monomials outside
the box and truncates only at the end.  The profile is derandomized, so
every run draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from csatools.chowring import (
    ChowClass,
    hyperplane_sum,
    multiply,
    power,
    segre_degree_closed_form,
    segre_degree_expansion,
)
from csatools.verify import segre_degree_walk

FIXED = settings(derandomize=True, max_examples=300, deadline=None, database=None)
RANK_LIMIT = 600


@st.composite
def shapes(draw):
    """1 to 5 bounds, each >= 1, with product <= RANK_LIMIT.

    Each bound is capped near the geometric share of what is left of the
    limit, so the factors come out of comparable size; the last one may
    take the whole remainder.
    """
    m = draw(st.integers(1, 5))
    bounds, budget = [], RANK_LIMIT
    for left in range(m, 0, -1):
        d = draw(st.integers(1, max(1, round(budget ** (1 / left)))))
        bounds.append(d)
        budget //= d
    return tuple(draw(st.permutations(bounds)))


@FIXED
@given(shapes())
def test_expansion_matches_closed_form(shape):
    assert segre_degree_expansion(shape) == segre_degree_closed_form(shape)


@FIXED
@given(shapes())
def test_walk_matches_the_ring_expansion(shape):
    beyond = power(hyperplane_sum(shape), sum(shape) - len(shape) + 1)
    assert segre_degree_walk(shape) == (segre_degree_expansion(shape), beyond.is_zero())


@st.composite
def class_pairs(draw):
    """Two classes on one shape of 1 to 4 factors with bounds 1 to 5."""
    bounds = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    monomials = st.tuples(*(st.integers(0, d - 1) for d in bounds))
    terms = st.dictionaries(monomials, st.integers(-9, 9), max_size=8)
    return ChowClass(bounds, draw(terms)), ChowClass(bounds, draw(terms))


def product_truncated_at_the_end(a, b):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items()
            if c and all(x < d for x, d in zip(e, a.shape))}


@FIXED
@given(class_pairs())
def test_multiply_matches_truncation_at_the_end(pair):
    a, b = pair
    assert multiply(a, b).terms == product_truncated_at_the_end(a, b)
