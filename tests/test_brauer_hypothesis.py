"""Randomized differential test of index reduction against its min form.

On the generic model every term of the gcd is a power of p, so the gcd
is a minimum, which verify's index_reduction_by_min_form evaluates on
raw coordinates, without the library's model.  The same oracle backs
the brauer-model suite.  The profile is derandomized, so every run
draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from csatools.brauer import BrauerVector, index_reduction
from csatools.verify import index_reduction_by_min_form

FIXED = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def cases(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.integers(1, 5))
    coords = st.tuples(*[st.integers(0, p - 1)] * n)
    return p, draw(coords), draw(coords), draw(st.integers(1, 3))


@FIXED
@given(cases())
def test_matches_min_form(case):
    p, target, fiber, d = case
    got = index_reduction(BrauerVector(p, target), BrauerVector(p, fiber), d)
    assert got == index_reduction_by_min_form(p, target, fiber, d)
