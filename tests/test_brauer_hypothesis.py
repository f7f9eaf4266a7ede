"""Randomized differential test of index reduction against its min form.

On the generic model every term of the gcd is a power of p, so the gcd
is a minimum.  Terms with p | i contribute at least index(B), the term
at i = p^d equals it, and the terms with p coprime to i are p^d times
index(B + c*A) for c = i mod p.  Hence

    index_reduction(B, A, d) = min(index(B), p^d * min over c = 1..p-1
                                              of index(B + c*A)),

evaluated here on raw coordinates, without the library's model.  The
profile is derandomized, so every run draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from csatools.brauer import BrauerVector, index_reduction

FIXED = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def index_by_min_form(p, target, fiber, d):
    def index(coords):
        return p ** sum(1 for x in coords if x % p)

    shifted = min(index([b + c * a for a, b in zip(fiber, target)]) for c in range(1, p))
    return min(index(target), p**d * shifted)


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
    assert got == index_by_min_form(p, target, fiber, d)
