"""Randomized differential test of the Segre degree's two routes.

The ring expansion of (l_1 + ... + l_m)^(sum d_i - m) is checked against
the multinomial closed form for 1 to 5 factors whose bounds multiply to
at most 600, the rank of the ring the expansion works in.  The profile
is derandomized, so every run draws the same examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from csatools.chowring import segre_degree_closed_form, segre_degree_expansion

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
