"""Smith normal form on generated matrices, against sympy's invariant factors.

Entries mix zeros, units, small unitless values and values up to 10^6, so a
matrix can start on a unit, reach one only through remainders, or never
hold one.  Shuffling rows and columns changes the pivot order but not the
invariant factors.
"""

import pytest

pytest.importorskip("hypothesis")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix

from polyprod import smith_normal_form

ENTRIES = st.one_of(
    st.sampled_from((0, 0, 1, -1, 2, -2, 3, -3, 9, -9)),
    st.integers(-10**6, 10**6),
)


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    row = st.lists(ENTRIES, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(matrices(), st.data())
def test_matches_sympy_and_ignores_row_and_column_order(m, data):
    want = [abs(int(d)) for d in
            normalforms.invariant_factors(Matrix(m), domain=ZZ) if d]
    assert smith_normal_form(m) == want
    row_order = data.draw(st.permutations(range(len(m))))
    col_order = data.draw(st.permutations(range(len(m[0]))))
    shuffled = [[m[i][j] for j in col_order] for i in row_order]
    assert smith_normal_form(shuffled) == want
