"""The Mayer-Vietoris walk of all-pairs tables against requested pairs.

Over all pairs, ``hochster_table`` takes most entries of a face from
entries it already holds and slices only the rest.  A table over requested
pairs never takes the walk: it slices every pair on its own.  Asked for
every pair of the ground, in table order, the two must hold the same
entries, over Z and GF(2), for homology and cohomology.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from polyprod.complexes import (
    SimplicialComplex,
    join,
    make_complex,
    random_complex,
    vertices_of,
)
from polyprod.hochster import hochster_table, index_pairs
from polyprod.homology import GF
from polyprod.verify import cone_over_rp2, rp2_complex

KINDS = ["random", "random", "subsets", "subsets", "rp2", "ghost"]


@st.composite
def complexes(draw):
    # a random complex on 1-8 vertices, one from random k-subsets (most of
    # its entries are nonzero), an rp2 join or cone (2-torsion), or a
    # complex with a ghost vertex on a gapped ground; or the dual of one
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS))
    if kind == "random":
        K = random_complex(rng, range(1, draw(st.integers(1, 8)) + 1))
    elif kind == "subsets":
        n = draw(st.integers(4, 8))
        k = draw(st.integers(2, n - 1))
        K = make_complex(range(1, n + 1), [rng.sample(range(1, n + 1), k)
                                           for _ in range(draw(st.integers(1, 12)))])
    elif kind == "rp2":
        K = draw(st.sampled_from([
            rp2_complex(),
            cone_over_rp2(),
            join([rp2_complex(), SimplicialComplex.boundary_simplex((7, 8))]),
            join([rp2_complex(), SimplicialComplex.full_simplex((7, 8))]),
        ]))
    else:
        n = draw(st.integers(1, 6))
        L = random_complex(rng, [2 * v for v in range(1, n + 1)])
        K = SimplicialComplex(L.ground | 1 << 2 * n + 1, L.faces)
    if draw(st.booleans()):
        K = K.dual(K.ground)
    return K


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(complexes(), st.sampled_from([None, GF(2)]), st.booleans())
def test_the_walk_agrees_with_every_pair_sliced_alone(K, coeff, cohomology):
    every = hochster_table(K, coeff, cohomology=cohomology)
    asked = hochster_table(K, coeff, pairs=index_pairs(K.ground),
                           cohomology=cohomology)
    assert every.nonzero_items() == asked.nonzero_items(), (
        list(map(vertices_of, K.facets())))
