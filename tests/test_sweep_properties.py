"""The sparse slice-duality sweep against a comparison at every pair.

``slice_duality_mismatches`` visits only the pairs where either table is
nonzero.  Here a sweep written by its definition compares every disjoint
pair, counted in base 3, against the true dual's cohomology table and
against another complex's on the same ground: both must give the same
mismatches in the same order.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from polyprod.complexes import random_complex, vertices_of
from polyprod.hochster import hochster_table, slice_duality_mismatches
from polyprod.verify import cone_over_rp2, rp2_complex


def _counter_pairs(ground):
    # every disjoint pair, counting in base 3 with the smallest ground
    # vertex as the least significant digit (1: sigma, 2: omega)
    bits = [1 << (v - 1) for v in vertices_of(ground)]
    for code in range(3 ** len(bits)):
        sigma = omega = 0
        for b in bits:
            code, digit = divmod(code, 3)
            if digit == 1:
                sigma |= b
            elif digit == 2:
                omega |= b
        yield sigma, omega


def _mismatches_at_every_pair(table, co_table, ground):
    # each nonempty-omega pair in counter order, each degree from the lowest
    out = []
    for sigma, omega in _counter_pairs(ground):
        if not omega:
            continue
        k = bin(omega).count("1")
        lhs = table.entry(sigma, omega)
        rhs = co_table.entry(ground & ~(sigma | omega), omega)
        for d in range(-1, k + 1):
            if lhs.at(d) != rhs.at(k - d - 1):
                out.append((sigma, omega, (d, lhs.at(d), rhs.at(k - d - 1))))
                break
    return out


@st.composite
def complexes_and_stand_ins(draw):
    # K on 1-7 vertices, rp2 or its cone, and another complex on its ground
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "random", "random", "rp2", "cone"]))
    if kind == "rp2":
        K = rp2_complex()
    elif kind == "cone":
        K = cone_over_rp2()
    else:
        K = random_complex(rng, range(1, draw(st.integers(1, 7)) + 1))
    return K, random_complex(rng, vertices_of(K.ground))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(complexes_and_stand_ins())
def test_same_mismatches_in_the_same_order(case):
    K, other = case
    table = hochster_table(K)
    for co_table in (hochster_table(K.dual(K.ground), cohomology=True),
                     hochster_table(other, cohomology=True)):
        got = list(slice_duality_mismatches(table, co_table))
        assert got == _mismatches_at_every_pair(table, co_table, K.ground)
