"""The position rule on gapped outer grounds.

``pairs[i]`` (or ``factors[i]``, or ``params[i]``) belongs to the i-th
smallest ground vertex of K, whatever the labels are.  So a complex K on
1..m and its monotone relabelling onto any gapped ground must give the same
answers from every function that takes one item per vertex of K.  The
verification suites only ever draw outer grounds 1..m, so this file is what
exercises the rule on gaps, including labels above 64.
"""

import random

import pytest

from polyprod.complexes import (
    SimplicialComplex,
    consecutive_blocks,
    ghost_factorization,
    polyhedral_complex,
    random_complex,
    random_subcomplex,
)
from polyprod.hochster import hochster_composition_formula
from polyprod.spaces import (
    FiniteSpacePair,
    SpherePairSystem,
    complement_identity_check,
    factorization_identity_check,
    finite_product,
    sphere_pair_duality_check,
    sphere_pair_homology,
    substitution_identity_check,
)

TRIALS = 300


def _finite_pair(rng):
    points = rng.sample(range(4), rng.randint(1, 3))
    return FiniteSpacePair.of(points, rng.sample(points, rng.randint(0, len(points))))


def _simplicial_pairs(rng, m):
    pairs = []
    for b in consecutive_blocks([rng.randint(1, 2) for _ in range(m)]):
        X = random_complex(rng, b)
        pairs.append((X, random_subcomplex(rng, X)))
    return pairs


def test_gapped_outer_ground_gives_the_same_answers():
    for seed in range(TRIALS):
        rng = random.Random(seed)
        m = rng.randint(1, 3)
        K = random_complex(rng, range(1, m + 1))
        # K moved monotonically onto m labels drawn from 2..99
        labels = sorted(rng.sample(range(2, 100), m))
        G = K.relabel(dict(zip(range(1, m + 1), labels)))

        fpairs = [_finite_pair(rng) for _ in range(m)]
        assert finite_product(G, fpairs) == finite_product(K, fpairs), seed
        for check in (factorization_identity_check, complement_identity_check):
            assert check(G, fpairs) == check(K, fpairs), (seed, check.__name__)

        spairs = _simplicial_pairs(rng, m)
        assert polyhedral_complex(G, spairs) == polyhedral_complex(K, spairs), seed
        assert ghost_factorization(G, spairs) == ghost_factorization(K, spairs), seed
        leaves = [_finite_pair(rng) for _ in range(sum(x.n_vertices for x, _ in spairs))]
        assert (substitution_identity_check(G, spairs, leaves)
                == substitution_identity_check(K, spairs, leaves)), seed

        factors = [x for x, _ in spairs]
        if not any(L.is_void for L in factors):
            assert (hochster_composition_formula(G, factors)
                    == hochster_composition_formula(K, factors)), seed

        system = SpherePairSystem.of(*[
            (r, rng.randint(0, r)) for r in (rng.randint(0, 3) for _ in range(m))
        ])
        got, want = sphere_pair_homology(G, system), sphere_pair_homology(K, system)
        assert (got.hat, got.bar, got.total) == (want.hat, want.bar, want.total), seed
        assert sphere_pair_duality_check(G, system) == sphere_pair_duality_check(K, system)


def test_pair_count_is_checked_against_the_gapped_ground():
    K = SimplicialComplex.boundary_simplex([3, 70])
    with pytest.raises(ValueError, match="^expected 2 pairs for the ground of K, got 1$"):
        finite_product(K, [FiniteSpacePair.of([0], [])])
    with pytest.raises(ValueError, match="^expected 2 sphere pairs, got 3$"):
        sphere_pair_homology(K, SpherePairSystem.of((1, 0), (1, 0), (1, 0)))
