"""Finite set models and sphere-pair homology ledgers for product spaces.

Run with: python3 demos/sphere_pair_spaces.py
"""

from polyprod import (
    FiniteSpacePair,
    SimplicialComplex,
    SpherePairSystem,
    complement_identity_check,
    finite_product,
    run_suite,
    sphere_pair_duality_check,
    sphere_pair_homology,
)


def main():
    # a product space over a complex, modeled on finite point sets: take the
    # whole space at positions in a face, the subspace elsewhere
    two_points = SimplicialComplex.boundary_simplex(range(1, 3))
    interval = FiniteSpacePair.of({0, 1}, {0})
    tuples = sorted(finite_product(two_points, [interval, interval]))
    print("tuples of the product over the two-point complex:", tuples)

    # the complement inside the full product is the product of the dual
    # complex with the complemented pairs
    print("complement identity:",
          complement_identity_check(two_points, [interval, interval]).ok)

    # sphere pairs (S^(r+1), S^q): homology assembled purely from the slice
    # table, one hat class per face plus bar classes from nonzero entries
    system = SpherePairSystem.of((1, 0), (1, 0))
    report = sphere_pair_homology(two_points, system)
    print("hat:  ", report.hat)
    print("bar:  ", report.bar)
    print("total:", report.total)
    print("ledger:")
    for e in report.ledger:
        print(f"  {e.kind} sigma mask {e.sigma:02b} -> degree {e.degree}")

    # the space over the dual complex with complementary parameters pairs
    # with this one: slice table entries in complementary degrees, and
    # faces of the complex with non-faces of its dual
    print("duality pairing:", sphere_pair_duality_check(two_points, system).ok)

    # the randomized suite drives the same check over a corpus
    result = run_suite("sphere-duality", trials=25, max_vertices=4, seed=2)
    print(result.report_lines()[-1])


if __name__ == "__main__":
    main()
