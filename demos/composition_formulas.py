"""Compositions of complexes and their homology by tensor formulas.

Run with: python3 demos/composition_formulas.py
"""

from polyprod import (
    GF,
    SimplicialComplex,
    composition_complex,
    composition_homology,
    document_of,
    hochster_composition_formula,
    reduced_homology,
    rp2_complex,
    vertices_of,
)


def s0(a, b):
    return SimplicialComplex.boundary_simplex((a, b))


def main():
    # substituting a two-point complex into each vertex of the triangle
    # boundary produces the boundary of the five-simplex
    tri = SimplicialComplex.boundary_simplex(range(1, 4))
    factors = [s0(4, 5), s0(6, 7), s0(8, 9)]
    comp = composition_complex(tri, factors)
    print(document_of(comp).render(), end="")
    print("direct homology:", reduced_homology(comp))

    # the same group by the degreewise tensor formula; the call cross-checks
    # the formula against a direct Smith reduction and raises on mismatch
    print("tensor formula: ", composition_homology(tri, factors))
    print("over F2:        ", composition_homology(tri, factors, GF(2)))

    # torsion in the outer complex rides along; a circle block shifts it up
    rp2 = rp2_complex()
    blocks = [s0(2 * k + 1, 2 * k + 2) for k in range(6)]
    print("plane composed with six point pairs:",
          composition_homology(rp2, blocks))

    # the bigraded table of a composition factors entry by entry; all 3^n
    # disjoint pairs are covered, and a verdict stands at each pair where
    # either side can be nonzero (both sides are zero at the others)
    K = s0(1, 2)
    report = hochster_composition_formula(K, [s0(1, 2), s0(3, 4)])
    verdicts = report.verdicts
    nonzero = [v for v in verdicts if not v.lhs.is_zero]
    print(f"pairs covered: {report.pairs}, verdicts: {len(verdicts)}, "
          f"nonzero: {len(nonzero)}, all agree: {report.ok}")
    for v in nonzero:
        if not v.omega:
            continue
        sig = set(vertices_of(v.sigma))
        om = set(vertices_of(v.omega))
        print(f"  sigma {sig or '{}'} omega {om}: {v.lhs}")


if __name__ == "__main__":
    main()
