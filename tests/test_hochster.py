"""Bigraded tables, the duality witness, and the composition formulas."""

import random

import pytest

from polyprod.abelian import FgAbelianGroup, GradedGroup, Z_GROUP
from polyprod.complexes import (
    SimplicialComplex,
    mask_of,
    random_complex,
    vertices_of,
)
from polyprod.hochster import (
    BigradedTable,
    DualityCheckError,
    alexander_duality_witness,
    composition_homology,
    duality_group_sides,
    hochster_composition_formula,
    hochster_table,
    index_pairs,
    slice_duality_mismatches,
)
from polyprod.homology import GF, reduced_cohomology, reduced_homology
from polyprod.verify import cone_over_rp2, rp2_complex


def tri():
    return SimplicialComplex.boundary_simplex(range(1, 4))


def two_points():
    return SimplicialComplex.boundary_simplex(range(1, 3))


class TestIndexPairs:
    def test_base3_order_on_two_vertices(self):
        got = list(index_pairs(mask_of([1, 2])))
        # digit 1 -> sigma, digit 2 -> omega, vertex 1 least significant
        assert got == [
            (0, 0), (1, 0), (0, 1),
            (2, 0), (3, 0), (2, 1),
            (0, 2), (1, 2), (0, 3),
        ]

    def test_counts(self):
        assert len(list(index_pairs(mask_of([1, 2, 3])))) == 27
        assert len(list(index_pairs(0))) == 1

    @pytest.mark.parametrize("ground", [
        *(mask_of(range(1, n + 1)) for n in range(6)), mask_of([2, 4, 5]),
    ])
    def test_matches_a_divmod_counter(self, ground):
        bits = [1 << (v - 1) for v in vertices_of(ground)]
        want = []
        for code in range(3 ** len(bits)):
            sigma = omega = 0
            for b in bits:
                code, digit = divmod(code, 3)
                if digit == 1:
                    sigma |= b
                elif digit == 2:
                    omega |= b
            want.append((sigma, omega))
        assert index_pairs(ground) == want

    def test_pairs_are_disjoint_and_inside_ground(self):
        g = mask_of([2, 4, 5])
        for sigma, omega in index_pairs(g):
            assert sigma & omega == 0
            assert (sigma | omega) & ~g == 0


class TestHochsterTable:
    def test_triangle_boundary_full_table(self):
        table = hochster_table(tri())
        assert len(table.items()) == 27
        assert len(table.nonzero_items()) == 14
        assert table.entry((), (1, 2, 3)) == GradedGroup.from_dict({2: Z_GROUP})
        assert table.entry((3,), (1, 2)) == GradedGroup.from_dict({1: Z_GROUP})
        assert table.entry((1, 2), (3,)) == GradedGroup.from_dict({0: Z_GROUP})
        # faces contribute Z at degree 0 against empty omega
        assert table.entry((1,), ()) == GradedGroup.from_dict({0: Z_GROUP})
        # a proper restriction of the circle is contractible
        assert table.entry((), (1, 2)).is_zero
        # non-face sigma gives a void slice
        assert table.entry((1, 2, 3), ()).is_zero

    def test_empty_face_complex_entry_at_empty_pair(self):
        K = SimplicialComplex.empty_face_complex(mask_of([1, 2]))
        table = hochster_table(K)
        assert table.entry((), ()) == GradedGroup.from_dict({0: Z_GROUP})
        assert table.entry((1,), ()).is_zero

    def test_void_complex_table_is_zero(self):
        table = hochster_table(SimplicialComplex.void(mask_of([1, 2])))
        assert all(g.is_zero for _, g in table.items())

    def test_explicit_pair_subset(self):
        table = hochster_table(tri(), pairs=[((1, 2), (3,))])
        assert len(table.items()) == 1
        assert table.entry((1, 2), (3,)) == GradedGroup.from_dict({0: Z_GROUP})
        with pytest.raises(KeyError):
            table.entry((), (1, 2, 3))

    def test_pair_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            hochster_table(tri(), pairs=[((1,), (1, 2))])
        with pytest.raises(ValueError, match="vertex 4"):
            hochster_table(tri(), pairs=[((1,), (4,))])

    def test_torsion_entry_of_projective_plane(self):
        table = hochster_table(rp2_complex())
        assert table.entry((), range(1, 7)) == GradedGroup.from_dict(
            {2: FgAbelianGroup(0, (2,))}
        )

    def test_cohomology_table_shifts_torsion_up(self):
        table = hochster_table(rp2_complex(), cohomology=True)
        assert table.cohomology
        assert table.entry((), range(1, 7)) == GradedGroup.from_dict(
            {3: FgAbelianGroup(0, (2,))}
        )

    def test_field_coefficients(self):
        t2 = hochster_table(rp2_complex(), GF(2))
        assert t2.entry((), range(1, 7)) == GradedGroup.from_dict(
            {2: FgAbelianGroup(1), 3: FgAbelianGroup(1)}
        )

    def test_table_lookup_accepts_masks_and_iterables(self):
        table = hochster_table(tri())
        assert table.entry(mask_of([1, 2]), mask_of([3])) == table.entry((1, 2), (3,))


def _oracle_complexes():
    rng = random.Random(4401)
    randoms = [random_complex(rng, range(1, rng.randint(1, 7) + 1))
               for _ in range(10)]
    return [rp2_complex(), cone_over_rp2()] + randoms


class TestTableAgainstSlices:
    """Every table entry is the shifted (co)homology of ``K.slice``."""

    @pytest.mark.parametrize("coeff", [None, GF(2)], ids=["Z", "GF2"])
    @pytest.mark.parametrize("cohomology", [False, True],
                             ids=["homology", "cohomology"])
    def test_every_entry(self, coeff, cohomology):
        groups = reduced_cohomology if cohomology else reduced_homology
        for K in _oracle_complexes():
            table = hochster_table(K, coeff, cohomology=cohomology)
            assert len(table.items()) == 3 ** K.n_vertices
            for (sigma, omega), g in table.items():
                want = groups(K.slice(sigma, omega), coeff).shift(1)
                assert g == want, (K, sigma, omega)


class TestDualityWitness:
    def test_missing_edge_pair_by_hand(self):
        # two points on {1,2}: the single non-face of the slice at
        # (empty, {1,2}) is the edge itself, sent to the empty dual face
        w = alexander_duality_witness(two_points(), (), (1, 2))
        assert w.map_at(1) == {3: (0, 1)}
        assert w.map_at(0) == {}
        assert w.sign_profile == ()

    def test_requires_nonempty_omega(self):
        with pytest.raises(ValueError, match="nonempty omega"):
            alexander_duality_witness(two_points(), (1,), ())

    def test_requires_disjoint_sides(self):
        with pytest.raises(ValueError, match="disjoint"):
            alexander_duality_witness(tri(), (1,), (1, 2))

    def test_vertex_outside_ambient(self):
        # the ambient set is K's ground; vertex 3 lies outside it
        K = SimplicialComplex.full_simplex(range(1, 3))
        with pytest.raises(ValueError, match="vertex 3 is outside"):
            alexander_duality_witness(K, (1,), (2, 3))

    def test_precomputed_dual_must_match_ambient(self):
        wrong = SimplicialComplex.full_simplex(range(1, 4))
        with pytest.raises(ValueError, match="ambient"):
            alexander_duality_witness(
                two_points(), (), (1, 2), precomputed_dual=wrong
            )

    def test_wrong_dual_count_is_detected(self):
        wrong = SimplicialComplex.full_simplex(range(1, 3))
        with pytest.raises(DualityCheckError, match="count"):
            alexander_duality_witness(
                two_points(), (), (1, 2), precomputed_dual=wrong
            )

    def test_wrong_dual_faces_are_detected(self):
        K = SimplicialComplex.from_facets(mask_of([1, 2, 3]), ((1, 3), (2, 3)))
        wrong = SimplicialComplex.from_facets(mask_of([1, 2, 3]), ((1,),))
        with pytest.raises(DualityCheckError, match="not a dual face"):
            alexander_duality_witness(
                K, (), (1, 2, 3), precomputed_dual=wrong
            )

    def test_witness_covers_all_nonfaces_of_a_torsion_slice(self):
        cone = cone_over_rp2()
        w = alexander_duality_witness(cone, (7,), range(1, 7))
        mapped = sum(len(items) for _, items in w.taking)
        assert mapped == 64 - len(rp2_complex().faces)
        omega = mask_of(range(1, 7))
        for _, items in w.taking:
            for eta, (comp, sign) in items:
                assert comp == omega ^ eta
                assert sign in (-1, 1)
        assert all(eps in (-1, 1) for _, eps in w.sign_profile)

    def test_random_pairs_always_verify(self):
        rng = random.Random(20260816)
        for _ in range(60):
            n = rng.randint(1, 5)
            K = random_complex(rng, range(1, n + 1))
            sigma = omega = 0
            for v in range(1, n + 1):
                digit = rng.randrange(3)
                if digit == 1:
                    sigma |= 1 << (v - 1)
                elif digit == 2:
                    omega |= 1 << (v - 1)
            if omega == 0:
                omega = 1 << rng.randrange(n)
                sigma &= ~omega
            alexander_duality_witness(K, sigma, omega)


class TestSliceDualityMismatches:
    def test_own_cohomology_in_place_of_the_dual_is_caught(self):
        # the dual of the triangle boundary is {empty face}; against its own
        # cohomology the first nonempty-omega pair ({}, {1}) already fails:
        # the slice is a point (zero), the stand-in entry at ({2, 3}, {1})
        # is the empty-face complex (Z in internal degree 0)
        K = tri()
        got = list(slice_duality_mismatches(
            hochster_table(K), hochster_table(K, cohomology=True)
        ))
        sigma, omega, mismatch = got[0]
        assert (sigma, omega) == (0, mask_of([1]))
        assert mismatch == (0, FgAbelianGroup(0), Z_GROUP)
        assert sum(m is not None for *_, m in got) > 1

    def test_true_dual_reports_nothing_on_every_pair(self):
        for K in (tri(), rp2_complex(), cone_over_rp2()):
            table = hochster_table(K)
            co_dual = hochster_table(K.dual(K.ground), cohomology=True)
            got = list(slice_duality_mismatches(table, co_dual))
            n = K.n_vertices
            assert len(got) == 3 ** n - 2 ** n
            assert all(m is None for *_, m in got)


class TestDualityGroupSides:
    def test_projective_plane_torsion_crosses_the_duality(self):
        lhs, rhs = duality_group_sides(rp2_complex(), (), range(1, 7))
        assert lhs == rhs
        assert lhs == GradedGroup.from_dict({1: FgAbelianGroup(0, (2,))})

    def test_triangle_boundary(self):
        lhs, rhs = duality_group_sides(tri(), (), (1, 2, 3))
        assert lhs == rhs == GradedGroup.from_dict({1: Z_GROUP})

    def test_random_instances_agree(self):
        # the group identity needs a nonempty omega, as in the witness
        rng = random.Random(7)
        for _ in range(80):
            n = rng.randint(1, 5)
            K = random_complex(rng, range(1, n + 1))
            sigma = omega = 0
            for v in range(1, n + 1):
                digit = rng.randrange(3)
                if digit == 1:
                    sigma |= 1 << (v - 1)
                elif digit == 2:
                    omega |= 1 << (v - 1)
            if omega == 0:
                omega = 1 << rng.randrange(n)
                sigma &= ~omega
            lhs, rhs = duality_group_sides(K, sigma, omega)
            assert lhs == rhs


def _segment_blocks(count, width=2):
    out = []
    v = 1
    for _ in range(count):
        out.append(SimplicialComplex.boundary_simplex(range(v, v + width)))
        v += width
    return out


class TestCompositionHomology:
    def test_triangle_of_point_pairs_is_a_five_sphere_slice(self):
        # S^1 composed with three copies of S^0 is S^4
        h = composition_homology(tri(), _segment_blocks(3))
        assert h == GradedGroup.from_dict({4: Z_GROUP})

    def test_field_coefficients(self):
        h = composition_homology(tri(), _segment_blocks(3), GF(2))
        assert h == GradedGroup.from_dict({4: FgAbelianGroup(1)})

    def test_torsion_outer_complex_is_accepted(self):
        h = composition_homology(rp2_complex(), _segment_blocks(6))
        assert h == GradedGroup.from_dict({7: FgAbelianGroup(0, (2,))})

    def test_torsion_factor_is_rejected_over_z(self):
        K = SimplicialComplex.full_simplex((1,))
        with pytest.raises(ValueError, match="torsion-free"):
            composition_homology(K, [rp2_complex()])

    def test_formula_mismatch_raises(self, monkeypatch):
        import polyprod.hochster as hoch

        real = hoch.tensor_additive
        monkeypatch.setattr(
            hoch, "tensor_additive", lambda fs: real(list(fs)).shift(1)
        )
        with pytest.raises(DualityCheckError, match="mismatch"):
            composition_homology(tri(), _segment_blocks(3))


class TestHochsterCompositionFormula:
    def test_two_point_outer_with_two_point_factors(self):
        K = two_points()
        factors = _segment_blocks(2)
        report = hochster_composition_formula(K, factors)
        assert len(report.verdicts) == 81
        assert report.ok
        assert report.failures() == []
        full = next(
            v for v in report.verdicts
            if v.sigma == 0 and v.omega == mask_of([1, 2, 3, 4])
        )
        # the composition is a 2-sphere; internal degree is reduced + 1
        assert v_entry(full.lhs) == {3: Z_GROUP}
        assert full.lhs == full.rhs

    def test_void_factor_rejected(self):
        K = two_points()
        factors = [SimplicialComplex.void((1, 2)),
                   SimplicialComplex.boundary_simplex((3, 4))]
        with pytest.raises(ValueError, match="nonvoid"):
            hochster_composition_formula(K, factors)

    def test_factor_count_mismatch(self):
        with pytest.raises(ValueError, match="expected 2 factors"):
            hochster_composition_formula(two_points(), _segment_blocks(3))

    def test_torsion_factor_needs_field_coefficients(self):
        K = SimplicialComplex.empty_face_complex(mask_of([1]))
        with pytest.raises(ValueError, match="field coefficients"):
            hochster_composition_formula(K, [rp2_complex()])

    def test_torsion_factor_works_over_gf2(self):
        K = SimplicialComplex.empty_face_complex(mask_of([1]))
        report = hochster_composition_formula(K, [rp2_complex()], GF(2))
        assert report.ok


def v_entry(g: GradedGroup) -> dict:
    return dict(g.groups)


class TestBigradedTableContainer:
    def test_entry_error_message(self):
        table = BigradedTable(mask_of([1]), (((0, 0), GradedGroup()),))
        with pytest.raises(KeyError, match="not in the table"):
            table.entry((1,), ())

    def test_nonzero_filtering(self):
        z = GradedGroup.from_dict({0: Z_GROUP})
        table = BigradedTable(
            mask_of([1]), (((0, 0), z), ((1, 0), GradedGroup()))
        )
        assert table.nonzero_items() == (((0, 0), z),)
