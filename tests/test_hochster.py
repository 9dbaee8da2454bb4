"""Bigraded tables, the duality witness, and the composition formulas."""

import itertools
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
    DualityWitness,
    alexander_duality_witness,
    composition_homology,
    duality_group_sides,
    hochster_composition_formula,
    hochster_table,
    index_pairs,
    slice_duality_mismatches,
)
from polyprod.homology import (
    GF,
    homology_of_faces,
    reduced_cohomology,
    reduced_homology,
)
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


def _scan_corpus():
    # rp2, its cone and 20 seeded random complexes of up to 7 vertices, each
    # random one with a ghost vertex above its ground
    rng = random.Random(6021)
    out = [rp2_complex(), cone_over_rp2()]
    for _ in range(20):
        n = rng.randint(1, 6)
        K = random_complex(rng, range(1, n + 1))
        out.append(SimplicialComplex(K.ground | 1 << n, K.faces))
    return out


def _bits(mask):
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def _all_pairs(ground):
    bits = _bits(ground)
    for digits in itertools.product((0, 1, 2), repeat=len(bits)):
        sigma = sum(b for b, d in zip(bits, digits) if d == 1)
        omega = sum(b for b, d in zip(bits, digits) if d == 2)
        yield sigma, omega


def _slice_by_face_scan(K, sigma, omega):
    return frozenset(f ^ sigma for f in K.faces
                     if f & sigma == sigma and f & ~(sigma | omega) == 0)


def _subsets(mask):
    bits = _bits(mask)
    return [sum(c) for k in range(len(bits) + 1)
            for c in itertools.combinations(bits, k)]


def _merge_sign(eta, rest):
    # sorted labels of eta followed by those of rest
    merged = [b.bit_length() for b in _bits(eta) + _bits(rest)]
    inversions = sum(1 for i, a in enumerate(merged) for b in merged[i + 1:] if a > b)
    return -1 if inversions % 2 else 1


class TestSliceAgainstFaceScan:
    """``K.slice`` against a scan of every face, written here.

    :class:`TestTableAgainstFaceScan` checks the table against the same
    scan.
    """

    def test_every_disjoint_pair(self):
        nonface_sigmas = ghosts = 0
        for K in _scan_corpus():
            support = 0
            for f in K.faces:
                support |= f
            ghosts += support != K.ground
            for sigma, omega in _all_pairs(K.ground):
                S = K.slice(sigma, omega)
                assert S.ground == omega
                assert S.faces == _slice_by_face_scan(K, sigma, omega), (
                    K, sigma, omega)
                if sigma not in K.faces:
                    nonface_sigmas += 1
                    assert S.is_void
        assert ghosts >= 20
        assert nonface_sigmas > 0


class TestWitnessAgainstMergeInversions:
    def test_every_taking_entry(self):
        for K in _scan_corpus():
            dual = K.dual(K.ground)
            for sigma, omega in _all_pairs(K.ground):
                if not omega:
                    continue
                slice_faces = _slice_by_face_scan(K, sigma, omega)
                want = {}
                for eta in _subsets(omega):
                    if eta not in slice_faces:
                        want.setdefault(bin(eta).count("1") - 1, {})[eta] = (
                            omega ^ eta, _merge_sign(eta, omega ^ eta))
                w = alexander_duality_witness(K, sigma, omega,
                                              precomputed_dual=dual)
                got = {d: dict(items) for d, items in w.taking}
                assert got == want, (K, sigma, omega)


class TestTableAgainstFaceScan:
    """Every table entry against the homology of a face scan written here.

    The table walks codes of the subsets of omega inside the link support
    of sigma; the scan keeps each face of K that contains sigma and lies in
    sigma + omega, so it shares no code with the slice rule.
    """

    @pytest.mark.parametrize("coeff", [None, GF(2)], ids=["Z", "GF2"])
    @pytest.mark.parametrize("cohomology", [False, True],
                             ids=["homology", "cohomology"])
    def test_every_entry(self, coeff, cohomology):
        for K in _scan_corpus():
            table = dict(hochster_table(K, coeff, cohomology=cohomology).items())
            pairs = list(_all_pairs(K.ground))
            assert len(table) == len(pairs)
            for sigma, omega in pairs:
                scan = _slice_by_face_scan(K, sigma, omega)
                want = homology_of_faces(scan, coeff, cohomology).shift(1)
                assert table[sigma, omega] == want, (K, sigma, omega)


def _shuffle_sign(eta, rest):
    # each vertex of eta passes every smaller vertex of rest
    inversions = 0
    while eta:
        low = eta & -eta
        inversions += bin(rest & (low - 1)).count("1")
        eta ^= low
    return -1 if inversions % 2 else 1


def _witness_by_definition(K, sigma, omega):
    # every subset of omega, largest first, then sorted into place; walked
    # here rather than through complexes.submasks, which the witness uses
    slice_faces = _slice_by_face_scan(K, sigma, omega)
    taking, profile = {}, {}
    eta = omega
    while True:
        if eta not in slice_faces:
            k = bin(eta).count("1")
            rest = omega ^ eta
            taking.setdefault(k - 1, {})[eta] = (rest, _shuffle_sign(eta, rest))
            if eta != omega:
                profile[k] = -1 if k % 2 else 1
        if eta == 0:
            break
        eta = (eta - 1) & omega
    return DualityWitness(
        sigma=sigma,
        omega=omega,
        taking=tuple((d, tuple(sorted(items.items())))
                     for d, items in sorted(taking.items())),
        sign_profile=tuple(sorted(profile.items())),
    )


class TestWitnessAgainstItsDefinition:
    """The whole witness, ``taking`` order included, built here."""

    def test_every_nonempty_omega_pair(self):
        pairs = 0
        for K in _scan_corpus():
            dual = K.dual(K.ground)
            for sigma, omega in _all_pairs(K.ground):
                if omega:
                    got = alexander_duality_witness(K, sigma, omega,
                                                    precomputed_dual=dual)
                    assert got == _witness_by_definition(K, sigma, omega), (
                        K, sigma, omega)
                    pairs += 1
        assert pairs > 14000


def _chain_map_corpus():
    # rp2, its cone and 40 seeded random complexes on 3 to 6 vertices
    rng = random.Random(7107)
    return [rp2_complex(), cone_over_rp2()] + [
        random_complex(rng, range(1, rng.randint(3, 6) + 1)) for _ in range(40)
    ]


class TestWitnessIsAChainMap:
    """The witness's ``taking`` against chain complexes built here.

    The witness checks no square: its ``sign_profile`` is (-1)^d in every
    degree d that has one, for every K.  This pins that rule, and that
    eta - v is a generator exactly when (omega - eta) + v is a dual face,
    against the relative boundary of (simplex on omega, slice) and the
    coboundary of the dual slice, both written from their definitions.
    """

    def test_boundary_and_coboundary_intertwine(self):
        pairs = 0
        for K in _chain_map_corpus():
            ground = K.ground
            dual_faces = {t for t in _subsets(ground) if ground ^ t not in K.faces}
            dual = K.dual(ground)
            for sigma, omega in _all_pairs(ground):
                if not omega:
                    continue
                rest = ground & ~(sigma | omega)
                dual_slice = {t for t in _subsets(omega) if rest | t in dual_faces}
                w = alexander_duality_witness(K, sigma, omega, precomputed_dual=dual)
                phi = {eta: image for _, items in w.taking for eta, image in items}
                assert set(phi) == set(_subsets(omega)) - _slice_by_face_scan(
                    K, sigma, omega)
                eps = dict(w.sign_profile)
                squares = set()
                for eta, (comp, sign) in phi.items():
                    # phi of the relative boundary: faces of the slice are zero
                    lhs = {}
                    for i, b in enumerate(_bits(eta)):
                        if eta ^ b in phi:
                            image, image_sign = phi[eta ^ b]
                            lhs[image] = (-1) ** i * image_sign
                    # the dual coboundary of phi(eta)
                    rhs = {}
                    for b in _bits(omega & ~comp):
                        if comp | b in dual_slice:
                            rhs[comp | b] = (-1) ** _bits(comp | b).index(b) * sign
                    if lhs or rhs:
                        d = bin(eta).count("1") - 1
                        squares.add(d)
                        assert d in eps, (K, sigma, omega, eta)
                        assert lhs == {c: eps[d] * x for c, x in rhs.items()}, (
                            K, sigma, omega, eta)
                assert set(eps) == squares, (K, sigma, omega)
                pairs += 1
        assert pairs > 10000


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


class TestTableThroughHomologyOfFaces:
    """The table reaches homology only through ``homology_of_faces``."""

    @pytest.mark.parametrize("coeff", [None, GF(2)], ids=["Z", "GF2"])
    @pytest.mark.parametrize("cohomology", [False, True],
                             ids=["homology", "cohomology"])
    def test_counting_wrapper_sees_every_key(self, monkeypatch, coeff, cohomology):
        import polyprod.hochster as hoch
        from polyprod.homology import _canonical_faces

        corpus = [rp2_complex(), cone_over_rp2()]
        before = [hochster_table(K, coeff, cohomology=cohomology).items()
                  for K in corpus]
        real = hoch.homology_of_faces
        keys = []

        def counting(faces, *args, **kwargs):
            keys.append(faces)
            return real(faces, *args, **kwargs)

        # bound the way perfbench's tracer binds it
        monkeypatch.setattr(hoch, "homology_of_faces", counting)
        after = [hochster_table(K, coeff, cohomology=cohomology).items()
                 for K in corpus]
        assert keys
        assert after == before
        # each key is a family on vertices 1..k, its own canonical form
        for key in keys:
            assert _canonical_faces(key) == tuple(key)


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

    def test_torsion_factor_under_a_void_outer_complex(self):
        # no entry of the composition is nonzero, but each pair still
        # tensors its factor entries, and the tensor rule refuses torsion
        K = SimplicialComplex.void(mask_of([1]))
        with pytest.raises(ValueError, match="field coefficients"):
            hochster_composition_formula(K, [rp2_complex()])
        assert hochster_composition_formula(K, [rp2_complex()], GF(2)).ok

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
