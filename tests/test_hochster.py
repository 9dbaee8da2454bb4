"""Bigraded tables, the duality witness, and the composition formulas."""

import functools
import gc
import itertools
import random
import weakref

import pytest

from polyprod import hochster
from polyprod.abelian import FgAbelianGroup, GradedGroup, Z_GROUP, tensor_additive
from polyprod.complexes import (
    SimplicialComplex,
    composition_complex,
    consecutive_blocks,
    join,
    make_complex,
    mask_of,
    random_complex,
    vertices_of,
)
from polyprod.hochster import (
    DualityCheckError,
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


def _counter_pairs(ground):
    # every disjoint pair, counting in base 3 with the smallest ground
    # vertex as the least significant digit (1: sigma, 2: omega)
    bits = [1 << (v - 1) for v in vertices_of(ground)]
    out = []
    for code in range(3 ** len(bits)):
        sigma = omega = 0
        for b in bits:
            code, digit = divmod(code, 3)
            if digit == 1:
                sigma |= b
            elif digit == 2:
                omega |= b
        out.append((sigma, omega))
    return out


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
        assert index_pairs(ground) == _counter_pairs(ground)

    @pytest.mark.parametrize("ground", [
        *(mask_of(range(1, n + 1)) for n in range(10)), mask_of([2, 4, 5]),
        mask_of([1, 3, 4, 7, 9]), mask_of([2, 3, 6, 10, 11, 15, 20]),
    ])
    def test_table_items_come_in_counter_order(self, ground):
        # the stream pairs the low half of the ground's vertices with the
        # high half, one vertex larger on an odd ground
        K = SimplicialComplex.boundary_simplex(vertices_of(ground))
        table = hochster_table(K)
        items = table.items()
        assert len(items) == 3 ** ground.bit_count()
        assert [pair for pair, _ in items] == _counter_pairs(ground)
        assert all(entry is table.entry(*pair) for pair, entry in items)

    def test_requested_table_items_come_in_the_given_order(self):
        pairs = [(0b011, 0b100), (0, 0b111), (0b011, 0b100), (0b100, 0b001), (0b111, 0)]
        table = hochster_table(tri(), pairs=pairs)
        items = list(table.items())
        assert len(table.items()) == 5
        assert [pair for pair, _ in items] == pairs
        assert all(entry is table.entry(*pair) for pair, entry in items)
        assert [entry.degrees() for _, entry in items] == [(0,), (2,), (0,), (), ()]

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


def _large_scan_corpus():
    # seeded random complexes of 4-12 facets of 2-5 vertices on 8 and 9
    # vertices, the last on a ground with a ghost vertex 10
    rng = random.Random(9021)
    out = []
    for n in (8, 8, 9, 9):
        facets = [rng.sample(range(1, n + 1), rng.randint(2, 5))
                  for _ in range(rng.randint(4, 12))]
        out.append(make_complex(range(1, n + 1), facets))
    K = out.pop()
    return out + [SimplicialComplex(K.ground | 1 << 9, K.faces)]


def _cone_point_corpus():
    # complexes where many links have a cone point, a vertex in every facet
    # above the face: a cone over a seeded random complex, rp2 joined with
    # an edge, the dual of a sparse complex, a composition with triangle
    # boundaries, and the cone again on a ground with a ghost vertex 8
    rng = random.Random(2417)
    facets = [rng.sample(range(1, 6), rng.randint(1, 3)) for _ in range(4)]
    cone = make_complex(range(1, 7), [f + [6] for f in facets])
    sparse = make_complex(range(1, 8), [rng.sample(range(1, 8), 2) for _ in range(2)])
    triangles = [SimplicialComplex.boundary_simplex(range(v, v + 3)) for v in (1, 4)]
    return [
        cone,
        join([rp2_complex(), SimplicialComplex.full_simplex((7, 8))]),
        sparse.dual(sparse.ground),
        composition_complex(make_complex((1, 2), [[1]]), triangles),
        SimplicialComplex(cone.ground | 1 << 7, cone.faces),
    ]


def _cone_points_by_face_scan(K, sigma):
    # the vertices v outside sigma with sigma + v a face and f + v a face
    # for every face f above sigma
    above = [f for f in K.faces if f & sigma == sigma]
    return sum(b for b in _bits(K.ground & ~sigma)
               if all(f | b in K.faces for f in above))


@functools.cache
def _face_scans(K):
    # the scan at every pair of K, once for all four gradings
    return {pair: _slice_by_face_scan(K, *pair) for pair in _all_pairs(K.ground)}


class TestTableAgainstFaceScan:
    """Every table entry against the homology of a face scan written here.

    The table computes the slices of each face sigma inside its link
    support at once, on bitsets; the scan keeps each face of K that
    contains sigma and lies in sigma + omega, so it shares no code with
    the slice rule.  The corpus runs up to 9 vertices; its last part has
    many faces whose link has a cone point, where the table computes no
    slice holding that vertex.
    """

    @pytest.mark.parametrize("coeff", [None, GF(2)], ids=["Z", "GF2"])
    @pytest.mark.parametrize("cohomology", [False, True],
                             ids=["homology", "cohomology"])
    def test_every_entry(self, coeff, cohomology):
        for K in _scan_corpus() + _large_scan_corpus() + _cone_point_corpus():
            table = hochster_table(K, coeff, cohomology=cohomology)
            items = list(table.items())
            pairs = list(_all_pairs(K.ground))
            assert len(items) == len(table.items()) == len(pairs)
            entries = dict(items)
            scans = _face_scans(K)
            for sigma, omega in pairs:
                want = homology_of_faces(scans[sigma, omega], coeff, cohomology).shift(1)
                assert entries[sigma, omega] == want, (K, sigma, omega)
            assert table.nonzero_items() == tuple(
                (pair, g) for pair, g in items if not g.is_zero)

    def test_the_corpus_has_cone_points(self):
        pairs = 0
        for K in _cone_point_corpus():
            faces = 0
            for sigma in K.faces:
                cone_points = _cone_points_by_face_scan(K, sigma)
                if cone_points:
                    # the omegas outside sigma that meet the cone points
                    faces += 1
                    rest = K.n_vertices - sigma.bit_count()
                    pairs += 2 ** rest - 2 ** (rest - cone_points.bit_count())
            assert faces >= 27, K
        assert pairs > 4000

    @pytest.mark.parametrize("coeff", [None, GF(2)], ids=["Z", "GF2"])
    @pytest.mark.parametrize("cohomology", [False, True],
                             ids=["homology", "cohomology"])
    def test_requested_pairs_agree_with_all_pairs(self, coeff, cohomology):
        # a table over requested pairs computes the slice of each, cone
        # point or not
        for K in _cone_point_corpus():
            pairs = list(_all_pairs(K.ground))
            every = hochster_table(K, coeff, cohomology=cohomology)
            asked = hochster_table(K, coeff, pairs=pairs, cohomology=cohomology)
            assert dict(asked.items()) == dict(every.items()), K


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
    return (sigma, omega,
            tuple((d, tuple(sorted(items.items())))
                  for d, items in sorted(taking.items())),
            tuple(sorted(profile.items())))


class TestWitnessAgainstItsDefinition:
    """The whole witness, ``taking`` order included, built here."""

    def test_every_nonempty_omega_pair(self):
        pairs = 0
        for K in _scan_corpus():
            dual = K.dual(K.ground)
            for sigma, omega in _all_pairs(K.ground):
                if omega:
                    w = alexander_duality_witness(K, sigma, omega,
                                                  precomputed_dual=dual)
                    got = (w.sigma, w.omega, w.taking, w.sign_profile)
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
        assert w.taking == ((1, ((3, (0, 1)),)),)
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


def _stand_in_duals(K):
    # the true dual, the dual less a facet, the dual plus a minimal non-face
    # and the non-faces of K left uncomplemented
    g = K.ground
    dual = K.dual(g)
    subsets = SimplicialComplex.full_simplex(g).faces
    out = [dual]
    if dual.faces:
        out.append(SimplicialComplex(g, dual.faces - {max(dual.facets())}))
    minimal = [f for f in subsets if f not in dual.faces
               and all(f & ~b in dual.faces for b in _bits(f))]
    if minimal:
        out.append(SimplicialComplex(g, dual.faces | {min(minimal)}))
    out.append(SimplicialComplex(g, subsets - K.faces))
    return out


class TestWitnessAtTheGround:
    """The witness at (empty, ground) stands for the witness at every pair.

    The alexander suite builds only that one; the witness at (sigma, omega)
    checks F not in K exactly when ground - F is a dual face for sigma <= F
    <= sigma + omega, and (empty, ground) covers every F.
    """

    def test_raises_exactly_when_some_pair_raises(self):
        def raises(K, sigma, omega, dual):
            try:
                alexander_duality_witness(K, sigma, omega, precomputed_dual=dual)
            except DualityCheckError:
                return True
            return False

        rng = random.Random(5318)
        corpus = [rp2_complex(), cone_over_rp2()] + [
            random_complex(rng, range(1, n + 1)) for n in range(1, 7) for _ in range(8)
        ]
        verdicts = []
        for K in corpus:
            g = K.ground
            for dual in _stand_in_duals(K):
                at_ground = raises(K, 0, g, dual)
                anywhere = any(raises(K, sigma, omega, dual)
                               for sigma, omega in _all_pairs(g) if omega)
                assert at_ground == anywhere, (K, dual)
                verdicts.append(at_ground)
        assert len(verdicts) > 150
        assert 0 < sum(verdicts) < len(verdicts)


def _verdict_by_definition(K, dual, sigma, omega):
    # the witness's two checks, in its order and with its messages, on
    # slices scanned here
    slice_faces = _slice_by_face_scan(K, sigma, omega)
    dual_slice = _slice_by_face_scan(dual, K.ground & ~(sigma | omega), omega)
    nonfaces = [eta for eta in _subsets(omega) if eta not in slice_faces]
    if len(nonfaces) != len(dual_slice):
        return "non-face count does not match the dual slice face count"
    missing = [eta for eta in nonfaces if omega ^ eta not in dual_slice]
    if missing:
        labels = [b.bit_length() for b in _bits(max(missing))]
        return f"complement of {labels} is not a dual face"
    return None


class TestWitnessVerdictsAgainstTheirDefinition:
    """The verdict and message at every pair, against slices scanned here.

    Complexes on 1-6 vertices, on grounds 1..n and on gapped grounds, each
    against its true dual, a random complex, the dual less its largest face
    and the dual plus a minimal non-face.
    """

    def test_every_nonempty_omega_pair(self):
        rng = random.Random(1818)
        corpus = []
        for n in range(1, 7):
            for _ in range(2):
                corpus.append(random_complex(rng, range(1, n + 1)))
                corpus.append(random_complex(rng, sorted(rng.sample(range(1, 70), n))))
        seen = {}
        for K in corpus:
            g = K.ground
            # _stand_in_duals lists the uncomplemented non-faces last
            duals = _stand_in_duals(K)[:-1] + [random_complex(rng, g)]
            for dual in duals:
                for sigma, omega in _all_pairs(g):
                    if not omega:
                        continue
                    try:
                        alexander_duality_witness(K, sigma, omega,
                                                  precomputed_dual=dual)
                        got = None
                    except DualityCheckError as e:
                        got = str(e)
                    want = _verdict_by_definition(K, dual, sigma, omega)
                    assert got == want, (K, dual, sigma, omega)
                    kind = want and want.split()[-1]
                    seen[kind] = seen.get(kind, 0) + 1
        # passes, count failures and complement failures all occur
        assert set(seen) == {None, "count", "face"}, seen
        assert sum(seen.values()) > 10000


class TestWitnessMemo:
    """The witness reads the faces of K and of the dual once per pair of
    objects, keyed on their identity and held by weak reference.
    """

    def test_a_patched_slice_reaches_equal_but_distinct_complexes(self, monkeypatch):
        K = cone_over_rp2()
        dual = K.dual(K.ground)
        alexander_duality_witness(K, 0, K.ground, precomputed_dual=dual)
        copy = SimplicialComplex(K.ground, K.faces)
        copy_dual = SimplicialComplex(dual.ground, dual.faces)
        assert (copy, copy_dual) == (K, dual)
        real = SimplicialComplex.slice

        def drops_largest_face(self, sigma, omega):
            S = real(self, sigma, omega)
            return SimplicialComplex(S.ground, S.faces - {max(S.faces)})

        monkeypatch.setattr(SimplicialComplex, "slice", drops_largest_face)
        with pytest.raises(DualityCheckError, match="count"):
            alexander_duality_witness(copy, 0, K.ground, precomputed_dual=copy_dual)

    def test_a_wrong_dual_after_the_true_one_still_fails(self):
        K = rp2_complex()
        g = K.ground
        dual = K.dual(g)
        alexander_duality_witness(K, 0, g, precomputed_dual=dual)
        wrong = SimplicialComplex(g, dual.faces - {max(dual.faces)})
        for L in (K, SimplicialComplex(g, K.faces)):
            with pytest.raises(DualityCheckError, match="count"):
                alexander_duality_witness(L, 0, g, precomputed_dual=wrong)
            alexander_duality_witness(L, 0, g, precomputed_dual=dual)

    def test_the_memo_keeps_neither_complex_alive(self):
        K = SimplicialComplex.boundary_simplex(range(1, 6))
        dual = K.dual(K.ground)
        alexander_duality_witness(K, (1,), (2, 3), precomputed_dual=dual)
        refs = [weakref.ref(K), weakref.ref(dual)]
        del K, dual
        gc.collect()
        assert [r() for r in refs] == [None, None]


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
        assert len(got) > 1
        # only mismatching pairs come out, each with nonempty omega, in
        # table order
        order = [pair for pair, _ in hochster_table(K).items()]
        assert all(omega and m is not None for _, omega, m in got)
        assert sorted(got, key=lambda r: order.index(r[:2])) == got

    def test_true_dual_reports_nothing_on_every_pair(self):
        for K in (tri(), rp2_complex(), cone_over_rp2()):
            table = hochster_table(K)
            co_dual = hochster_table(K.dual(K.ground), cohomology=True)
            assert list(slice_duality_mismatches(table, co_dual)) == []

    def test_only_all_pair_tables_on_one_ground_are_compared(self):
        K = tri()
        g = K.ground
        table = hochster_table(K)
        co_dual = hochster_table(K.dual(g), cohomology=True)
        pairs = index_pairs(g)
        asked = hochster_table(K, pairs=pairs)
        co_asked = hochster_table(K.dual(g), pairs=pairs, cohomology=True)
        wider = SimplicialComplex(g | mask_of([4]), K.faces)
        co_wider = hochster_table(wider.dual(wider.ground), cohomology=True)
        # a table of the wrong variance on either side: on the triangle no
        # entry fails, so only the refusal shows it
        variance = "a homology table with a cohomology table"
        for lhs, rhs, message in [
            (asked, co_dual, "over all pairs"),
            (table, co_asked, "over all pairs"),
            (asked, co_asked, "over all pairs"),
            (table, co_wider, "on one ground"),
            (table, hochster_table(K.dual(g)), variance),
            (hochster_table(K, cohomology=True), co_dual, variance),
        ]:
            mismatches = slice_duality_mismatches(lhs, rhs)
            with pytest.raises(ValueError, match=message):
                next(mismatches)


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

        real = hoch.graded_tensor
        monkeypatch.setattr(
            hoch, "graded_tensor", lambda fs: real(list(fs)).shift(1)
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
        before = [list(hochster_table(K, coeff, cohomology=cohomology).items())
                  for K in corpus]
        real = hoch.homology_of_faces
        keys = []

        def counting(faces, *args, **kwargs):
            keys.append(faces)
            return real(faces, *args, **kwargs)

        # bound the way perfbench's tracer binds it
        monkeypatch.setattr(hoch, "homology_of_faces", counting)
        after = [list(hochster_table(K, coeff, cohomology=cohomology).items())
                 for K in corpus]
        assert keys
        assert after == before
        # each key is a family on vertices 1..k, its own canonical form
        for key in keys:
            assert _canonical_faces(key) == tuple(key)


NOT_CLOSED = "^the face family is not closed downward$"


class TestConePointRule:
    """Over all pairs, a slice holding a cone point of the link is skipped.

    A vertex in every facet above sigma makes each slice at (sigma, w)
    with w holding it a cone, so its entry is zero; the table computes
    none of them.  The rule needs a family closed downward in its ground,
    and a table over all pairs refuses any other family before it slices.
    """

    def test_the_full_simplex_asks_for_one_family(self, monkeypatch):
        real = hochster.homology_of_faces
        keys = []

        def counting(faces, *args, **kwargs):
            keys.append(tuple(faces))
            return real(faces, *args, **kwargs)

        # bound the way perfbench's tracer binds it; every vertex outside
        # a face is a cone point of its link, so only (sigma, empty) is
        # sliced, and its slice {empty} is the one family
        monkeypatch.setattr(hochster, "homology_of_faces", counting)
        table = hochster_table(SimplicialComplex.full_simplex(range(1, 9)))
        assert keys == [(0,)]
        nonzero = table.nonzero_items()
        assert len(nonzero) == 256
        assert all(omega == 0 and v_entry(g) == {0: Z_GROUP}
                   for (_, omega), g in nonzero)

    @pytest.mark.parametrize("ground, faces, message", [
        ([1, 2, 3], [[], [1], [2], [3], [1, 2, 3]], NOT_CLOSED),
        # every vertex is a cone point of every link, but the slice at
        # (empty, ground) lacks {1, 2}
        ([1, 2, 3], [[], [1], [2], [3], [1, 3], [2, 3], [1, 2, 3]], NOT_CLOSED),
        ([1, 2, 3], [[], [1, 2]], NOT_CLOSED),
        # vertex 3 lies in every facet above the empty face, but {3} is
        # missing: the slice at (empty, {1, 2}) is two points, no cone
        ([1, 2, 3], [[], [1], [2], [1, 3], [2, 3], [1, 2, 3]], NOT_CLOSED),
        # an unvalidated face on vertex 2, outside the gapped ground {1, 3}
        ([1, 3], [[], [1], [2], [3], [1, 2], [1, 3]],
         "^face vertex 2 is not in the ground set$"),
    ], ids=["vertices-and-triangle", "no-edge-12", "empty-and-edge", "no-vertex-3",
            "face-outside-the-ground"])
    # a requested pair is sliced by the definition, which needs a family
    # closed downward too: the empty-and-edge family gave Z at (empty,
    # empty), at (empty, {3}) and at ({1, 2}, {3})
    @pytest.mark.parametrize("pairs", [None, [((), ())]], ids=["all-pairs", "one-pair"])
    def test_a_family_not_closed_downward_is_refused(self, ground, faces, message, pairs):
        K = SimplicialComplex(mask_of(ground), frozenset(map(mask_of, faces)))
        with pytest.raises(ValueError, match=message):
            hochster_table(K, pairs=pairs)


class TestMayerVietorisWalk:
    """Over all pairs, most entries are read off entries already found.

    The slice at (sigma, w) is the slice at (sigma, w - v) with a cone on
    the slice at (sigma + v, w - v) glued along the latter, so where one of
    those entries is zero the other gives the entry, and only a w whose two
    neighbours are nonzero at every v of w is sliced.
    """

    def test_rp2_join_triangle_boundary_asks_for_two_families(self, monkeypatch):
        # rp2 joined with the triangle boundary, 224 faces: slicing every w
        # outside the cone points asks for 204 distinct families, 203 of them
        # with the points {empty, t} left out.  The walk asks for two, the
        # slice {empty} and the join itself: it never asks for the point,
        # whose entry is zero
        real = hochster.homology_of_faces
        keys = []

        def counting(faces, *args, **kwargs):
            keys.append(tuple(faces))
            return real(faces, *args, **kwargs)

        K = join([rp2_complex(), SimplicialComplex.boundary_simplex((7, 8, 9))])
        assert len(K.faces) == 224
        # bound the way perfbench's tracer binds it
        monkeypatch.setattr(hochster, "homology_of_faces", counting)
        table = hochster_table(K)
        assert len(keys) == len(set(keys)) == 2
        # the join's reduced homology, Z/2 in degree 3, one degree up
        assert v_entry(table.entry(0, K.ground)) == {4: FgAbelianGroup(0, (2,))}

    @pytest.mark.parametrize("coeff", [None, GF(2)], ids=["Z", "GF2"])
    @pytest.mark.parametrize("cohomology", [False, True], ids=["homology", "cohomology"])
    def test_no_point_is_sliced_and_every_entry_stands(self, monkeypatch, coeff, cohomology):
        # random complexes on 1-9 vertices and their duals: the walk never
        # hands homology_of_faces a family on one vertex (a point {empty, t},
        # zero by definition), and its table is still the one of every pair
        # sliced alone
        real = hochster.homology_of_faces
        keys = []

        def counting(faces, *args, **kwargs):
            keys.append(tuple(faces))
            return real(faces, *args, **kwargs)

        monkeypatch.setattr(hochster, "homology_of_faces", counting)
        rng = random.Random(4301)
        for n in [*range(1, 10), *range(1, 10)]:
            K = random_complex(rng, range(1, n + 1))
            for L in (K, K.dual(K.ground)):
                keys.clear()
                every = hochster_table(L, coeff, cohomology=cohomology)
                points = [f for f in keys if functools.reduce(int.__or__, f, 0).bit_count() == 1]
                assert not points, list(map(vertices_of, L.facets()))
                asked = hochster_table(L, coeff, pairs=index_pairs(L.ground),
                                       cohomology=cohomology)
                assert every.nonzero_items() == asked.nonzero_items(), (
                    list(map(vertices_of, L.facets())))

    def test_planted_entries_fail_at_their_pairs_in_table_order(self):
        # every vertex of rp2 is a face, so each entry stored at the empty
        # face stands for one pair.  Drop the first nonzero one (only the
        # dual side is nonzero there) and give (empty, ground) a wrong
        # group: the sweep finds the second first and yields both in order
        K = rp2_complex()
        g = K.ground
        true = hochster_table(K)
        co_dual = hochster_table(K.dual(g), cohomology=True)
        support, found = true.links[0]
        assert support == g
        first = min(w for w in found if w)
        planted = dict(found)
        del planted[first]
        links = dict(true.links)
        links[0] = (support, planted)
        # with the drop alone no entry of the table fails: only the count
        # of nonzero pairs, one fewer than the dual's, finds it
        dropped = list(slice_duality_mismatches(hochster.BigradedTable(g, links), co_dual))
        assert [(sigma, omega) for sigma, omega, _ in dropped] == [(0, first)]
        planted[g] = GradedGroup(((2, Z_GROUP),))
        table = hochster.BigradedTable(g, links)
        got = list(slice_duality_mismatches(table, co_dual))
        assert [(sigma, omega) for sigma, omega, _ in got] == [(0, first), (0, g)]
        # the comparison at every pair, in table order, finds the same
        want = []
        for sigma, omega in index_pairs(g):
            k = omega.bit_count()
            lhs = table.entry(sigma, omega)
            rhs = co_dual.entry(g & ~(sigma | omega), omega)
            for d in range(-1, k + 1):
                if omega and lhs.at(d) != rhs.at(k - d - 1):
                    want.append((sigma, omega, (d, lhs.at(d), rhs.at(k - d - 1))))
                    break
        assert got == want


class TestHochsterCompositionFormula:
    def test_two_point_outer_with_two_point_factors(self):
        K = two_points()
        factors = _segment_blocks(2)
        report = hochster_composition_formula(K, factors)
        assert report.pairs == 81
        # the formula holds, so a verdict stands exactly at each pair where
        # the composition's entry is nonzero
        table = hochster_table(composition_complex(K, factors))
        nonzero = [pair for pair, g in table.items() if g.groups]
        assert [(v.sigma, v.omega) for v in report.verdicts] == nonzero
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


def _piece_sweep(K, factors, coeff):
    # (sigma, omega, lhs, rhs) at every pair of the composition's ground in
    # table order, each side read off the tables' items(); the composition
    # is built through the module, so a patched one reaches both checks
    comp = hochster.composition_complex(K, factors)
    table_k = dict(hochster_table(K, coeff).items())
    tables_l = [dict(hochster_table(L, coeff).items()) for L in factors]
    positions = [1 << (v - 1) for v in vertices_of(K.ground)]
    rows = []
    for (sigma, omega), lhs in hochster_table(comp, coeff).items():
        sigma_hat = omega_hat = 0
        parts = []
        for b, L, t in zip(positions, factors, tables_l):
            s, w = sigma & L.ground, omega & L.ground
            if w:
                omega_hat |= b
                parts.append(t[s, w])
            elif s not in L.faces:
                sigma_hat |= b
        rhs = tensor_additive([table_k[sigma_hat, omega_hat]] + parts)
        rows.append((sigma, omega, lhs, rhs))
    return rows


def _piece_instance(rng, max_total):
    # an outer complex on 1-3 positions and nonvoid factors on blocks
    m = rng.randint(1, 3)
    sizes = [rng.randint(1, 4) for _ in range(m)]
    while sum(sizes) > max_total:
        sizes[sizes.index(max(sizes))] -= 1
    K = random_complex(rng, range(1, m + 1))
    factors = []
    for b in consecutive_blocks(sizes):
        L = random_complex(rng, vertices_of(b))
        factors.append(SimplicialComplex.empty_face_complex(b) if L.is_void else L)
    return K, factors


def _drop_a_maximal_face(real):
    def broken(K, factors):
        S = real(K, factors)
        if len(S.faces) > 1:
            return SimplicialComplex(S.ground, S.faces - {max(S.facets())})
        return S

    return broken


class TestPieceCheckAgainstTheFullSweep:
    """The verdicts at the candidate pairs against a sweep over all 3^N."""

    def _compare(self, K, factors, coeff):
        report = hochster_composition_formula(K, factors, coeff)
        rows = _piece_sweep(K, factors, coeff)
        assert report.pairs == len(rows)
        by_pair = {(s, w): (lhs, rhs) for s, w, lhs, rhs in rows}
        got = [(v.sigma, v.omega) for v in report.verdicts]
        seen = set(got)
        assert got == [(s, w) for s, w, _, _ in rows if (s, w) in seen]
        for v in report.verdicts:
            assert (v.lhs, v.rhs) == by_pair[v.sigma, v.omega]
        # every pair without a verdict has two zero sides
        assert all(lhs.is_zero and rhs.is_zero for s, w, lhs, rhs in rows
                   if (s, w) not in seen)
        failing = [(s, w, lhs, rhs) for s, w, lhs, rhs in rows if lhs != rhs]
        assert report.ok == (not failing)
        first = report.failures()[0] if report.failures() else None
        assert (None if first is None else
                (first.sigma, first.omega, first.lhs, first.rhs)) == (
                    failing[0] if failing else None)
        return report.ok

    @pytest.mark.parametrize("coeff", [None, GF(2)], ids=["Z", "GF2"])
    def test_random_compositions(self, coeff):
        rng = random.Random(23)
        for _ in range(40):
            K, factors = _piece_instance(rng, 7)
            assert self._compare(K, factors, coeff)

    @pytest.mark.parametrize("coeff", [None, GF(2)], ids=["Z", "GF2"])
    def test_a_composition_that_drops_a_maximal_face(self, coeff, monkeypatch):
        monkeypatch.setattr(hochster, "composition_complex",
                            _drop_a_maximal_face(composition_complex))
        rng = random.Random(29)
        verdicts = [self._compare(*_piece_instance(rng, 7), coeff)
                    for _ in range(40)]
        assert verdicts.count(False) > 10

    def test_torsion_in_the_outer_complex(self):
        K = rp2_complex()
        factors = [SimplicialComplex.empty_face_complex(mask_of([v]))
                   for v in range(1, 7)]
        assert self._compare(K, factors, None)


def v_entry(g: GradedGroup) -> dict:
    return dict(g.groups)


class TestBigradedTableContainer:
    def test_entry_error_message(self):
        K = SimplicialComplex.empty_face_complex(mask_of([1]))
        table = hochster_table(K, pairs=[((), ())])
        with pytest.raises(KeyError, match="not in the table"):
            table.entry((1,), ())
        full = hochster_table(K)
        for sigma, omega in (((1,), (1,)), ((2,), ()), ((), (2,))):
            with pytest.raises(KeyError, match="not in the table"):
                full.entry(sigma, omega)

    def test_nonzero_filtering(self):
        z = GradedGroup.from_dict({0: Z_GROUP})
        K = SimplicialComplex.empty_face_complex(mask_of([1]))
        table = hochster_table(K, pairs=[((), ()), ((1,), ())])
        assert list(table.items()) == [((0, 0), z), ((1, 0), GradedGroup())]
        assert table.nonzero_items() == (((0, 0), z),)
        # over all pairs: (empty, {1}) is the empty-face complex too
        assert hochster_table(K).nonzero_items() == (((0, 0), z), ((0, 1), z))
