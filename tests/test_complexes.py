"""Face-level operations: constructors, link/restrict/slice, duals, products."""

import itertools
import random
import re

import pytest

from polyprod import complexes, homology
from polyprod import (
    SimplicialComplex,
    composition_complex,
    consecutive_blocks,
    embed_on_blocks,
    enumerate_complexes,
    ghost_factorization,
    hochster_table,
    join,
    make_complex,
    mask_of,
    polyhedral_complex,
    random_complex,
    random_subcomplex,
    submasks,
    vertices_of,
)


NOT_CLOSED = "^the face family is not closed downward$"


def faces_as_sets(K):
    return {frozenset(vertices_of(f)) for f in K.faces}


def _facets_by_scan(K):
    # the containment scan that facets() used to run, kept as the oracle
    out = []
    for f in sorted(K.faces, key=lambda f: (-f.bit_count(), f)):
        if not any(f & g == f for g in out):
            out.append(f)
    return sorted(out, key=lambda f: (f.bit_count(), vertices_of(f)))


class TestMasks:
    def test_mask_round_trip(self):
        assert mask_of([1, 3, 4]) == 0b1101
        assert vertices_of(0b1101) == (1, 3, 4)
        assert mask_of([]) == 0
        assert vertices_of(0) == ()

    def test_mask_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            mask_of([0])
        with pytest.raises(ValueError):
            mask_of([-2])
        with pytest.raises(ValueError):
            mask_of(["a"])

    def test_bool_labels_are_rejected(self):
        msg = re.escape("vertex labels must be positive integers, got True")
        with pytest.raises(ValueError, match=msg):
            mask_of([True])
        with pytest.raises(ValueError, match=msg):
            make_complex([1, 2], [[True, 2]])

    @pytest.mark.parametrize("labels", [[], [2, 5, 9, 11], [1, 3, 64, 65, 200], [70]])
    def test_bits_of_walks_single_vertex_masks(self, labels):
        m = mask_of(labels)
        assert complexes._bits_of(m) == [mask_of((v,)) for v in vertices_of(m)]

    def test_positions_own_items_in_vertex_order(self):
        g = mask_of([2, 5, 9])
        assert complexes._positions(g, "abc", "things") == [
            mask_of([2]), mask_of([5]), mask_of([9])
        ]
        with pytest.raises(ValueError, match="^expected 3 things, got 2$"):
            complexes._positions(g, "ab", "things")

    def test_submasks_ascending_code_indexed_and_complete(self):
        # gapped grounds of 0-13 vertices: both sides of the 12-vertex rule
        # that decides whether complexes._expand keeps a table
        for n in range(14):
            verts = [3 * i + 1 + i % 2 for i in range(n)]
            m = mask_of(verts)
            out = submasks(m)
            want = sorted(mask_of(c) for k in range(n + 1)
                          for c in itertools.combinations(verts, k))
            assert isinstance(out, tuple)
            assert list(out) == want
            assert len(set(out)) == len(out) == 1 << n
            for c in range(1 << n):
                assert out[c] == mask_of(v for i, v in enumerate(verts) if c >> i & 1)
            assert complexes._expand(m) == out


class TestConstructors:
    def test_void_and_empty_face_are_distinct(self):
        v = SimplicialComplex.void([1, 2])
        e = SimplicialComplex.empty_face_complex([1, 2])
        assert v.is_void and not e.is_void
        assert v != e
        assert v.dim() is None and e.dim() == -1
        assert len(v.faces) == 0 and len(e.faces) == 1

    def test_full_and_boundary_simplex(self):
        full = SimplicialComplex.full_simplex(range(1, 4))
        bnd = SimplicialComplex.boundary_simplex(range(1, 4))
        assert len(full.faces) == 8
        assert len(bnd.faces) == 7
        assert full.faces - bnd.faces == {0b111}
        # boundary of the empty ground is void, full is {0}
        assert SimplicialComplex.boundary_simplex([]).is_void
        assert SimplicialComplex.full_simplex([]).faces == frozenset({0})

    def test_from_facets_closure(self):
        K = make_complex(range(1, 5), [[1, 2, 3]])
        assert faces_as_sets(K) == {
            frozenset(s)
            for s in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
        }
        assert K.ground == mask_of([1, 2, 3, 4])  # vertex 4 stays a ghost
        assert K.support() == mask_of([1, 2, 3])

    def test_from_facets_degenerate_lists(self):
        assert make_complex([1, 2], []).is_void
        assert make_complex([1, 2], [[]]).faces == frozenset({0})

    def test_from_facets_rejects_foreign_vertex(self):
        with pytest.raises(ValueError, match="not in the ground"):
            make_complex([1, 2], [[1, 3]])

    def test_from_facets_matches_a_closure_by_combinations(self, monkeypatch):
        # the closure written out from each facet's labels, sharing no code
        # with submasks or the bitset closure, on seeded lists with compact
        # and gapped supports, ghost vertices, labels above 64, duplicate and
        # nested facets; both closure paths of from_facets are taken
        def by_combinations(facets):
            out = set()
            for facet in facets:
                labels = sorted(set(facet))
                for k in range(len(labels) + 1):
                    out.update(map(frozenset, itertools.combinations(labels, k)))
            return out

        bitset_supports = []
        close_codes = complexes._close_codes

        def recording(codes, support):
            bitset_supports.append(support)
            return close_codes(codes, support)

        monkeypatch.setattr(complexes, "_close_codes", recording)
        cases = [([1, 2], []), ([], []), ([1, 2], [[]]), ([], [[]]),
                 ([1, 65, 130], [[65, 130], [1], [130, 65]])]
        rng = random.Random(15)
        for i in range(300):
            # in every third case, 6-10 edges spread over 10-12 vertices
            # leave a sparse support, which keeps the per-facet path
            sparse = i % 3 == 0
            n = rng.randint(10, 12) if sparse else rng.randint(0, 12)
            if i % 2:
                ground = list(range(1, n + 1))
            else:
                ground = sorted(rng.sample(range(1, 131), n))
            if sparse:
                facets = [rng.sample(ground, 2) for _ in range(rng.randint(6, 10))]
            else:
                facets = [rng.sample(ground, rng.randint(0, n))
                          for _ in range(rng.randint(0, 8))]
            if facets and rng.random() < 0.3:
                facets.append(facets[0][::-1])
            if facets and rng.random() < 0.3:
                facets.append(facets[-1][: len(facets[-1]) // 2])
            cases.append((ground, facets))
        per_facet = 0
        for ground, facets in cases:
            before = len(bitset_supports)
            K = make_complex(ground, facets)
            assert faces_as_sets(K) == by_combinations(facets), (ground, facets)
            assert K.ground == mask_of(ground)
            per_facet += facets != [] and len(bitset_supports) == before
        compact = [s for s in bitset_supports if s & (s + 1) == 0]
        assert compact and len(compact) < len(bitset_supports) and per_facet

    def test_validate(self):
        good = make_complex([1, 2], [[1, 2]])
        assert good.validate() is good
        broken = SimplicialComplex(mask_of([1, 2]), frozenset({0, 0b11}))
        with pytest.raises(ValueError, match="downward closed"):
            broken.validate()
        leak = SimplicialComplex(mask_of([1]), frozenset({0, 0b10}))
        with pytest.raises(ValueError, match="ground"):
            leak.validate()

    def test_facets_listing(self):
        K = make_complex(range(1, 5), [[1, 2], [2, 3], [4]])
        assert [vertices_of(f) for f in K.facets()] == [(4,), (1, 2), (2, 3)]
        assert SimplicialComplex.void([1]).facets() == []
        assert SimplicialComplex.empty_face_complex([1]).facets() == [0]

    def test_facets_match_the_pairwise_containment_scan(self):
        # on grounds 1..n, on gapped grounds with labels above 64, and with
        # a ghost vertex; the bitset rule of from_facets picks the path
        rng = random.Random(12)
        paths = set()
        for i in range(120):
            n = rng.randint(1, 8)
            if i % 2:
                ground = list(range(1, n + 1))
            else:
                ground = sorted(rng.sample(range(1, 131), n))
            K = random_complex(rng, ground)
            ghost = mask_of(ground) | 1 << 131
            for L in (K, K.dual(K.ground), K.dual(ghost)):
                assert L.facets() == _facets_by_scan(L)
                paths.add((L.ground & (L.ground + 1) == 0, 1 << L.n_vertices
                           <= complexes.CLOSURE_BITSET_RATIO * len(L.faces)))
        assert paths == {(True, True), (True, False), (False, True), (False, False)}


    @pytest.mark.parametrize("ratio", [0, 1 << 20], ids=["scan", "bitset"])
    def test_facets_of_faces_outside_the_ground(self, monkeypatch, ratio):
        # unvalidated complexes whose faces leave the ground, on each path:
        # the bitset path once read such a face's code past its bitset
        monkeypatch.setattr(complexes, "CLOSURE_BITSET_RATIO", ratio)
        cases = [
            SimplicialComplex(mask_of([1]), frozenset({0, 0b10})),
            SimplicialComplex(mask_of([2, 5]), frozenset({0, 0b1})),
            SimplicialComplex(mask_of([1, 2]), frozenset({0, 0b1000})),
        ]
        rng = random.Random(19)
        for i in range(60):
            n = rng.randint(2, 7)
            ground = list(range(1, n + 1)) if i % 2 else sorted(rng.sample(range(1, 80), n))
            K = random_complex(rng, ground)
            kept = mask_of(rng.sample(ground, rng.randint(0, n - 1)))
            cases.append(SimplicialComplex(kept, K.faces))
        for K in cases:
            assert K.facets() == _facets_by_scan(K), K.faces
        assert [K.facets() for K in cases[:3]] == [[0b10], [0b1], [0b1000]]

    @pytest.mark.parametrize("ratio", [0, 1 << 20], ids=["scan", "bitset"])
    def test_closure_test_accepts_what_validate_accepts(self, monkeypatch, ratio):
        # random complexes on grounds 1..n and on gapped grounds, each with
        # copies missing one non-maximal face (not closed) and one facet
        # (closed): the one closure test, given a frozenset or a sorted
        # tuple, and homology and slice tables, which refuse through it,
        # accept exactly the families validate() accepts
        monkeypatch.setattr(complexes, "CLOSURE_BITSET_RATIO", ratio)
        rng = random.Random(37)
        families = []
        for i in range(40):
            n = rng.randint(1, 8)
            ground = list(range(1, n + 1)) if i % 2 else sorted(rng.sample(range(1, 80), n))
            K = random_complex(rng, ground)
            facets = K.facets()
            inner = sorted(K.faces - set(facets))
            families.append((K.ground, K.faces))
            if inner:
                families.append((K.ground, K.faces - {rng.choice(inner)}))
            if facets:
                families.append((K.ground, K.faces - {rng.choice(facets)}))
        closed_count = 0
        for ground, faces in families:
            K = SimplicialComplex(ground, faces)
            try:
                K.validate()
                closed = True
            except ValueError:
                closed = False
            closed_count += closed
            pair = [((), vertices_of(ground))]
            for given in (faces, tuple(sorted(faces))):
                if closed:
                    present = complexes._require_closed(given, ground)
                    if present is not None:
                        assert set(complexes._bitset_masks(present, ground)) == faces
                    assert (present is None) == (ratio == 0 or not faces)
                else:
                    with pytest.raises(ValueError, match=NOT_CLOSED):
                        complexes._require_closed(given, ground)
            if closed:
                key = homology._canonical_faces(faces)
                star = {f for f in key if f | 1 in key}
                assert homology._closed_star(key) == star
                hochster_table(K)
                hochster_table(K, pairs=pair)
                continue
            with pytest.raises(ValueError, match=NOT_CLOSED):
                homology.homology_of_faces(faces)
            with pytest.raises(ValueError, match=NOT_CLOSED):
                hochster_table(K)
            with pytest.raises(ValueError, match=NOT_CLOSED):
                hochster_table(K, pairs=pair)
        assert 0 < closed_count < len(families)

    def test_repr_lists_the_facets(self):
        assert repr(SimplicialComplex.void([2, 5])) == "SimplicialComplex(ground=[2, 5], void)"
        assert repr(SimplicialComplex.empty_face_complex([1])) == (
            "SimplicialComplex(ground=[1], facets=[[]])")
        assert repr(make_complex([1, 2, 3, 9], [[1, 2], [2, 9], [3]])) == (
            "SimplicialComplex(ground=[1, 2, 3, 9], facets=[[3], [1, 2], [2, 9]])")
        assert repr(SimplicialComplex(mask_of([1]), frozenset({0, 0b10}))) == (
            "SimplicialComplex(ground=[1], facets=[[2]])")


class TestLocalOperations:
    def setup_method(self):
        self.tri = SimplicialComplex.boundary_simplex(range(1, 4))

    def test_link_of_vertex(self):
        L = self.tri.link([1])
        assert L.ground == mask_of([2, 3])
        assert faces_as_sets(L) == {frozenset(), frozenset([2]), frozenset([3])}

    def test_link_of_nonface_is_void(self):
        # {1,2,3} is not a face of the boundary triangle
        assert self.tri.link(mask_of([1, 2, 3])).is_void

    def test_link_of_maximal_face_is_empty_face_complex(self):
        L = self.tri.link([1, 2])
        assert L.faces == frozenset({0})

    def test_link_validates_ground(self):
        with pytest.raises(ValueError):
            self.tri.link([4])

    def test_restrict(self):
        R = self.tri.restrict([1, 2])
        assert R.ground == mask_of([1, 2])
        assert faces_as_sets(R) == {
            frozenset(), frozenset([1]), frozenset([2]), frozenset([1, 2])
        }
        with pytest.raises(ValueError):
            self.tri.restrict([5])

    def test_slice_values(self):
        # slice at ({1}, {2}) of the boundary triangle: {t <= {2} : {1} u t face}
        S = self.tri.slice([1], [2])
        assert S.ground == mask_of([2])
        assert faces_as_sets(S) == {frozenset(), frozenset([2])}
        # at a maximal face the slice only keeps the empty face
        S2 = self.tri.slice([1, 2], [3])
        assert S2.faces == frozenset({0})
        # slice at a non-face is void
        S3 = self.tri.slice(mask_of([1, 2, 3]), 0)
        assert S3.is_void

    def test_slice_over_a_wide_ground_walks_the_link_support(self):
        # 27 ghost vertices: only the subsets of omega inside the link
        # support are tried, not all 2^30 of them
        K = SimplicialComplex(mask_of(range(1, 31)), self.tri.faces)
        S = K.slice(0, K.ground)
        assert S.ground == K.ground
        assert S.faces == self.tri.faces
        assert K.slice([1], range(2, 31)).faces == frozenset({0, 2, 4})

    def test_slice_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            self.tri.slice([1], [1, 2])

    def test_slice_validates_ground(self):
        with pytest.raises(ValueError, match="slice vertex 4 is not in the ground set"):
            self.tri.slice([1], [2, 4])

    def test_slice_keeps_global_labels(self):
        K = make_complex(range(1, 5), [[1, 2, 3], [3, 4]])
        S = K.slice([3], [4])
        assert S.ground == mask_of([4])
        assert frozenset([4]) in faces_as_sets(S)


class TestDual:
    def test_dual_of_boundary_is_empty_face_complex(self):
        tri = SimplicialComplex.boundary_simplex(range(1, 4))
        d = tri.dual(tri.ground)
        assert d.faces == frozenset({0})

    def test_dual_of_void_is_full(self):
        v = SimplicialComplex.void([1, 2])
        assert v.dual(v.ground) == SimplicialComplex.full_simplex([1, 2])

    def test_dual_of_full_is_void(self):
        f = SimplicialComplex.full_simplex([1, 2])
        assert f.dual(f.ground).is_void

    def test_dual_requires_ambient_covering_support(self):
        K = make_complex([1, 2], [[1, 2]])
        with pytest.raises(ValueError, match="outside the ambient"):
            K.dual(mask_of([1]))
        with pytest.raises(ValueError, match="nonempty ambient"):
            SimplicialComplex.empty_face_complex([]).dual(0)

    def test_dual_involution_and_count_exhaustive_3(self):
        g = mask_of(range(1, 4))
        for K in enumerate_complexes(g):
            d = K.dual(g)
            assert len(K.faces) + len(d.faces) == 8
            assert d.dual(g) == K

    def test_dual_in_larger_ambient(self):
        # one ghost in the ambient set changes the dual, not the original
        K = make_complex([1, 2], [[1], [2]])
        amb = mask_of([1, 2, 3])
        d = K.dual(amb)
        assert d.dual(amb).faces == K.faces
        # the non-face {1,2} complements to {3}
        assert mask_of([3]) in d.faces

    def test_de_morgan_exhaustive_2(self):
        g = mask_of([1, 2])
        family = list(enumerate_complexes(g))
        for K1 in family:
            for K2 in family:
                u = K1.union(K2).dual(g)
                assert u == K1.dual(g).intersection(K2.dual(g))
                i = K1.intersection(K2).dual(g)
                assert i == K1.dual(g).union(K2.dual(g))

    def test_lattice_ops_require_equal_grounds(self):
        a = SimplicialComplex.full_simplex([1])
        b = SimplicialComplex.full_simplex([2])
        with pytest.raises(ValueError):
            a.union(b)
        with pytest.raises(ValueError):
            a.intersection(b)


def _subsets_by_definition(vertices):
    # every subset of the labels as a mask, by combinations
    return [sum(1 << (v - 1) for v in c)
            for k in range(len(vertices) + 1)
            for c in itertools.combinations(vertices, k)]


def _labels(mask):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


class TestDualAgainstItsDefinition:
    """``dual`` against {g - s : s a subset of g, s not a face}, written
    here from combinations, on seeded random complexes with ghost vertices
    and in ambient sets wider than the ground."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_complexes_in_wider_ambient_sets(self, seed):
        rng = random.Random(seed)
        labels = rng.sample(range(1, 15), rng.randint(1, 8))
        K = random_complex(rng, labels)
        # ghosts: ground vertices in no face; extra: ambient outside the ground
        extra = rng.sample([v for v in range(1, 15) if v not in labels],
                           rng.randint(0, 3))
        for ambient in (labels, labels + extra):
            g = sum(1 << (v - 1) for v in ambient)
            want = {g ^ s for s in _subsets_by_definition(ambient)
                    if s not in K.faces}
            d = K.dual(g)
            assert d.ground == g
            assert d.faces == want

    def test_ghost_vertices_and_the_degenerate_complexes(self):
        ground = [2, 5, 9]
        g = mask_of(ground)
        for K in (SimplicialComplex.void(ground),
                  SimplicialComplex.empty_face_complex(ground),
                  make_complex(ground, [[5]]),
                  SimplicialComplex.full_simplex(ground)):
            want = {g ^ s for s in _subsets_by_definition(ground)
                    if s not in K.faces}
            assert K.dual(g).faces == want

    @pytest.mark.parametrize("size", [12, 13])
    def test_a_face_outside_the_ambient_set_names_its_least_such_vertex(self, size):
        # an unvalidated face with vertices 14 and 16 outside the ambient
        # set 1..size; a 12-vertex ambient set reads its subsets from the
        # cache, a 13-vertex one builds them afresh, and both refuse alike
        ambient = mask_of(range(1, size + 1))
        K = SimplicialComplex(ambient, frozenset({0, 1, mask_of([1, 14, 16])}))
        with pytest.raises(ValueError) as err:
            K.dual(ambient)
        assert str(err.value) == "support vertex 14 is outside the ambient set"

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("shape", ["compact", "gapped", "wider"])
    def test_families_on_both_sides_of_half(self, n, shape):
        # a family of more than half the 2^n subsets maps its non-faces and
        # one of at most half maps its faces; the families need not be
        # closed, and the counts cross half by one either way.  Ambient
        # sets: 1..n, or n labels up to 40 with the ground equal to them
        # ("gapped") or one to n vertices short of them ("wider")
        rng = random.Random(f"{shape}-{n}")
        if shape == "compact":
            ambient = list(range(1, n + 1))
        else:
            ambient = sorted(rng.sample(range(1, 41), n))
        ground = ambient
        if shape == "wider":
            ground = sorted(rng.sample(ambient, rng.randint(0, n - 1)))
        amb = sum(1 << (v - 1) for v in ambient)
        inside = _subsets_by_definition(ground)
        half = 1 << (n - 1)
        counts = {0, 1, half - 1, half, half + 1, len(inside) - 1, len(inside)}
        counts |= {rng.randint(0, len(inside)) for _ in range(4)}
        for count in sorted(c for c in counts if 0 <= c <= len(inside)):
            faces = frozenset(rng.sample(inside, count))
            K = SimplicialComplex(sum(1 << (v - 1) for v in ground), faces)
            want = {amb ^ s for s in _subsets_by_definition(ambient)
                    if s not in faces}
            d = K.dual(amb)
            assert d.ground == amb
            assert isinstance(d.faces, frozenset)
            assert d.faces == want, (ambient, ground, count)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_a_face_outside_the_ambient_set_is_refused_on_both_sides(self, n):
        # the same family but for one face with the vertices 41 and 44,
        # outside the ambient set, next to half - 1 faces and to half + 1
        rng = random.Random(n)
        ambient = sorted(rng.sample(range(1, 41), n))
        amb = sum(1 << (v - 1) for v in ambient)
        inside = _subsets_by_definition(ambient)
        half = 1 << (n - 1)
        for count in (half - 1, half + 1):
            faces = frozenset(rng.sample(inside, count)) | {mask_of([41, 44])}
            with pytest.raises(ValueError) as err:
                SimplicialComplex(amb, faces).dual(amb)
            assert str(err.value) == "support vertex 41 is outside the ambient set"

    def test_an_empty_ambient_set_is_refused(self):
        for faces in (frozenset(), frozenset({0})):
            with pytest.raises(ValueError, match="^dual requires a nonempty ambient"):
                SimplicialComplex(0, faces).dual(0)


class TestJoin:
    def test_join_of_two_point_pairs_is_square(self):
        a = SimplicialComplex.boundary_simplex([1, 2])
        b = SimplicialComplex.boundary_simplex([3, 4])
        sq = join([a, b])
        assert sq.ground == mask_of(range(1, 5))
        facets = {frozenset(vertices_of(f)) for f in sq.facets()}
        assert facets == {
            frozenset([1, 3]), frozenset([1, 4]),
            frozenset([2, 3]), frozenset([2, 4]),
        }

    def test_join_unit_and_void(self):
        assert join([]).faces == frozenset({0})
        assert join([]).ground == 0
        v = SimplicialComplex.void([1])
        e = SimplicialComplex.empty_face_complex([2])
        assert join([v, e]).is_void
        assert join([e]).faces == frozenset({0})

    def test_join_rejects_overlap(self):
        a = SimplicialComplex.full_simplex([1, 2])
        b = SimplicialComplex.full_simplex([2, 3])
        with pytest.raises(ValueError, match="overlap"):
            join([a, b])


class TestPolyhedralComplex:
    def test_identity_pairs_reproduce_k(self):
        # pairs (full simplex on one vertex, {0}) substitute a point per spot
        K = make_complex(range(1, 4), [[1, 2], [3]])
        pairs = [
            (SimplicialComplex.full_simplex([v]),
             SimplicialComplex.empty_face_complex([v]))
            for v in (1, 2, 3)
        ]
        assert polyhedral_complex(K, pairs) == K

    def test_composition_of_boundaries_is_boundary(self):
        tri = SimplicialComplex.boundary_simplex(range(1, 4))
        factors = [
            SimplicialComplex.boundary_simplex([1, 2]),
            SimplicialComplex.boundary_simplex([3, 4]),
            SimplicialComplex.boundary_simplex([5, 6]),
        ]
        comp = composition_complex(tri, factors)
        assert comp == SimplicialComplex.boundary_simplex(range(1, 7))

    def test_void_k_gives_void_product(self):
        K = SimplicialComplex.void([1])
        pairs = [(SimplicialComplex.full_simplex([1]),
                  SimplicialComplex.empty_face_complex([1]))]
        assert polyhedral_complex(K, pairs).is_void

    def test_pair_count_must_match(self):
        K = SimplicialComplex.full_simplex([1, 2])
        with pytest.raises(ValueError, match="expected 2 pairs"):
            polyhedral_complex(K, [])

    def test_pairs_must_nest_and_not_overlap(self):
        K = SimplicialComplex.full_simplex([1])
        x = SimplicialComplex.empty_face_complex([1])
        a = SimplicialComplex.full_simplex([1])
        with pytest.raises(ValueError, match="is not a face"):
            polyhedral_complex(K, [(x, a)])
        K2 = SimplicialComplex.full_simplex([1, 2])
        x1 = SimplicialComplex.full_simplex([1])
        with pytest.raises(ValueError, match="overlap"):
            polyhedral_complex(K2, [(x1, x1), (x1, x1)])

    def test_pair_sides_must_share_a_ground(self):
        K = SimplicialComplex.full_simplex([1])
        x = SimplicialComplex.full_simplex([1, 2])
        a = SimplicialComplex.empty_face_complex([1])
        with pytest.raises(ValueError, match="each pair must share one ground set"):
            polyhedral_complex(K, [(x, a)])

    def test_membership_rule_by_hand(self):
        # K = two points; A_1 void forces position 1 into tau at every face
        K = SimplicialComplex.boundary_simplex([1, 2])
        pairs = [
            (SimplicialComplex.full_simplex([1]), SimplicialComplex.void([1])),
            (SimplicialComplex.full_simplex([2]),
             SimplicialComplex.empty_face_complex([2])),
        ]
        S = polyhedral_complex(K, pairs)
        # tau always contains 1, so tau = {1} forces f to avoid {2}
        assert faces_as_sets(S) == {frozenset(), frozenset([1])}


def _product_by_definition(K, pairs):
    # one face per pair, in every combination; the union is a face of the
    # product when the positions whose face lies outside A_k form a face of K
    positions = [1 << (v - 1) for v in _labels(K.ground)]
    out = set()
    for combo in itertools.product(*[sorted(x.faces) for x, _ in pairs]):
        tau = union = 0
        for b, f, (_, a) in zip(positions, combo, pairs):
            union |= f
            if f not in a.faces:
                tau |= b
        if tau in K.faces:
            out.add(union)
    return frozenset(out)


def _random_pair(rng, labels):
    # (X, A) on the labels, with A void, {0}, all of X or random inside X
    X = random_complex(rng, labels)
    kind = rng.randrange(4)
    if kind == 0:
        A = SimplicialComplex.void(labels)
    elif kind == 1:
        A = X if X.is_void else SimplicialComplex.empty_face_complex(labels)
    elif kind == 2:
        A = X
    else:
        A = random_subcomplex(rng, X)
    return X, A


class TestPolyhedralComplexAgainstItsDefinition:
    """``polyhedral_complex`` against the product of the face lists with the
    membership rule, written here, on seeded random inputs over gapped
    grounds."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_pairs_on_gapped_grounds(self, seed):
        rng = random.Random(seed)
        m = rng.randint(0, 4)
        labels = sorted(rng.sample(range(1, 30), 12))
        k_ground = sorted(rng.sample(range(1, 9), m))
        K = random_complex(rng, k_ground)
        pairs = []
        for _ in range(m):
            size = rng.randint(0, 3)
            block, labels = labels[:size], labels[size:]
            pairs.append(_random_pair(rng, block))
        S = polyhedral_complex(K, pairs)
        assert S.ground == sum(x.ground for x, _ in pairs)
        assert S.faces == _product_by_definition(K, pairs)

    @pytest.mark.parametrize("k_faces", ["void", "empty face", "full"])
    def test_degenerate_outer_complexes(self, k_faces):
        ground = [3, 7]
        K = {"void": SimplicialComplex.void,
             "empty face": SimplicialComplex.empty_face_complex,
             "full": SimplicialComplex.full_simplex}[k_faces](ground)
        edge = SimplicialComplex.full_simplex([1, 4])
        points = SimplicialComplex.boundary_simplex([1, 4])
        for a in (SimplicialComplex.void([1, 4]), points, edge):
            pairs = [(edge, a), (SimplicialComplex.full_simplex([6]),
                                 SimplicialComplex.empty_face_complex([6]))]
            assert polyhedral_complex(K, pairs).faces == _product_by_definition(K, pairs)

    def test_an_unvalidated_face_of_k_outside_its_ground_picks_nothing(self):
        # no choice of positions gives the face {1, 9} of K on the ground
        # {1}, and {1} is not a face, so the vertex 2 is not either
        K = SimplicialComplex(mask_of([1]), frozenset({0, mask_of([1, 9])}))
        pairs = [(SimplicialComplex.full_simplex([2]),
                  SimplicialComplex.empty_face_complex([2]))]
        assert polyhedral_complex(K, pairs).faces == _product_by_definition(K, pairs)
        assert polyhedral_complex(K, pairs).faces == frozenset({0})

    def test_empty_ground(self):
        for K in (SimplicialComplex.void([]),
                  SimplicialComplex.empty_face_complex([])):
            S = polyhedral_complex(K, [])
            assert S.ground == 0
            assert S.faces == _product_by_definition(K, []) == K.faces
        # a position whose pair has an empty ground
        K = SimplicialComplex.full_simplex([1])
        pair = (SimplicialComplex.empty_face_complex([]),
                SimplicialComplex.void([]))
        assert polyhedral_complex(K, [pair]).faces == frozenset({0})
        assert _product_by_definition(K, [pair]) == frozenset({0})


class TestGhostFactorization:
    def test_split_and_reassemble_by_hand(self):
        tri = SimplicialComplex.boundary_simplex(range(1, 4))
        pairs = [
            (SimplicialComplex.full_simplex([1]), SimplicialComplex.void([1])),
            (SimplicialComplex.full_simplex([2]),
             SimplicialComplex.empty_face_complex([2])),
            (SimplicialComplex.full_simplex([3]),
             SimplicialComplex.empty_face_complex([3])),
        ]
        core, cones = ghost_factorization(tri, pairs)
        assert [c.ground for c in cones] == [mask_of([1])]
        assert core.ground == mask_of([2, 3])
        assert join([core] + cones) == polyhedral_complex(tri, pairs)

    def test_nonface_ghost_set_voids_everything(self):
        # both subcomplexes void, but {1,2} is not a face of two points
        K = SimplicialComplex.boundary_simplex([1, 2])
        pairs = [
            (SimplicialComplex.full_simplex([1]), SimplicialComplex.void([1])),
            (SimplicialComplex.full_simplex([2]), SimplicialComplex.void([2])),
        ]
        core, cones = ghost_factorization(K, pairs)
        assert core.is_void
        assert join([core] + cones).is_void
        assert polyhedral_complex(K, pairs).is_void

    def test_pair_count_must_match(self):
        K = SimplicialComplex.boundary_simplex([1, 2])
        pairs = [(SimplicialComplex.full_simplex([1]), SimplicialComplex.void([1]))]
        with pytest.raises(ValueError, match="expected 2 pairs for the ground of K, got 1"):
            ghost_factorization(K, pairs)


def _random_complex_per_bit(rng, ground):
    # random_complex with each facet assembled bit by bit from its draw and
    # closed by the descending submask loop unless it is already a face; the
    # same rng calls in order
    g = mask_of(ground)
    n = g.bit_count()
    r = rng.random()
    if r < 0.05:
        return SimplicialComplex.void(g)
    if r < 0.10:
        return SimplicialComplex.empty_face_complex(g)
    positions = [1 << (v - 1) for v in vertices_of(g)]
    count = rng.randint(0, 1 << n)
    closed = set()
    for _ in range(count):
        bits = rng.getrandbits(n)
        f = 0
        for i, p in enumerate(positions):
            if bits >> i & 1:
                f |= p
        if f in closed:
            continue
        s = f
        while True:
            closed.add(s)
            if s == 0:
                break
            s = (s - 1) & f
    return SimplicialComplex(g, frozenset(closed))


class TestEnumerationAndRandom:
    def test_census_counts(self):
        for n, expect in enumerate((2, 3, 6, 20, 168)):
            got = list(enumerate_complexes(mask_of(range(1, n + 1))))
            assert len(got) == expect, f"census broke on {n} vertices"
            assert got[0].is_void
            # all downward closed, all distinct
            assert len(set(got)) == expect
            for K in got:
                K.validate()

    @pytest.mark.parametrize("ground", [[1], [1, 2], [1, 2, 3], [2, 5, 9, 11]],
                             ids=lambda g: "-".join(map(str, g)))
    def test_census_order_against_a_brute_force_listing(self, ground):
        # void first, then every closed family in ascending order of the code
        # whose bit i puts in the i-th nonempty subset of the ground (subsets
        # ordered by their code over it)
        nonempty = [frozenset(s) for k in range(len(ground) + 1)
                    for s in itertools.combinations(ground, k)][1:]
        nonempty.sort(key=lambda s: sum(1 << ground.index(v) for v in s))
        want = [None]
        for code in range(1 << len(nonempty)):
            family = {frozenset()} | {s for i, s in enumerate(nonempty) if code >> i & 1}
            if all(f - {v} in family for f in family for v in f):
                want.append(family)
        got = list(enumerate_complexes(mask_of(ground)))
        assert got[0] == SimplicialComplex.void(ground)
        assert [faces_as_sets(K) for K in got[1:]] == want[1:]
        assert all(K.ground == mask_of(ground) for K in got)

    def test_enumeration_refuses_large_grounds(self):
        with pytest.raises(ValueError):
            list(enumerate_complexes(mask_of(range(1, 6))))

    def test_random_complex_is_always_valid(self):
        rng = random.Random(7)
        for _ in range(300):
            K = random_complex(rng, range(1, 6))
            K.validate()

    def test_random_complex_hits_degenerate_cases(self):
        rng = random.Random(11)
        kinds = set()
        for _ in range(400):
            K = random_complex(rng, range(1, 4))
            if K.is_void:
                kinds.add("void")
            elif K.faces == frozenset({0}):
                kinds.add("empty-face")
            else:
                kinds.add("proper")
        assert kinds == {"void", "empty-face", "proper"}

    def test_random_complex_matches_the_per_bit_construction(self):
        # compact and gapped grounds of 0-10 vertices; the golden record
        # rarely draws gapped ones
        labels = random.Random(9)
        full = 0
        for seed in range(3000):
            n = seed % 11
            if seed % 2:
                ground = list(range(1, n + 1))
            else:
                ground = sorted(labels.sample(range(1, 40), n))
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            got = random_complex(rng, ground)
            assert got == _random_complex_per_bit(oracle_rng, ground), (ground, seed)
            assert rng.getstate() == oracle_rng.getstate()
            if n and len(got.faces) == 1 << n:
                # a closure to the full simplex reads its face set from the
                # cache (on no vertex, {0} also comes from the 5% branch)
                assert got.faces is SimplicialComplex.full_simplex(ground).faces
                full += 1
        assert full > 800

    @pytest.mark.parametrize("ground", [[], [1], [1, 2, 3], [2, 5, 9, 11],
                                        list(range(1, 13)), list(range(1, 14))],
                             ids=lambda g: f"{len(g)}-vertices")
    def test_the_closure_of_the_ground_is_the_full_simplex(self, ground):
        full = SimplicialComplex.full_simplex(ground)
        K = make_complex(ground, [ground])
        assert K == full
        # the face set is shared up to 12 vertices and built afresh past them
        assert (K.faces is full.faces) == (len(ground) <= 12)
        # one facet short of the ground closes to its own full simplex
        if ground:
            part = SimplicialComplex.full_simplex(ground[1:])
            K = make_complex(ground, [ground[1:]])
            assert K.faces == part.faces
            assert (K.faces is part.faces) == (len(ground) <= 13)

    def test_random_subcomplex_nests(self):
        rng = random.Random(3)
        for _ in range(100):
            X = random_complex(rng, range(1, 5))
            A = random_subcomplex(rng, X)
            assert A.faces <= X.faces
            A.validate()


class TestRelabelAndBlocks:
    def test_relabel_moves_faces(self):
        K = make_complex([1, 2], [[1, 2]])
        moved = K.relabel({1: 5, 2: 9})
        assert moved.ground == mask_of([5, 9])
        assert mask_of([5, 9]) in moved.faces

    def test_relabel_requires_injectivity(self):
        K = make_complex([1, 2], [[1, 2]])
        with pytest.raises(ValueError, match="injective"):
            K.relabel({1: 3, 2: 3})

    def test_relabel_names_a_missing_vertex(self):
        K = make_complex([1, 2], [[1, 2]])
        with pytest.raises(ValueError, match="^relabeling map misses ground vertex 2$"):
            K.relabel({1: 3})

    @pytest.mark.parametrize("image", [0, 2.0, True])
    def test_relabel_rejects_images_that_are_not_labels(self, image):
        K = make_complex([1, 2], [[1, 2]])
        msg = f"vertex labels must be positive integers, got {image!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            K.relabel({1: image, 2: 3})

    @pytest.mark.parametrize("key", [True, 2.0])
    def test_relabel_rejects_keys_that_are_not_ints(self, key):
        K = make_complex([1, 2], [[1, 2]])
        msg = f"relabeling map keys must be integers, got {key!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            K.relabel({key: 3, 2: 4})

    def test_consecutive_blocks(self):
        assert consecutive_blocks([2, 1, 3]) == [
            mask_of([1, 2]), mask_of([3]), mask_of([4, 5, 6])
        ]

    def test_consecutive_blocks_reject_negative_sizes(self):
        with pytest.raises(ValueError, match="block sizes must be nonnegative"):
            consecutive_blocks([2, -1])

    def test_embed_on_blocks(self):
        a = make_complex([1, 2], [[1, 2]])
        b = make_complex([1], [[1]])
        placed = embed_on_blocks([a, b])
        assert placed[0].ground == mask_of([1, 2])
        assert placed[1].ground == mask_of([3])
        assert mask_of([3]) in placed[1].faces

    def test_embed_requires_local_grounds(self):
        off = make_complex([2, 3], [[2, 3]])
        with pytest.raises(ValueError, match="ground"):
            embed_on_blocks([off])
