"""Smith normal form and reduced (co)homology against independent oracles.

The oracles here are deliberately written with different algorithms than the
library: invariant factors via gcds of k x k minors, ranks via fraction-exact
Gaussian elimination, mod-p ranks via a standalone elimination.  Values for
named spaces are frozen from hand computation.
"""

import itertools
import random
from fractions import Fraction

import pytest

from polyprod import (
    GF,
    RATIONALS,
    FgAbelianGroup,
    GradedGroup,
    SimplicialComplex,
    certify_homology_split,
    chain_complex,
    composition_complex,
    cone_over_rp2,
    cycle_complex,
    embed_on_blocks,
    euler_characteristic_reduced,
    homology_consistency_failures,
    induced_inclusion_map,
    join,
    make_complex,
    random_complex,
    random_subcomplex,
    reduced_cohomology,
    reduced_homology,
    relative_homology,
    rp2_complex,
    smith_normal_form,
)
from polyprod import homology
from polyprod.homology import UnsupportedSplitCheck


# -- independent oracles ------------------------------------------------------

def snf_by_minor_gcds(matrix):
    """Invariant factors as successive quotients of k x k minor gcds."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    prev = 1
    out = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[matrix[i][j] for j in csel] for i in rsel]
                g = _gcd(g, _det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
    return total


def rational_rank(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    rows, cols = len(m), len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c] / pv
                for j in range(c, cols):
                    m[i][j] -= f * m[rank][j]
        rank += 1
    return rank


def mod_p_rank(matrix, p):
    m = [[x % p for x in row] for row in matrix]
    rank = 0
    rows, cols = len(m), len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(inv * x) % p for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def betti_by_elimination(K, rank_fn):
    """Reduced Betti numbers straight from dense boundary matrices."""
    cx = chain_complex(K)
    if not cx.bases:
        return {}
    degrees = sorted(cx.bases)
    ranks = {d: rank_fn(cx.dense_boundary(d)) if d in cx.boundaries else 0
             for d in degrees}
    out = {}
    for d in degrees:
        b = len(cx.bases[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if b:
            out[d] = b
    return out


# -- Smith normal form --------------------------------------------------------

class TestSmithNormalForm:
    def test_known_matrices(self):
        assert smith_normal_form([[2]]) == [2]
        assert smith_normal_form([[2, 0], [0, 6]]) == [2, 6]
        assert smith_normal_form([[1, 2], [3, 4]]) == [1, 2]
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
        assert smith_normal_form([[0, 0], [0, 0]]) == []
        assert smith_normal_form([]) == []
        # divisibility repair across entries with no unit present
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_rank_only_counts_nonzero_factors(self):
        assert smith_normal_form([[1, 1], [1, 1]]) == [1]

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="same length"):
            smith_normal_form([[1, 2], [3]])

    def test_against_minor_gcd_oracle_random(self):
        rng = random.Random(2024)
        for _ in range(150):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            got = smith_normal_form(m)
            want = snf_by_minor_gcds(m)
            assert got == want, f"SNF disagrees with minors on {m}"

    def test_unit_created_by_elimination_is_pivoted_sparsely(self, monkeypatch):
        # column 0 has no unit until column 1 is eliminated; the unit pass
        # must come back for it instead of leaving it to the dense core
        monkeypatch.setattr(homology, "_dense_smith",
                            lambda m: pytest.fail(f"dense core {m}"))
        assert smith_normal_form([[2, 1], [3, 1]]) == [1, 1]

    def test_against_sympy_random_sparse(self):
        # many +-1 entries, so the unit pass takes several pivots; shuffled
        # columns vary the order in which it meets them
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        from sympy import ZZ, Matrix

        rng = random.Random(4242)
        values = (0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -4)
        for _ in range(300):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            m = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
            want = [abs(int(d)) for d in
                    normalforms.invariant_factors(Matrix(m), domain=ZZ) if d]
            order = list(range(cols))
            rng.shuffle(order)
            shuffled = [[row[j] for j in order] for row in m]
            assert smith_normal_form(m) == want, f"SNF disagrees with sympy on {m}"
            assert smith_normal_form(shuffled) == want, (
                f"SNF disagrees with sympy on {shuffled}"
            )

    def test_unitless_matrices_against_sympy_and_minors(self, monkeypatch):
        # no +-1 entry, so the unit pass finds nothing and every whole
        # matrix is diagonalised by the dense core
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        from sympy import ZZ, Matrix

        cores = []
        dense = homology._dense_smith
        monkeypatch.setattr(homology, "_dense_smith",
                            lambda m: cores.append((len(m), len(m[0]))) or dense(m))
        rng = random.Random(5150)
        values = (0, 2, -2, 3, -3, 4, 6, -9, 10)
        for _ in range(300):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
            want = [abs(int(d)) for d in
                    normalforms.invariant_factors(Matrix(m), domain=ZZ) if d]
            cores.clear()
            assert smith_normal_form(m) == want, f"SNF disagrees with sympy on {m}"
            nonzero_rows = sum(1 for row in m if any(row))
            nonzero_cols = sum(1 for j in range(cols) if any(row[j] for row in m))
            assert cores == ([(nonzero_rows, nonzero_cols)] if nonzero_rows else [])
            if rows <= 4 and cols <= 4:
                assert want == snf_by_minor_gcds(m), m

    def test_divisibility_chain_always_holds(self):
        rng = random.Random(99)
        for _ in range(100):
            m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
            fs = smith_normal_form(m)
            for a, b in zip(fs, fs[1:]):
                assert b % a == 0
            assert rational_rank(m) == len(fs)


# -- reduced homology of named spaces -----------------------------------------

def Zg(*degrees_and_groups):
    return GradedGroup.from_dict(dict(degrees_and_groups))


Z1 = FgAbelianGroup(1)
Z2T = FgAbelianGroup(0, (2,))


class TestNamedSpaces:
    def test_void_has_no_homology_at_all(self):
        V = SimplicialComplex.void([1, 2])
        assert reduced_homology(V).is_zero
        assert reduced_cohomology(V).is_zero
        assert reduced_homology(V, GF(2)).is_zero

    def test_empty_face_complex_is_a_minus_one_sphere(self):
        E = SimplicialComplex.empty_face_complex([1, 2])
        assert reduced_homology(E) == Zg((-1, Z1))
        assert reduced_cohomology(E) == Zg((-1, Z1))
        assert reduced_homology(E, RATIONALS) == Zg((-1, Z1))

    def test_full_simplex_is_acyclic(self):
        for n in range(1, 6):
            F = SimplicialComplex.full_simplex(range(1, n + 1))
            assert reduced_homology(F).is_zero

    def test_boundary_simplices_are_spheres(self):
        for n in range(2, 8):
            S = SimplicialComplex.boundary_simplex(range(1, n + 1))
            assert reduced_homology(S) == Zg((n - 2, Z1)), f"n = {n}"

    def test_cycles_are_circles(self):
        for n in range(3, 9):
            assert reduced_homology(cycle_complex(n)) == Zg((1, Z1))

    def test_disjoint_points(self):
        K = make_complex(range(1, 5), [[1], [2], [3], [4]])
        assert reduced_homology(K) == Zg((0, FgAbelianGroup(3)))

    def test_join_of_two_circles_is_a_three_sphere(self):
        t = join([cycle_complex(4, start=1), cycle_complex(4, start=5)])
        assert reduced_homology(t) == Zg((3, Z1))

    def test_ghost_vertices_do_not_change_homology(self):
        K = make_complex(range(1, 6), [[1, 2], [2, 3], [1, 3]])
        assert reduced_homology(K) == Zg((1, Z1))


class TestProjectivePlane:
    def test_integral_homology(self):
        assert reduced_homology(rp2_complex()) == Zg((1, Z2T))

    def test_integral_cohomology_shifts_torsion_up(self):
        assert reduced_cohomology(rp2_complex()) == Zg((2, Z2T))

    def test_rational_homology_vanishes(self):
        assert reduced_homology(rp2_complex(), RATIONALS).is_zero

    def test_mod_2_ranks(self):
        h = reduced_homology(rp2_complex(), GF(2))
        assert h == Zg((1, Z1), (2, Z1))

    def test_mod_3_vanishes(self):
        assert reduced_homology(rp2_complex(), GF(3)).is_zero

    def test_cone_is_acyclic_but_slices_carry_torsion(self):
        C = cone_over_rp2()
        assert reduced_homology(C).is_zero
        sl = C.slice([7], list(range(1, 7)))
        assert reduced_homology(sl) == Zg((1, Z2T))

    def test_consistency_sweep_is_clean(self):
        assert homology_consistency_failures(rp2_complex()) == []
        assert homology_consistency_failures(cone_over_rp2()) == []


class TestAgainstEliminationOracles:
    def test_random_complexes_match_rational_ranks(self):
        rng = random.Random(5)
        for _ in range(60):
            K = random_complex(rng, range(1, rng.randint(1, 6) + 1))
            got = {d: g.rank for d, g in reduced_homology(K, RATIONALS).groups}
            want = betti_by_elimination(K, rational_rank)
            assert got == want

    def test_random_complexes_match_mod_p_ranks(self):
        rng = random.Random(6)
        for p in (2, 3):
            for _ in range(40):
                K = random_complex(rng, range(1, rng.randint(1, 6) + 1))
                got = {d: g.rank for d, g in reduced_homology(K, GF(p)).groups}
                want = betti_by_elimination(K, lambda m: mod_p_rank(m, p))
                assert got == want

    def test_integer_ranks_equal_rational_ranks(self):
        rng = random.Random(7)
        for _ in range(60):
            K = random_complex(rng, range(1, 7))
            hz = reduced_homology(K)
            hq = reduced_homology(K, RATIONALS)
            assert {d: g.rank for d, g in hz.groups if g.rank} == {
                d: g.rank for d, g in hq.groups
            }

    def test_euler_characteristic_matches_rank_alternation(self):
        rng = random.Random(8)
        for _ in range(60):
            K = random_complex(rng, range(1, 6))
            chi = euler_characteristic_reduced(K)
            h = reduced_homology(K)
            assert chi == sum((-1) ** d * g.rank for d, g in h.groups)

    def test_consistency_sweep_on_random_corpus(self):
        rng = random.Random(9)
        for _ in range(25):
            K = random_complex(rng, range(1, 6))
            assert homology_consistency_failures(K) == []


class TestRelativeHomology:
    def test_disc_boundary_pair(self):
        L = SimplicialComplex.boundary_simplex(range(1, 4))
        groups, agrees = relative_homology(range(1, 4), L)
        assert groups == Zg((2, Z1))
        assert agrees

    def test_full_subcomplex_leaves_nothing(self):
        L = SimplicialComplex.full_simplex([1, 2])
        groups, agrees = relative_homology([1, 2], L)
        assert groups.is_zero
        assert agrees

    def test_void_subcomplex_gives_simplex_pair(self):
        # (simplex, void): generators are all subsets including the empty set
        L = SimplicialComplex.void([1])
        groups, agrees = relative_homology([1], L)
        assert groups.is_zero  # the 1-point simplex is contractible
        assert agrees

    def test_long_exact_sequence_shift_on_random(self):
        rng = random.Random(10)
        for _ in range(40):
            n = rng.randint(1, 5)
            L = random_complex(rng, range(1, n + 1))
            _, agrees = relative_homology(range(1, n + 1), L)
            assert agrees

    def test_rejects_vertices_outside(self):
        L = SimplicialComplex.full_simplex([1, 5])
        with pytest.raises(ValueError, match="not in the vertex set"):
            relative_homology([1, 2], L)


class TestScale:
    """Complexes of 10^4 faces and more; each finishes in about a second."""

    def test_boundary_of_simplex_on_14_vertices(self):
        S = SimplicialComplex.boundary_simplex(range(1, 15))
        assert len(S.faces) == 16383
        assert reduced_homology(S) == Zg((12, Z1))

    def test_five_cycle_composed_with_triangle_boundaries(self):
        tri = SimplicialComplex.boundary_simplex(range(1, 4))
        K = composition_complex(cycle_complex(5), embed_on_blocks([tri] * 5))
        assert len(K.faces) == 30527
        assert reduced_homology(K) == Zg((11, Z1))

    def test_relative_pair_over_14_vertices_keeps_torsion(self):
        # 16,352 generators: every subset of 14 vertices that is not a face
        groups, agrees = relative_homology(range(1, 15), rp2_complex())
        assert groups == Zg((2, Z2T))
        assert agrees


class TestInducedMaps:
    def test_boundary_into_disc_kills_the_circle(self):
        A = SimplicialComplex.boundary_simplex(range(1, 4))
        X = SimplicialComplex.full_simplex(range(1, 4))
        maps = induced_inclusion_map(A, X)
        assert set(maps) == {1}
        m = maps[1]
        assert (m.kernel_dim, m.image_dim, m.cokernel_dim) == (1, 0, 0)

    def test_identity_inclusion(self):
        A = cycle_complex(4)
        maps = induced_inclusion_map(A, A)
        m = maps[1]
        assert (m.kernel_dim, m.image_dim, m.cokernel_dim) == (0, 1, 0)
        assert m.matrix in ((Fraction(1),),) or m.matrix == ((1,),)

    def test_two_points_into_segment(self):
        A = make_complex([1, 2], [[1], [2]])
        X = make_complex([1, 2], [[1, 2]])
        m = induced_inclusion_map(A, X)[0]
        assert (m.kernel_dim, m.image_dim, m.cokernel_dim) == (1, 0, 0)

    def test_subcircle_of_wedge_keeps_rank(self):
        # the 4-cycle inside the 4-cycle plus one diagonal (two triangles ring)
        A = cycle_complex(4)
        X = make_complex(range(1, 5), [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]])
        m = induced_inclusion_map(A, X, GF(2))[1]
        # the wedge has two independent circles; the subcircle maps onto one
        assert m.image_dim == 1
        assert m.kernel_dim == 0
        assert m.cokernel_dim == 1

    def test_requires_subcomplex(self):
        A = make_complex([1, 2], [[1, 2]])
        X = make_complex([1, 2], [[1], [2]])
        with pytest.raises(ValueError, match="subcomplex"):
            induced_inclusion_map(A, X)

    def test_requires_field_coefficients(self):
        A = cycle_complex(4)
        with pytest.raises(ValueError, match="need field coefficients"):
            induced_inclusion_map(A, A, None)


def boundary_matrix(faces, n):
    """Dense boundary from degree n to n - 1 among the given face masks.

    A face of degree n has n + 1 vertices; deleting its i-th smallest one
    carries sign (-1)^i, and terms outside ``faces`` are dropped, so the
    faces of X not in A give the boundary of the pair (X, A).
    """
    rows = sorted(f for f in faces if f.bit_count() == n)
    cols = sorted(f for f in faces if f.bit_count() == n + 1)
    index = {f: i for i, f in enumerate(rows)}
    m = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        bits = [b for b in range(f.bit_length()) if f >> b & 1]
        for i, b in enumerate(bits):
            sub = f & ~(1 << b)
            if sub in index:
                m[index[sub]][j] = (-1) ** i
    return m


def _inclusion_corpus():
    rng = random.Random(5)
    for _ in range(200):
        X = random_complex(rng, range(1, rng.randint(1, 6) + 1))
        yield random_subcomplex(rng, X), X
    yield rp2_complex(), cone_over_rp2()
    yield cycle_complex(4), make_complex(
        range(1, 5), [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]]
    )


@pytest.mark.parametrize("coeff", [RATIONALS, GF(2), GF(3)], ids=["Q", "GF2", "GF3"])
class TestInducedMapsAgainstExactSequence:
    """Dims of H_n(A) -> H_n(X) from ranks alone, with no homology basis.

    The image is (Z_n(A) + B_n(X)) / B_n(X), of dimension
    dim Z_n(A) - dim(B_n(X) & C_n(A)).  The boundary of the pair (X, A) has
    rank dim B_n(X) - dim(B_n(X) & C_n(A)), so the image has dimension
    dim Z_n(A) - rk d^X_{n+1} + rk d^{(X,A)}_{n+1}.
    """

    def test_dims_match_the_oracle(self, coeff):
        def rank(m):
            return rational_rank(m) if coeff.p is None else mod_p_rank(m, coeff.p)

        def betti(K, n):
            return (sum(1 for f in K.faces if f.bit_count() == n + 1)
                    - rank(boundary_matrix(K.faces, n))
                    - rank(boundary_matrix(K.faces, n + 1)))

        checked = 0
        for A, X in _inclusion_corpus():
            maps = induced_inclusion_map(A, X, coeff)
            top = max((f.bit_count() for f in X.faces), default=0)
            expected = {}
            for n in range(-1, top):
                dim_a, dim_x = betti(A, n), betti(X, n)
                if dim_a or dim_x:
                    cycles_a = (sum(1 for f in A.faces if f.bit_count() == n + 1)
                                - rank(boundary_matrix(A.faces, n)))
                    image = (cycles_a - rank(boundary_matrix(X.faces, n + 1))
                             + rank(boundary_matrix(X.faces - A.faces, n + 1)))
                    expected[n] = (dim_a - image, image, dim_x - image)
            got = {n: (m.kernel_dim, m.image_dim, m.cokernel_dim)
                   for n, m in maps.items()}
            assert got == expected, (A, X)
            for n, m in maps.items():
                kernel, image, cokernel = expected[n]
                assert len(m.matrix) == image + cokernel
                assert all(len(r) == kernel + image for r in m.matrix)
                assert rank([list(r) for r in m.matrix]) == m.image_dim
            checked += len(maps)
        assert checked > 60

    def test_identity_inclusion_gives_identity_matrices(self, coeff):
        one = Fraction(1) if coeff.p is None else 1
        for _, X in _inclusion_corpus():
            for m in induced_inclusion_map(X, X, coeff).values():
                size = len(m.matrix)
                assert m.matrix == tuple(
                    tuple(one if i == j else 0 * one for j in range(size))
                    for i in range(size)
                )
                assert all(type(x) is type(one) for r in m.matrix for x in r)
                assert (m.kernel_dim, m.cokernel_dim) == (0, 0)


class TestFieldCoefficients:
    def test_characteristic_must_be_prime(self):
        with pytest.raises(ValueError, match="must be prime"):
            GF(6)
        with pytest.raises(ValueError, match="must be prime, got 1$"):
            GF(1)
        assert GF(2**31 - 1).p == 2**31 - 1

    def test_characteristic_bound_is_checked_first(self):
        # a prime whose trial division would run for minutes
        with pytest.raises(ValueError, match=r"below 2\*\*31"):
            GF(1000000000000000003)
        with pytest.raises(ValueError, match=r"below 2\*\*31"):
            GF(2**31)

    @pytest.mark.parametrize("p", [4.5, 2.0, "3", 1e20],
                             ids=["4.5", "2.0", "str3", "1e20"])
    def test_characteristic_must_be_an_integer(self, p):
        # checked before the bound (1e20 is above it) and before the trial
        # division, which a float passes
        with pytest.raises(ValueError, match="must be an integer, got"):
            GF(p)

    def test_accepts_exactly_the_primes(self):
        # the trial division FieldCoeff had before it used abelian._factorint
        def is_prime(n):
            if n < 2:
                return False
            d = 2
            while d * d <= n:
                if n % d == 0:
                    return False
                d += 1
            return True

        for n in [*range(-3, 3001), *range(2**31 - 12, 2**31)]:
            if is_prime(n):
                assert GF(n).p == n
            else:
                with pytest.raises(ValueError, match=f"must be prime, got {n}$"):
                    GF(n)


def _relabel_by_hand(faces):
    # move the support's vertices, in increasing order, onto bits 0..k-1
    support = 0
    for f in faces:
        support |= f
    old = [i for i in range(support.bit_length()) if support >> i & 1]
    return tuple(sorted(
        sum(1 << new for new, i in enumerate(old) if f >> i & 1) for f in faces
    ))


class TestCanonicalFaces:
    """The homology cache key against a relabel written here."""

    def _families(self):
        rng = random.Random(11)
        yield frozenset()
        yield frozenset({0})
        for ground in ([1], [1, 2, 3], range(1, 7), [2], [2, 5, 9, 11],
                       [1, 2, 4], [3, 4, 5, 8, 13, 21]):
            for _ in range(15):
                yield random_complex(rng, ground).faces
        # face families that are not complexes: the key only relabels
        for _ in range(30):
            yield frozenset(rng.randrange(1 << 10) for _ in range(rng.randint(1, 12)))

    def test_matches_the_relabel(self):
        for faces in self._families():
            assert homology._canonical_faces(faces) == _relabel_by_hand(faces)


class TestSplitCertificates:
    def test_field_always_splits(self):
        A = SimplicialComplex.boundary_simplex(range(1, 4))
        X = SimplicialComplex.full_simplex(range(1, 4))
        assert certify_homology_split(A, X, GF(2)) == "field"

    def test_free_to_acyclic(self):
        A = SimplicialComplex.boundary_simplex(range(1, 4))
        X = SimplicialComplex.full_simplex(range(1, 4))
        assert certify_homology_split(A, X) == "free-to-acyclic"

    def test_acyclic_to_free(self):
        A = SimplicialComplex.full_simplex([1, 2])
        X = make_complex([1, 2], [[1], [2]]).union(
            SimplicialComplex.full_simplex([1, 2])
        )
        # X here is the full simplex again; use a genuinely free target instead
        X = make_complex([1, 2, 3], [[1, 2], [2, 3], [1, 3]])
        A = SimplicialComplex.full_simplex([1, 2]).relabel({1: 1, 2: 2})
        A = SimplicialComplex(
            X.ground, SimplicialComplex.full_simplex([1, 2]).faces
        )
        assert certify_homology_split(A, X) == "acyclic-to-free"

    def test_uncertifiable_raises(self):
        A = SimplicialComplex.empty_face_complex(range(1, 7))
        X = rp2_complex()
        with pytest.raises(UnsupportedSplitCheck):
            certify_homology_split(A, X)
