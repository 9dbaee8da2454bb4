"""Smith normal form and reduced (co)homology against independent oracles.

The oracles here are deliberately written with different algorithms than the
library: invariant factors via gcds of k x k minors, ranks via fraction-exact
Gaussian elimination, mod-p ranks via a standalone elimination.  Values for
named spaces are frozen from hand computation.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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


def bareiss_det(matrix):
    """Determinant by fraction-free (Bareiss) elimination, exact in ints."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


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

    def test_rejects_entries_that_are_not_ints(self):
        # 1e20 rounds to a float that is a multiple of 3, so it used to
        # give [3] although gcd(10^20, 3) = 1
        cases = [([[1e20, 3]], r"1e\+20"), ([[2.0]], r"2\.0"),
                 ([[2.0, 0], [0, 3.0]], r"2\.0"), ([[1, True]], "True"),
                 ([[0, "4"]], "'4'")]
        for bad, shown in cases:
            with pytest.raises(ValueError,
                               match="matrix entries must be integers, got " + shown):
                smith_normal_form(bad)

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
        # column 0 has no unit until column 1 is eliminated; the unit rule
        # must come back for it instead of falling back on the least entry
        monkeypatch.setattr(homology, "_least_entry",
                            lambda cols: pytest.fail(f"least entry of {cols}"))
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
        # no +-1 entry, so the unit rule finds no pivot and every nonzero
        # matrix starts on the entry of least absolute value
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        from sympy import ZZ, Matrix

        least = []
        least_entry = homology._least_entry
        monkeypatch.setattr(homology, "_least_entry",
                            lambda cols: least.append(1) or least_entry(cols))
        rng = random.Random(5150)
        values = (0, 2, -2, 3, -3, 4, 6, -9, 10)
        for _ in range(300):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
            want = [abs(int(d)) for d in
                    normalforms.invariant_factors(Matrix(m), domain=ZZ) if d]
            least.clear()
            assert smith_normal_form(m) == want, f"SNF disagrees with sympy on {m}"
            assert bool(least) == any(any(row) for row in m), m
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

    def test_consistency_sweep_catches_field_ranks_that_ignore_p(self, monkeypatch):
        # a planted fault: every field rank is the rational one, so GF(2)
        # loses both classes of rp2, the one in degree 2 coming from the
        # torsion in degree 1 alone; the groups cache is emptied around the
        # fault so that it neither reads nor leaves a faulty entry
        monkeypatch.setattr(homology, "_field_rank", lambda factors, p: len(factors))
        homology._groups_from_key.cache_clear()
        try:
            problems = homology_consistency_failures(rp2_complex())
        finally:
            homology._groups_from_key.cache_clear()
        assert problems == ["mod-2 dim at 1 is 0, expected 1",
                            "mod-2 dim at 2 is 0, expected 1"]


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


class TestStarReduction:
    """Homology modulo the star of vertex 1 against the full chain complex.

    ``_homology_data`` reads a complex modulo the closed star of its first
    vertex; the oracle is the unreduced augmented complex of
    :func:`chain_complex`, which shares no cell with the reduced one.
    """

    COEFFS = (None, RATIONALS, GF(2), GF(3))

    @staticmethod
    def _rp2_join_rp2():
        rp2 = rp2_complex()
        return join([rp2, rp2.relabel({v: v + 6 for v in range(1, 7)})])

    def _complexes(self):
        yield "rp2", rp2_complex()
        yield "cone-rp2", cone_over_rp2()
        yield "rp2*rp2", self._rp2_join_rp2()
        yield "void", SimplicialComplex.void([1, 2])
        yield "empty-face", SimplicialComplex.empty_face_complex([1, 2])
        yield "point", make_complex([1], [[1]])
        yield "gapped", make_complex([1, 3, 5, 8], [[3, 5], [5, 8], [3, 8]])
        rng = random.Random(14)
        for i in range(240):
            n = rng.randint(1, 9)
            yield f"random-{i}", random_complex(rng, range(1, n + 1))

    def test_matches_the_unreduced_complex(self):
        for name, K in self._complexes():
            key = homology._canonical_faces(K.faces)
            reduced = homology._homology_data(key)
            full = homology._smith_data(K.faces)
            for coeff in self.COEFFS:
                for cohomology in (False, True):
                    got = homology._graded_groups(*reduced, coeff, cohomology)
                    want = homology._graded_groups(*full, coeff, cohomology)
                    assert got == want, (name, coeff, cohomology)

    def test_torsion_survives_in_two_degrees(self):
        K = self._rp2_join_rp2()
        assert reduced_homology(K) == Zg((3, Z2T), (4, Z2T))
        assert reduced_cohomology(K) == Zg((4, Z2T), (5, Z2T))

    def test_the_star_removes_the_cone_and_all_but_one_sphere_cell(self):
        apex_first = join([make_complex([1], [[1]]),
                           rp2_complex().relabel({v: v + 1 for v in range(1, 7)})])
        sphere = SimplicialComplex.boundary_simplex(range(1, 7))
        for K, counts in ((apex_first, {}), (sphere, {4: 1})):
            key = homology._canonical_faces(K.faces)
            assert homology._homology_data(key)[0] == counts


def _run_isolated(snippet, timeout):
    """Run ``snippet`` in a fresh interpreter; its output lines, seconds and
    peak resident memory in MiB (the child prints its peak in KiB last).

    On Linux the peak is ``VmHWM``, the high-water mark of the child's own
    address space: ``ru_maxrss`` also keeps the peak of the address space
    the child was started from, here the test process, which can reach
    140 MiB after the whole suite.
    """
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (snippet + "\nimport os, resource\n"
            "if os.path.exists('/proc/self/status'):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        print(next(line.split()[1] for line in fh"
            " if line.startswith('VmHWM:')))\n"
            "else:\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=timeout, env=env)
    seconds = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    *lines, rss_kib = done.stdout.splitlines()
    return lines, seconds, int(rss_kib) / 1024


class TestScale:
    """Complexes of 10^4 faces and more.  Those of about 10^6 faces run in
    their own interpreter, so that their time and peak memory are their own.
    """

    @pytest.mark.parametrize("snippet, faces, expected", [
        ("K = SimplicialComplex.boundary_simplex(range(1, 21))",
         1048575, "d18: Z"),
        # what `polyprod homology` builds from a document of the 20 facets
        ("K = make_complex(range(1, 21), "
         "[[v for v in range(1, 21) if v != u] for u in range(1, 21)])",
         1048575, "d18: Z"),
        ("sq = SimplicialComplex.boundary_simplex(range(1, 5))\n"
         "K = composition_complex(cycle_complex(5), embed_on_blocks([sq] * 5))",
         1029375, "d16: Z"),
    ], ids=["boundary-of-19-simplex", "facets-of-19-simplex-boundary",
            "five-cycle-of-tetrahedron-boundaries"])
    def test_a_million_faces_in_ten_seconds_and_500_mb(self, snippet, faces,
                                                       expected):
        lines, seconds, rss_mb = _run_isolated(
            "from polyprod import *\n" + snippet + "\n"
            "print(len(K.faces))\n"
            "print(*reduced_homology(K).render_lines(), sep='\\n')",
            timeout=60,
        )
        assert lines == [str(faces), expected]
        assert seconds < 10, f"took {seconds:.1f} s"
        assert rss_mb < 500, f"peak RSS {rss_mb:.0f} MiB"

    @pytest.mark.parametrize("facets, bitset_closures, expected, rendered", [
        ("[[v, v % 60 + 1] for v in range(1, 61)]", 0, "d1: Z",
         "facets: [[1,2],[1,60]," + ",".join(f"[{v},{v + 1}]" for v in range(2, 60))
         + "]"),
        ("[[1, 2], [199, 200]]", 1, "d0: Z", "facets: [[1,2],[199,200]]"),
    ], ids=["sixty-cycle", "two-edges-199-apart"])
    def test_wide_sparse_supports_in_five_seconds_and_200_mb(
            self, facets, bitset_closures, expected, rendered):
        # a closure or a facet listing on one bitset costs 2^|ground| bits:
        # the 60-cycle must keep the per-facet expansion and the per-face
        # facet scan, and the two far edges are closed and listed over
        # their four vertices, not over the labels up to 200
        lines, seconds, rss_mb = _run_isolated(
            "from polyprod import complexes, make_complex, reduced_homology\n"
            "from polyprod.documents import document_of\n"
            "calls = []\n"
            "close_codes = complexes._close_codes\n"
            "complexes._close_codes = lambda *a: calls.append(a) or close_codes(*a)\n"
            f"facets = {facets}\n"
            "ground = sorted({v for f in facets for v in f})\n"
            "K = make_complex(ground, facets)\n"
            "print(len(calls))\n"
            "print(*reduced_homology(K).render_lines(), sep='\\n')\n"
            "print(document_of(K).render().splitlines()[-1])",
            timeout=60,
        )
        assert lines == [str(bitset_closures), expected, rendered]
        assert seconds < 5, f"took {seconds:.1f} s"
        assert rss_mb < 200, f"peak RSS {rss_mb:.0f} MiB"

    def test_random_8_subsets_of_40_vertices_in_300_mb(self):
        # 433,635 faces, most of them outside the star of vertex 1.  Peak
        # RSS measured on a 2-core Xeon VM under Python 3.11: 341-342 MiB
        # with every degree's boundary held until Smith runs, 270-273 MiB
        # with each degree reduced and dropped before the next is built.
        # The time bound only guards against a hang (about 8 s there)
        lines, seconds, rss_mb = _run_isolated(
            "import random\n"
            "from polyprod import make_complex, reduced_homology\n"
            "rng = random.Random(3)\n"
            "facets = [rng.sample(range(1, 41), 8) for _ in range(4000)]\n"
            "K = make_complex(range(1, 41), facets)\n"
            "print(len(K.faces))\n"
            "print(sum(-1 if f.bit_count() & 1 else 1 for f in K.faces))\n"
            "print(*reduced_homology(K).render_lines(), sep='\\n')",
            timeout=180,
        )
        faces, alternating, *groups = lines
        assert int(faces) == 433635
        # the reduced Euler characteristic, with the empty face in degree
        # -1, is the alternating rank sum 29,266 - 3
        assert -int(alternating) == 29263
        assert groups == ["d3: Z^3", "d4: Z^29266"]
        assert seconds < 120, f"took {seconds:.1f} s"
        assert rss_mb < 300, f"peak RSS {rss_mb:.0f} MiB"

    def test_slice_tables_and_sweep_on_12_vertices_in_100_mb(self):
        # 531,441 pairs, 46,966 nonzero in the table and 43,004 in the
        # dual's co-table.  On a 2-core Xeon VM under Python 3.11 the two
        # tables and the sweep took 7-8 s and 279 MiB peak RSS with every
        # pair stored, and take 2.4-2.9 s and 58 MiB stored by face
        lines, seconds, rss_mb = _run_isolated(
            "import random\n"
            "from polyprod import hochster_table, random_complex, slice_duality_mismatches\n"
            "K = random_complex(random.Random(7), range(1, 13))\n"
            "table = hochster_table(K)\n"
            "co_table = hochster_table(K.dual(K.ground), cohomology=True)\n"
            "print(len(K.faces), len(table.items()))\n"
            "print(len(table.nonzero_items()), len(co_table.nonzero_items()))\n"
            "print(len(list(slice_duality_mismatches(table, co_table))))",
            timeout=120,
        )
        assert lines == ["4029 531441", "46966 43004", "0"]
        assert seconds < 8, f"took {seconds:.1f} s"
        assert rss_mb < 100, f"peak RSS {rss_mb:.0f} MiB"

    def test_slice_table_on_13_vertices_in_three_seconds_and_50_mb(self):
        # 1,594,323 pairs and 132,034 stored nonzero entries.  On a 2-core
        # Xeon VM under Python 3.11 the table took 5.8 s and 114 MiB peak
        # RSS slicing every w of each link support outside its cone points,
        # and takes 0.6-0.8 s and 30 MiB read off by Mayer-Vietoris
        lines, seconds, rss_mb = _run_isolated(
            "import random\n"
            "from polyprod import hochster_table, random_complex, reduced_homology\n"
            "K = random_complex(random.Random(7), range(1, 14))\n"
            "table = hochster_table(K)\n"
            "print(len(K.faces), sum(len(found) for _, found in table.links.values()))\n"
            "print(*table.entry(0, K.ground).render_lines())\n"
            "print(*reduced_homology(K).render_lines())",
            timeout=120,
        )
        assert lines == ["8070 132034", "d9: Z^10", "d8: Z^10"]
        assert seconds < 3, f"took {seconds:.1f} s"
        assert rss_mb < 50, f"peak RSS {rss_mb:.0f} MiB"

    def test_piece_formula_of_a_four_cycle_of_triangles_in_60_mb(self):
        # 12 vertices, 531,441 pairs, 15,876 of them nonzero in the
        # composition's table.  On a 2-core Xeon VM under Python 3.11 the
        # check took 5.6-6.9 s and 112 MiB peak RSS with one verdict per
        # pair, and takes about 1.2 s and 25 MiB at the candidate pairs
        lines, seconds, rss_mb = _run_isolated(
            "from polyprod import *\n"
            "tri = SimplicialComplex.boundary_simplex(range(1, 4))\n"
            "report = hochster_composition_formula("
            "cycle_complex(4), embed_on_blocks([tri] * 4))\n"
            "print(report.ok, report.pairs, len(report.verdicts))",
            timeout=120,
        )
        assert lines == ["True 531441 15876"]
        assert seconds < 4, f"took {seconds:.1f} s"
        assert rss_mb < 60, f"peak RSS {rss_mb:.0f} MiB"

    def test_unitless_60_by_60_matrix_in_twenty_seconds(self):
        # entries 2, -3, 4 and zeros: no unit to pivot on until remainders
        # make one.  On a 2-core Xeon VM the sparse elimination takes about
        # 0.1 s here, and a dense one with full carry of remainders ran past
        # the 20 s bound
        rng = random.Random(60)
        m = [[rng.choice((0,) * 8 + (2, -3, 4)) for _ in range(60)]
             for _ in range(60)]
        lines, _, _ = _run_isolated(
            "from polyprod import smith_normal_form\n"
            f"print(smith_normal_form({m!r}))",
            timeout=20,
        )
        factors = [int(d) for d in lines[0].strip("[]").split(",")]
        assert len(factors) == rational_rank(m)
        assert math.prod(factors) == abs(bareiss_det(m)) != 0
        assert factors[0] == math.gcd(*(x for row in m for x in row))

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


class TestFamiliesNotClosedDownward:
    """``homology_of_faces`` refuses a family that is not a complex."""

    @pytest.mark.parametrize("faces", [
        [0, 0b11],  # an edge without its vertices
        [0, 1, 7],  # a triangle with one vertex
        [1, 2],  # two vertices without the empty face
        # a triangle without the edge {2, 3}: every face lies in the star
        # of vertex 1, so the quotient alone would give zero
        [0, 1, 2, 4, 3, 5, 7],
        # 18 vertices and the edge {1, 20} over 20: one lookup per face
        [0] + [1 << i for i in range(18)] + [1 | 1 << 19],
    ], ids=["edge", "triangle", "no-empty-face", "star-hides-it", "wide"])
    @pytest.mark.parametrize("cohomology", [False, True],
                             ids=["homology", "cohomology"])
    def test_refused(self, faces, cohomology):
        with pytest.raises(ValueError, match="not closed downward"):
            homology.homology_of_faces(faces, None, cohomology)

    def test_closed_families_on_both_paths(self):
        # 2^20 codes against 21 faces take the lookups, the triangle the bitset
        star = [0] + [1 << i for i in range(20)]
        assert homology.homology_of_faces(star) == Zg((0, FgAbelianGroup(19)))
        assert homology.homology_of_faces([0, 1, 2, 4, 3, 5, 6]) == Zg((1, Z1))
        assert homology.homology_of_faces([]) == GradedGroup()


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
