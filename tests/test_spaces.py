"""Finite set models and sphere-pair homology ledgers."""

import random

import pytest

from polyprod.abelian import FgAbelianGroup, GradedGroup
from polyprod.complexes import (
    SimplicialComplex,
    enumerate_complexes,
    mask_of,
    random_complex,
    random_subcomplex,
    submasks,
)
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
from polyprod.hochster import hochster_table, slice_duality_mismatches
from polyprod.verify import cone_over_rp2, rp2_complex


def two_points():
    return SimplicialComplex.boundary_simplex(range(1, 3))


def pair(points, sub):
    return FiniteSpacePair.of(points, sub)


def _random_params(rng, n):
    params = []
    for _ in range(n):
        r = rng.randint(0, 3)
        params.append((r, rng.randint(0, r)))
    return params


class TestFiniteSpacePair:
    def test_subspace_must_be_contained(self):
        with pytest.raises(ValueError, match="subset"):
            FiniteSpacePair.of({0}, {0, 1})

    def test_complement_is_an_involution(self):
        p = pair({0, 1, 2}, {1})
        assert p.complement().complement() == p
        assert p.complement().sub == frozenset({0, 2})


class TestFiniteProduct:
    def test_two_points_with_interval_pairs(self):
        p = pair({0, 1}, {0})
        got = finite_product(two_points(), [p, p])
        assert got == frozenset({(0, 0), (0, 1), (1, 0)})

    def test_void_complex_gives_empty_product(self):
        p = pair({0, 1}, {0})
        assert finite_product(SimplicialComplex.void((1, 2)), [p, p]) == frozenset()

    def test_full_simplex_gives_full_product(self):
        p = pair({0, 1}, set())
        K = SimplicialComplex.full_simplex((1, 2))
        assert finite_product(K, [p, p]) == frozenset(
            {(0, 0), (0, 1), (1, 0), (1, 1)}
        )

    def test_empty_face_complex_gives_subspace_product(self):
        K = SimplicialComplex.empty_face_complex(mask_of([1, 2]))
        got = finite_product(K, [pair({0, 1}, {0}), pair({0, 1}, {1})])
        assert got == frozenset({(0, 1)})

    def test_pair_count_must_match_ground(self):
        with pytest.raises(ValueError, match="expected 2 pairs"):
            finite_product(two_points(), [pair({0}, set())])


class TestComplementIdentity:
    def test_hand_case(self):
        p = pair({0, 1}, {0})
        v = complement_identity_check(two_points(), [p, p])
        assert v.ok and v.detail == ""

    def test_random_cases(self):
        rng = random.Random(11)
        letters = ("a", "b", "c")
        for _ in range(60):
            m = rng.randint(1, 3)
            K = random_complex(rng, range(1, m + 1))
            pairs = []
            for _ in range(m):
                nx = rng.randint(1, 3)
                points = frozenset(letters[:nx])
                sub = frozenset(rng.sample(sorted(points), rng.randint(0, nx)))
                pairs.append(FiniteSpacePair(points, sub))
            assert complement_identity_check(K, pairs).ok

    def test_failure_carries_detail(self, monkeypatch):
        # the identity is a theorem, so a failure needs a planted bug:
        # break the dual and the verdict must report a mismatch
        monkeypatch.setattr(SimplicialComplex, "dual", lambda self, amb: self)
        p = pair({0, 1}, {0})
        v = complement_identity_check(two_points(), [p, p])
        assert not v.ok
        assert "complement mismatch" in v.detail


class TestSubstitutionIdentity:
    def test_hand_case(self):
        K = two_points()
        inner = []
        for block in ((1, 2), (3,)):
            X = SimplicialComplex.full_simplex(block)
            A = SimplicialComplex.boundary_simplex(block)
            inner.append((X, A))
        leaves = [pair({0, 1}, {0}), pair({0, 1}, {0}), pair({0, 1}, set())]
        assert substitution_identity_check(K, inner, leaves).ok

    def test_leaf_count_validation(self):
        K = two_points()
        inner = [
            (SimplicialComplex.full_simplex((1,)),
             SimplicialComplex.empty_face_complex(mask_of([1]))),
            (SimplicialComplex.full_simplex((2,)),
             SimplicialComplex.empty_face_complex(mask_of([2]))),
        ]
        with pytest.raises(ValueError, match="expected 2 leaf pairs"):
            substitution_identity_check(K, inner, [pair({0}, set())])

    def test_random_cases(self):
        rng = random.Random(23)
        letters = ("a", "b", "c")
        for _ in range(40):
            m = rng.randint(1, 2)
            K = random_complex(rng, range(1, m + 1))
            inner = []
            v = 1
            for _ in range(m):
                w = rng.randint(1, 2)
                X = random_complex(rng, range(v, v + w))
                inner.append((X, random_subcomplex(rng, X)))
                v += w
            leaves = []
            for _ in range(v - 1):
                nu = rng.randint(0, 2)
                points = frozenset(letters[:nu])
                sub = frozenset(rng.sample(sorted(points), rng.randint(0, nu)))
                leaves.append(FiniteSpacePair(points, sub))
            assert substitution_identity_check(K, inner, leaves).ok


class TestFactorizationIdentity:
    def test_empty_subspace_position_factors_through_the_link(self):
        K = two_points()
        pairs = [pair({"a"}, set()), pair({"a", "b"}, {"a"})]
        assert factorization_identity_check(K, pairs).ok

    def test_nonface_empty_positions_empty_the_product(self):
        K = two_points()
        pairs = [pair({"a"}, set()), pair({"a"}, set())]
        assert finite_product(K, pairs) == frozenset()
        assert factorization_identity_check(K, pairs).ok

    def test_pair_count_validation(self):
        with pytest.raises(ValueError, match="expected 2 pairs"):
            factorization_identity_check(two_points(), [pair({0}, {0})])


class TestSpherePairSystem:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="0 <= q <= r"):
            SpherePairSystem.of((1, 2))
        with pytest.raises(ValueError, match="0 <= q <= r"):
            SpherePairSystem.of((0, -1))

    def test_parameters_must_be_integers(self):
        cases = [((1.5, 0.5), r"\(1\.5, 0\.5\)"),
                 (("2", "1"), r"\('2', '1'\)"),
                 ((1, True), r"\(1, True\)")]
        for bad, shown in cases:
            with pytest.raises(ValueError, match="must be integers, got " + shown):
                SpherePairSystem((bad,))
            with pytest.raises(ValueError, match="must be integers, got " + shown):
                SpherePairSystem.of((1, 0), bad)
        with pytest.raises(ValueError, match=r"must be integers, got \(1\.9, 0\.5\)"):
            SpherePairSystem.of((1.9, 0.5))

    def test_total_degree(self):
        assert SpherePairSystem.of((1, 0), (2, 1)).total_degree == 5

    def test_complement_parameters(self):
        s = SpherePairSystem.of((1, 0), (2, 1), (3, 3))
        assert s.complement().params == ((1, 1), (2, 1), (3, 0))
        assert s.complement().complement() == s

    def test_shift_accounting(self):
        s = SpherePairSystem.of((1, 0), (2, 1))
        bits = [mask_of([1]), mask_of([2])]
        assert s.shift_of(bits, mask_of([1]), mask_of([2])) == 2 + 1
        assert s.shift_of(bits, 0, mask_of([1, 2])) == 0 + 1
        assert s.shift_of(bits, mask_of([1, 2]), 0) == 2 + 3
        assert s.shift_of(bits, 0, 0) == 0


class TestSpherePairHomology:
    def test_single_point_pair_oracle(self):
        K = SimplicialComplex.empty_face_complex(mask_of([1]))
        report = sphere_pair_homology(K, SpherePairSystem.of((1, 0)))
        assert report.total == GradedGroup.from_dict({0: FgAbelianGroup(2)})
        assert report.hat == GradedGroup.from_dict({0: FgAbelianGroup(1)})
        assert report.bar == GradedGroup.from_dict({0: FgAbelianGroup(1)})
        assert len(report.entries("hat")) == 1
        [rel] = report.entries("hat_rel")
        assert rel.sigma == mask_of([1]) and rel.degree == 2

    def test_four_sphere_union_oracle(self):
        report = sphere_pair_homology(
            two_points(), SpherePairSystem.of((1, 0), (1, 0))
        )
        assert report.total == GradedGroup.from_dict({
            0: FgAbelianGroup(1),
            1: FgAbelianGroup(1),
            2: FgAbelianGroup(4),
        })
        assert report.hat == GradedGroup.from_dict(
            {0: FgAbelianGroup(1), 2: FgAbelianGroup(2)}
        )
        assert report.bar == GradedGroup.from_dict(
            {1: FgAbelianGroup(1), 2: FgAbelianGroup(2)}
        )

    def test_void_complex_has_no_classes(self):
        K = SimplicialComplex.void((1,))
        report = sphere_pair_homology(K, SpherePairSystem.of((1, 0)))
        assert report.total.is_zero
        assert report.entries("hat") == []
        assert len(report.entries("hat_rel")) == 2

    def test_ledger_counts_track_faces(self):
        K = two_points()
        report = sphere_pair_homology(K, SpherePairSystem.of((2, 1), (1, 0)))
        assert len(report.entries("hat")) == len(K.faces)
        assert len(report.entries("hat_rel")) == 4 - len(K.faces)
        for e in report.entries("bar"):
            assert e.omega and e.degree == e.source_degree + e.shift

    def test_parameter_count_validation(self):
        with pytest.raises(ValueError, match="expected 2 sphere pairs"):
            sphere_pair_homology(two_points(), SpherePairSystem.of((1, 0)))


class TestSpherePairDuality:
    def test_oracle_cases(self):
        K1 = SimplicialComplex.empty_face_complex(mask_of([1]))
        assert sphere_pair_duality_check(K1, SpherePairSystem.of((1, 0))).ok
        assert sphere_pair_duality_check(
            two_points(), SpherePairSystem.of((1, 0), (1, 0))
        ).ok

    def test_torsion_complex(self):
        system = SpherePairSystem.of(
            (1, 0), (1, 1), (2, 0), (2, 1), (3, 2), (1, 0)
        )
        assert sphere_pair_duality_check(rp2_complex(), system).ok

    def test_random_instances(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 4)
            K = random_complex(rng, range(1, n + 1))
            S = SpherePairSystem.of(*_random_params(rng, n))
            assert sphere_pair_duality_check(K, S).ok

    def test_parameter_count_validation(self):
        with pytest.raises(ValueError, match="expected 2 sphere pairs"):
            sphere_pair_duality_check(two_points(), SpherePairSystem.of((1, 0)))


def _shift(params, sigma, omega):
    # r_k + 1 for each position k in sigma, q_k for each in omega (vertex k + 1)
    return sum(r + 1 if sigma >> k & 1 else q if omega >> k & 1 else 0
               for k, (r, q) in enumerate(params))


class TestLedgerDegreeIdentities:
    """Degree sums of a ledger and its complement's, recomputed here.

    They hold for every K, so ``sphere_pair_duality_check`` does not test
    them per call: a bar class in degree d + t(sigma, omega) pairs with the
    complement's class at (ground - sigma - omega, omega) in degree
    r - 1 - (d + t), and a hat at sigma with the complement's hat_rel at
    ground - sigma in degree r - t(sigma), with r the sum of r_k + 1.
    """

    def test_bar_and_hat_pairings(self):
        rng = random.Random(7207)
        bars = 0
        for _ in range(60):
            n = rng.randint(1, 5)
            K = random_complex(rng, range(1, n + 1))
            params = _random_params(rng, n)
            co_params = [(r, r - q) for r, q in params]
            S = SpherePairSystem.of(*params)
            assert S.complement() == SpherePairSystem.of(*co_params)
            total = sum(r + 1 for r, _ in params)
            ground = K.ground
            report = sphere_pair_homology(K, S)
            co_report = sphere_pair_homology(
                K.dual(ground), SpherePairSystem.of(*co_params))
            for rep, ps in ((report, params), (co_report, co_params)):
                for e in rep.ledger:
                    assert e.shift == _shift(ps, e.sigma, e.omega or 0), e
                    assert e.degree == e.shift + e.source_degree, e
            # on at most 5 vertices every slice is torsion-free, so each
            # bar class has a partner in the complement's homology ledger
            co_bar = {(e.sigma, e.omega, e.source_degree): e.degree
                      for e in co_report.entries("bar")}
            assert len(co_bar) == len(report.entries("bar"))
            for e in report.entries("bar"):
                partner = (ground & ~(e.sigma | e.omega), e.omega,
                           bin(e.omega).count("1") - e.source_degree - 1)
                assert e.degree + co_bar[partner] == total - 1, (K, params, e)
                bars += 1
            co_rel = {e.sigma: e.degree for e in co_report.entries("hat_rel")}
            assert len(co_rel) == len(report.entries("hat"))
            for e in report.entries("hat"):
                assert e.degree + co_rel[ground & ~e.sigma] == total, (K, params, e)
        assert bars > 100


class TestAssembledBarDuality:
    """The assembled bar gradings of a space and its complement agree.

    ``sphere_pair_duality_check`` compares only the slice table entries; the
    bar grading of the complement is assembled here from the dual's
    cohomology table with the complement's own shifts, and must equal the
    bar grading of K under degree d -> r - d - 1, torsion included.
    """

    def _assert_pairs(self, K, params):
        S = SpherePairSystem.of(*params)
        co_params = S.complement().params
        co_bar = GradedGroup()
        for (sigma, omega), g in hochster_table(
                K.dual(K.ground), cohomology=True).items():
            if omega:
                co_bar = co_bar.direct_sum(g.shift(_shift(co_params, sigma, omega)))
        r = S.total_degree
        bar = sphere_pair_homology(K, S).bar
        assert bar == GradedGroup.from_dict(
            {r - e - 1: g for e, g in co_bar.groups}), (K, params)
        return bar

    def test_torsion_complexes(self):
        rng = random.Random(4)
        for K in (rp2_complex(), cone_over_rp2()):
            for _ in range(2):
                bar = self._assert_pairs(K, _random_params(rng, K.n_vertices))
                assert any(g.torsion for _, g in bar.groups)

    def test_random_complexes(self):
        rng = random.Random(913)
        nonzero = 0
        for _ in range(40):
            n = rng.randint(1, 6)
            K = random_complex(rng, range(1, n + 1))
            nonzero += not self._assert_pairs(K, _random_params(rng, n)).is_zero
        assert nonzero > 20


class TestFacePairing:
    """Why the duality check still compares face families.

    A void K and a full simplex have no nonzero slice table entry at a
    nonempty omega, so a dual that returns each of them unchanged passes
    the entrywise comparison; only the hat count catches it.
    """

    def test_swapped_void_and_full_simplex_fail_on_hat_counts(self, monkeypatch):
        void = SimplicialComplex.void(range(1, 4))
        full = SimplicialComplex.full_simplex(range(1, 4))
        true_dual = SimplicialComplex.dual

        def planted(self, relative_to):
            dual = true_dual(self, relative_to)
            return {void: full, full: void}.get(dual, dual)

        monkeypatch.setattr(SimplicialComplex, "dual", planted)
        system = SpherePairSystem.of((1, 0), (2, 1), (3, 3))
        for K in (void, full):
            dual = K.dual(K.ground)
            assert dual == K
            assert list(slice_duality_mismatches(
                hochster_table(K), hochster_table(dual, cohomology=True))) == []
            v = sphere_pair_duality_check(K, system)
            assert not v.ok
            assert v.detail == "hat and relative-hat counts differ"


class TestPairingFollowsFromTablesAndCount:
    """Why the duality check does not look for a hat without a partner.

    Its docstring proves that the entrywise tables and the face count leave
    no face of K whose complement is a face of the dual.  Here every K on
    1-3 vertices meets every family D of subsets, closed or not; the
    partner loop the check once ran is the oracle on each (K, D) that
    passes the tables and the count.
    """

    def test_every_family_on_up_to_three_vertices(self):
        passing = 0
        for n in (1, 2, 3):
            g = mask_of(range(1, n + 1))
            subsets = submasks(g)
            families = [frozenset(s for i, s in enumerate(subsets) if code >> i & 1)
                        for code in range(1 << len(subsets))]
            tables = {D: hochster_table(SimplicialComplex(g, D), cohomology=True)
                      for D in families}
            for K in enumerate_complexes(g):
                table = hochster_table(K)
                for D in families:
                    if len(K.faces) + len(D) != 1 << n or any(
                            slice_duality_mismatches(table, tables[D])):
                        continue
                    assert not [sigma for sigma in K.faces if g & ~sigma in D], (K, D)
                    # on so few vertices the true dual is the only such family
                    assert D == K.dual(g).faces
                    passing += 1
        assert passing == 3 + 6 + 20
