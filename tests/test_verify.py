"""The randomized verification suites and their support machinery."""

import pytest

import polyprod.spaces as spaces
from polyprod.complexes import (
    SimplicialComplex,
    enumerate_complexes,
    mask_of,
    vertices_of,
)
from polyprod.homology import euler_characteristic_reduced, reduced_homology
from polyprod.verify import (
    _COMPLEX_COUNTS,
    RP2_FACETS,
    SUITES,
    SuiteResult,
    Trial,
    cone_over_rp2,
    cycle_complex,
    minimize_complex,
    rp2_complex,
    run_suite,
    self_dual_complex,
)


class TestCuratedComplexes:
    def test_projective_plane_shape(self):
        K = rp2_complex()
        assert K.n_vertices == 6
        assert len(K.faces) == 32
        assert len(K.facets()) == 10
        assert euler_characteristic_reduced(K) == 0
        # a closed surface: every edge lies in exactly two facets
        for e in (f for f in K.faces if f.bit_count() == 2):
            assert sum(1 for f in K.facets() if e & f == e) == 2

    def test_projective_plane_torsion(self):
        h = reduced_homology(rp2_complex())
        assert dict(h.groups)[1].torsion == (2,)

    def test_cone_slice_recovers_the_plane(self):
        cone = cone_over_rp2()
        assert cone.n_vertices == 7
        assert cone.slice((7,), range(1, 7)) == rp2_complex()
        assert len(RP2_FACETS) == 10

    def test_cycles(self):
        C5 = cycle_complex(5)
        assert len(C5.faces) == 11
        assert reduced_homology(C5) == reduced_homology(
            SimplicialComplex.boundary_simplex(range(1, 4))
        )
        shifted = cycle_complex(4, start=3)
        assert shifted.ground == mask_of([3, 4, 5, 6])
        with pytest.raises(ValueError, match="at least 3"):
            cycle_complex(2)

    def test_self_dual_family(self):
        for n in range(1, 5):
            K = self_dual_complex(n)
            assert K.ground == mask_of(range(1, n + 1))
            assert K.dual(K.ground) == K


class TestCensus:
    def test_complex_counts_through_four_vertices(self):
        for n, expect in enumerate(_COMPLEX_COUNTS):
            family = list(enumerate_complexes(mask_of(range(1, n + 1))))
            assert len(family) == expect
            assert len(set(family)) == expect


class TestTrialReporting:
    def test_passing_trial_is_one_line(self):
        t = Trial(41, "dual", True)
        assert t.lines() == ["TRIAL 41 dual PASS"]

    def test_failing_trial_indents_the_counterexample(self):
        t = Trial(8, "dual", False, "broke\nground: [1]")
        assert t.lines() == ["TRIAL 8 dual FAIL", "  broke", "  ground: [1]"]

    def test_suite_result_summary(self):
        r = SuiteResult("dual", (Trial(0, "dual", True), Trial(1, "dual", False, "x")))
        assert not r.ok
        assert len(r.failures) == 1
        lines = r.report_lines()
        assert lines[-1] == "suite dual: 2 trials, 1 failures"
        assert lines[0] == "TRIAL 0 dual PASS"


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            run_suite("dual", trials=-1)
        with pytest.raises(ValueError, match="at least 1"):
            run_suite("dual", max_vertices=0)

    def test_deterministic_replay(self):
        a = run_suite("slice-dual", trials=5, max_vertices=5, seed=9)
        b = run_suite("slice-dual", trials=5, max_vertices=5, seed=9)
        assert a == b
        assert [t.seed for t in a.trials] == [9 * 1_000_003 + i for i in range(5)]

    def test_a_raising_check_fails_its_trial(self, monkeypatch):
        def broken(K, pairs):
            raise ValueError("planted")

        monkeypatch.setattr(spaces, "finite_product", broken)
        result = run_suite("complement", trials=3, max_vertices=3)
        assert len(result.failures) == 3
        for t in result.trials:
            assert t.counterexample == "check raised ValueError: planted"

    def test_registry_defaults(self):
        expected = {
            "dual": (10_000, 8),
            "slice-dual": (1000, 10),
            "compose-slice": (1000, 10),
            "compose-dual": (1000, 10),
            "alexander": (500, 7),
            "composition-homology": (210, 9),
            "hochster-composition": (50, 8),
            "complement": (1000, 4),
            "substitution": (500, 3),
            "sphere-duality": (200, 6),
        }
        assert {k: (s.trials, s.max_vertices) for k, s in SUITES.items()} == expected
        assert all(s.summary for s in SUITES.values())


SMOKE = {
    "dual": (5, 5),
    "slice-dual": (10, 5),
    "compose-slice": (5, 6),
    "compose-dual": (5, 6),
    "alexander": (5, 4),
    "composition-homology": (5, 6),
    "hochster-composition": (3, 5),
    "complement": (10, 3),
    "substitution": (5, 2),
    "sphere-duality": (5, 4),
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_suite_smoke(name):
    trials, mv = SMOKE[name]
    result = run_suite(name, trials=trials, max_vertices=mv, seed=1)
    assert result.ok, result.report_lines()
    # the dual suite prepends its census trial to the random ones
    expected = trials + 1 if name == "dual" else trials
    assert len(result.trials) == expected


class TestDetectionPower:
    def test_dual_suite_catches_a_broken_dual(self, monkeypatch):
        real = SimplicialComplex.dual

        def broken(self, ambient):
            d = real(self, ambient)
            if len(d.faces) > 1:
                # swap in a proper subcomplex: drop one maximal face
                f = max(d.facets())
                return SimplicialComplex(d.ground, frozenset(d.faces - {f}))
            return d

        monkeypatch.setattr(SimplicialComplex, "dual", broken)
        result = run_suite("dual", trials=5, max_vertices=5, seed=0)
        assert not result.ok
        bad = result.failures[0]
        assert "FAIL" in bad.lines()[0]
        assert bad.counterexample


class TestMinimizeComplex:
    def test_shrinks_to_a_local_minimum(self):
        K = SimplicialComplex.full_simplex(range(1, 4))
        small = minimize_complex(K, lambda c: len(c.faces) >= 3)
        assert len(small.faces) == 3
        # vertex 1 goes first, then the edge facet
        assert small == SimplicialComplex(mask_of([2, 3]), frozenset({0, 2, 4}))

    def test_keeps_vertices_when_asked(self):
        K = SimplicialComplex.full_simplex(range(1, 4))
        small = minimize_complex(
            K, lambda c: len(c.faces) >= 3, drop_vertices=False
        )
        assert small.ground == K.ground
        assert len(small.faces) == 3

    def test_never_leaves_the_failing_region(self):
        K = SimplicialComplex.full_simplex(range(1, 5))

        def fails(c):
            return any(f.bit_count() == 2 for f in c.faces)

        small = minimize_complex(K, fails)
        assert fails(small)
        assert small.n_vertices == 2
