"""The randomized verification suites and their support machinery."""

import contextlib
import inspect
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import polyprod.spaces as spaces
import polyprod.verify as verify
from polyprod.complexes import (
    SimplicialComplex,
    enumerate_complexes,
    mask_of,
    random_complex,
    vertices_of,
)
from polyprod.documents import parse_document
from polyprod.homology import euler_characteristic_reduced, reduced_homology
from polyprod.verify import (
    _COMPLEX_COUNTS,
    _census_failure,
    RP2_FACETS,
    SUITES,
    SuiteResult,
    SuiteSpec,
    Trial,
    TrialLog,
    _de_morgan_failure,
    _dual_failure,
    _fan_out,
    _subseed,
    cone_over_rp2,
    cycle_complex,
    minimize_complex,
    rp2_complex,
    run_suite,
    self_dual_complex,
    suite_trials,
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

    def test_each_member_is_dualized_once(self, monkeypatch):
        real = SimplicialComplex.dual
        calls = []

        def counting(self, ambient):
            calls.append(self)
            return real(self, ambient)

        monkeypatch.setattr(SimplicialComplex, "dual", counting)
        assert _census_failure() is None
        # each member and its dual, for the involution check; the De
        # Morgan laws read each union and intersection off those duals
        assert len(calls) == 2 * sum(_COMPLEX_COUNTS[1:])

    def test_a_union_that_is_no_member_is_dualized(self, monkeypatch):
        real = SimplicialComplex.union

        def broken(self, other):
            # adds the whole ground as a face but none of its subsets, so
            # the union of two void complexes is no complex of the census
            K = real(self, other)
            return SimplicialComplex(K.ground, K.faces | {K.ground})

        monkeypatch.setattr(SimplicialComplex, "union", broken)
        err = _census_failure()
        assert err.splitlines()[0] == "dual of a union is not the intersection of duals"

    def test_an_intersection_that_adds_a_face_is_caught(self, monkeypatch):
        real = SimplicialComplex.intersection

        def broken(self, other):
            # the whole ground as an extra face: on one vertex the void
            # complex meets itself in {{1}}, whose dual is no union of duals
            K = real(self, other)
            return SimplicialComplex(K.ground, K.faces | {K.ground})

        monkeypatch.setattr(SimplicialComplex, "intersection", broken)
        err = _census_failure()
        assert err.splitlines()[0] == "dual of an intersection is not the union of duals"

    def test_a_union_that_depends_on_argument_order_is_caught(self, monkeypatch):
        real = SimplicialComplex.union

        def broken(self, other):
            # drops a facet only when the first argument is strictly inside
            # the second, so only pairs taken in that order show it
            K = real(self, other)
            if self.faces < other.faces:
                return SimplicialComplex(K.ground, K.faces - {max(K.facets())})
            return K

        monkeypatch.setattr(SimplicialComplex, "union", broken)
        err = _census_failure()
        assert err.splitlines()[0] == "dual of a union is not the intersection of duals"


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


# passes in runs of seeds, failures between them, a gap in the seeds, a
# pass under another suite name and a pass that carries text
MIXED = (
    Trial(10, "s", True), Trial(11, "s", True), Trial(12, "s", True),
    Trial(13, "s", False, "broke\nground: [1]"),
    Trial(14, "s", True), Trial(16, "s", True),
    Trial(17, "other", True), Trial(18, "s", True, "a note"),
    Trial(19, "s", False, "x"), Trial(20, "s", True), Trial(21, "s", True),
)


class TestTrialLog:
    def test_reads_like_the_tuple_of_its_trials(self):
        log = SuiteResult("s", MIXED).trials
        assert isinstance(log, TrialLog)
        assert len(log) == len(MIXED)
        assert list(log) == list(MIXED)
        for i in range(-len(MIXED), len(MIXED)):
            assert log[i] == MIXED[i], i
        for i in (len(MIXED), -len(MIXED) - 1):
            with pytest.raises(IndexError):
                log[i]
        for cut in (slice(1, None), slice(None, None, -1), slice(2, 9, 3),
                    slice(-4, -1), slice(5, 5)):
            assert log[cut] == MIXED[cut], cut

    def test_compares_and_hashes_like_the_tuple(self):
        log = TrialLog("s", MIXED)
        assert log == MIXED and MIXED == log and not log != MIXED
        assert hash(log) == hash(MIXED)
        assert log == TrialLog("s", iter(MIXED))
        assert log != MIXED[:-1] and log != MIXED[1:] + MIXED[:1]
        assert log != list(MIXED)
        assert TrialLog("s") == () and len(TrialLog("s")) == 0
        built = SuiteResult("s", MIXED)
        assert built == SuiteResult("s", log) and hash(built) == hash(SuiteResult("s", log))

    def test_passes_run_by_seed_and_the_rest_is_kept(self):
        log = TrialLog("s", MIXED)
        assert log._parts == [
            range(10, 13), MIXED[3], range(14, 15), range(16, 17),
            MIXED[6], MIXED[7], MIXED[8], range(20, 22),
        ]
        kept = [p for p in log._parts if isinstance(p, Trial)]
        assert all(k is g for k, g in zip(kept, MIXED[3:4] + MIXED[6:9]))
        result = SuiteResult("s", log)
        assert result.failures == (MIXED[3], MIXED[8])
        assert not result.ok
        assert result.report_lines() == [
            line for t in MIXED for line in t.lines()
        ] + ["suite s: 11 trials, 2 failures"]

    def test_a_suite_with_gapped_seeds_and_another_name(self):
        expect = tuple(Trial(100 + 2 * i, "fake" if i % 3 else "renamed", True)
                       for i in range(7))
        result = SuiteResult("fake", expect)
        assert result.trials == expect and len(result.trials) == 7
        assert result.ok and result.failures == ()
        assert result.trials[2:5] == expect[2:5]
        assert result.report_lines()[-1] == "suite fake: 7 trials, 0 failures"

    def test_a_passing_run_keeps_little_memory(self):
        # holding every Trial kept about 2.7 MiB here (tracemalloc, Python
        # 3.11); the runs of seeds keep about 5 KiB
        tracemalloc.start()
        try:
            result = run_suite("slice-dual", trials=20_000, max_vertices=3)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.ok and len(result.trials) == 20_000
        assert retained < 64 * 1024, retained


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            run_suite("dual", trials=-1)
        with pytest.raises(ValueError, match="at least 1"):
            run_suite("dual", max_vertices=0)

    @pytest.mark.parametrize("arg", ["trials", "max_vertices", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_non_integer_arguments_are_refused_before_any_trial(self, monkeypatch,
                                                                arg, value):
        ran = []
        monkeypatch.setitem(SUITES, "count", SuiteSpec(lambda rng, i, mv: ran.append(i), 2, 2))
        with pytest.raises(ValueError, match=f"^{arg} must be an integer"):
            suite_trials("count", **{arg: value})
        with pytest.raises(ValueError, match=f"^{arg} must be an integer"):
            run_suite("slice-dual", **{"trials": 2, arg: value})
        assert ran == []

    @pytest.mark.parametrize("max_vertices", [17, 10**6])
    def test_oversized_max_vertices_are_refused_before_any_trial(self, monkeypatch,
                                                                 max_vertices):
        # a random complex draws up to 2^n facets: past 16 vertices a trial
        # takes seconds to minutes, and past 25 it runs out of memory
        ran = []
        monkeypatch.setitem(SUITES, "count", SuiteSpec(lambda rng, i, mv: ran.append(i), 2, 2))
        message = f"^max vertices must be at most 16, got {max_vertices}$"
        with pytest.raises(ValueError, match=message):
            suite_trials("count", max_vertices=max_vertices)
        for name in ("dual", "alexander"):
            with pytest.raises(ValueError, match=message):
                run_suite(name, trials=2, max_vertices=max_vertices)
        assert ran == []
        assert len(run_suite("count", max_vertices=16).trials) == 2

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
        assert [k for k, s in SUITES.items() if s.census] == ["dual"]


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

    def test_dual_suite_catches_a_dual_that_skips_the_complement(self, monkeypatch):
        # the non-faces of K pass the face count, the involution and De
        # Morgan; only the complement check tells them from the dual
        def broken(self, ambient):
            full = SimplicialComplex.full_simplex(ambient)
            return SimplicialComplex(full.ground, full.faces - self.faces)

        monkeypatch.setattr(SimplicialComplex, "dual", broken)
        result = run_suite("dual", trials=30, max_vertices=5, seed=5)
        assert len(result.failures) > 1
        for trial in result.failures:
            lines = trial.counterexample.splitlines()
            assert lines[0] == "a face of the dual complements a face of the complex"
            assert lines[1] in ("complex:", "first:")

    @pytest.mark.parametrize("name", ["alexander", "sphere-duality"])
    def test_table_suites_fail_on_a_dual_that_is_not_closed(self, monkeypatch, name):
        # the dual without an edge or larger face that lies in another is
        # not closed downward and has no table, so the trial fails on it
        real = SimplicialComplex.dual

        def broken(self, ambient):
            d = real(self, ambient)
            facets = set(d.facets())
            inner = [f for f in d.faces if f.bit_count() > 1 and f not in facets]
            return SimplicialComplex(d.ground, d.faces - {min(inner)}) if inner else d

        monkeypatch.setattr(SimplicialComplex, "dual", broken)
        result = run_suite(name, trials=20, max_vertices=5, seed=3)
        assert len(result.failures) > 1
        assert any("not closed downward" in t.counterexample for t in result.failures)

    def test_de_morgan_failures_shrink_both_complexes(self, monkeypatch):
        real = SimplicialComplex.union

        def broken(self, other):
            K = real(self, other)
            if len(K.faces) > 1:
                f = max(K.facets())
                return SimplicialComplex(K.ground, frozenset(K.faces - {f}))
            return K

        monkeypatch.setattr(SimplicialComplex, "union", broken)
        result = run_suite("dual", trials=6, max_vertices=4, seed=2)
        assert len(result.failures) == 7
        for trial in result.failures:
            lines = trial.counterexample.splitlines()
            at = lines.index("first:"), lines.index("second:")
            K1, K2 = (
                parse_document("\n".join(l[2:] for l in lines[a + 1:a + 3])).complex()
                for a in at
            )
            assert _de_morgan_failure(K1, K2) == lines[0]
            for f in K1.facets():
                smaller = SimplicialComplex(K1.ground, K1.faces - {f})
                assert _de_morgan_failure(smaller, K2) is None
            for f in K2.facets():
                smaller = SimplicialComplex(K2.ground, K2.faces - {f})
                assert _de_morgan_failure(K1, smaller) is None


    def test_involution_failures_shrink_the_failing_complex(self, monkeypatch):
        # the golden record's dual-drops-facet fault; K1 and K2 are drawn
        # from each trial's seed as the dual check draws them
        real = SimplicialComplex.dual

        def broken(self, ambient):
            d = real(self, ambient)
            if len(d.faces) > 1:
                f = max(d.facets())
                return SimplicialComplex(d.ground, frozenset(d.faces - {f}))
            return d

        monkeypatch.setattr(SimplicialComplex, "dual", broken)
        result = run_suite("dual", trials=20, max_vertices=5, seed=5)
        only_second = 0
        for trial in result.trials[1:]:
            rng = random.Random(trial.seed)
            ground = range(1, rng.randint(1, 5) + 1)
            K1 = random_complex(rng, ground)
            K2 = random_complex(rng, ground)
            if _dual_failure(K1) is not None or _dual_failure(K2) is None:
                continue
            only_second += 1
            lines = trial.counterexample.splitlines()
            at = lines.index("first:"), lines.index("second:")
            first, second = (
                parse_document("\n".join(l[2:] for l in lines[a + 1:a + 3])).complex()
                for a in at
            )
            assert first == K1, trial.seed
            assert _dual_failure(second) == lines[0], trial.seed
        assert only_second


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


def _use_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)


def _record_forks(monkeypatch, fail_from=None):
    # the pids of the children forked, with every fork from call number
    # ``fail_from`` on refused as when the system runs out of processes
    real = os.fork
    calls, pids = [], []

    def fork():
        calls.append(None)
        if fail_from is not None and len(calls) > fail_from:
            raise OSError("planted: no more processes")
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork, raising=False)
    return pids


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


class TestFanOut:
    """The trials are the same whatever number of cores runs them."""

    @needs_fork
    @pytest.mark.parametrize("seed", [3, 8])
    def test_every_core_count_gives_the_same_trials(self, monkeypatch, seed):
        runs = []
        for cores in (1, 2, 3):
            _use_cores(monkeypatch, cores)
            forked = _record_forks(monkeypatch)
            runs.append({name: run_suite(name, trials=t, max_vertices=mv, seed=seed).trials
                         for name, (t, mv) in SMOKE.items()})
            assert len(forked) == (cores - 1) * len(SMOKE)
        assert runs[0] == runs[1] == runs[2]
        _assert_no_child_left()

    @needs_fork
    def test_a_planted_fault_reaches_the_children(self, monkeypatch):
        # the golden record's dual-drops-facet fault, planted before the
        # call, fails trials on every residue with the same counterexamples
        real = SimplicialComplex.dual

        def broken(self, ambient):
            d = real(self, ambient)
            if len(d.faces) > 1:
                f = max(d.facets())
                return SimplicialComplex(d.ground, frozenset(d.faces - {f}))
            return d

        monkeypatch.setattr(SimplicialComplex, "dual", broken)
        runs = []
        for cores in (1, 2, 3):
            _use_cores(monkeypatch, cores)
            runs.append(run_suite("dual", trials=20, max_vertices=5, seed=5))
        failed = {t.seed - _subseed(5, 0) for t in runs[0].failures}
        assert {i % 2 for i in failed} == {0, 1} and {i % 3 for i in failed} == {0, 1, 2}
        assert runs[0] == runs[1] == runs[2]

    @needs_fork
    def test_closing_the_generator_leaves_no_child(self, monkeypatch):
        _use_cores(monkeypatch, 3)
        forked = _record_forks(monkeypatch)
        trials = suite_trials("dual")
        first = [next(trials) for _ in range(5)]
        assert len(forked) == 2
        trials.close()
        _assert_no_child_left()
        assert [t.seed for t in first] == [_subseed(0, i) for i in range(5)]

    def test_closing_the_trials_closes_the_fan_out(self, monkeypatch):
        # the test holds the fan-out generator, so dropping the trial stream
        # cannot close it: only the stream's own close can
        streams = []

        def fan_out(count, job):
            def stream():
                yield from map(job, range(count))
            streams.append(stream())
            return streams[-1]

        monkeypatch.setattr(verify, "_fan_out", fan_out)
        trials = suite_trials("dual")
        assert next(trials).seed == _subseed(0, 0)
        assert inspect.getgeneratorstate(streams[0]) == inspect.GEN_SUSPENDED
        trials.close()
        assert inspect.getgeneratorstate(streams[0]) == inspect.GEN_CLOSED

    @needs_fork
    def test_a_killed_run_leaves_no_child(self):
        # the CLI run in its own session, its first process killed after
        # 1 s: a thread in each child ends it within 0.1 s, mid-trial (one
        # trial here can take 18 s), so the whole group is gone within 3 s.
        # It outlived the kill by 6.6 s and more when nothing in the
        # children watched their parent
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        run = subprocess.Popen(
            [sys.executable, "-m", "polyprod.cli", "verify", "complement",
             "--max-vertices", "16", "--trials", "2000", "--seed", "3"],
            stdout=subprocess.DEVNULL, env=env, start_new_session=True)
        time.sleep(1)
        run.kill()
        run.wait()
        deadline = time.monotonic() + 3
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.killpg(run.pid, 0)
                time.sleep(0.05)
            os.killpg(run.pid, signal.SIGKILL)  # leave nothing behind when it fails

    @needs_fork
    def test_a_child_that_dies_fails_the_run_naming_its_trial(self, monkeypatch):
        # every child dies on the first trial it claims; this process takes
        # its own trials slowly, so the children claim some before it is done
        parent, here = os.getpid(), []

        def check(rng, i, max_vertices):
            if os.getpid() != parent:
                os._exit(1)
            here.append(i)
            time.sleep(0.05)
            return None

        monkeypatch.setitem(SUITES, "dies", SuiteSpec(check, 20, 1))
        _use_cores(monkeypatch, 3)
        with _deadline(30), pytest.raises(RuntimeError, match=r"trial (\d+) \(seed \1\)") as e:
            run_suite("dies")
        lost = int(re.search(r"trial (\d+)", str(e.value)).group(1))
        assert lost not in here
        _assert_no_child_left()

    @needs_fork
    @pytest.mark.parametrize("trials", [0, 1, 2, 63, 64, 65, 1001])
    def test_every_chunking_gives_the_same_trials(self, monkeypatch, trials):
        # on two cores (64 chunks) up to 64 trials make one-trial chunks, and
        # 65 and 1001 (1002 with the dual census) multi-trial ones with a
        # shorter last chunk; every planted trial fails with a text drawn from
        # its own rng, so a trial run in the wrong chunk or slot shows
        def check(rng, i, max_vertices):
            return f"trial {i} drew {rng.random()}"

        monkeypatch.setitem(SUITES, "echo", SuiteSpec(check, 0, 1))
        runs = []
        for cores in (1, 2, 3):
            _use_cores(monkeypatch, cores)
            runs.append([run_suite(name, trials=trials, max_vertices=5, seed=4).trials
                         for name in ("echo", "dual")])
        assert runs[0] == runs[1] == runs[2]
        assert len(runs[0][0]) == trials and len(runs[0][1]) == trials + 1
        _assert_no_child_left()

    @needs_fork
    @pytest.mark.parametrize("count", [0, 1, 2, 63, 64, 65, 1001])
    def test_the_fan_out_yields_every_result_in_order(self, monkeypatch, count):
        # results that are not None and that marshal carries, as counters
        # sent back with each chunk would be
        def job(i):
            return (i, i * i)

        for cores in (1, 2, 3):
            _use_cores(monkeypatch, cores)
            forked = _record_forks(monkeypatch)
            assert list(_fan_out(count, job)) == [job(i) for i in range(count)]
            assert len(forked) == max(1, min(cores, count)) - 1
        _assert_no_child_left()

    @needs_fork
    def test_a_slow_trial_leaves_the_others_to_the_free_process(self, monkeypatch):
        def check(rng, i, max_vertices):
            if i == 0:
                time.sleep(0.3)
            return f"pid {os.getpid()}"

        monkeypatch.setitem(SUITES, "slow", SuiteSpec(check, 200, 1))
        _use_cores(monkeypatch, 2)
        trials = run_suite("slow").trials
        ran = Counter(t.counterexample for t in trials)
        slow = trials[0].counterexample
        assert len(ran) == 2
        assert ran[slow] < len(trials) - ran[slow], ran

    @needs_fork
    def test_no_generator_state_passes_between_trials(self, monkeypatch):
        # trial i draws i numbers and odd trials then raise; on one core and
        # on two, each trial's draws are those of a generator made fresh
        # from its own seed, whatever the trials before it drew or raised
        def check(rng, i, max_vertices):
            drawn = [rng.random() for _ in range(i)]
            if i % 2:
                raise ValueError(f"drew {drawn}")
            return f"drew {drawn}"

        monkeypatch.setitem(SUITES, "draws", SuiteSpec(check, 70, 1))
        for cores in (1, 2):
            _use_cores(monkeypatch, cores)
            for i, t in enumerate(run_suite("draws", seed=6).trials):
                fresh = random.Random(_subseed(6, i))
                drawn = [fresh.random() for _ in range(i)]
                raised = "check raised ValueError: " if i % 2 else ""
                assert t.counterexample == f"{raised}drew {drawn}", (cores, i)
        _assert_no_child_left()

    @pytest.mark.parametrize("fail_from", [0, 1])
    def test_a_refused_fork_runs_its_trials_here(self, monkeypatch, fail_from):
        _use_cores(monkeypatch, 1)
        want = run_suite("slice-dual", trials=12, max_vertices=5, seed=2)
        _use_cores(monkeypatch, 3)
        forked = _record_forks(monkeypatch, fail_from)
        got = run_suite("slice-dual", trials=12, max_vertices=5, seed=2)
        assert len(forked) == fail_from
        assert got == want
        assert [t.seed for t in got.trials] == [_subseed(2, i) for i in range(12)]
