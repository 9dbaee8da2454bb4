"""Document parsing and the command line front end (golden outputs)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyprod.cli as cli
import polyprod.spaces as spaces
import polyprod.verify as verify
from polyprod.cli import main
from polyprod.complexes import SimplicialComplex, mask_of, vertices_of
from polyprod.documents import ComplexDocument, document_of, parse_document
from polyprod.hochster import index_pairs
from polyprod.verify import SuiteSpec

TRI_DOC = "ground: [1,2,3]\nfacets: [[1,2],[1,3],[2,3]]\n"
S0_DOC = "ground: [1,2]\nfacets: [[1],[2]]\n"
RP2_DOC = (
    "ground: [1,2,3,4,5,6]\n"
    "facets: [[1,2,5],[1,2,6],[1,3,4],[1,3,6],[1,4,5],"
    "[2,3,4],[2,3,5],[2,4,6],[3,5,6],[4,5,6]]\n"
)
CONE_RP2_DOC = (
    "ground: [1,2,3,4,5,6,7]\n"
    "facets: [[1,2,5,7],[1,2,6,7],[1,3,4,7],[1,3,6,7],[1,4,5,7],"
    "[2,3,4,7],[2,3,5,7],[2,4,6,7],[3,5,6,7],[4,5,6,7]]\n"
)


class TestParseDocument:
    def test_round_trip(self):
        doc = parse_document(TRI_DOC)
        assert doc.render() == TRI_DOC
        assert parse_document(doc.render()) == doc

    def test_blocks_round_trip(self):
        text = "ground: [1,2,3]\nblocks: [2,1]\nfacets: [[1,2],[3]]\n"
        doc = parse_document(text)
        assert doc.blocks == (2, 1)
        assert doc.render() == text
        assert doc.ground == (1, 2, 3) and doc.facets == ((1, 2), (3,))

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# a triangle boundary\n\nground: [1,2,3]\n\nfacets: [[1,2],[1,3],[2,3]]\n"
        assert parse_document(text).complex() == parse_document(TRI_DOC).complex()

    def test_void_and_empty_face_spellings(self):
        void = parse_document("ground: [1,2]\nfacets: []\n").complex()
        assert void.is_void
        single = parse_document("ground: [1]\nfacets: [[]]\n").complex()
        assert single.faces == frozenset({0})

    def test_error_line_numbers(self):
        with pytest.raises(ValueError, match="line 2: unknown key 'foo'"):
            parse_document("ground: [1]\nfoo: 3\nfacets: []\n")
        with pytest.raises(ValueError, match="line 1: expected 'key: value'"):
            parse_document("ground [1]\n")
        with pytest.raises(ValueError, match="line 3: duplicate key 'facets'"):
            parse_document("ground: [1]\nfacets: []\nfacets: []\n")
        with pytest.raises(ValueError, match="line 1: bad JSON value for 'ground'"):
            parse_document("ground: [1,\nfacets: []\n")

    def test_missing_lines(self):
        with pytest.raises(ValueError, match="missing the ground line"):
            parse_document("facets: []\n")
        with pytest.raises(ValueError, match="missing the facets line"):
            parse_document("ground: [1]\n")

    def test_type_validation(self):
        with pytest.raises(ValueError, match="list of integers"):
            parse_document('ground: "x"\nfacets: []\n')
        with pytest.raises(ValueError, match="integer lists"):
            parse_document("ground: [1]\nfacets: [1]\n")
        with pytest.raises(ValueError, match="blocks"):
            parse_document("ground: [1]\nblocks: [[1]]\nfacets: []\n")

    def test_document_validation(self):
        with pytest.raises(ValueError, match="increasing order"):
            ComplexDocument(ground=(2, 1), facets=())
        with pytest.raises(ValueError, match="positive"):
            ComplexDocument(ground=(0, 1), facets=())
        with pytest.raises(ValueError, match="sum to the ground size"):
            ComplexDocument(ground=(1, 2), facets=(), blocks=(1,))
        with pytest.raises(ValueError, match="block sizes must be positive"):
            ComplexDocument(ground=(1,), facets=(), blocks=(0, 1))

    def test_labels_above_two_to_the_25_are_refused(self):
        top = 2**25
        assert ComplexDocument(ground=(1, top), facets=((1, top),)).ground == (1, top)
        with pytest.raises(ValueError, match=rf"at most 2\*\*25 = {top}, got {top + 1}$"):
            ComplexDocument(ground=(1, top + 1), facets=())
        with pytest.raises(ValueError, match=rf"got {top + 1}$"):
            ComplexDocument(ground=(1,), facets=((1,), (top + 1,)))

    def test_document_of_round_trips_through_facets(self):
        K = parse_document(RP2_DOC).complex()
        doc = document_of(K)
        assert doc.complex() == K
        K2 = SimplicialComplex.void(mask_of([1, 2]))
        assert document_of(K2).render() == "ground: [1,2]\nfacets: []\n"


@pytest.fixture
def docdir(tmp_path):
    (tmp_path / "tri.doc").write_text(TRI_DOC)
    (tmp_path / "s0.doc").write_text(S0_DOC)
    (tmp_path / "rp2.doc").write_text(RP2_DOC)
    (tmp_path / "cone-rp2.doc").write_text(CONE_RP2_DOC)
    (tmp_path / "emptyface.doc").write_text("ground: [1]\nfacets: [[]]\n")
    (tmp_path / "void.doc").write_text("ground: [1,2]\nfacets: []\n")
    (tmp_path / "full2.doc").write_text("ground: [1,2]\nfacets: [[1,2]]\n")
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliDual:
    def test_triangle_boundary(self, docdir, capsys):
        code, out, err = run_cli(capsys, "dual", str(docdir / "tri.doc"))
        assert code == 0 and err == ""
        assert out == "ground: [1,2,3]\nfacets: [[]]\n"

    def test_relative_ambient(self, docdir, capsys):
        code, out, _ = run_cli(
            capsys, "dual", str(docdir / "tri.doc"), "--relative-to", "1,2,3,4"
        )
        assert code == 0
        assert out == "ground: [1,2,3,4]\nfacets: [[4],[1,2,3]]\n"

    def test_bad_ambient_vertex(self, docdir, capsys):
        code, out, err = run_cli(
            capsys, "dual", str(docdir / "tri.doc"), "--relative-to", "1,x"
        )
        assert code == 2 and out == ""
        assert err == "error: bad vertex 'x' in '1,x'\n"


class TestCliHomology:
    def test_triangle_boundary(self, docdir, capsys):
        code, out, _ = run_cli(capsys, "homology", str(docdir / "tri.doc"))
        assert code == 0 and out == "d1: Z\n"

    def test_projective_plane_coefficient_systems(self, docdir, capsys):
        path = str(docdir / "rp2.doc")
        assert run_cli(capsys, "homology", path)[1] == "d1: Z/2\n"
        # field ranks always carry an exponent
        assert run_cli(capsys, "homology", path, "--coeff", "p:2")[1] == (
            "d1: Z^1\nd2: Z^1\n"
        )
        assert run_cli(capsys, "homology", path, "--coeff", "q")[1] == "0\n"
        assert run_cli(capsys, "homology", path, "--cohomology")[1] == "d2: Z/2\n"

    def test_field_rank_rendering(self, docdir, capsys):
        out = run_cli(capsys, "homology", str(docdir / "tri.doc"), "--coeff", "q")[1]
        assert out == "d1: Z^1\n"

    def test_degenerate_complexes(self, docdir, capsys):
        assert run_cli(capsys, "homology", str(docdir / "emptyface.doc"))[1] == "d-1: Z\n"
        assert run_cli(capsys, "homology", str(docdir / "void.doc"))[1] == "0\n"


class TestCliCompose:
    def test_composition_mode(self, docdir, capsys):
        code, out, _ = run_cli(
            capsys, "compose", str(docdir / "tri.doc"),
            str(docdir / "s0.doc"), str(docdir / "s0.doc"), str(docdir / "s0.doc"),
        )
        assert code == 0
        assert out == (
            "ground: [1,2,3,4,5,6]\n"
            "blocks: [2,2,2]\n"
            "facets: [[1,2,3,4,5],[1,2,3,4,6],[1,2,3,5,6],"
            "[1,2,4,5,6],[1,3,4,5,6],[2,3,4,5,6]]\n"
        )

    def test_single_empty_face_outer_returns_the_factor(self, docdir, capsys):
        one = docdir / "k1empty.doc"
        one.write_text("ground: [1]\nfacets: [[]]\n")
        code, out, _ = run_cli(capsys, "compose", str(one), str(docdir / "s0.doc"))
        assert code == 0
        assert out == "ground: [1,2]\nblocks: [2]\nfacets: [[1],[2]]\n"

    def test_void_outer_gives_void_product(self, docdir, capsys):
        one = docdir / "k1void.doc"
        one.write_text("ground: [1]\nfacets: []\n")
        code, out, _ = run_cli(capsys, "compose", str(one), str(docdir / "s0.doc"))
        assert code == 0
        assert out == "ground: [1,2]\nblocks: [2]\nfacets: []\n"

    def test_general_pairs_mode(self, docdir, capsys):
        code, out, _ = run_cli(
            capsys, "compose", str(docdir / "s0.doc"), "--pairs", "general",
            str(docdir / "full2.doc"), str(docdir / "s0.doc"),
            str(docdir / "full2.doc"), str(docdir / "s0.doc"),
        )
        assert code == 0
        assert out == (
            "ground: [1,2,3,4]\n"
            "blocks: [2,2]\n"
            "facets: [[1,2,3],[1,2,4],[1,3,4],[2,3,4]]\n"
        )

    def test_general_mode_needs_document_pairs(self, docdir, capsys):
        code, _, err = run_cli(
            capsys, "compose", str(docdir / "s0.doc"), "--pairs", "general",
            str(docdir / "full2.doc"),
        )
        assert code == 2
        assert "X document and an A document" in err

    def test_general_mode_grounds_must_match(self, docdir, capsys):
        code, _, err = run_cli(
            capsys, "compose", str(docdir / "s0.doc"), "--pairs", "general",
            str(docdir / "full2.doc"), str(docdir / "emptyface.doc"),
            str(docdir / "full2.doc"), str(docdir / "s0.doc"),
        )
        assert code == 2
        assert "share one ground" in err


class TestCliHochster:
    def test_full_table(self, docdir, capsys):
        code, out, _ = run_cli(capsys, "hochster", str(docdir / "tri.doc"))
        assert code == 0
        assert out == (
            "sigma={} omega={} d0: Z\n"
            "sigma={1} omega={} d0: Z\n"
            "sigma={2} omega={} d0: Z\n"
            "sigma={1,2} omega={} d0: Z\n"
            "sigma={3} omega={} d0: Z\n"
            "sigma={1,3} omega={} d0: Z\n"
            "sigma={2,3} omega={} d0: Z\n"
            "sigma={2,3} omega={1} d0: Z\n"
            "sigma={1,3} omega={2} d0: Z\n"
            "sigma={3} omega={1,2} d1: Z\n"
            "sigma={1,2} omega={3} d0: Z\n"
            "sigma={2} omega={1,3} d1: Z\n"
            "sigma={1} omega={2,3} d1: Z\n"
            "sigma={} omega={1,2,3} d2: Z\n"
        )

    def test_single_pair(self, docdir, capsys):
        code, out, _ = run_cli(
            capsys, "hochster", str(docdir / "tri.doc"), "--pairs", "1,2:3"
        )
        assert code == 0 and out == "sigma={1,2} omega={3} d0: Z\n"

    def test_cohomology_pair_with_torsion(self, docdir, capsys):
        code, out, _ = run_cli(
            capsys, "hochster", str(docdir / "rp2.doc"),
            "--pairs", ":1,2,3,4,5,6", "--cohomology",
        )
        assert code == 0
        assert out == "sigma={} omega={1,2,3,4,5,6} d3: Z/2\n"

    def test_field_entries_use_exponents(self, docdir, capsys):
        code, out, _ = run_cli(
            capsys, "hochster", str(docdir / "rp2.doc"),
            "--pairs", ":1,2,3,4,5,6", "--coeff", "p:2",
        )
        assert code == 0
        assert out == (
            "sigma={} omega={1,2,3,4,5,6} d2: Z^1\n"
            "sigma={} omega={1,2,3,4,5,6} d3: Z^1\n"
        )

    @pytest.mark.parametrize("flags", [[], ["--coeff", "p:2"], ["--cohomology"]],
                             ids=["Z", "GF2", "cohomology"])
    def test_every_pair_requested_prints_the_full_table(self, docdir, capsys, flags):
        # requested pairs slice each pair by the definition, the full table
        # takes the walk: asked for all 2,187 pairs in table order, both
        # print the same lines
        doc = str(docdir / "cone-rp2.doc")
        pairs = ";".join(
            ",".join(map(str, vertices_of(sigma))) + ":"
            + ",".join(map(str, vertices_of(omega)))
            for sigma, omega in index_pairs(mask_of(range(1, 8))))
        assert pairs.count(";") == 2186
        code, every, _ = run_cli(capsys, "hochster", doc, *flags)
        assert code == 0 and every
        code, asked, _ = run_cli(capsys, "hochster", doc, "--pairs", pairs, *flags)
        assert code == 0 and asked == every

    def test_full_simplex_has_only_empty_omega_lines(self, docdir, capsys):
        code, out, _ = run_cli(capsys, "hochster", str(docdir / "full2.doc"))
        assert code == 0
        assert out == (
            "sigma={} omega={} d0: Z\n"
            "sigma={1} omega={} d0: Z\n"
            "sigma={2} omega={} d0: Z\n"
            "sigma={1,2} omega={} d0: Z\n"
        )

    def test_void_complex_prints_nothing(self, docdir, capsys):
        code, out, _ = run_cli(capsys, "hochster", str(docdir / "void.doc"))
        assert code == 0 and out == ""

    def test_bad_pair_syntax(self, docdir, capsys):
        code, _, err = run_cli(
            capsys, "hochster", str(docdir / "tri.doc"), "--pairs", "1,2-3"
        )
        assert code == 2
        assert "must look like sigma:omega" in err

    def test_no_pairs_given(self, docdir, capsys):
        code, out, err = run_cli(
            capsys, "hochster", str(docdir / "tri.doc"), "--pairs", ";"
        )
        assert code == 2 and out == ""
        assert err == "error: no pairs given\n"


class TestCliMomentAngle:
    def test_empty_face_oracle(self, docdir, capsys):
        code, out, _ = run_cli(
            capsys, "moment-angle", str(docdir / "emptyface.doc"), "--pairs", "1:0"
        )
        assert code == 0
        assert out == (
            "hat:\n  d0: Z\n"
            "bar:\n  d0: Z\n"
            "total:\n  d0: Z^2\n"
            "ledger:\n"
            "  hat sigma={} -> d0\n"
            "  hat_rel sigma={1} -> d2\n"
            "  bar sigma={} omega={1} t=0 d0: Z -> d0\n"
        )

    def test_two_point_oracle(self, docdir, capsys):
        code, out, _ = run_cli(
            capsys, "moment-angle", str(docdir / "s0.doc"), "--pairs", "1:0,1:0"
        )
        assert code == 0
        assert out == (
            "hat:\n  d0: Z\n  d2: Z^2\n"
            "bar:\n  d1: Z\n  d2: Z^2\n"
            "total:\n  d0: Z\n  d1: Z\n  d2: Z^4\n"
            "ledger:\n"
            "  hat sigma={} -> d0\n"
            "  hat sigma={1} -> d2\n"
            "  hat sigma={2} -> d2\n"
            "  hat_rel sigma={1,2} -> d4\n"
            "  bar sigma={2} omega={1} t=2 d0: Z -> d2\n"
            "  bar sigma={1} omega={2} t=2 d0: Z -> d2\n"
            "  bar sigma={} omega={1,2} t=0 d1: Z -> d1\n"
        )

    def test_void_complex_sections_fall_back_to_zero(self, docdir, capsys):
        code, out, _ = run_cli(
            capsys, "moment-angle", str(docdir / "void.doc"), "--pairs", "1:0,2:1"
        )
        assert code == 0
        assert out.startswith("hat:\n  0\nbar:\n  0\ntotal:\n  0\nledger:\n")
        assert "hat_rel sigma={} -> d0" in out

    def test_parameter_count_checked(self, docdir, capsys):
        code, _, err = run_cli(
            capsys, "moment-angle", str(docdir / "tri.doc"), "--pairs", "1:0"
        )
        assert code == 2 and "expected 3 sphere pairs" in err

    def test_bad_pair_syntax(self, docdir, capsys):
        code, _, err = run_cli(
            capsys, "moment-angle", str(docdir / "tri.doc"), "--pairs", "1-0"
        )
        assert code == 2 and "must look like r:q" in err

    def test_no_sphere_pairs_given(self, docdir, capsys):
        code, out, err = run_cli(
            capsys, "moment-angle", str(docdir / "tri.doc"), "--pairs", ","
        )
        assert code == 2 and out == ""
        assert err == "error: no sphere pairs given\n"

    def test_bad_integers(self, docdir, capsys):
        code, out, err = run_cli(
            capsys, "moment-angle", str(docdir / "s0.doc"), "--pairs", "a:b"
        )
        assert code == 2 and out == ""
        assert err == "error: bad integers in sphere pair 'a:b'\n"


class TestCliVerify:
    def test_small_run_reports_trials(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "dual", "--trials", "2")
        assert code == 0
        assert out == (
            "TRIAL 0 dual PASS\n"
            "TRIAL 1 dual PASS\n"
            "TRIAL 2 dual PASS\n"
            "suite dual: 3 trials, 0 failures\n"
        )

    def test_seed_changes_subseeds(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "slice-dual", "--trials", "1", "--seed", "3"
        )
        assert out.splitlines()[0] == "TRIAL 3000009 slice-dual PASS"

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        def fake(rng, i, max_vertices):
            return "planted counterexample"

        monkeypatch.setitem(verify.SUITES, "always-fail", SuiteSpec(fake, 1, 1))
        code, out, _ = run_cli(capsys, "verify", "always-fail")
        assert code == 1
        assert out == (
            "TRIAL 0 always-fail FAIL\n"
            "  planted counterexample\n"
            "suite always-fail: 1 trials, 1 failures\n"
        )

    def test_lines_stream_as_the_report_reads(self, capsys, monkeypatch):
        real_print = cli._print
        printed = []
        heard = []

        def fake(rng, i, max_vertices):
            # on one core each trial runs only once the one before it is printed
            heard.append(len(printed))
            return f"planted {i}\nground: [1]" if i in (0, 2, 5) else None

        def recording(lines):
            printed.append(list(lines))
            real_print(lines)

        monkeypatch.setitem(verify.SUITES, "streamed", SuiteSpec(fake, 7, 1))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli, "_print", recording)
        code, out, _ = run_cli(capsys, "verify", "streamed", "--seed", "40")
        assert code == 1
        assert heard == list(range(7))
        report = verify.run_suite("streamed", seed=40).report_lines()
        assert out == "\n".join(report) + "\n"
        assert report[-1] == "suite streamed: 7 trials, 3 failures"

    def test_raising_check_is_a_failed_trial(self, capsys, monkeypatch):
        def broken(K, pairs):
            raise ValueError("planted")

        monkeypatch.setattr(spaces, "finite_product", broken)
        code, out, err = run_cli(capsys, "verify", "complement", "--trials", "3")
        assert code == 1 and err == ""
        assert out.splitlines() == [
            "TRIAL 0 complement FAIL",
            "  check raised ValueError: planted",
            "TRIAL 1 complement FAIL",
            "  check raised ValueError: planted",
            "TRIAL 2 complement FAIL",
            "  check raised ValueError: planted",
            "suite complement: 3 trials, 3 failures",
        ]

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nosuch")
        assert code == 2 and "unknown suite 'nosuch'" in err

    @pytest.mark.parametrize("suite", ["dual", "alexander"])
    def test_oversized_max_vertices_exit_two_before_any_trial(self, suite):
        # in a child process, so that a trial run by mistake at 26 vertices
        # shows as a timeout, not as this process running out of memory
        run = run_cli_process("verify", suite, "--max-vertices", "26",
                              "--trials", "20", "--seed", "1")
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == "error: max vertices must be at most 16, got 26\n"


class TestCliErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "homology", "missing.doc")
        assert code == 2
        assert err.startswith("error: cannot read missing.doc")

    def test_bad_coefficient_specs(self, docdir, capsys):
        path = str(docdir / "tri.doc")
        code, _, err = run_cli(capsys, "homology", path, "--coeff", "p:6")
        assert code == 2 and "must be prime" in err
        code, _, err = run_cli(capsys, "homology", path, "--coeff", "f2")
        assert code == 2 and "coefficients must be z, q or p:<prime>" in err
        code, _, err = run_cli(capsys, "homology", path, "--coeff", "p:x")
        assert code == 2 and "bad prime" in err

    def test_parse_errors_name_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.doc"
        bad.write_text("ground: [1]\n")
        code, _, err = run_cli(capsys, "homology", str(bad))
        assert code == 2
        assert "bad.doc: document is missing the facets line" in err

    def test_boolean_labels_are_rejected(self, tmp_path, capsys):
        # JSON true/false parse to Python bools, which are ints
        cases = {
            "ground: [true,2]\nfacets: [[true,2]]\n": "ground must be a JSON list of integers",
            "ground: [1,2]\nfacets: [[1,false]]\n": "facets must be a JSON list of integer lists",
            "ground: [1,2]\nblocks: [true,1]\nfacets: [[1,2]]\n": "blocks must be a JSON list of integers",
        }
        for text, message in cases.items():
            bad = tmp_path / "bool.doc"
            bad.write_text(text)
            code, out, err = run_cli(capsys, "homology", str(bad))
            assert code == 2 and out == ""
            assert err == f"error: {bad}: {message}\n"


def run_cli_process(*argv):
    """Run the CLI as a child process under a 20 s timeout."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "polyprod.cli", *argv],
        capture_output=True, text=True, timeout=20, env=env,
    )


class TestCliSharedParser:
    """The parser is built once per process; no call leaks into the next."""

    def test_back_to_back_calls_match_fresh_runs(self, docdir, capsys):
        runs = [
            ("homology", "rp2.doc", "--cohomology", "--coeff", "p:2"),
            ("homology", "rp2.doc"),
            ("dual", "tri.doc", "--relative-to", "1,2,3,4"),
            ("dual", "tri.doc"),
            ("homology", "rp2.doc", "--coeff", "p:4"),
            ("hochster", "s0.doc", "--pairs", "1:2", "--cohomology"),
            ("hochster", "s0.doc"),
            ("homology", "rp2.doc", "--coeff", "q"),
        ]
        for argv in runs:
            argv = [str(docdir / a) if a.endswith(".doc") else a for a in argv]
            fresh = run_cli_process(*argv)
            got = run_cli(capsys, *argv)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert cli._build_parser() is cli._build_parser()


class TestCliLargeLabels:
    """A label is a bit position; work must not grow with its size."""

    @pytest.mark.parametrize("command, expected", [
        ("homology", "d1: Z"),
        ("dual", "facets: [[]]"),
        ("hochster", "sigma={20000000} omega={1,2} d1: Z"),
    ], ids=["homology", "dual", "hochster"])
    def test_huge_label_finishes(self, tmp_path, command, expected):
        doc = tmp_path / "far.doc"
        doc.write_text(
            "ground: [1,2,20000000]\n"
            "facets: [[1,2],[1,20000000],[2,20000000]]\n"
        )
        done = run_cli_process(command, str(doc))
        assert done.returncode == 0, done.stderr
        assert expected in done.stdout.splitlines()


class TestCliHugeLabel:
    """A label past 2**25 is refused before any mask is built."""

    @pytest.mark.parametrize("command", ["homology", "dual", "hochster"])
    def test_label_of_ten_to_the_eighteen_exits_two(self, tmp_path, command):
        doc = tmp_path / "huge.doc"
        doc.write_text("ground: [1,2,1000000000000000000]\n"
                       "facets: [[1,2],[1,1000000000000000000]]\n")
        done = run_cli_process(command, str(doc))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            f"error: {doc}: vertex labels must be at most 2**25 = 33554432, "
            "got 1000000000000000000\n"
        )

    @pytest.mark.parametrize("flag, value", [
        ("--relative-to", "1,2,3,1000000000000000000"),
        ("--pairs", "1000000000000000000:1,2"),
    ], ids=["dual", "hochster"])
    def test_flag_label_of_ten_to_the_eighteen_exits_two(self, docdir, flag, value):
        command = "dual" if flag == "--relative-to" else "hochster"
        done = run_cli_process(command, str(docdir / "tri.doc"), flag, value)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "error: vertex labels must be at most 2**25 = 33554432, "
            f"got 1000000000000000000 in {value.split(':')[0]!r}\n"
        )


class TestCliWideGround:
    """A slice walks the subsets of omega inside the link support only."""

    def test_slice_over_thirty_vertices_finishes(self, tmp_path):
        labels = ",".join(str(v) for v in range(1, 31))
        doc = tmp_path / "wide.doc"
        doc.write_text(f"ground: [{labels}]\nfacets: [[1,2],[1,3],[2,3]]\n")
        done = run_cli_process("hochster", str(doc), "--pairs", f":{labels}")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [f"sigma={{}} omega={{{labels}}} d2: Z"]


class TestCliLargeCharacteristic:
    """Primality is checked by trial division, so the prime is bounded first."""

    def test_huge_prime_fails_fast(self, docdir):
        done = run_cli_process(
            "homology", str(docdir / "tri.doc"), "--coeff", "p:1000000000000000003"
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "error: field characteristic must be below 2**31, "
            "got 1000000000000000003\n"
        )


class TestCliDeeplyNestedDocument:
    """A value nested past the JSON decoder's recursion limit is a bad document."""

    @pytest.mark.parametrize("command", ["homology", "dual", "hochster"])
    def test_deep_facets_line_exits_two(self, tmp_path, command):
        doc = tmp_path / "deep.doc"
        doc.write_text("ground: [1]\nfacets: " + "[" * 100_000 + "]" * 100_000 + "\n")
        done = run_cli_process(command, str(doc))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            f"error: {doc}: line 2: JSON value for 'facets' is nested too deeply\n"
        )


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no integer digit limit")
class TestCliOverlongIntegerLabel:
    """A label past the interpreter's integer digit limit is a bad document."""

    @pytest.mark.parametrize("command", ["homology", "dual", "hochster"])
    def test_long_ground_label_names_line_and_key(self, tmp_path, command):
        doc = tmp_path / "long.doc"
        doc.write_text("# one label of 5,000 digits\nground: [" + "7" * 5000 + "]\n"
                       "facets: [[]]\n")
        done = run_cli_process(command, str(doc))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith(
            f"error: {doc}: line 2: bad JSON value for 'ground': "
        ), done.stderr
