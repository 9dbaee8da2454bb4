"""Golden record of every suite's report lines, clean and under planted faults.

A passing trial prints only its seed, so the clean runs alone say little
about the failure, shrinking and serialisation paths.  Each planted fault
breaks one library operation; together they make every suite report at
least one FAIL trial with its counterexample.  The recorded lines are
compared byte for byte.

Regenerate the record only when a change is meant to alter suite output:

    PYTHONPATH=src python tests/test_verify_golden.py
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

import polyprod.hochster as hochster
import polyprod.spaces as spaces
from polyprod.abelian import GradedGroup
from polyprod.complexes import SimplicialComplex
from polyprod.verify import SUITES, run_suite

GOLDEN = Path(__file__).parent / "data" / "verify_golden.txt"

SEEDS = (5, 31)

# (trials, max_vertices) per suite: small enough to run in seconds, large
# enough that the curated slots and several random shapes come up
COUNTS = {
    "dual": (20, 5),
    "slice-dual": (40, 6),
    "compose-slice": (30, 7),
    "compose-dual": (30, 7),
    "alexander": (6, 7),
    "composition-homology": (12, 7),
    "hochster-composition": (8, 6),
    "complement": (40, 3),
    "substitution": (30, 3),
    "sphere-duality": (10, 5),
}


def _drop_max_facet(real):
    # a complex operation that loses one maximal face of its answer
    def broken(self, *args):
        K = real(self, *args)
        if len(K.faces) > 1:
            f = max(K.facets())
            return SimplicialComplex(K.ground, frozenset(K.faces - {f}))
        return K

    return broken


def _tensor_drops_top(real):
    def broken(factors):
        g = real(factors)
        if g.is_zero:
            return g
        top = max(g.degrees())
        return GradedGroup.from_dict({d: x for d, x in g.groups if d != top})

    return broken


def _product_drops_matching_ends(real):
    # a fixed filter, so a subspace product stays inside its space product
    def broken(K, pairs):
        return frozenset(
            t for t in real(K, pairs) if len(t) < 2 or t[0] != t[-1]
        )

    return broken


FAULTS = {
    "none": None,
    "dual-drops-facet": (SimplicialComplex, "dual", _drop_max_facet),
    "slice-drops-facet": (SimplicialComplex, "slice", _drop_max_facet),
    "tensor-drops-top-degree": (hochster, "tensor_additive", _tensor_drops_top),
    "finite-product-drops-matching-ends": (
        spaces, "finite_product", _product_drops_matching_ends
    ),
}


@contextlib.contextmanager
def _planted(fault):
    spec = FAULTS[fault]
    if spec is None:
        yield
        return
    owner, attr, breaker = spec
    with mock.patch.object(owner, attr, breaker(getattr(owner, attr))):
        yield


def record(fault) -> list[str]:
    lines = []
    with _planted(fault):
        for seed in SEEDS:
            for name, (trials, mv) in COUNTS.items():
                lines.append(f"## fault {fault} seed {seed} suite {name}")
                result = run_suite(name, trials=trials, max_vertices=mv, seed=seed)
                lines.extend(result.report_lines())
    return lines


def _golden_sections() -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("# fault "):
            current = sections.setdefault(line[len("# fault "):], [])
        else:
            current.append(line)
    return sections


def test_counts_cover_every_suite():
    assert set(COUNTS) == set(SUITES)


@pytest.mark.parametrize("fault", list(FAULTS))
def test_report_lines_match_the_record(fault):
    assert record(fault) == _golden_sections()[fault]


def test_faults_fail_every_suite_with_a_counterexample():
    failing = set()
    for fault, lines in _golden_sections().items():
        if fault == "none":
            assert not any(" FAIL" in l for l in lines if l.startswith("TRIAL"))
            continue
        suite = None
        for i, line in enumerate(lines):
            if line.startswith("## "):
                suite = line.rsplit(" ", 1)[1]
            elif line.startswith("TRIAL") and line.endswith(" FAIL"):
                if i + 1 < len(lines) and lines[i + 1].startswith("  "):
                    failing.add(suite)
    assert failing == set(SUITES)


def test_alexander_failures_name_vertices_of_the_printed_complex():
    # the message is computed on the shrunk complex printed under it, so
    # every vertex list it quotes lies in that complex's ground
    checked = 0
    for lines in _golden_sections().values():
        suite = None
        for i, line in enumerate(lines):
            if line.startswith("## "):
                suite = line.rsplit(" ", 1)[1]
            elif suite == "alexander" and line.startswith("TRIAL") and line.endswith(" FAIL"):
                j = lines.index("  complex:", i)
                ground = set(json.loads(lines[j + 1].split(": ", 1)[1]))
                named = {int(v) for text in lines[i + 1:j]
                         for inner in re.findall(r"\[([^\]]*)\]", text)
                         for v in re.findall(r"\d+", inner)}
                assert named <= ground, (line, lines[i + 1:j], ground)
                checked += 1
    assert checked >= 20


if __name__ == "__main__":
    out = []
    for fault in FAULTS:
        out.append(f"# fault {fault}")
        out.extend(record(fault))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(out) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(out)} lines to {GOLDEN}\n")
