"""Golden record of command line output on a fixed set of documents.

Each recorded run is a ``## `` header naming the command with its document
names, an ``exit`` line with the exit code, and the lines written to
standard output; the record is compared byte for byte.  The documents cover
a 6-vertex complex with torsion, its 7-vertex cone, a complex on the
gapped ground [2,5,9,11] and a dual taken relative to a ghost vertex.

Regenerate the record only when a change is meant to alter CLI output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from polyprod.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

RP2_FACETS = (
    "[[1,2,5],[1,2,6],[1,3,4],[1,3,6],[1,4,5],"
    "[2,3,4],[2,3,5],[2,4,6],[3,5,6],[4,5,6]]"
)

DOCUMENTS = {
    "rp2.doc": f"ground: [1,2,3,4,5,6]\nfacets: {RP2_FACETS}\n",
    "cone-rp2.doc": (
        "ground: [1,2,3,4,5,6,7]\nfacets: "
        "[[1,2,5,7],[1,2,6,7],[1,3,4,7],[1,3,6,7],[1,4,5,7],"
        "[2,3,4,7],[2,3,5,7],[2,4,6,7],[3,5,6,7],[4,5,6,7]]\n"
    ),
    "gapped.doc": (
        "ground: [2,5,9,11]\nfacets: [[2,5],[2,9],[5,9],[5,11],[9,11]]\n"
    ),
    "tri.doc": "ground: [1,2,3]\nfacets: [[1,2],[1,3],[2,3]]\n",
    "s0.doc": "ground: [1,2]\nfacets: [[1],[2]]\n",
    "edge.doc": "ground: [1,2,3]\nfacets: [[1,2],[3]]\n",
    "full2.doc": "ground: [1,2]\nfacets: [[1,2]]\n",
}

# argv per run; a word ending in .doc names one of DOCUMENTS
RUNS = [
    *(
        ["homology", doc, *flags]
        for doc in ("rp2.doc", "cone-rp2.doc", "gapped.doc")
        for flags in ([], ["--coeff", "p:2"], ["--coeff", "q"], ["--cohomology"])
    ),
    *(
        ["hochster", doc, *flags]
        for doc in ("rp2.doc", "cone-rp2.doc", "gapped.doc")
        for flags in ([], ["--coeff", "p:2"], ["--cohomology"])
    ),
    ["moment-angle", "rp2.doc", "--pairs", "1:0,1:1,2:0,2:1,3:2,1:0"],
    ["moment-angle", "gapped.doc", "--pairs", "1:0,2:1,0:0,2:2"],
    ["compose", "tri.doc", "s0.doc", "tri.doc", "edge.doc"],
    ["compose", "s0.doc", "tri.doc", "edge.doc", "full2.doc", "s0.doc",
     "--pairs", "general"],
    ["dual", "tri.doc", "--relative-to", "1,2,3,4"],
    ["dual", "gapped.doc", "--relative-to", "2,5,7,9,11"],
]


def _run(docdir: Path, argv: list[str]) -> list[str]:
    real = [str(docdir / a) if a.endswith(".doc") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(real)
    return [f"## {' '.join(argv)}", f"exit {code}", *out.getvalue().splitlines()]


def record() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        docdir = Path(tmp)
        for name, text in DOCUMENTS.items():
            (docdir / name).write_text(text, encoding="utf-8")
        lines = []
        for argv in RUNS:
            lines.extend(_run(docdir, argv))
        return lines


def _golden_runs() -> dict[str, list[str]]:
    runs: dict[str, list[str]] = {}
    current = None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            current = runs.setdefault(line, [line])
        else:
            current.append(line)
    return runs


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv))
def test_output_matches_the_record(argv, tmp_path):
    for name, text in DOCUMENTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    lines = _run(tmp_path, argv)
    assert lines == _golden_runs()[lines[0]]


def test_record_lists_every_run_once():
    assert list(_golden_runs()) == [f"## {' '.join(argv)}" for argv in RUNS]


if __name__ == "__main__":
    out = record()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(out) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(out)} lines to {GOLDEN}\n")
