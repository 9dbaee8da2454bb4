"""Generated document text through the CLI in process.

Every command that reads documents gets documents of at most 5 vertices,
most of them well formed, many with malformed lines, bad JSON values,
labels that are no vertex, stray ``blocks:`` lines and bad flag values
mixed in.  Each run must exit 0 (a result) or 2 (an input error with a
message); anything else, an uncaught exception above all, fails.  The
documents are served from memory through the CLI module's ``open``.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from polyprod import cli

# labels that are vertices, and values a label line must refuse
_LABEL = st.one_of(st.integers(1, 5), st.sampled_from([0, -1, 7, True, 2.0, "1", None]))

_BAD_JSON = st.one_of(
    st.sampled_from([
        "", "[1,", "[[1,2]", "nope", "[1 2]", '{"a": 1}', "null", "1e400",
        "NaN", "[[]", "]", "[" * 40, '"[1]"', "[[1],[2],]", "[1.5]", "[true]",
    ]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


def _json(value) -> str:
    return json.dumps(value, separators=(",", ":"))


# one line that a well-formed document does not have
_NOISE = st.one_of(
    st.builds(lambda k, v: f"{k}: {v}",
              st.sampled_from(["ground", "facets", "blocks", "faces", "Ground", ""]),
              _BAD_JSON),
    st.builds(lambda v: f"ground: {_json(v)}", st.lists(_LABEL, max_size=5)),
    st.builds(lambda v: f"facets: {_json(v)}",
              st.lists(st.lists(_LABEL, max_size=4), max_size=4)),
    st.builds(lambda v: f"blocks: {_json(v)}",
              st.lists(st.one_of(st.integers(-1, 5), st.sampled_from([True, 1.5])),
                       max_size=4)),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=15),
    st.sampled_from(["", "# a comment", "ground", ":", "facets:: []"]),
)


@st.composite
def documents(draw, most: int = 5):
    """A document on a ground inside 1..most, with noise lines mixed in,
    and the size of that ground."""
    ground = sorted(draw(st.sets(st.integers(1, most), max_size=5)))
    face = st.lists(st.sampled_from(ground), unique=True, max_size=4) if ground else st.just([])
    lines = [f"ground: {_json(ground)}", f"facets: {_json(draw(st.lists(face, max_size=5)))}"]
    if draw(st.booleans()):
        blocks = draw(st.lists(st.integers(1, 3), max_size=3))
        lines.insert(1, f"blocks: {_json(blocks)}")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    if draw(st.integers(0, 9)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"])), len(ground)


_COEFF = st.sampled_from(["z", "q", "p:2", "p:3", "p:4", "p:0", "p:x", "r"])
# vertex lists of the --relative-to and --pairs flags, with labels above the
# 2**25 cap among them
_VERTEX_TEXT = st.builds(",".join, st.lists(st.sampled_from(
    ["1", "2", "3", "5", "0", "-1", "x", "", "33554433", "1000000000000000000"]), max_size=4))


def _flags(command: str, n: int):
    # n is the ground size of the (first) document
    if command == "homology":
        return st.tuples(st.builds("--coeff={}".format, _COEFF),
                         st.sampled_from([(), ("--cohomology",)])).map(
            lambda t: [t[0], *t[1]])
    if command == "dual":
        return st.one_of(st.just([]), st.builds(lambda v: [f"--relative-to={v}"], _VERTEX_TEXT))
    if command == "hochster":
        pairs = st.one_of(
            st.just("all"),
            st.builds(";".join, st.lists(st.builds("{}:{}".format, _VERTEX_TEXT, _VERTEX_TEXT),
                                         max_size=3)),
            st.sampled_from(["1,2", ";", "1:2:3"]),
        )
        return st.tuples(st.builds("--pairs={}".format, pairs),
                         st.builds("--coeff={}".format, _COEFF),
                         st.sampled_from([(), ("--cohomology",)])).map(
            lambda t: [t[0], t[1], *t[2]])
    if command == "moment-angle":
        pair = st.one_of(st.builds("{}:{}".format, st.integers(-1, 3), st.integers(-1, 3)),
                         st.sampled_from(["1", "a:b", ""]))
        good = st.integers(0, 3).flatmap(lambda r: st.builds("{}:{}".format, st.just(r),
                                                             st.integers(0, r)))
        pairs = st.one_of(st.lists(good, min_size=n, max_size=n),
                          st.lists(st.one_of(good, pair), max_size=6))
        return st.builds(lambda ps: [f"--pairs={','.join(ps)}"], pairs)
    assert command == "compose"
    return st.sampled_from([[], ["--pairs=delta"], ["--pairs=general"]])


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refusing a flag value
            code = e.code
    if code == 2:
        assert err.getvalue().strip(), argv
    return code


@pytest.mark.parametrize("command", ["homology", "dual", "hochster", "moment-angle", "compose"])
def test_generated_documents_exit_0_or_2(command, monkeypatch):
    files = {}

    def read(path, mode="r", encoding=None):
        if path not in files:
            raise FileNotFoundError(path)
        return io.StringIO(files[path])

    monkeypatch.setattr(cli, "open", read, raising=False)
    seen = set()

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def run(data):
        text, n = data.draw(documents(3 if command == "compose" else 5))
        texts = [text]
        flags = data.draw(_flags(command, n))
        if command == "compose":
            # one factor document per outer vertex, two in general mode,
            # or a wrong count; each factor on a ground inside 1..3
            count = 2 * n if flags == ["--pairs=general"] else n
            count = data.draw(st.sampled_from([count, count, count, 1, 4]))
            texts += [data.draw(documents(3))[0] for _ in range(count)]
        files.clear()
        files.update((f"doc{j}.txt", t) for j, t in enumerate(texts))
        code = _run([command, *files, *flags])
        assert code in (0, 2), (command, texts, flags)
        seen.add(code)

    run()
    # the documents reach real work as well as input errors
    assert seen == {0, 2}
