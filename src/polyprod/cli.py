"""Command line front end.

Commands operate on complex documents (see :mod:`polyprod.documents`) and
print deterministic text: identical inputs and flags give byte-identical
output.  Exit codes: 0 success, 1 a verification suite failed, 2 input
error (bad documents, bad flags, violated preconditions).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .complexes import (
    composition_complex,
    embed_on_blocks,
    mask_of,
    polyhedral_complex,
    vertices_of,
)
from .documents import MAX_LABEL, ComplexDocument, document_of, parse_document
from .homology import GF, RATIONALS, reduced_cohomology, reduced_homology
from .hochster import hochster_table
from .spaces import SpherePairSystem, sphere_pair_homology
from .verify import SUITES, SuiteResult, TrialLog, suite_trials


def _read_document(path: str) -> ComplexDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from e
    try:
        return parse_document(text)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def _parse_vertex_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            v = int(part)
        except ValueError:
            raise ValueError(f"bad vertex {part!r} in {text!r}") from None
        if v > MAX_LABEL:  # the documents' cap, before any mask is built
            raise ValueError(f"vertex labels must be at most 2**25 = {MAX_LABEL}, "
                             f"got {v} in {text!r}")
        out.append(v)
    return out


def _parse_coeff(text: str):
    if text == "z":
        return None
    if text == "q":
        return RATIONALS
    if text.startswith("p:"):
        try:
            p = int(text[2:])
        except ValueError:
            raise ValueError(f"bad prime in coefficient spec {text!r}") from None
        return GF(p)
    raise ValueError(f"coefficients must be z, q or p:<prime>, got {text!r}")


def _mask_text(mask: int) -> str:
    return "{" + ",".join(str(v) for v in vertices_of(mask)) + "}"


def _graded_lines(g, indent: str = "", explicit_rank: bool = False) -> list[str]:
    lines = g.render_lines(explicit_rank=explicit_rank)
    if not lines:
        return [indent + "0"]
    return [indent + l for l in lines]


def _print(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n" if lines else "")


# ---------------------------------------------------------------------------
# commands

def _cmd_dual(args) -> int:
    doc = _read_document(args.path)
    K = doc.complex()
    if args.relative_to is not None:
        amb = mask_of(_parse_vertex_list(args.relative_to))
    else:
        amb = K.ground
    dual = K.dual(amb)
    sys.stdout.write(document_of(dual).render())
    return 0


def _cmd_homology(args) -> int:
    K = _read_document(args.path).complex()
    coeff = _parse_coeff(args.coeff)
    if args.cohomology:
        g = reduced_cohomology(K, coeff)
    else:
        g = reduced_homology(K, coeff)
    # field ranks always carry an exponent, so the two modes stay distinct
    _print(_graded_lines(g, explicit_rank=coeff is not None))
    return 0


def _cmd_compose(args) -> int:
    outer = _read_document(args.path)
    K = outer.complex()
    docs = [_read_document(p) for p in args.factors]
    if args.pairs == "general":
        if len(docs) % 2 != 0:
            raise ValueError(
                "general mode expects an X document and an A document per factor"
            )
        xs = [d.complex() for d in docs[0::2]]
        asub = [d.complex() for d in docs[1::2]]
        for x, a in zip(xs, asub):
            if x.ground != a.ground:
                raise ValueError(
                    "each X and A document pair must share one ground"
                )
        placed_x = embed_on_blocks(xs)
        placed_a = embed_on_blocks(asub)
        pairs = list(zip(placed_x, placed_a))
        result = polyhedral_complex(K, pairs)
        sizes = [x.n_vertices for x in xs]
    else:
        locals_ = [d.complex() for d in docs]
        placed = embed_on_blocks(locals_)
        result = composition_complex(K, placed)
        sizes = [L.n_vertices for L in locals_]
    sys.stdout.write(document_of(result, blocks=sizes).render())
    return 0


def _parse_hochster_pairs(text: str):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sigma_text, sep, omega_text = chunk.partition(":")
        if not sep:
            raise ValueError(
                f"pair {chunk!r} must look like sigma:omega, e.g. 1,2:3"
            )
        pairs.append((
            mask_of(_parse_vertex_list(sigma_text)),
            mask_of(_parse_vertex_list(omega_text)),
        ))
    if not pairs:
        raise ValueError("no pairs given")
    return pairs


def _cmd_hochster(args) -> int:
    K = _read_document(args.path).complex()
    coeff = _parse_coeff(args.coeff)
    pairs = None if args.pairs == "all" else _parse_hochster_pairs(args.pairs)
    table = hochster_table(K, coeff, pairs=pairs, cohomology=args.cohomology)
    # each mask is rendered once, however many lines share it, and each
    # entry once, by identity: the table holds one object for many pairs
    mask_text = functools.cache(_mask_text)
    tails: dict[int, list[str]] = {}
    lines = []
    for (sigma, omega), g in table.nonzero_items():
        tail = tails.get(id(g))
        if tail is None:
            tail = tails[id(g)] = [f"d{d}: {grp.render(coeff is not None)}"
                                   for d, grp in g.groups]
        head = f"sigma={mask_text(sigma)} omega={mask_text(omega)} "
        lines += [head + t for t in tail]
    _print(lines)
    return 0


def _parse_sphere_pairs(text: str) -> SpherePairSystem:
    params = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        r_text, sep, q_text = chunk.partition(":")
        if not sep:
            raise ValueError(f"sphere pair {chunk!r} must look like r:q")
        try:
            params.append((int(r_text), int(q_text)))
        except ValueError:
            raise ValueError(f"bad integers in sphere pair {chunk!r}") from None
    if not params:
        raise ValueError("no sphere pairs given")
    return SpherePairSystem.of(*params)


def _cmd_moment_angle(args) -> int:
    K = _read_document(args.path).complex()
    system = _parse_sphere_pairs(args.pairs)
    report = sphere_pair_homology(K, system)
    lines = ["hat:"]
    lines += _graded_lines(report.hat, "  ")
    lines.append("bar:")
    lines += _graded_lines(report.bar, "  ")
    lines.append("total:")
    lines += _graded_lines(report.total, "  ")
    lines.append("ledger:")
    for e in report.ledger:
        if e.kind == "bar":
            lines.append(
                f"  bar sigma={_mask_text(e.sigma)} omega={_mask_text(e.omega)} "
                f"t={e.shift} d{e.source_degree}: {e.group.render()} -> "
                f"d{e.degree}"
            )
        else:
            lines.append(f"  {e.kind} sigma={_mask_text(e.sigma)} -> d{e.degree}")
    _print(lines)
    return 0


def _cmd_verify(args) -> int:
    # each trial's lines go out as it is read, and the log keeps the
    # failures, so memory grows with failures, not trials
    log = TrialLog(args.suite)
    for t in suite_trials(args.suite, args.trials, args.max_vertices, args.seed):
        _print(t.lines())
        log.append(t)
    result = SuiteResult(args.suite, log)
    _print([result.summary()])
    return 0 if result.ok else 1


# ---------------------------------------------------------------------------

@functools.cache  # built once per process; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyprod",
        description="Exact combinatorics and homology of polyhedral product complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="Alexander dual of a complex document")
    p.add_argument("path", help="complex document file")
    p.add_argument(
        "--relative-to",
        help="comma separated ambient vertex list (default: the document ground)",
    )
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("homology", help="reduced homology of a complex document")
    p.add_argument("path", help="complex document file")
    p.add_argument("--coeff", default="z", help="z (integers), q, or p:<prime>")
    p.add_argument("--cohomology", action="store_true",
                   help="report reduced cohomology instead")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser(
        "compose",
        help="polyhedral product of an outer complex with factor documents",
    )
    p.add_argument("path", help="outer complex document (one vertex per factor)")
    p.add_argument("factors", nargs="+",
                   help="factor documents on local grounds 1..n_k")
    p.add_argument("--pairs", choices=("delta", "general"), default="delta",
                   help="delta: factors are the L_k of (simplex, L_k) pairs; "
                        "general: alternating X and A documents")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("hochster", help="bigraded slice homology table")
    p.add_argument("path", help="complex document file")
    p.add_argument("--pairs", default="all",
                   help="all, or pairs like '1,2:3;4:' (sigma:omega, ; separated)")
    p.add_argument("--coeff", default="z", help="z (integers), q, or p:<prime>")
    p.add_argument("--cohomology", action="store_true",
                   help="tabulate slice cohomology instead")
    p.set_defaults(func=_cmd_hochster)

    p = sub.add_parser(
        "verify", help="run one randomized structural verification suite"
    )
    p.add_argument("suite", help="suite name: " + ", ".join(sorted(SUITES)))
    p.add_argument("--trials", type=int, default=None,
                   help="number of trials (default: suite specific)")
    p.add_argument("--max-vertices", type=int, default=None,
                   help="largest ground size to generate (default: suite specific)")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "moment-angle",
        help="graded homology ledger of a sphere-pair product space",
    )
    p.add_argument("path", help="complex document file")
    p.add_argument("--pairs", required=True,
                   help="sphere parameters 'r1:q1,r2:q2,...', one per vertex")
    p.set_defaults(func=_cmd_moment_angle)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
