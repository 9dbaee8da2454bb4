"""Plain-text documents describing complexes.

A document is a handful of ``key: value`` lines with JSON values:

    ground: [1,2,3]
    facets: [[1,2],[2,3]]

``blocks`` may appear between the two to record a partition of the ground
into consecutive runs (used by composition commands).  ``facets: []`` is
the void complex and ``facets: [[]]`` the complex whose only face is the
empty set.
"""

from __future__ import annotations

import json

from ._record import Record
from .complexes import SimplicialComplex, mask_of, vertices_of

_KEYS = ("ground", "blocks", "facets")


class ComplexDocument(Record):
    _fields = __slots__ = ("ground", "facets", "blocks")

    def __init__(self, ground: tuple[int, ...], facets: tuple[tuple[int, ...], ...],
                 blocks: tuple[int, ...] | None = None):
        if list(ground) != sorted(set(ground)):
            raise ValueError("ground must list distinct vertices in increasing order")
        if any(v < 1 for v in ground):
            raise ValueError("vertex labels must be positive")
        if blocks is not None:
            if any(b < 1 for b in blocks):
                raise ValueError("block sizes must be positive")
            if sum(blocks) != len(ground):
                raise ValueError("block sizes must sum to the ground size")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "blocks", blocks)

    def complex(self) -> SimplicialComplex:
        return SimplicialComplex.from_facets(mask_of(self.ground), self.facets)

    def block_grounds(self) -> list[int]:
        """Masks of the consecutive runs of ground vertices, per block."""
        if self.blocks is None:
            raise ValueError("document has no blocks line")
        out, i = [], 0
        for b in self.blocks:
            out.append(mask_of(self.ground[i:i + b]))
            i += b
        return out

    def render(self) -> str:
        lines = [f"ground: {json.dumps(list(self.ground), separators=(',', ':'))}"]
        if self.blocks is not None:
            lines.append(
                f"blocks: {json.dumps(list(self.blocks), separators=(',', ':'))}"
            )
        lines.append(
            f"facets: {json.dumps([list(f) for f in self.facets], separators=(',', ':'))}"
        )
        return "\n".join(lines) + "\n"


def _is_int_list(value) -> bool:
    # JSON true/false parse to bool, a subclass of int; they are not labels
    return isinstance(value, list) and all(type(v) is int for v in value)


def parse_document(text: str) -> ComplexDocument:
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key: value', got {raw!r}")
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            fields[key] = json.loads(value)
        except ValueError as e:  # JSONDecodeError, or an integer past the digit limit
            raise ValueError(f"line {lineno}: bad JSON value for {key!r}: {e}") from e
        except RecursionError:
            raise ValueError(
                f"line {lineno}: JSON value for {key!r} is nested too deeply"
            ) from None
    if "ground" not in fields:
        raise ValueError("document is missing the ground line")
    if "facets" not in fields:
        raise ValueError("document is missing the facets line")
    ground = fields["ground"]
    facets = fields["facets"]
    if not _is_int_list(ground):
        raise ValueError("ground must be a JSON list of integers")
    if not isinstance(facets, list) or not all(_is_int_list(f) for f in facets):
        raise ValueError("facets must be a JSON list of integer lists")
    blocks = fields.get("blocks")
    if blocks is not None and not _is_int_list(blocks):
        raise ValueError("blocks must be a JSON list of integers")
    return ComplexDocument(
        ground=tuple(ground),
        facets=tuple(tuple(f) for f in facets),
        blocks=tuple(blocks) if blocks is not None else None,
    )


def document_of(K: SimplicialComplex, blocks=None) -> ComplexDocument:
    facets = tuple(tuple(vertices_of(f)) for f in K.facets())
    return ComplexDocument(
        ground=tuple(vertices_of(K.ground)),
        facets=facets,
        blocks=tuple(blocks) if blocks is not None else None,
    )
