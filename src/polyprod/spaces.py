"""Point-set and sphere-pair models of polyhedral products.

Two kinds of model live here.  Finite set models make the purely
set-theoretic identities (complementation, substitution, ghost
factorization) checkable by exhaustive enumeration of tuples: the product
of a complex K with pairs (X_k, A_k) of finite sets is the union over faces
tau of the products taking X_k at positions in tau and A_k elsewhere.

Sphere-pair models compute the homology a moment-angle style space would
have, purely symbolically from the slice homology tables of K: a pair
(r_k, q_k) stands for the sphere pair (S^(r_k+1), S^(q_k)), every slice
class at internal degree d of the pair (sigma, omega) contributes in total
degree d + t with t = sum over sigma of (r_k+1) plus sum over omega of q_k,
and single faces contribute "hat" classes at their t.  No triangulation of
the product space is ever built.
"""

from __future__ import annotations

from itertools import product

from ._record import Record
from .abelian import FgAbelianGroup, GradedGroup
from .complexes import (
    SimplicialComplex,
    _bits_of,
    _positions,
    polyhedral_complex,
    submasks,
    vertices_of,
)
from .hochster import hochster_table, slice_duality_mismatches


class FiniteSpacePair(Record):
    """A finite set with a distinguished (possibly empty) subset."""

    _fields = __slots__ = ("points", "sub")

    def __init__(self, points: frozenset, sub: frozenset):
        if not sub <= points:
            raise ValueError("the subspace must be a subset of the space")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "sub", sub)

    @classmethod
    def of(cls, points, sub) -> "FiniteSpacePair":
        return cls(frozenset(points), frozenset(sub))

    def complement(self) -> "FiniteSpacePair":
        return FiniteSpacePair(self.points, self.points - self.sub)


def finite_product(K: SimplicialComplex, pairs) -> frozenset:
    """Union over faces of K of the mixed products of the pair sets.

    ``pairs[i]`` belongs to the i-th smallest ground vertex.  The result is
    a set of tuples; it is empty when K is void, and an empty X_k empties
    everything it touches.
    """
    pairs = list(pairs)
    bits = _positions(K.ground, pairs, "pairs for the ground of K")
    out = set()
    for tau in K.faces:
        sets = [
            sorted(p.points) if tau & b else sorted(p.sub)
            for p, b in zip(pairs, bits)
        ]
        out.update(product(*sets))
    return frozenset(out)


class Verdict(Record):
    _fields = __slots__ = ("ok", "detail")

    def __init__(self, ok: bool, detail: str = ""):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


def _set_verdict(what: str, lhs: frozenset, rhs: frozenset) -> Verdict:
    if lhs == rhs:
        return Verdict(True)
    return Verdict(False, f"{what} mismatch at {sorted(map(repr, lhs ^ rhs))[:3]}")


def complement_identity_check(K: SimplicialComplex, pairs) -> Verdict:
    """Complement of the product inside the full product of the X_k.

    The complement of the K-product must equal the product of the Alexander
    dual of K (relative to K's ground) with the complemented pairs.
    """
    pairs = list(pairs)
    full = frozenset(product(*[sorted(p.points) for p in pairs]))
    lhs = full - finite_product(K, pairs)
    dual = K.dual(K.ground)
    rhs = finite_product(dual, [p.complement() for p in pairs])
    return _set_verdict("complement", lhs, rhs)


def substitution_identity_check(K: SimplicialComplex, inner, leaf_pairs) -> Verdict:
    """Two-level products agree with the product over the composition.

    ``inner`` lists a simplicial pair (X_k, A_k) per ground vertex of K, on
    disjoint blocks; ``leaf_pairs`` lists a finite pair per block vertex (in
    increasing label order across the union of the blocks).  Substituting
    the finite products of the inner pairs into K must match the finite
    product of the polyhedral complex of K over the leaves directly.
    """
    inner = list(inner)
    leaf_pairs = list(leaf_pairs)
    composed = polyhedral_complex(K, inner)
    leaf_of = dict(zip(
        _positions(composed.ground, leaf_pairs, "leaf pairs"), leaf_pairs
    ))
    outer_pairs = []
    for x, a in inner:
        leaves = [leaf_of[b] for b in _bits_of(x.ground)]
        outer_pairs.append(
            FiniteSpacePair(
                frozenset(finite_product(x, leaves)),
                frozenset(finite_product(a, leaves)),
            )
        )
    lhs_nested = finite_product(K, outer_pairs)
    lhs = frozenset(
        tuple(c for part in tup for c in part) for tup in lhs_nested
    )
    rhs = finite_product(composed, leaf_pairs)
    return _set_verdict("substitution", lhs, rhs)


def factorization_identity_check(K: SimplicialComplex, pairs) -> Verdict:
    """Positions with empty subspace factor out through a link.

    With S the set of positions whose pair has empty subspace, the product
    over K equals the product over the link of S (on the remaining
    positions) times the full spaces X_k at positions of S, and is empty
    when S is not a face.
    """
    pairs = list(pairs)
    bits = _positions(K.ground, pairs, "pairs for the ground of K")
    core_positions = [i for i, p in enumerate(pairs) if p.sub]
    cone_positions = [i for i, p in enumerate(pairs) if not p.sub]
    s_mask = sum(bits[i] for i in cone_positions)
    lhs = finite_product(K, pairs)
    link = K.link(s_mask)
    core = finite_product(link, [pairs[i] for i in core_positions])
    cones = [sorted(pairs[i].points) for i in cone_positions]
    rhs = set()
    for core_tup in core:
        for cone_tup in product(*cones):
            full = [None] * len(pairs)
            for i, c in zip(core_positions, core_tup):
                full[i] = c
            for i, c in zip(cone_positions, cone_tup):
                full[i] = c
            rhs.add(tuple(full))
    return _set_verdict("factorization", lhs, frozenset(rhs))


# ---------------------------------------------------------------------------
# sphere-pair homology ledgers

class SpherePairSystem(Record):
    """One (r_k, q_k) parameter pair per position: the pair (S^(r+1), S^q)."""

    _fields = __slots__ = ("params",)

    def __init__(self, params: tuple[tuple[int, int], ...]):
        for r, q in params:
            # bool is an int subclass, and a float passes the range check
            if type(r) is not int or type(q) is not int:
                raise ValueError(
                    f"sphere parameters must be integers, got ({r!r}, {q!r})"
                )
            if not (0 <= q <= r):
                raise ValueError(
                    f"sphere parameters need 0 <= q <= r, got (r, q) = ({r}, {q})"
                )
        object.__setattr__(self, "params", params)

    @classmethod
    def of(cls, *params) -> "SpherePairSystem":
        return cls(tuple((r, q) for r, q in params))

    @property
    def total_degree(self) -> int:
        return sum(r + 1 for r, _ in self.params)

    def complement(self) -> "SpherePairSystem":
        return SpherePairSystem(tuple((r, r - q) for r, q in self.params))

    def shift_of(self, bits, sigma: int, omega: int) -> int:
        # bits[i] is the ground bit of the position carrying params[i]
        t = 0
        for (r, q), b in zip(self.params, bits):
            if sigma & b:
                t += r + 1
            elif omega & b:
                t += q
        return t


class LedgerEntry(Record):
    """One contribution: 'hat', 'bar' or 'hat_rel' (listed for moment-angle only)."""

    _fields = __slots__ = ("kind", "sigma", "omega", "shift", "source_degree", "group",
                           "degree")

    def __init__(self, kind: str, sigma: int, omega: int | None, shift: int,
                 source_degree: int, group: FgAbelianGroup, degree: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "source_degree", source_degree)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "degree", degree)


class SpaceHomologyReport(Record):
    _fields = __slots__ = ("hat", "bar", "total", "ledger")

    def __init__(self, hat: GradedGroup, bar: GradedGroup, total: GradedGroup,
                 ledger: tuple[LedgerEntry, ...]):
        object.__setattr__(self, "hat", hat)
        object.__setattr__(self, "bar", bar)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "ledger", ledger)

    def entries(self, kind: str):
        return [e for e in self.ledger if e.kind == kind]


def sphere_pair_homology(K: SimplicialComplex,
                         system: SpherePairSystem) -> SpaceHomologyReport:
    """Homology ledger of the sphere-pair product space over K.

    Hat classes: one Z per face sigma of K at degree t(sigma) (the sum of
    r_k + 1 over sigma).  Bar classes: every internal-degree-d class of the
    slice table entry at (sigma, omega) with nonempty omega lands in degree
    d + t(sigma, omega).  The ledger also records, as 'hat_rel' entries,
    the classes of the pair (ambient product, space) attached to non-faces;
    they are listed for the ``moment-angle`` output and enter no total.
    """
    bits = _positions(K.ground, system.params, "sphere pairs")
    z1 = FgAbelianGroup(1)
    ledger = []
    hat: dict[int, FgAbelianGroup] = {}
    for sigma in sorted(K.faces):
        t = system.shift_of(bits, sigma, 0)
        hat[t] = hat[t].direct_sum(z1) if t in hat else z1
        ledger.append(LedgerEntry("hat", sigma, None, t, 0, z1, t))
    # descending, the order in which moment-angle prints the hat_rel entries
    for sigma in reversed(submasks(K.ground)):
        if sigma not in K.faces:
            t = system.shift_of(bits, sigma, 0)
            ledger.append(LedgerEntry("hat_rel", sigma, None, t, 0, z1, t))
    bar: dict[int, FgAbelianGroup] = {}
    for (sigma, omega), g in hochster_table(K).nonzero_items():
        if not omega:
            continue
        t = system.shift_of(bits, sigma, omega)
        for d, grp in g.groups:
            tot = d + t
            bar[tot] = bar[tot].direct_sum(grp) if tot in bar else grp
            ledger.append(LedgerEntry("bar", sigma, omega, t, d, grp, tot))
    hat_g = GradedGroup.from_dict(hat)
    bar_g = GradedGroup.from_dict(bar)
    return SpaceHomologyReport(
        hat=hat_g,
        bar=bar_g,
        total=hat_g.direct_sum(bar_g),
        ledger=tuple(ledger),
    )


def sphere_pair_duality_check(K: SimplicialComplex,
                              system: SpherePairSystem) -> Verdict:
    """Entrywise and face-level duality between a space and its complement.

    The complement space lives over the Alexander dual of K with parameters
    (r_k, r_k - q_k).  Checks on each call:

    * every bar entry of K at (sigma, omega), internal degree d, matches the
      complement's cohomology bar entry at (complement sigma, omega) in
      internal degree |omega| - d - 1;
    * the dual is closed downward in its ground, so that its table exists;
    * hats pair one to one with the complement's 'hat_rel' classes under
      sigma -> complement of sigma: K and its dual D have 2^n faces between
      them, and the complement of no face of K is a face of D.

    The entries and the count imply the last, so it is not checked.  Were
    sigma a face of K with G - sigma in D (G the ground), then for each v
    outside sigma the dual slice at (G - sigma - v, {v}) would be a point,
    D being closed, so K's entry at (sigma, {v}) would be zero and
    sigma + v a face of K with G - sigma - v in D.  By induction K would
    be the full simplex with the empty face in D, failing the count.

    Paired bar degrees then sum to r - 1 and paired hat degrees to r for
    every K (r the sum of r_k + 1), so the assembled gradings are not
    compared per call; ``TestLedgerDegreeIdentities`` and
    ``TestAssembledBarDuality`` in ``tests/test_spaces.py`` pin both.
    """
    bits = _positions(K.ground, system.params, "sphere pairs")
    dual = K.dual(K.ground)
    try:
        co_dual = hochster_table(dual, cohomology=True)
    except ValueError as e:
        # a family that is not closed downward is no dual and has no table
        return Verdict(False, f"dual slice table refused: {e}")
    for sigma, omega, (d, lhs, rhs) in slice_duality_mismatches(
        hochster_table(K), co_dual
    ):
        return Verdict(
            False,
            f"bar entry mismatch at sigma={list(vertices_of(sigma))} "
            f"omega={list(vertices_of(omega))} degree {d}: {lhs} vs {rhs}",
        )
    if len(K.faces) + len(dual.faces) != 1 << len(bits):
        return Verdict(False, "hat and relative-hat counts differ")
    return Verdict(True)
