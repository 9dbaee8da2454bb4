"""Bigraded slice homology tables and the combinatorial duality witness.

For a complex K on a ground set, the table entry at a disjoint pair
(sigma, omega) holds the reduced homology of the slice K_{sigma,omega}
(the link of sigma restricted to omega), stored in the internal grading
where degree d carries reduced degree d-1.  A table keeps only its nonzero
entries, by face of K, and lists its pairs as they are read.  The duality
witness realizes,
at chain level, the isomorphism between the slice homology of K and the
complementary-degree slice cohomology of the Alexander dual: the signed
bijection eta -> omega minus eta between non-faces of the slice and faces
of the dual slice, with the sign of the shuffle putting sorted(eta) before
sorted(omega minus eta).  It checks a pair on windows of two face bitsets
read once per complex and its dual, and builds the signed map only when
read.

Over all pairs a table computes no slice that holds a cone point of the
link: a vertex v of the link support lying in every facet above sigma.
Each face of such a slice extends by v inside it, so the slice is a cone
with apex v and its entry is zero over Z and every field, for homology and
cohomology (the simplest vanishing in Hochster's formula; a dominated
vertex in the sense of Barmak and Minian).  The facets above sigma are
read off only for a family closed downward in its ground; any other
family keeps the full sweep and is refused exactly where it was before.
The rule pays on cones, joins with a simplex, compositions with simplex
boundaries and dense duals (rp2 joined with a tetrahedron: 0.07-0.09 to
0.01-0.02 s on a 2-core Xeon VM); it does not on a random 12-vertex
complex or on the dual of rp2*rp2, where it skips 5% and 18% of the
slices and the time stays within the noise.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

from .abelian import GradedGroup, tensor_additive
from .complexes import (
    CLOSURE_BITSET_RATIO,
    SimplicialComplex,
    _as_mask,
    _bitset_masks,
    _bits_of,
    _code_bitset,
    _codes_closed,
    _codes_over,
    _expand,
    _link_support,
    _move_faces,
    _positions,
    _require_in_ground,
    composition_complex,
    submasks,
    vertices_of,
)
from .homology import FieldCoeff, homology_of_faces, reduced_homology


def index_pairs(ground) -> list[tuple[int, int]]:
    """All disjoint (sigma, omega) pairs in base-3 counter order.

    The smallest ground vertex is the least significant digit; digit 1 puts
    a vertex in sigma, digit 2 in omega.
    """
    pairs = [(0, 0)]
    for b in reversed(_bits_of(_as_mask(ground))):
        pairs = [(s | x, w | y) for s, w in pairs
                 for x, y in ((0, 0), (b, 0), (0, b))]
    return pairs


def _pair_stream(ground: int):
    # index_pairs(ground) one pair at a time, from the pairs of the low and
    # of the high half of the ground's vertices: 2 * 3^(n/2) pairs held
    bits = _bits_of(ground)
    low = index_pairs(sum(bits[:len(bits) // 2]))
    for hs, hw in index_pairs(sum(bits[len(bits) // 2:])):
        for ls, lw in low:
            yield hs | ls, hw | lw


def _pair_rank(ground: int):
    # the position of a pair in index_pairs(ground): the codes of sigma and
    # omega over the ground, read as base-3 numerals, are its 1 and 2 digits
    def rank(pair):
        sigma, omega = _codes_over(pair, ground)
        return int(f"{sigma:b}", 3) + 2 * int(f"{omega:b}", 3)
    return rank


_ZERO = GradedGroup()


class BigradedTable:
    """Slice homology groups of one complex, stored by face.

    ``links`` maps a face sigma of K to its link support S (the vertices v
    outside sigma with sigma + v a face) and the nonzero entries at
    (sigma, w) for w inside S, by w.  The entry at (sigma, omega) is the
    one at (sigma, omega & S), and zero when sigma is not a face: the
    slice at omega has the faces of the slice at omega & S.  ``pairs`` is
    None for a table over every disjoint pair of the ground, in the base-3
    order of :func:`index_pairs`, or the requested pairs in their order.
    """

    def __init__(self, ground: int, links, cohomology: bool = False, pairs=None):
        self.ground = ground
        self.links = links
        self.cohomology = cohomology
        self.pairs = pairs
        self._pair_set = None if pairs is None else frozenset(pairs)

    def _at(self, sigma: int, omega: int) -> GradedGroup:
        link = self.links.get(sigma)
        return _ZERO if link is None else link[1].get(omega & link[0], _ZERO)

    def entry(self, sigma, omega) -> GradedGroup:
        key = (_as_mask(sigma), _as_mask(omega))
        if self._pair_set is None:
            held = not key[0] & key[1] and not (key[0] | key[1]) & ~self.ground
        else:
            held = key in self._pair_set
        if not held:
            raise KeyError(f"pair {key} is not in the table")
        return self._at(*key)

    def items(self) -> "_TableItems":
        """Every (pair, entry) in table order, built as it is read."""
        return _TableItems(self)

    def _nonzero(self):
        # the nonzero (pair, entry) items in no particular order; over all
        # pairs, each stored (sigma, w) stands for (sigma, w + x) with x
        # any set of vertices outside sigma and its link support
        if self.pairs is not None:
            return [(p, g) for p, g in self.items() if g.groups]
        out = []
        for sigma, (support, found) in self.links.items():
            if found:
                rest = submasks(self.ground & ~sigma & ~support)
                out += [((sigma, w | x), g) for w, g in found.items() for x in rest]
        return out

    def nonzero_items(self) -> tuple:
        """The nonzero (pair, entry) items, in table order."""
        items = self._nonzero()
        if self.pairs is None:
            rank = _pair_rank(self.ground)
            items.sort(key=lambda item: rank(item[0]))
        return tuple(items)


class _TableItems:
    """A sized view of a table's items: each entry is looked up as it is read."""

    def __init__(self, table: BigradedTable):
        self._table = table

    def __len__(self) -> int:
        t = self._table
        return 3 ** t.ground.bit_count() if t.pairs is None else len(t.pairs)

    def __iter__(self):
        t = self._table
        at = t._at
        for pair in _pair_stream(t.ground) if t.pairs is None else t.pairs:
            yield pair, at(*pair)


def _slice_bitsets(faces, sigma: int, subsets) -> list[int]:
    """The slices of a face sigma at each of ``subsets``, as bitsets.

    ``subsets`` is ``submasks(span)`` of some span.  Entry c is the slice
    at (sigma, omega), omega the subset of code c: bit i is set when the
    subset of code i of omega is in the slice.  The set bits are the codes
    of the slice's faces, which :func:`homology_of_faces` takes as they
    are.  Entry c starts as the flag of sigma + omega being a face; the
    pass for code bit j then appends, in place, to each omega holding the
    vertex v of that bit, the slice of sigma + v at omega - v after the
    slice of sigma there.  A span of k vertices costs k 2^(k-1)
    big-integer steps in all, where listing each slice's codes one by one
    costs 3^k.
    """
    bitsets = [sigma | e in faces for e in subsets]
    size = len(bitsets)
    shifts = [1]  # entry o: 2^|o|, the shift at offset o of a run of the pass
    h = 1  # the code bit of the pass
    while h < size:
        step = 2 * h
        # the codes with bit h set come as size / step runs of h codes; the
        # pass goes run by run or, while runs outnumber their codes, by
        # offset within the runs
        if h * step <= size:
            for o, s in enumerate(shifts):
                bitsets[h + o::step] = [lo | hi << s for lo, hi in zip(
                    bitsets[o::step], bitsets[h + o::step])]
        else:
            for top in range(h, size, step):
                bitsets[top:top + h] = [lo | hi << s for lo, hi, s in zip(
                    bitsets[top - h:top], bitsets[top:top + h], shifts)]
        shifts += [s << 1 for s in shifts]
        h = step
    return bitsets


def _closed_in(faces, ground: int) -> bool:
    # whether the faces lie in ``ground`` and are closed downward: on the
    # bitset of their codes when 2^n is at most CLOSURE_BITSET_RATIO times
    # the faces, as homology._closed_star reads it, else one lookup per
    # face and vertex
    if any(f & ~ground for f in faces):
        return False
    n = ground.bit_count()
    if 1 << n <= CLOSURE_BITSET_RATIO * len(faces):
        return _codes_closed(_code_bitset(_codes_over(faces, ground), n), n)
    return all(f ^ b in faces for f in faces for b in _bits_of(f))


def hochster_table(K: SimplicialComplex, coeff: FieldCoeff | None = None,
                   pairs=None, cohomology: bool = False) -> BigradedTable:
    """Slice (co)homology table of K over all requested disjoint pairs.

    The slice at (sigma, omega) is {tau subset of omega : sigma union tau
    is a face}.  Internal grading: the entry group at degree d is reduced
    (co)homology of the slice in degree d - 1.  Slices at non-faces are
    void, giving zero entries; the entry at (sigma, empty) is Z at degree
    0 exactly when sigma is a face.

    Over all pairs the table walks the faces sigma of K, not the 3^n pairs:
    it computes the link support S of each face once and the slice at each
    w inside S (:func:`_slice_bitsets`), and keeps the nonzero entries.
    The slice at (sigma, omega) has the faces of the slice at
    (sigma, omega & S), so the two pairs share one entry.  Requested pairs
    compute only their own slices.  Each distinct slice goes to
    :func:`homology_of_faces` once, as the codes of its faces as subsets of
    w: a family on vertices 1..|w|, already in the cache's canonical form.

    The walk goes down the faces in descending mask order, so each sigma + v
    comes before sigma, and keeps the meet M(sigma) of the facets above
    sigma: sigma itself at a facet, else the AND of M(sigma + v) over v in
    S.  A vertex of S & M(sigma) is a cone point of the link; the slice at
    any w holding it is a cone on it (a face tau of the slice lies in a
    facet above sigma, which holds v, so tau + v is in the slice too), and
    its entry is zero, so only the w inside S - M(sigma) are sliced.  The
    rule needs K closed downward: that is checked once per table, on the
    bitset of the face codes or face by face (the rule of
    ``homology._closed_star``), and a family that is not closed, or has a
    face outside its ground, keeps the full sweep, so
    :func:`homology_of_faces` refuses it where it did before.  On the cone
    over rp2*rp2 (13 vertices) the table takes 2.0-2.5 s with every slice
    and 1.0 s without the cones, on a 2-core Xeon VM; on a random
    12-vertex complex or the dual of rp2*rp2 the rule skips 5% and 18% of
    the slices, and the time stays within the noise.
    """
    faces = K.faces
    ground = K.ground
    shifted: dict[int, GradedGroup] = {}

    def group(bitset: int, width: int) -> GradedGroup:
        # the entry of a slice of ``width`` vertices, by its bitset
        g = shifted.get(bitset)
        if g is None:
            key = tuple(_bitset_masks(bitset, (1 << width) - 1))
            g = shifted[bitset] = homology_of_faces(key, coeff, cohomology).shift(1)
        return g

    links: dict[int, tuple[int, dict[int, GradedGroup]]] = {}
    if pairs is None:
        # meets[sigma]: the meet of the facets above sigma, for a family
        # closed downward in its ground; each sigma + v comes before sigma
        meets = {} if _closed_in(faces, ground) else None
        for sigma in sorted(faces, reverse=True):
            support = _link_support(faces, sigma, ground & ~sigma)
            span = support
            if meets is not None:
                meet = -1
                for b in _bits_of(support):
                    meet &= meets[sigma | b]
                meets[sigma] = meet = meet if support else sigma
                span &= ~meet
            subsets = submasks(span)
            found = {}
            for w, b in zip(subsets, _slice_bitsets(faces, sigma, subsets)):
                g = group(b, w.bit_count())
                if g.groups:
                    found[w] = g
            links[sigma] = (support, found)
        return BigradedTable(ground, links, cohomology)
    pair_list = [(_as_mask(s), _as_mask(w)) for s, w in pairs]
    for s, w in pair_list:
        if s & w:
            raise ValueError("table pairs must have disjoint sides")
        _require_in_ground(ground, s | w, "pair")
    for s, w in pair_list:
        if s not in faces:
            continue
        if s not in links:
            links[s] = (_link_support(faces, s, ground & ~s), {})
        support, found = links[s]
        w &= support
        g = group(_slice_bitsets(faces, s, _expand(w))[-1], w.bit_count())
        if g.groups:
            found[w] = g
    return BigradedTable(ground, links, cohomology, tuple(pair_list))


# ---------------------------------------------------------------------------
# the chain-level duality witness

class DualityCheckError(AssertionError):
    """A structural duality identity failed to verify."""


@dataclass(frozen=True)
class DualityWitness:
    """A verified signed bijection between a slice pair and its dual.

    ``taking[d]`` maps each degree-d generator (a non-face of the slice,
    as a mask) to ``(dual face mask, sign)``, listing the generators in
    ascending mask order within each degree.  ``sign_profile[d]`` is the
    single sign by which the bijection intertwines the relative boundary
    with the dual cochain differential when passing from degree d to d-1,
    listed for each degree that has a square.  It is (-1)^d for every K,
    so no call recomputes it; ``TestWitnessIsAChainMap`` pins it.

    The check needs neither: both are built on first read from
    ``nonfaces``, the non-faces of the slice as a bitset over the codes of
    K's ground (bit t for the face of code t), and ``omega_code``, the code
    of omega there.
    """

    sigma: int
    omega: int
    nonfaces: int = field(repr=False)
    omega_code: int = field(repr=False)

    @cached_property
    def taking(self) -> tuple[tuple[int, tuple[tuple[int, tuple[int, int]], ...]], ...]:
        # each subset eta of omega, with t its code over K's ground, in
        # ascending order; its sign is that of the shuffle putting
        # sorted(eta) before sorted(omega - eta), one inversion per y in
        # omega - eta below an x in eta
        w = self.omega
        flags = format(self.nonfaces, "b").zfill(self.omega_code + 1)[::-1]
        taking: dict[int, list[tuple[int, tuple[int, int]]]] = {}
        for eta, t in zip(_expand(w), _expand(self.omega_code)):
            if flags[t] == "1":
                inversions = sum((eta & -(y << 1)).bit_count() for y in _bits_of(w ^ eta))
                taking.setdefault(eta.bit_count() - 1, []).append(
                    (eta, (w ^ eta, -1 if inversions & 1 else 1)))
        return tuple((d, tuple(items)) for d, items in sorted(taking.items()))

    @cached_property
    def sign_profile(self) -> tuple[tuple[int, int], ...]:
        # the slice is closed under subsets, so eta + v is a generator for
        # each v in omega - eta: a square runs from degree |eta| to |eta| - 1
        # for every generator but omega itself
        squares = [d + 1 for d, _ in self.taking if d + 1 < self.omega.bit_count()]
        return tuple((k, -1 if k & 1 else 1) for k in squares)

    def map_at(self, degree: int) -> dict[int, tuple[int, int]]:
        return dict(dict(self.taking).get(degree, ()))


# The face bitsets of the last (K, dual) pair that a witness read, with
# weak references to both complexes.  Keyed on identity, not on value: a
# complex equal to an earlier one may slice differently (a planted fault in
# ``slice`` must reach every call), and a weak entry keeps no complex alive
_last_windows: tuple = (None, None, 0, 0)


def _face_windows(K: SimplicialComplex, dual: SimplicialComplex) -> tuple[int, int]:
    # over the codes c of K's ground: bit c of the first is set when code c
    # is a face of K, bit c of the second when its complement is a dual
    # face, both read through ``slice`` at (empty, ground)
    global _last_windows
    k_ref, dual_ref, faces, cofaces = _last_windows
    if k_ref is not None and k_ref() is K and dual_ref() is dual:
        return faces, cofaces
    g = K.ground
    n = g.bit_count()
    top = (1 << n) - 1
    faces = _code_bitset(_codes_over(K.slice(0, g).faces, g), n)
    cofaces = _code_bitset(
        [top ^ c for c in _codes_over(dual.slice(0, g).faces, g)], n)
    _last_windows = (weakref.ref(K), weakref.ref(dual), faces, cofaces)
    return faces, cofaces


def alexander_duality_witness(K: SimplicialComplex, sigma, omega, *,
                              precomputed_dual: SimplicialComplex | None = None,
                              ) -> DualityWitness:
    """Construct and verify the chain-level duality witness at one pair.

    Checks on each call that eta -> omega minus eta is a bijection from the
    non-faces of the slice onto the faces of the dual slice (computed the
    long way round, through the Alexander dual of K relative to its
    ground; a wider ambient set is a ground with ghost vertices): the
    counts agree and every complement is a dual face.  Raises
    :class:`DualityCheckError` if either fails; requires nonempty omega.

    Both slices are windows of two bitsets over the codes of K's ground,
    read once per (K, dual) through ``K.slice`` and ``dual.slice`` at
    (empty, ground): shifted down by sigma's code and cut to the subsets of
    omega's code, they give the faces of the slice and the subsets of omega
    whose complements are dual faces, so a pair costs a few big-integer
    operations.  A sweep over the pairs of one complex reads the bitsets
    once; they cost 2^|ground| bits, however small omega is.

    Given the bijection, two identities hold for every K and are not
    checked per pair: eta - v is a generator exactly when
    (omega - eta) + v is a dual face, and the relative boundary meets the
    dual cochain differential with the sign (-1)^d from degree d to d-1.
    ``TestWitnessIsAChainMap`` in ``tests/test_hochster.py`` pins both
    against chain complexes built from their definitions.

    ``precomputed_dual`` skips recomputing the dual of K when a caller
    sweeps many pairs of one complex; it must equal ``K.dual(K.ground)``.
    """
    s = _as_mask(sigma)
    w = _as_mask(omega)
    if w == 0:
        raise ValueError("the duality witness requires a nonempty omega")
    amb = K.ground
    if s & w:
        raise ValueError("witness index sets must be disjoint")
    if (s | w) & ~amb:
        bad = vertices_of((s | w) & ~amb)[0]
        raise ValueError(f"vertex {bad} is outside the ambient set")
    dual = precomputed_dual if precomputed_dual is not None else K.dual(amb)
    if dual.ground != amb:
        raise ValueError("precomputed dual does not match the ambient set")
    faces, cofaces = _face_windows(K, dual)
    sc, wc = _codes_over((s, w), amb)
    cube = 1  # bit t for each code t inside omega's code
    for b in _bits_of(wc):
        cube |= cube << b
    in_slice = faces >> sc & cube
    hits = cofaces >> sc & cube
    nonfaces = cube ^ in_slice
    if nonfaces.bit_count() != hits.bit_count():
        raise DualityCheckError(
            "non-face count does not match the dual slice face count"
        )
    # with the counts equal, every complement of a non-face is a dual face
    # exactly when no complement of a dual face is a face
    if in_slice & hits:
        last = (nonfaces & ~hits).bit_length() - 1  # the largest such code
        missing = _move_faces(
            (last,), {1 << i: b for i, b in enumerate(_bits_of(amb))})[0]
        raise DualityCheckError(
            f"complement of {list(vertices_of(missing))} is not a dual face"
        )
    return DualityWitness(s, w, nonfaces, wc)


def slice_duality_mismatches(table: BigradedTable,
                             dual_cohomology: BigradedTable):
    """Entrywise Alexander duality between two slice tables.

    ``table`` is the homology table of K and ``dual_cohomology`` the
    cohomology table of K's dual on the same ground.  The entry at a pair
    with nonempty omega, internal degree d, must equal the dual entry at
    the complementary pair in degree |omega| - d - 1.  Yields
    ``(sigma, omega, (d, lhs, rhs))`` for each pair, in table order, where
    that fails, with d the first failing degree; nothing for a pair that
    agrees.

    Over all pairs only the pairs where either side is nonzero can fail:
    the nonzero entries of ``table`` and the complements of the nonzero
    entries of ``dual_cohomology``, sorted into table order.
    """
    g = table.ground
    if table.pairs is None:
        candidates = {p for p, _ in table._nonzero() if p[1]}
        candidates.update((g & ~(tau | omega), omega)
                          for (tau, omega), _ in dual_cohomology._nonzero() if omega)
        candidates = sorted(candidates, key=_pair_rank(g))
    else:
        candidates = [p for p in table.pairs if p[1]]
    for sigma, omega in candidates:
        lhs = table._at(sigma, omega)
        rhs = dual_cohomology.entry(g & ~(sigma | omega), omega)
        wsize = omega.bit_count()
        if lhs.groups == tuple((wsize - e - 1, grp) for e, grp in reversed(rhs.groups)):
            continue
        for d in sorted({*lhs.degrees(), *(wsize - e - 1 for e in rhs.degrees())}):
            if lhs.at(d) != rhs.at(wsize - d - 1):
                yield sigma, omega, (d, lhs.at(d), rhs.at(wsize - d - 1))
                break


def duality_group_sides(K: SimplicialComplex, sigma, omega):
    """Group-level two sides of the slice duality, on one reduced grading.

    Returns ``(lhs, rhs)`` where lhs is reduced homology of the slice at
    (sigma, omega) and rhs is reduced cohomology of the dual slice (the
    dual relative to K's ground) at the complementary pair, reindexed by
    j -> |omega| - j - 3 onto the lhs grading; the duality theorem says
    they are equal.
    """
    s = _as_mask(sigma)
    w = _as_mask(omega)
    lhs = homology_of_faces(K.slice(s, w).faces)
    sigma_tilde = K.ground & ~(s | w)
    dual = homology_of_faces(
        K.dual(K.ground).slice(sigma_tilde, w).faces, None, cohomology=True
    )
    wsize = w.bit_count()
    rhs = GradedGroup.from_dict({wsize - j - 3: g for j, g in dual.groups})
    return lhs, rhs


# ---------------------------------------------------------------------------
# composition formulas

def _block_split(mask: int, blocks) -> list[int]:
    return [mask & b for b in blocks]


def composition_homology(K: SimplicialComplex, factors,
                         coeff: FieldCoeff | None = None) -> GradedGroup:
    """Reduced homology of a composition by the tensor product formula.

    The reduced homology of the composition of K with factors L_k is the
    graded tensor of the reduced homologies of K and all L_k under the join
    degree rule.  The group is computed both ways: by the formula and by a
    direct Smith reduction of the composition; a mismatch raises
    :class:`DualityCheckError`.  Over the integers every factor must have
    torsion-free reduced homology (the tensor rule rejects torsion).
    """
    factors = list(factors)
    comp = composition_complex(K, factors)
    direct = reduced_homology(comp, coeff)
    parts = [reduced_homology(K, coeff)] + [reduced_homology(L, coeff) for L in factors]
    formula = tensor_additive(g.shift(1) for g in parts).shift(-1)
    if direct != formula:
        raise DualityCheckError(
            f"composition homology mismatch: direct {direct} vs formula {formula}"
        )
    return formula


@dataclass(frozen=True)
class PieceVerdict:
    sigma: int
    omega: int
    lhs: GradedGroup
    rhs: GradedGroup

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class PieceReport:
    """The verdicts at the pairs that could fail, in table order.

    ``pairs`` counts every disjoint pair of the composition's ground (3^N);
    at each pair without a verdict both sides are zero.
    """

    verdicts: tuple[PieceVerdict, ...]
    pairs: int

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def failures(self):
        return [v for v in self.verdicts if not v.ok]


def hochster_composition_formula(K: SimplicialComplex, factors,
                                 coeff: FieldCoeff | None = None) -> PieceReport:
    """Pairwise slice-homology reduction for a composition, fully checked.

    For every disjoint pair (sigma, omega) on the composition ground, the
    table entry of the composition must equal the tensor of the K-entry at
    the reduced pair (sigma-hat, omega-hat) with the factor entries at the
    blockwise pairs having nonempty omega part, where sigma-hat collects the
    block positions whose sigma part is not a face of its factor (and whose
    omega part is empty) and omega-hat collects positions with nonempty
    omega part.  Internal degrees add.

    Both sides are compared only where one can be nonzero: at the nonzero
    entries of the composition's table, and at the pairs where every part
    of the tensor is nonzero, built from K's nonzero entries and each
    factor's faces, non-faces and nonzero entries.  Over Z only the first
    part may have torsion and over a field none has, so a tensor of nonzero
    parts is nonzero, and at every other pair both sides are zero.

    Factors must be nonvoid.  Over the integers the factor entries must be
    torsion-free; otherwise :func:`tensor_additive` raises a ValueError
    asking for field coefficients, as at any pair that reads such an entry.
    """
    factors = list(factors)
    if any(L.is_void for L in factors):
        raise ValueError("composition factors must be nonvoid for the piece formula")
    bits = _positions(K.ground, factors, "factors for the ground of K")
    comp = composition_complex(K, factors)
    table_s = hochster_table(comp, coeff)
    table_k = hochster_table(K, coeff)
    tables_l = [hochster_table(L, coeff) for L in factors]
    # each pair over a block reads its factor's entry there, so the tensor
    # rule sees every one (the entries at an empty omega are Z in degree 0)
    for g in {g for t in tables_l for _, found in t.links.values()
              for g in found.values()}:
        tensor_additive((_ZERO, g))
    # per position: the blockwise pairs in omega-hat (nonzero entries at a
    # nonempty omega), in sigma-hat (non-faces) and in neither (faces)
    in_omega = [[p for p, _ in t._nonzero() if p[1]] for t in tables_l]
    in_sigma = [[(s, 0) for s in submasks(L.ground) if s not in L.faces]
                for L in factors]
    in_neither = [[(s, 0) for s in L.faces] for L in factors]
    candidates = {p for p, _ in table_s._nonzero()}
    for (sigma_hat, omega_hat), _ in table_k._nonzero():
        acc = [(0, 0)]
        for i, b in enumerate(bits):
            if omega_hat & b:
                choices = in_omega[i]
            elif sigma_hat & b:
                choices = in_sigma[i]
            else:
                choices = in_neither[i]
            acc = [(s | x, w | y) for s, w in acc for x, y in choices]
        candidates.update(acc)
    blocks = [L.ground for L in factors]
    # pairs share their tuples of entries, so each distinct one is tensored once
    tensors: dict[tuple[GradedGroup, ...], GradedGroup] = {}
    verdicts = []
    for sigma, omega in sorted(candidates, key=_pair_rank(comp.ground)):
        sig_parts = _block_split(sigma, blocks)
        om_parts = _block_split(omega, blocks)
        sigma_hat = 0
        omega_hat = 0
        tensor_parts = []
        for i, L in enumerate(factors):
            if om_parts[i]:
                omega_hat |= bits[i]
                tensor_parts.append(tables_l[i]._at(sig_parts[i], om_parts[i]))
            elif sig_parts[i] not in L.faces:
                sigma_hat |= bits[i]
        parts = (table_k._at(sigma_hat, omega_hat), *tensor_parts)
        rhs = tensors.get(parts)
        if rhs is None:
            rhs = tensors[parts] = tensor_additive(parts)
        verdicts.append(PieceVerdict(sigma, omega, table_s._at(sigma, omega), rhs))
    return PieceReport(tuple(verdicts), len(table_s.items()))
