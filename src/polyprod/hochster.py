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

Over all pairs a table slices little.  It computes no slice that holds a
cone point of the link: a vertex v of the link support lying in every
facet above sigma.  Each face of such a slice extends by v inside it, so
the slice is a cone with apex v and its entry is zero over Z and every
field, for homology and cohomology (the simplest vanishing in Hochster's
formula; a dominated vertex in the sense of Barmak and Minian).  Most
other entries it reads off entries it already holds, by the reduced
Mayer-Vietoris sequence (Hatcher, Algebraic Topology, section 2.2): the
slice at (sigma, w) is the slice at (sigma, w - v) with a cone on the
slice at (sigma + v, w - v) glued along the latter, so where one of those
two entries is zero the entry at (sigma, w) is the other one, raised a
degree when it is the second.  Both rules hold for a family closed
downward in its ground, so a table, over all pairs or requested ones,
refuses any other family before it slices.
"""

from __future__ import annotations

import weakref
from functools import cached_property

from ._record import Record
from .abelian import GradedGroup, graded_tensor, tensor_additive
from .complexes import (
    EXPAND_CACHED_VERTICES,
    SimplicialComplex,
    _as_mask,
    _bitset_masks,
    _bits_of,
    _code_bitset,
    _codes_over,
    _expand,
    _link_support,
    _move_faces,
    _positions,
    _require_closed,
    _require_in_ground,
    _slice_faces,
    composition_complex,
    mask_of,
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
    # the position of a pair in index_pairs(ground): the i-th smallest
    # ground vertex weighs 3^i in sigma and 2 * 3^i in omega, summed over
    # one lookup table per byte of the masks that holds ground vertices
    tables = []
    weight = 1
    for k in sorted({b.bit_length() - 1 & ~7 for b in _bits_of(ground)}):
        table = [0]
        for i in range(k, k + 8):
            if ground >> i & 1:
                table += [t + weight for t in table]
                weight *= 3
            else:
                table += table
        tables.append((k, table, [2 * t for t in table]))

    def rank(pair):
        sigma, omega = pair
        r = 0
        for k, s, o in tables:
            r += s[sigma >> k & 255] + o[omega >> k & 255]
        return r
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
        # _as_mask inline: a sweep looks up every pair
        s = sigma if isinstance(sigma, int) else mask_of(sigma)
        w = omega if isinstance(omega, int) else mask_of(omega)
        if self._pair_set is None:
            held = not s & w and not (s | w) & ~self.ground
        else:
            held = (s, w) in self._pair_set
        if not held:
            raise KeyError(f"pair {(s, w)} is not in the table")
        link = self.links.get(s)
        return _ZERO if link is None else link[1].get(w & link[0], _ZERO)

    def items(self) -> "_TableItems":
        """Every (pair, entry) in table order, built as it is read."""
        return _TableItems(self)

    def _stored(self):
        # over all pairs: each face sigma with a nonzero entry, its entries
        # by w, and the sets x of vertices outside sigma and its link
        # support; each stored (sigma, w) stands for every (sigma, w + x)
        for sigma, (support, found) in self.links.items():
            if found:
                yield sigma, found, submasks(self.ground & ~sigma & ~support)

    def _nonzero(self):
        # the nonzero (pair, entry) items in no particular order
        if self.pairs is not None:
            return [(p, g) for p, g in self.items() if g.groups]
        return [((sigma, w | x), g) for sigma, found, rest in self._stored()
                for w, g in found.items() for x in rest]

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
        get = t.links.get
        for pair in _pair_stream(t.ground) if t.pairs is None else t.pairs:
            link = get(pair[0])
            yield pair, _ZERO if link is None else link[1].get(pair[1] & link[0], _ZERO)


def _slice_bitset(faces, sigma: int, omega: int) -> int:
    # the slice at (sigma, omega) alone, as a bitset over the codes of
    # omega: one lookup per subset of omega, listed uncached (a table slices
    # more distinct omegas than _expand keeps).  Requested pairs slice by the
    # definition instead (_slice_faces), so that they and the walk share no
    # slicing code
    return int("".join(["1" if sigma | e in faces else "0"
                        for e in reversed(submasks(omega))]), 2)


def hochster_table(K: SimplicialComplex, coeff: FieldCoeff | None = None,
                   pairs=None, cohomology: bool = False) -> BigradedTable:
    """Slice (co)homology table of K over all requested disjoint pairs.

    The slice at (sigma, omega) is {tau subset of omega : sigma union tau
    is a face}.  Internal grading: the entry group at degree d is reduced
    (co)homology of the slice in degree d - 1.  Slices at non-faces are
    void, giving zero entries; the entry at (sigma, empty) is Z at degree
    0 exactly when sigma is a face.

    Over all pairs the table walks the faces sigma of K, not the 3^n pairs:
    it computes the link support S of each face once, finds the nonzero
    entries at the w inside S and keeps them.  The slice at (sigma, omega)
    has the faces of the slice at (sigma, omega & S), so the two pairs
    share one entry.  Each distinct slice goes to :func:`homology_of_faces`
    once, as the codes of its faces as subsets of w: a family on vertices
    1..|w|, already in the cache's canonical form.  Requested pairs slice
    each pair on its own, by the definition (the code behind ``K.slice``).

    The faces come in descending mask order, so each sigma + v comes
    before sigma.  The meet M(sigma) of the facets above sigma is sigma
    itself at a facet, else the AND of M(sigma + v) over v in S; one pass
    over the ground's vertices finds S and M(sigma) together.  A vertex
    v of S & M(sigma) is a cone point of the link: the slice at any w
    holding it is a cone on it (a face tau of the slice lies in a facet
    above sigma, which holds v, so tau + v is in the slice too), and its
    entry is zero, so only the w inside S - M(sigma) are walked.

    For v in w, the slice at (sigma, w) is the union of A, the slice at
    (sigma, w - v), and the cone with apex v on B, the slice at
    (sigma + v, w - v); the faces of the slice without v are A's, those
    with v are the faces of B with v added, and B lies in A.  A, the cone
    and B all hold the empty face, so the Mayer-Vietoris sequence of their
    augmented chain complexes is exact, over Z with its torsion and over
    every field, for homology and cohomology, and the cone is acyclic.
    So where B's entry is zero, the entry at (sigma, w) is A's; where A's
    is zero, it is B's one degree up; where both are, it is zero.  B's
    entry is the one stored for sigma + v at (w - v) & S(sigma + v).  The
    walk takes the w by top vertex t, ascending, and the w of one top in
    ascending order, so every w - v is known before w.  A w = x + t can be
    nonzero only if the entry at (sigma, x) or at (sigma + t, x) is: x is
    one of the nonzero w already found, or a nonzero w' of sigma + t below
    t with any vertices of S below t outside S(sigma + t) added.  Each
    such w takes its entry at the first v, from t down, where A's or B's
    entry is zero, and is sliced (:func:`_slice_bitset`) only where both
    are nonzero at every v.  The one exception is w = t alone: A and B
    are both the slice {empty}, yet the slice at (sigma, t) is the point
    {empty, t}, the cone on B, so its entry is zero and it is not walked.
    Both rules, and the slice by its definition, need K closed downward in
    its ground.  So the table, over all pairs or requested ones, checks
    that once, by ``complexes._require_closed``, and raises ValueError for
    any other family before it slices: one with a face outside the ground
    names the vertex, and one that is not closed downward says so.  The
    README's entry on bigraded slice homology tables gives timings.
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
    _require_in_ground(ground, K.support(), "face")
    _require_closed(faces, ground)
    if pairs is None:
        # meets[sigma]: the meet of the facets above sigma; each sigma + v
        # comes before sigma
        meets = {}
        # the stored entries raised one degree, by identity: each is raised
        # once, and the entries it gives share that one object (a random
        # 12-vertex table peaks at 20 MiB so, at 27 MiB raising each one
        # apart); a key's entry stays alive in ``links``
        raised: dict[int, GradedGroup] = {}
        point = group(1, 0)  # the slice {empty} at (sigma, empty)
        bits = _bits_of(ground)
        for sigma in sorted(faces, reverse=True):
            # the link support and the meet in one pass: meets holds the faces
            # above sigma only, so v in sigma or sigma + v no face finds none
            support = 0
            meet = -1
            for b in bits:
                m = meets.get(sigma | b)
                if m is not None:
                    support |= b
                    meet &= m
            meets[sigma] = meet = meet if support else sigma
            span = support & ~meet
            found = {0: point}
            for t in _bits_of(span):
                # the w = x + t with top vertex t, nonzero only where the
                # entry at (sigma, x) or at (sigma + t, x) is; not at x
                # empty, where the slice is the point {empty, t}
                up_support, up_found = links[sigma | t]
                below = span & (t - 1)
                xs = set(found)
                rest = submasks(below & ~up_support)
                for u in up_found:
                    if not u & ~below:
                        xs.update([u | y for y in rest])
                xs.discard(0)
                for x in sorted(xs):
                    w = x | t
                    v = t
                    while True:
                        # at v: A is the slice at (sigma, w - v), B the one
                        # at (sigma + v, w - v)
                        a = found.get(w ^ v)
                        v_support, v_found = links[sigma | v]
                        b = v_found.get((w ^ v) & v_support)
                        if b is None:
                            g = a
                            break
                        if a is None:
                            g = raised.get(id(b))
                            if g is None:
                                g = raised[id(b)] = b.shift(1)
                            break
                        # both nonzero: the next vertex of x down, if any
                        v = (x & (v - 1)).bit_length()
                        if not v:
                            g = group(_slice_bitset(faces, sigma, w), w.bit_count())
                            break
                        v = 1 << v - 1
                    if g is not None and g.groups:
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
        g = homology_of_faces(_slice_faces(faces, s, w), coeff, cohomology).shift(1)
        if g.groups:
            found[w] = g
    return BigradedTable(ground, links, cohomology, tuple(pair_list))


# ---------------------------------------------------------------------------
# the chain-level duality witness

class DualityCheckError(AssertionError):
    """A structural duality identity failed to verify."""


class DualityWitness(Record):
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

    # no __slots__: the cached properties live in the instance dict
    _fields = ("sigma", "omega", "nonfaces", "omega_code")

    def __init__(self, sigma: int, omega: int, nonfaces: int, omega_code: int):
        # the instance dict's items set directly, in place of one
        # object.__setattr__ call per field
        d = self.__dict__
        d["sigma"] = sigma
        d["omega"] = omega
        d["nonfaces"] = nonfaces
        d["omega_code"] = omega_code

    def __repr__(self) -> str:
        return f"DualityWitness(sigma={self.sigma!r}, omega={self.omega!r})"

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


# The face bitsets of the last (K, dual) pair that a witness read, with
# weak references to both complexes, and the cube of each omega code read
# since, by code: on grounds of up to EXPAND_CACHED_VERTICES vertices, at
# most 4,096 cubes of at most 4,096 bits (None above that).  Keyed on
# identity, not on value: a complex equal to an earlier one may slice
# differently (a planted fault in ``slice`` must reach every call), and a
# weak entry keeps no complex alive
_last_windows: tuple = (None, None, 0, 0, None)


def _face_windows(K: SimplicialComplex, dual: SimplicialComplex):
    # a new record for (K, dual): over the codes c of K's ground, bit c of
    # the first bitset is set when code c is a face of K, bit c of the
    # second when its complement is a dual face, both read through
    # ``slice`` at (empty, ground); no cube yet
    global _last_windows
    g = K.ground
    n = g.bit_count()
    top = (1 << n) - 1
    faces = _code_bitset(_codes_over(K.slice(0, g).faces, g), n)
    cofaces = _code_bitset(
        [top ^ c for c in _codes_over(dual.slice(0, g).faces, g)], n)
    cubes = {} if n <= EXPAND_CACHED_VERTICES else None
    _last_windows = (weakref.ref(K), weakref.ref(dual), faces, cofaces, cubes)
    return faces, cofaces, cubes


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
    once; they cost 2^|ground| bits, however small omega is.  The same
    record keeps the cube of each omega code (the bit of every code inside
    it), and over a ground 1..n the codes are the masks themselves.

    Given the bijection, two identities hold for every K and are not
    checked per pair: eta - v is a generator exactly when
    (omega - eta) + v is a dual face, and the relative boundary meets the
    dual cochain differential with the sign (-1)^d from degree d to d-1.
    ``TestWitnessIsAChainMap`` in ``tests/test_hochster.py`` pins both
    against chain complexes built from their definitions.

    ``precomputed_dual`` skips recomputing the dual of K when a caller
    sweeps many pairs of one complex; it must equal ``K.dual(K.ground)``.
    """
    # _as_mask inline: a sweep calls the witness at every pair
    s = sigma if isinstance(sigma, int) else mask_of(sigma)
    w = omega if isinstance(omega, int) else mask_of(omega)
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
    k_ref, dual_ref, faces, cofaces, cubes = _last_windows
    if k_ref is None or k_ref() is not K or dual_ref() is not dual:
        faces, cofaces, cubes = _face_windows(K, dual)
    sc, wc = (s, w) if not amb & (amb + 1) else _codes_over((s, w), amb)
    cube = None if cubes is None else cubes.get(wc)
    if cube is None:
        cube = 1  # bit t for each code t inside omega's code
        for b in _bits_of(wc):
            cube |= cube << b
        if cubes is not None:
            cubes[wc] = cube
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
    cohomology table of K's dual on the same ground, both over all pairs;
    any other two tables raise ValueError on the first read.  The entry at
    a pair with nonempty omega, internal degree d, must equal the dual
    entry at the complementary pair in degree |omega| - d - 1.  Yields
    ``(sigma, omega, (d, lhs, rhs))`` for each pair, in table order, where
    that fails, with d the first failing degree; nothing for a pair that
    agrees.

    Only the pairs where either side is nonzero can fail.  Each stored
    nonzero entry of ``table`` is compared at every pair it stands for; a
    pair where only the dual side is nonzero fails whatever its entry.
    There is none when no pair failed and both tables hold as many nonzero
    pairs with nonempty omega, since the complement then maps the first set
    one to one into the second; otherwise the stored entries of
    ``dual_cohomology`` are walked the same way.  Only the failing pairs
    are sorted into table order.
    """
    g = table.ground
    if table.pairs is not None or dual_cohomology.pairs is not None:
        raise ValueError("slice duality compares tables over all pairs")
    if dual_cohomology.ground != g:
        raise ValueError("slice duality compares tables on one ground")
    if table.cohomology or not dual_cohomology.cohomology:
        raise ValueError("slice duality compares a homology table with a cohomology table")
    links = table.links
    co_links = dual_cohomology.links
    failing = []
    count = 0  # nonzero pairs with nonempty omega: the table's less the dual's
    for sigma, found, rest in table._stored():
        free = g & ~sigma
        count += len(found) * len(rest) - (0 in found)
        for w, lhs in found.items():
            wants = {}  # by |omega|: the groups of the dual entry that agrees
            for x in rest:
                omega = w | x
                if omega:
                    link = co_links.get(free ^ omega)
                    rhs = _ZERO if link is None else link[1].get(omega & link[0], _ZERO)
                    size = omega.bit_count()
                    want = wants.get(size)
                    if want is None:
                        want = wants[size] = tuple(
                            (size - d - 1, grp) for d, grp in reversed(lhs.groups))
                    if rhs.groups != want:
                        failing.append(
                            (sigma, omega, _first_mismatch(lhs, rhs, size)))
    for tau, (support, found) in dual_cohomology.links.items():
        count -= (len(found) << (g & ~tau & ~support).bit_count()) - (0 in found)
    if failing or count:
        for tau, found, rest in dual_cohomology._stored():
            free = g & ~tau
            for w, rhs in found.items():
                for x in rest:
                    omega = w | x
                    if omega:
                        sigma = free ^ omega
                        link = links.get(sigma)
                        if link is None or omega & link[0] not in link[1]:
                            failing.append((sigma, omega, _first_mismatch(
                                _ZERO, rhs, omega.bit_count())))
    if failing:
        rank = _pair_rank(g)
        failing.sort(key=lambda failure: rank(failure[:2]))
    yield from failing


def _first_mismatch(lhs: GradedGroup, rhs: GradedGroup, wsize: int):
    # (d, lhs at d, rhs at |omega| - d - 1) at the first degree d where the
    # two sides differ; every caller has found that they do
    for d in sorted({*lhs.degrees(), *(wsize - e - 1 for e in rhs.degrees())}):
        if lhs.at(d) != rhs.at(wsize - d - 1):
            return d, lhs.at(d), rhs.at(wsize - d - 1)


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
    formula = graded_tensor(parts)
    if direct != formula:
        raise DualityCheckError(
            f"composition homology mismatch: direct {direct} vs formula {formula}"
        )
    return formula


class PieceVerdict(Record):
    _fields = __slots__ = ("sigma", "omega", "lhs", "rhs")

    def __init__(self, sigma: int, omega: int, lhs: GradedGroup, rhs: GradedGroup):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class PieceReport(Record):
    """The verdicts at the pairs that could fail, in table order.

    ``pairs`` counts every disjoint pair of the composition's ground (3^N);
    at each pair without a verdict both sides are zero.
    """

    _fields = __slots__ = ("verdicts", "pairs")

    def __init__(self, verdicts: tuple[PieceVerdict, ...], pairs: int):
        object.__setattr__(self, "verdicts", verdicts)
        object.__setattr__(self, "pairs", pairs)

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
