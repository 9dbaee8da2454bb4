"""Bigraded slice homology tables and the combinatorial duality witness.

For a complex K on a ground set, the table entry at a disjoint pair
(sigma, omega) holds the reduced homology of the slice K_{sigma,omega}
(the link of sigma restricted to omega), stored in the internal grading
where degree d carries reduced degree d-1.  The duality witness realizes,
at chain level, the isomorphism between the slice homology of K and the
complementary-degree slice cohomology of the Alexander dual: the signed
bijection eta -> omega minus eta between non-faces of the slice and faces
of the dual slice, with the sign of the shuffle putting sorted(eta) before
sorted(omega minus eta).  It checks a pair on windows of two face bitsets
read once per complex and its dual, and builds the signed map only when
read.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .abelian import GradedGroup, tensor_additive
from .complexes import (
    SimplicialComplex,
    _as_mask,
    _bits_of,
    _code_bitset,
    _codes_over,
    _expand,
    _link_support,
    _move_faces,
    _positions,
    _require_in_ground,
    composition_complex,
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


# reused by the tables of a complex and its dual, which share one ground
_pair_order = lru_cache(maxsize=32)(lambda ground: tuple(index_pairs(ground)))


class BigradedTable:
    """Slice homology groups of one complex, indexed by disjoint pairs.

    Iteration order of :meth:`items` is the enumeration order the table was
    built with; lookups go through a dict.
    """

    def __init__(self, ground: int, entries, cohomology: bool = False):
        self.ground = ground
        self.entries = tuple(entries)
        self.cohomology = cohomology
        self._index = dict(self.entries)

    def entry(self, sigma, omega) -> GradedGroup:
        key = (_as_mask(sigma), _as_mask(omega))
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(f"pair {key} is not in the table") from None

    def items(self):
        return self.entries

    def nonzero_items(self):
        return tuple((k, g) for k, g in self.entries if not g.is_zero)


def hochster_table(K: SimplicialComplex, coeff: FieldCoeff | None = None,
                   pairs=None, cohomology: bool = False) -> BigradedTable:
    """Slice (co)homology table of K over all requested disjoint pairs.

    The slice at (sigma, omega) is {tau subset of omega : sigma union tau
    is a face}.  Internal grading: the entry group at degree d is reduced
    (co)homology of the slice in degree d - 1.  Slices at non-faces are
    void, giving zero entries; the entry at (sigma, empty) is Z at degree
    0 exactly when sigma is a face.

    The link support of each face sigma (the v with sigma + v a face) is
    computed once.  The slice at (sigma, omega) has the faces of the slice
    at omega cut down to that support, so the two pairs share one entry.
    Its faces go to :func:`homology_of_faces` as their codes as subsets of
    the cut-down omega: a family on vertices 1..k, already in the cache's
    canonical form.
    """
    if pairs is None:
        pair_list = _pair_order(K.ground)
    else:
        pair_list = [(_as_mask(s), _as_mask(w)) for s, w in pairs]
        for s, w in pair_list:
            if s & w:
                raise ValueError("table pairs must have disjoint sides")
            _require_in_ground(K.ground, s | w, "pair")
    faces = K.faces
    empty = GradedGroup()
    # per face sigma: its link support and the entries computed so far, by
    # omega cut down to that support; False for a non-face
    links: dict[int, tuple[int, dict[int, GradedGroup]] | bool] = {}
    shifted: dict[tuple[int, ...], GradedGroup] = {}
    rows = []
    for pair in pair_list:
        sigma, omega = pair
        link = links.get(sigma)
        if link is None:
            link = links[sigma] = sigma in faces and (
                _link_support(faces, sigma, K.ground & ~sigma), {})
        if not link:
            rows.append((pair, empty))
            continue
        # the slices at omega and at omega inside the link support have the
        # same faces; their codes in the latter cover every vertex of it
        support, computed = link
        w = omega & support
        g = computed.get(w)
        if g is None:
            key = tuple([c for c, e in enumerate(_expand(w)) if sigma | e in faces])
            g = shifted.get(key)
            if g is None:
                g = shifted[key] = homology_of_faces(key, coeff, cohomology).shift(1)
            computed[w] = g
        rows.append((pair, g))
    return BigradedTable(K.ground, tuple(rows), cohomology)


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
    """
    g = table.ground
    index = dual_cohomology._index
    for (sigma, omega), lhs in table.items():
        if not omega:
            continue
        rhs = index[g & ~(sigma | omega), omega]
        wsize = omega.bit_count()
        if lhs.groups == tuple((wsize - e - 1, grp) for e, grp in reversed(rhs.groups)):
            continue
        for d in set(lhs.degrees()) | {wsize - e - 1 for e in rhs.degrees()}:
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
    verdicts: tuple[PieceVerdict, ...]

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

    Factors must be nonvoid.  Over the integers the factor entries must be
    torsion-free; otherwise :func:`tensor_additive` raises a ValueError
    asking for field coefficients.
    """
    factors = list(factors)
    if any(L.is_void for L in factors):
        raise ValueError("composition factors must be nonvoid for the piece formula")
    bits = _positions(K.ground, factors, "factors for the ground of K")
    comp = composition_complex(K, factors)
    table_s = hochster_table(comp, coeff)
    table_k = hochster_table(K, coeff)
    tables_l = [hochster_table(L, coeff) for L in factors]
    blocks = [L.ground for L in factors]
    verdicts = []
    for (sigma, omega), lhs in table_s.items():
        sig_parts = _block_split(sigma, blocks)
        om_parts = _block_split(omega, blocks)
        sigma_hat = 0
        omega_hat = 0
        tensor_parts = []
        for i, L in enumerate(factors):
            if om_parts[i]:
                omega_hat |= bits[i]
                tensor_parts.append(tables_l[i]._index[sig_parts[i], om_parts[i]])
            elif sig_parts[i] not in L.faces:
                sigma_hat |= bits[i]
        rhs = tensor_additive([table_k._index[sigma_hat, omega_hat]] + tensor_parts)
        verdicts.append(PieceVerdict(sigma, omega, lhs, rhs))
    return PieceReport(tuple(verdicts))
