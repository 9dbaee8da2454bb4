"""Bigraded slice homology tables and the combinatorial duality witness.

For a complex K on a ground set, the table entry at a disjoint pair
(sigma, omega) holds the reduced homology of the slice K_{sigma,omega}
(the link of sigma restricted to omega), stored in the internal grading
where degree d carries reduced degree d-1.  The duality witness realizes,
at chain level, the isomorphism between the slice homology of K and the
complementary-degree slice cohomology of the Alexander dual: the signed
bijection eta -> omega minus eta between non-faces of the slice and faces
of the dual slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import GradedGroup, tensor_additive
from .complexes import (
    SimplicialComplex,
    _as_mask,
    _bits_of,
    _expand,
    _link_support,
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
        pair_list = index_pairs(K.ground)
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


# one code table per omega size; benchmark complexes have at most 9 vertices
CODE_LEVEL_CACHE_SIZE = 16


@lru_cache(maxsize=CODE_LEVEL_CACHE_SIZE)
def _code_levels(n: int):
    # for an omega of n vertices, level k lists in ascending order the codes
    # c of the k-subsets eta with the sign of the merge of sorted(eta) before
    # sorted(omega - eta); putting position i into a code c below 2^i passes
    # the i - popcount(c) positions below i left out of c
    parity = [0]
    for i in range(n):
        parity += [p ^ (i - c.bit_count()) & 1 for c, p in enumerate(parity)]
    levels: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for c, p in enumerate(parity):
        levels[c.bit_count()].append((c, -1 if p else 1))
    return tuple(tuple(level) for level in levels)


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
    """

    sigma: int
    omega: int
    taking: tuple[tuple[int, tuple[tuple[int, tuple[int, int]], ...]], ...]
    sign_profile: tuple[tuple[int, int], ...]

    def map_at(self, degree: int) -> dict[int, tuple[int, int]]:
        for d, items in self.taking:
            if d == degree:
                return dict(items)
        return {}


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
    slice_faces = K.slice(s, w).faces
    sigma_tilde = amb & ~(s | w)
    dual = precomputed_dual if precomputed_dual is not None else K.dual(amb)
    if dual.ground != amb:
        raise ValueError("precomputed dual does not match the ambient set")
    dual_slice = dual.slice(sigma_tilde, w).faces

    ex = _expand(w)
    taking = []
    count = 0
    for k, level in enumerate(_code_levels(w.bit_count())):
        items = tuple([(eta, (w ^ eta, sign)) for c, sign in level
                       if (eta := ex[c]) not in slice_faces])
        if items:
            taking.append((k - 1, items))
            count += len(items)
    if count != len(dual_slice):
        raise DualityCheckError(
            "non-face count does not match the dual slice face count"
        )
    # with the counts equal, every complement of a non-face is a dual face
    # exactly when no complement of a dual face is a face
    if not slice_faces.isdisjoint(map(w.__xor__, dual_slice)):
        missing = max(eta for _, items in taking for eta, (comp, _) in items
                      if comp not in dual_slice)
        raise DualityCheckError(
            f"complement of {list(vertices_of(missing))} is not a dual face"
        )
    # the slice is closed under subsets, so eta + v is a generator for each
    # v in omega - eta: a square runs from degree |eta| to |eta| - 1 for
    # every generator but omega itself
    squares = [d + 1 for d, _ in taking if d + 1 < w.bit_count()]
    return DualityWitness(
        sigma=s,
        omega=w,
        taking=tuple(taking),
        sign_profile=tuple((k, -1 if k & 1 else 1) for k in squares),
    )


def slice_duality_mismatches(table: BigradedTable,
                             dual_cohomology: BigradedTable):
    """Entrywise Alexander duality between two slice tables.

    ``table`` is the homology table of K and ``dual_cohomology`` the
    cohomology table of K's dual on the same ground.  For every pair of
    ``table`` with nonempty omega, in table order, yields
    ``(sigma, omega, mismatch)``: the entry at internal degree d must equal
    the dual entry at the complementary pair in degree |omega| - d - 1, and
    ``mismatch`` is ``(d, lhs, rhs)`` for the first degree where it does
    not, or None when the pair agrees.
    """
    g = table.ground
    for (sigma, omega), lhs in table.items():
        if not omega:
            continue
        rhs = dual_cohomology.entry(g & ~(sigma | omega), omega)
        wsize = omega.bit_count()
        reindexed = tuple((wsize - e - 1, grp) for e, grp in reversed(rhs.groups))
        if lhs.groups == reindexed:
            yield sigma, omega, None
            continue
        mismatch = None
        for d in set(lhs.degrees()) | {wsize - e - 1 for e in rhs.degrees()}:
            if lhs.at(d) != rhs.at(wsize - d - 1):
                mismatch = (d, lhs.at(d), rhs.at(wsize - d - 1))
                break
        yield sigma, omega, mismatch


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
                tensor_parts.append(tables_l[i].entry(sig_parts[i], om_parts[i]))
            elif sig_parts[i] not in L.faces:
                sigma_hat |= bits[i]
        rhs = tensor_additive(
            [table_k.entry(sigma_hat, omega_hat)] + tensor_parts
        )
        verdicts.append(PieceVerdict(sigma, omega, lhs, rhs))
    return PieceReport(tuple(verdicts))
