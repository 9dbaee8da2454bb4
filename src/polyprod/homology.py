"""Reduced simplicial (co)homology by exact Smith normal form.

All arithmetic is exact: arbitrary-precision integers for Smith reduction,
rationals or prime fields for basis computations.  Chain complexes are
augmented, so the empty face is a degree -1 generator and the void complex
has zero homology everywhere, while the complex ``{0}`` has a single Z in
degree -1.

Smith reduction is a sparse pass over +-1 pivots followed by a dense
diagonalisation of the small core it leaves.  Ranks, over Z or a field, are
read off that diagonal; the torsion is put into invariant-factor form once,
by :meth:`FgAbelianGroup.from_divisors`.

Boundary orientation: the vertices of a face are taken in increasing label
order and deleting the i-th one carries sign (-1)^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush

from .abelian import FgAbelianGroup, GradedGroup, _factorint
from .complexes import (
    SimplicialComplex,
    _as_mask,
    _bits_of,
    _move_faces,
    submasks,
    vertices_of,
)


# ---------------------------------------------------------------------------
# coefficients

@dataclass(frozen=True)
class FieldCoeff:
    """Field coefficients: the rationals (p = None) or GF(p), prime p < 2**31."""

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        # a float would pass the trial division below
        if type(self.p) is not int:
            raise ValueError(f"field characteristic must be an integer, got {self.p!r}")
        # trial division up to the square root stays instant below the bound
        if self.p >= 2**31:
            raise ValueError(f"field characteristic must be below 2**31, got {self.p}")
        if _factorint(self.p) != {self.p: 1}:
            raise ValueError(f"field characteristic must be prime, got {self.p}")


RATIONALS = FieldCoeff(None)


def GF(p: int) -> FieldCoeff:
    return FieldCoeff(p)


# ---------------------------------------------------------------------------
# Smith normal form

def _dense_smith(m: list[list[int]]) -> list[int]:
    # diagonalisation with minimal-|pivot| selection and full carry of
    # remainders; fine for the small residual cores left by the sparse pass.
    # The diagonal need not be a divisibility chain
    rows = len(m)
    cols = len(m[0]) if m else 0
    out = []
    t = 0
    while t < rows and t < cols:
        pi = pj = -1
        best = 0
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(m[i][j])
                if v and (best == 0 or v < best):
                    best = v
                    pi, pj = i, j
        if best == 0:
            break
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        dirty = True
        while dirty:
            p = m[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    q = m[i][t] // p
                    if q:
                        ri, rt = m[i], m[t]
                        for j in range(t, cols):
                            ri[j] -= q * rt[j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if m[t][j]:
                    q = m[t][j] // p
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
        out.append(abs(m[t][t]))
        t += 1
    return out


def _invariant_factors(columns) -> list[int]:
    """Nonzero diagonal of a diagonal form of a sparse integer matrix.

    Each column is a dict, or an iterable of (row, value) pairs.  A unit
    pass strips +-1 pivots first, then the dense reduction diagonalises
    whatever small core remains.  The result is a 1 per unit pivot followed
    by the core's diagonal: its length is the rank and its product is the
    product of the invariant factors, but it need not be a divisibility
    chain; :meth:`FgAbelianGroup.from_divisors` turns it into one.

    Pivot rule: the pivot column is the first remaining column, in column
    order, that holds a +-1 entry; within it the unit of least Markowitz
    cost ``(row_count - 1) * (col_len - 1)`` wins, the first one on ties.
    The choice is local on purpose: searching every column for the
    globally cheapest unit costs a pass over all nonzeros per pivot, so
    the unit pass grew as pivots x nnz, while boundary matrices have a unit
    in nearly every column (sparse elimination ordering as in Dumas,
    Saunders and Villard, JSC 2001).  A heap of column indices finds that
    column without rescanning: a column leaves the heap when it is found
    unitless and rejoins it when an elimination changes it.
    """
    col_entries: dict[int, dict[int, int]] = {}
    row_cols: dict[int, set[int]] = {}
    for j, c in enumerate(columns):
        c = dict(c)
        if c:
            col_entries[j] = c
            for i in c:
                row_cols.setdefault(i, set()).add(j)
    waiting = list(col_entries)  # ascending, hence already a heap
    queued = set(waiting)
    units = 0
    while waiting:
        j = heappop(waiting)
        queued.discard(j)
        piv_col = col_entries.get(j)
        if piv_col is None:
            continue
        lc = len(piv_col) - 1
        i = None
        best_cost = None
        for r, w in piv_col.items():
            if w == 1 or w == -1:
                cost = (len(row_cols[r]) - 1) * lc
                if best_cost is None or cost < best_cost:
                    i = r
                    best_cost = cost
                    if cost == 0:
                        break
        if i is None:
            continue
        del col_entries[j]
        v = piv_col.pop(i)
        row_cols[i].discard(j)
        for j2 in list(row_cols[i]):
            c2 = col_entries[j2]
            mult = c2.pop(i) * v
            row_cols[i].discard(j2)
            for i2, w in piv_col.items():
                nv = c2.get(i2, 0) - mult * w
                if nv:
                    if i2 not in c2:
                        row_cols.setdefault(i2, set()).add(j2)
                    c2[i2] = nv
                elif i2 in c2:
                    del c2[i2]
                    row_cols[i2].discard(j2)
            if not c2:
                del col_entries[j2]
            elif j2 not in queued:
                queued.add(j2)
                heappush(waiting, j2)
        for i2 in piv_col:
            row_cols[i2].discard(j)
        units += 1
    if not col_entries:
        return [1] * units
    rows_left = sorted({i for c in col_entries.values() for i in c})
    rmap = {i: a for a, i in enumerate(rows_left)}
    dense = [[0] * len(col_entries) for _ in rows_left]
    for b, (_, c) in enumerate(sorted(col_entries.items())):
        for i, v in c.items():
            dense[rmap[i]][b] = v
    return [1] * units + _dense_smith(dense)


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors d1 | d2 | ... of a dense integer matrix.

    Only the nonzero diagonal entries are returned, so the length of the
    result is the rank.  The matrix is brought to a diagonal form first;
    :meth:`FgAbelianGroup.from_divisors` turns that diagonal into the
    invariant-factor chain.
    """
    matrix = [list(row) for row in matrix]
    if matrix:
        width = len(matrix[0])
        for row in matrix:
            if len(row) != width:
                raise ValueError("matrix rows must all have the same length")
    ncols = len(matrix[0]) if matrix else 0
    cols = []
    for j in range(ncols):
        col = {i: row[j] for i, row in enumerate(matrix) if row[j]}
        cols.append(col)
    diagonal = _invariant_factors(cols)
    torsion = FgAbelianGroup.from_divisors(0, diagonal).torsion
    return [1] * (len(diagonal) - len(torsion)) + list(torsion)


# ---------------------------------------------------------------------------
# chain complexes

class AugmentedChainComplex:
    """Bases and boundary columns of an augmented chain complex.

    ``bases[d]`` is the sorted tuple of generator masks of dimension d (the
    empty face sits in degree -1).  ``boundaries[d]``, for every d >= 0 with
    generators, holds one column per basis face: a list of (row index in
    ``bases[d-1]``, sign) entries.
    """

    def __init__(self, bases, boundaries):
        self.bases = bases
        self.boundaries = boundaries

    def dense_boundary(self, d: int) -> list[list[int]]:
        nrows = len(self.bases.get(d - 1, ()))
        cols = self.boundaries.get(d, [])
        out = [[0] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, s in col:
                out[i][j] = s
        return out


def _chain_complex(faces, quotient=frozenset()) -> AugmentedChainComplex:
    """Chain complex of a face-mask family modulo the faces in ``quotient``.

    The generators are the faces not in ``quotient``, and boundary terms
    that land in ``quotient`` are dropped, so ``quotient`` must be closed
    under taking subfaces.  Every other codimension-one face of a generator
    must itself be a generator.
    """
    by_deg: dict[int, list[int]] = {}
    for f in faces:
        if f not in quotient:
            by_deg.setdefault(f.bit_count() - 1, []).append(f)
    bases = {d: tuple(sorted(by_deg[d])) for d in sorted(by_deg)}
    index = {d: {f: i for i, f in enumerate(b)} for d, b in bases.items()}
    boundaries = {}
    for d, basis in bases.items():
        if d < 0:
            continue
        below = index.get(d - 1, {})
        cols = []
        for f in basis:
            col = []
            for pos, b in enumerate(_bits_of(f)):
                sub = f ^ b
                if sub not in quotient:
                    col.append((below[sub], -1 if pos & 1 else 1))
            cols.append(col)
        boundaries[d] = cols
    return AugmentedChainComplex(bases, boundaries)


def chain_complex(K: SimplicialComplex) -> AugmentedChainComplex:
    """Augmented chain complex of a complex (empty for the void complex)."""
    return _chain_complex(K.faces)


def _smith_data(cx: AugmentedChainComplex):
    # per degree: basis size and invariant factors of the boundary map out
    # of that degree
    counts = {d: len(b) for d, b in cx.bases.items()}
    factors = {d: tuple(_invariant_factors(cols))
               for d, cols in cx.boundaries.items()}
    return counts, factors


def _field_rank(factors, p) -> int:
    # any diagonal form gives the Smith form's count: the transforms are
    # unimodular over Z, so they stay invertible mod p
    if p is None:
        return len(factors)
    return sum(1 for d in factors if d % p)


def _graded_groups(counts, factors, coeff, cohomology) -> GradedGroup:
    if not counts:
        return GradedGroup()
    out = {}
    for n in range(-1, max(counts) + 1):
        c = counts.get(n, 0)
        fn = factors.get(n, ())
        fn1 = factors.get(n + 1, ())
        if coeff is None:
            rank = c - len(fn) - len(fn1)
            torsion = tuple(d for d in (fn if cohomology else fn1) if d != 1)
            out[n] = FgAbelianGroup.from_divisors(rank, torsion)
        else:
            rank = c - _field_rank(fn, coeff.p) - _field_rank(fn1, coeff.p)
            out[n] = FgAbelianGroup(rank)
    return GradedGroup.from_dict(out)


# ---------------------------------------------------------------------------
# homology groups, cached on the abstract face family

def _canonical_faces(faces) -> tuple[int, ...]:
    # the faces moved onto vertices 1..k of their support, sorted; a family
    # already on 1..k (slice tables pass such codes) keeps its masks
    support = 0
    for f in faces:
        support |= f
    if support & (support + 1) == 0:
        return tuple(sorted(faces))
    table = {b: 1 << i for i, b in enumerate(_bits_of(support))}
    return tuple(sorted(_move_faces(faces, table)))


# Bounds of the two homology caches: a round of the busiest benchmark
# workload (verify-suites) fills about 1,300 and 2,300 entries
HOMOLOGY_DATA_CACHE_SIZE = 4096
GROUPS_CACHE_SIZE = 8192


@lru_cache(maxsize=HOMOLOGY_DATA_CACHE_SIZE)
def _homology_data(key: tuple[int, ...]):
    # key is a canonical face-mask family
    return _smith_data(_chain_complex(key))


@lru_cache(maxsize=GROUPS_CACHE_SIZE)
def _groups_from_key(key, coeff, cohomology) -> GradedGroup:
    return _graded_groups(*_homology_data(key), coeff, cohomology)


def homology_of_faces(faces, coeff: FieldCoeff | None = None,
                      cohomology: bool = False) -> GradedGroup:
    """Reduced (co)homology of a raw face-mask family."""
    return _groups_from_key(_canonical_faces(faces), coeff, cohomology)


def reduced_homology(K: SimplicialComplex,
                     coeff: FieldCoeff | None = None) -> GradedGroup:
    """Reduced homology; integer coefficients unless a field is given."""
    return homology_of_faces(K.faces, coeff, False)


def reduced_cohomology(K: SimplicialComplex,
                       coeff: FieldCoeff | None = None) -> GradedGroup:
    """Reduced cohomology, computed from the transposed boundary maps.

    Over the integers the torsion of degree n is the torsion of the n-th
    boundary map, which the universal-coefficient rule reproduces; both are
    exercised against each other in the test suite.
    """
    return homology_of_faces(K.faces, coeff, True)


def euler_characteristic_reduced(K: SimplicialComplex) -> int:
    """Alternating face count including the empty face at degree -1."""
    return sum(-1 if f.bit_count() & 1 else 1 for f in K.faces) * -1


# ---------------------------------------------------------------------------
# relative homology of (simplex, subcomplex) on a common vertex set

def relative_homology(omega, L: SimplicialComplex):
    """Homology of the pair (full simplex on omega, L), with a cross-check.

    Generators are the subsets of omega that are not faces of L, graded one
    above their reduced dimension.  Returns ``(groups, agrees)`` where
    ``agrees`` reports whether the groups equal the reduced homology of L
    shifted up by one degree, as the long exact sequence of the pair
    demands.  If L is the full simplex there are no generators and the
    groups are zero.
    """
    w = _as_mask(omega)
    if L.ground & ~w:
        bad = vertices_of(L.ground & ~w)[0]
        raise ValueError(f"subcomplex vertex {bad} is not in the vertex set")
    cx = _chain_complex(submasks(w), L.faces)
    groups = _graded_groups(*_smith_data(cx), None, False)
    agrees = groups == reduced_homology(L).shift(1)
    return groups, agrees


# ---------------------------------------------------------------------------
# induced maps of inclusions on field homology (tiny dense systems only)

def _rref(rows, p):
    """The one field row reduction: ``rows`` in place to reduced echelon form.

    Exact entries become field entries first: Fractions over Q (``p`` None)
    or residues mod the prime ``p``.  Returns the pivot columns in
    increasing order; column ``pivots[r]`` has its 1 in row r, and rows past
    the last pivot are zero.
    """
    rows[:] = [[Fraction(x) if p is None else x % p for x in r] for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], p - 2, p)
        top = rows[r] = [x * inv if p is None else x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y if p is None else (x - f * y) % p
                           for x, y in zip(row, top)]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def _homology_generators(cx: AugmentedChainComplex, n: int, p) -> list:
    """Representative cycles, in the degree-n face basis, of a homology basis.

    The cycles are the free-column kernel basis of the boundary out of
    degree n; the representatives are the cycle columns that are pivots
    when the boundary columns into degree n come first.
    """
    cn = len(cx.bases.get(n, ()))
    dn = cx.dense_boundary(n)
    pivots = _rref(dn, p)
    cycles = []
    for fc in range(cn):
        if fc not in pivots:
            z = [0] * cn
            z[fc] = 1
            for r, pc in enumerate(pivots):
                z[pc] = -dn[r][fc]
            cycles.append(z)
    k = len(cx.boundaries.get(n + 1, ()))
    rows = [b + [z[i] for z in cycles]
            for i, b in enumerate(cx.dense_boundary(n + 1))]
    return [cycles[c - k] for c in _rref(rows, p) if c >= k]


@dataclass(frozen=True)
class InducedDegreeMap:
    """Matrix of an induced map in chosen homology bases, with its dims."""

    matrix: tuple
    kernel_dim: int
    image_dim: int
    cokernel_dim: int


def induced_inclusion_map(A: SimplicialComplex, X: SimplicialComplex,
                          coeff: FieldCoeff = RATIONALS):
    """Degreewise matrices of the map induced by an inclusion of complexes.

    Returns a dict mapping each degree where either side has homology to an
    :class:`InducedDegreeMap`; columns index the subcomplex generators and
    rows the complex's.  Field coefficients only; entries are Fractions
    over Q and ints mod p.

    Basis rule, on which the matrix depends: on each side the degree-n
    cycles are the free-column kernel basis of the augmented boundary out of
    degree n (faces in increasing mask order), and the homology generators
    are the first cycles, in that order, that are independent modulo the
    boundaries.  Column j holds the coordinates of the j-th generator of A,
    included into X, on X's generators modulo X's boundaries.
    """
    if coeff is None:
        raise ValueError("induced maps need field coefficients, not the integers")
    if not A.faces <= X.faces:
        extra = next(iter(A.faces - X.faces))
        raise ValueError(
            f"inclusion requires a subcomplex; {list(vertices_of(extra))} is missing"
        )
    p = coeff.p
    cxa = chain_complex(A)
    cxx = chain_complex(X)
    degrees = set(reduced_homology(A, coeff).degrees())
    out = {}
    for n in sorted(degrees.union(reduced_homology(X, coeff).degrees())):
        gens_a = _homology_generators(cxa, n, p)
        gens_x = _homology_generators(cxx, n, p)
        # one reduction of [boundaries into n | X generators | included A
        # generators]: each A column is a combination of the pivot columns,
        # and its entries in the X generators' pivot rows are the matrix
        bnd = cxx.dense_boundary(n + 1)
        aindex = {f: i for i, f in enumerate(cxa.bases.get(n, ()))}
        rows = [bnd[i] + [z[i] for z in gens_x]
                + [z[aindex[f]] if f in aindex else 0 for z in gens_a]
                for i, f in enumerate(cxx.bases[n])]
        k = len(cxx.boundaries.get(n + 1, ()))
        pivots = _rref(rows, p)
        dim_a, dim_x = len(gens_a), len(gens_x)
        if pivots and pivots[-1] >= k + dim_x:
            raise ArithmeticError("inclusion image escaped the cycle space")
        first = len(pivots) - dim_x
        matrix = tuple(tuple(rows[first + i][k + dim_x:]) for i in range(dim_x))
        rank = len(_rref(list(matrix), p))
        out[n] = InducedDegreeMap(matrix, dim_a - rank, rank, dim_x - rank)
    return out


class UnsupportedSplitCheck(ValueError):
    """Raised when splitness over Z cannot be certified either way."""


def certify_homology_split(A: SimplicialComplex, X: SimplicialComplex,
                           coeff: FieldCoeff | None = None) -> str:
    """Certificate that the inclusion map splits degreewise.

    Over a field every map of vector spaces splits.  Over the integers only
    two checkable sufficient conditions are certified: torsion-free source
    homology with acyclic target, and acyclic source with torsion-free
    target.  Anything else raises :class:`UnsupportedSplitCheck`.
    """
    if coeff is not None:
        return "field"
    ha = reduced_homology(A)
    hx = reduced_homology(X)
    free_a = all(not g.torsion for _, g in ha.groups)
    free_x = all(not g.torsion for _, g in hx.groups)
    if free_a and hx.is_zero:
        return "free-to-acyclic"
    if ha.is_zero and free_x:
        return "acyclic-to-free"
    raise UnsupportedSplitCheck(
        "splitness over Z is only certified for acyclic-target or "
        "acyclic-source inclusions with free homology; use field coefficients"
    )


# ---------------------------------------------------------------------------
# consistency sweep used by the sanity suite

def homology_consistency_failures(K: SimplicialComplex) -> list[str]:
    """Cross-checks between Euler count, integer and field homology.

    Returns a list of human-readable discrepancies (empty when everything
    agrees): the alternating face count must match the alternating sum of
    integer ranks, rational dimensions must equal integer ranks, mod-2 and
    mod-3 dimensions must obey the universal-coefficient count, and cohomology
    must carry the same ranks with torsion shifted up one degree.
    """
    problems = []
    hz = reduced_homology(K)
    chi = euler_characteristic_reduced(K)
    chi_h = sum((-1) ** d * g.rank for d, g in hz.groups)
    if chi != chi_h:
        problems.append(f"euler count {chi} != alternating rank sum {chi_h}")
    hq = reduced_homology(K, RATIONALS)
    for d in set(hz.degrees()) | set(hq.degrees()):
        if hq.at(d).rank != hz.at(d).rank:
            problems.append(f"rational dim at {d} differs from integer rank")
    for p in (2, 3):
        hp = reduced_homology(K, GF(p))
        degrees = set(hp.degrees()) | set(hz.degrees())
        for d in sorted(degrees):
            expected = (
                hz.at(d).rank
                + sum(1 for t in hz.at(d).torsion if t % p == 0)
                + sum(1 for t in hz.at(d - 1).torsion if t % p == 0)
            )
            if hp.at(d).rank != expected:
                problems.append(
                    f"mod-{p} dim at {d} is {hp.at(d).rank}, expected {expected}"
                )
    hc = reduced_cohomology(K)
    degrees = set(hc.degrees()) | set(hz.degrees())
    for d in sorted(degrees):
        if hc.at(d).rank != hz.at(d).rank:
            problems.append(f"cohomology rank at {d} differs from homology")
        if hc.at(d).torsion != hz.at(d - 1).torsion:
            problems.append(f"cohomology torsion at {d} is not homology torsion at {d - 1}")
    return problems
