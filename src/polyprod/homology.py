"""Reduced simplicial (co)homology by exact Smith normal form.

All arithmetic is exact: arbitrary-precision integers for Smith reduction,
rationals or prime fields for basis computations.  Chain complexes are
augmented, so the empty face is a degree -1 generator and the void complex
has zero homology everywhere, while the complex ``{0}`` has a single Z in
degree -1.

The groups of a complex K are read modulo the closed star st(v) of its
first vertex v, the faces whose union with v is a face.  The star is a
cone, so H_n(K, st v) is the reduced (co)homology of K over every
coefficient ring, and the relative complex keeps only the faces outside
it: one cell for the boundary of a simplex, none for a cone on v.
:func:`chain_complex` and :func:`relative_homology` stay unreduced.

One builder yields each degree's boundary as ``{row: sign}`` columns; the
groups reduce and drop them before the next degree's are built.

Smith reduction is one sparse elimination, on +-1 pivots while any is left
and else on an entry of least absolute value.  Ranks, over Z or a field, are
read off the diagonal it leaves; the torsion is put into invariant-factor
form once, by :meth:`FgAbelianGroup.from_divisors`.

Boundary orientation: the vertices of a face are taken in increasing label
order and deleting the i-th one carries sign (-1)^i.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush

from ._record import Record
from .abelian import FgAbelianGroup, GradedGroup, _factorint
from .complexes import (
    CLOSURE_BITSET_RATIO,
    SimplicialComplex,
    _as_mask,
    _bits_of,
    _bitset_masks,
    _clear_codes,
    _code_bitset,
    _codes_closed,
    _codes_over,
    submasks,
    vertices_of,
)


# ---------------------------------------------------------------------------
# coefficients

class FieldCoeff(Record):
    """Field coefficients: the rationals (p = None) or GF(p), prime p < 2**31."""

    _fields = __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            # a float would pass the trial division below
            if type(p) is not int:
                raise ValueError(f"field characteristic must be an integer, got {p!r}")
            # trial division up to the square root stays instant below the bound
            if p >= 2**31:
                raise ValueError(f"field characteristic must be below 2**31, got {p}")
            if _factorint(p) != {p: 1}:
                raise ValueError(f"field characteristic must be prime, got {p}")
        object.__setattr__(self, "p", p)


RATIONALS = FieldCoeff(None)


def GF(p: int) -> FieldCoeff:
    return FieldCoeff(p)


# ---------------------------------------------------------------------------
# Smith normal form

def _least_entry(col_entries) -> tuple[int, int]:
    # (column, row) of the entry of least |value|, ties by column, then row
    return min((abs(v), j, i) for j, c in col_entries.items() for i, v in c.items())[1:]


def _invariant_factors(columns) -> list[int]:
    """Nonzero diagonal of a diagonal form of a sparse integer matrix.

    Each column is a dict ``{row: value}``, used up by the reduction.  A
    step with pivot p at (i, j) subtracts ``c[i] // p`` times column j from
    each other column c with an entry in row i; once row i holds p alone,
    the rest of column j is reduced mod p.  If p is then alone in its
    column, |p| joins the result and row i and column j go.  The result's
    length is the rank and its product is the product of the invariant
    factors, but it need not be a divisibility chain;
    :meth:`FgAbelianGroup.from_divisors` turns it into one.

    Pivot rule: the pivot column is the first remaining column, in column
    order, that holds a +-1 entry; within it the unit of least Markowitz
    cost ``(row_count - 1) * (col_len - 1)`` wins, the first one on ties.
    The choice is local on purpose: searching every column for the
    globally cheapest unit costs a pass over all nonzeros per pivot, so
    the unit pass grew as pivots x nnz, while boundary matrices have a unit
    in nearly every column (sparse elimination ordering as in Dumas,
    Saunders and Villard, JSC 2001).  A heap of column indices finds that
    column without rescanning: a column leaves the heap when it is found
    unitless and rejoins it when a step changes it.  With no unit left the
    pivot is the entry of least |value| (:func:`_least_entry`); a step that
    retires no pivot leaves a smaller entry, so the reduction ends.
    """
    col_entries: dict[int, dict[int, int]] = {}
    row_cols: dict[int, set[int]] = {}
    for j, c in enumerate(columns):
        if c:
            col_entries[j] = c
            for i in c:
                row_cols.setdefault(i, set()).add(j)
    waiting = list(col_entries)  # ascending, hence already a heap
    queued = set(waiting)
    out = []
    while col_entries:
        if waiting:
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
        else:
            j, i = _least_entry(col_entries)
            piv_col = col_entries[j]
        p = piv_col.pop(i)
        row = row_cols[i]
        row.discard(j)
        for j2 in list(row):
            c2 = col_entries[j2]
            mult, rest = divmod(c2.pop(i), p)
            if rest:
                c2[i] = rest
            else:
                row.discard(j2)
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
        unit = p == 1 or p == -1
        if not unit and not row:
            for i2, w in list(piv_col.items()):
                w %= p
                if w:
                    piv_col[i2] = w
                else:
                    del piv_col[i2]
                    row_cols[i2].discard(j)
        if row or not unit and piv_col:
            # a remainder below |p| is left in row i or column j
            piv_col[i] = p
            row.add(j)
            queued.add(j)
            heappush(waiting, j)
            continue
        del col_entries[j]
        for i2 in piv_col:
            row_cols[i2].discard(j)
        out.append(abs(p))
    return out


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors d1 | d2 | ... of a dense integer matrix.

    Only the nonzero diagonal entries are returned, so the length of the
    result is the rank.  :func:`_invariant_factors` brings the matrix to a
    diagonal form first; :meth:`FgAbelianGroup.from_divisors` turns that
    diagonal into the invariant-factor chain.
    """
    matrix = [list(row) for row in matrix]
    ncols = len(matrix[0]) if matrix else 0
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("matrix rows must all have the same length")
        # a float loses exactness, and bool is an int subclass
        if list(map(type, row)).count(int) != ncols:
            bad = next(x for x in row if type(x) is not int)
            raise ValueError(f"matrix entries must be integers, got {bad!r}")
    cols = [{i: x for i, x in enumerate(col) if x} for col in zip(*matrix)]
    diagonal = _invariant_factors(cols)
    torsion = FgAbelianGroup.from_divisors(0, diagonal).torsion
    return [1] * (len(diagonal) - len(torsion)) + list(torsion)


# ---------------------------------------------------------------------------
# chain complexes

class AugmentedChainComplex:
    """Bases and boundary columns of an augmented chain complex.

    ``bases[d]`` is the sorted tuple of generator masks of dimension d (the
    empty face sits in degree -1).  ``boundaries[d]``, for every d >= 0 with
    generators, holds one column per basis face: a dict mapping a row
    index in ``bases[d-1]`` to its sign.
    """

    def __init__(self, bases, boundaries):
        self.bases = bases
        self.boundaries = boundaries

    def dense_boundary(self, d: int) -> list[list[int]]:
        nrows = len(self.bases.get(d - 1, ()))
        cols = self.boundaries.get(d, [])
        out = [[0] * len(cols) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for i, s in col.items():
                out[i][j] = s
        return out


def _boundary_columns(faces, quotient=frozenset()):
    """Chain complex of a face-mask family modulo the faces in ``quotient``.

    Yields ``(d, basis, columns)`` by ascending d: the sorted generator
    masks and one ``{row: sign}`` column each, whose rows index the basis
    of degree d - 1, the one index kept.  The generators are the faces not
    in ``quotient``, and boundary terms that land in ``quotient`` are
    dropped, so ``quotient`` must be closed under taking subfaces.  Every
    other codimension-one face of a generator must itself be a generator.
    """
    by_deg: dict[int, list[int]] = {}
    for f in faces:
        if f not in quotient:
            by_deg.setdefault(f.bit_count() - 1, []).append(f)
    below = {}
    for d in sorted(by_deg):
        basis = tuple(sorted(by_deg.pop(d)))
        yield d, basis, [{below[sub]: -1 if pos & 1 else 1
                          for pos, b in enumerate(_bits_of(f))
                          if (sub := f ^ b) not in quotient} for f in basis]
        below = {f: i for i, f in enumerate(basis)}


def chain_complex(K: SimplicialComplex) -> AugmentedChainComplex:
    """Augmented chain complex of a complex (empty for the void complex)."""
    degrees = list(_boundary_columns(K.faces))
    return AugmentedChainComplex({d: b for d, b, _ in degrees},
                                 {d: c for d, _, c in degrees if d >= 0})


def _smith_data(faces, quotient=frozenset()):
    # per degree: basis size and invariant factors of the boundary map out
    # of that degree, whose columns are used up and dropped before the next
    counts, factors = {}, {}
    for d, basis, cols in _boundary_columns(faces, quotient):
        counts[d], factors[d] = len(basis), tuple(_invariant_factors(cols))
        del cols
    return counts, factors


def _field_rank(factors, p) -> int:
    # any diagonal form gives the Smith form's count: the transforms are
    # unimodular over Z, so they stay invertible mod p
    if p is None:
        return len(factors)
    return sum(1 for d in factors if d % p)


def _graded_groups(counts, factors, coeff, cohomology) -> GradedGroup:
    out = {}
    for n in range(-1, max(counts, default=-2) + 1):
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
    return tuple(sorted(_codes_over(faces, support)))


# Bounds of the two homology caches: a round of the busiest benchmark
# workload (verify-suites) fills about 1,300 and 2,300 entries
HOMOLOGY_DATA_CACHE_SIZE = 4096
GROUPS_CACHE_SIZE = 8192


def _closed_star(key: tuple[int, ...]) -> set[int]:
    # the closed star of vertex 1 (mask 1) in a canonical family on
    # vertices 1..k, the faces f with f | 1 a face, once the family is
    # known to be closed downward.  On the census's bitset of its codes when
    # 2^k is at most CLOSURE_BITSET_RATIO times the faces: even code c is
    # in the star when c + 1 is present, odd code c when c is.  Else one
    # lookup per face and vertex
    k = key[-1].bit_length() if key else 0
    if 1 << k <= CLOSURE_BITSET_RATIO * len(key):
        present = _code_bitset(key, k)
        closed = _codes_closed(present, k)
        odd = ~_clear_codes(k)[0] if k else 0
        star = set(_bitset_masks(present & (present >> 1 | odd), (1 << k) - 1))
    else:
        faces = set(key)
        closed = all(f ^ b in faces for f in key for b in _bits_of(f))
        star = {f for f in key if f | 1 in faces}
    if not closed:
        raise ValueError("the face family is not closed downward")
    return star


@lru_cache(maxsize=HOMOLOGY_DATA_CACHE_SIZE)
def _homology_data(key: tuple[int, ...]):
    # key is a canonical face-mask family, read modulo the closed star of
    # its vertex 1.  The star is a cone, so H_n(K, st 1) is the reduced
    # (co)homology of K over any coefficients.  Void and {0} have no
    # vertex, so their star is empty and they stay unreduced.  A family not
    # closed downward is refused before the quotient, which could hide it
    return _smith_data(key, _closed_star(key))


@lru_cache(maxsize=GROUPS_CACHE_SIZE)
def _groups_from_key(key, coeff, cohomology) -> GradedGroup:
    return _graded_groups(*_homology_data(key), coeff, cohomology)


def homology_of_faces(faces, coeff: FieldCoeff | None = None,
                      cohomology: bool = False) -> GradedGroup:
    """Reduced (co)homology of a raw face-mask family.

    Raises ValueError when the family is not closed downward.
    """
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
    groups = _graded_groups(*_smith_data(submasks(w), L.faces), None, False)
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
    # imported here: only induced maps need it, and every command pays
    # for a module-level import at start-up
    from fractions import Fraction

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


class InducedDegreeMap(Record):
    """Matrix of an induced map in chosen homology bases, with its dims."""

    _fields = __slots__ = ("matrix", "kernel_dim", "image_dim", "cokernel_dim")

    def __init__(self, matrix: tuple, kernel_dim: int, image_dim: int, cokernel_dim: int):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "kernel_dim", kernel_dim)
        object.__setattr__(self, "image_dim", image_dim)
        object.__setattr__(self, "cokernel_dim", cokernel_dim)


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
        # torsion at d - 1 alone puts a class in degree d
        degrees = {*hp.degrees(), *hz.degrees(), *(d + 1 for d in hz.degrees())}
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
