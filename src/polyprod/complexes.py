"""Exact finite simplicial complexes on labeled vertex sets.

Vertices are positive integer labels.  A face is a set of labels, stored
internally as a bitmask (bit v-1 set  <=>  label v present), and a complex
stores its *full* downward-closed face family.  Two degenerate complexes are
kept rigorously distinct throughout:

* the void complex, with no faces at all (not even the empty one), and
* the complex ``{0}`` whose only face is the empty set.

Ground sets may contain ghost vertices (labels that lie in no face); they
matter for duals, which are always taken relative to an explicit ambient set.
Labels are global: links, restrictions and slices never relabel.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from ._record import Record


def mask_of(vertices) -> int:
    """Bitmask of an iterable of positive integer labels."""
    m = 0
    for v in vertices:
        # bool is an int subclass, and True would pass as the label 1
        if type(v) is not int or v < 1:
            raise ValueError(f"vertex labels must be positive integers, got {v!r}")
        m |= 1 << (v - 1)
    return m


def _bits_of(mask: int) -> list[int]:
    # the single-bit masks of ``mask``, ascending (one step per set bit)
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of labels in a bitmask (one step per set bit)."""
    return tuple([b.bit_length() for b in _bits_of(mask)])


def _positions(ground: int, items, what: str) -> list[int]:
    # the bits of the ground vertices owning ``items``: items[i] belongs to
    # the i-th smallest vertex of ``ground``
    bits = _bits_of(ground)
    if len(items) != len(bits):
        raise ValueError(f"expected {len(bits)} {what}, got {len(items)}")
    return bits


def _require_in_ground(ground: int, mask: int, what: str) -> None:
    outside = mask & ~ground
    if outside:
        bad = (outside & -outside).bit_length()
        raise ValueError(f"{what} vertex {bad} is not in the ground set")


def submasks(mask: int) -> tuple[int, ...]:
    """All submasks of ``mask``, ascending, indexed by code.

    Entry ``c`` is the submask picked out by the bits of the code ``c``:
    bit ``i`` stands for the ``i``-th smallest vertex of ``mask``.  The
    order is ascending because that relabelling is monotone.
    """
    ex = [0]
    for b in _bits_of(mask):
        ex += [e | b for e in ex]
    return tuple(ex)


def _as_mask(x) -> int:
    return x if isinstance(x, int) else mask_of(x)


# Submask tables of grounds and omegas of at most EXPAND_CACHED_VERTICES
# vertices are cached, EXPAND_CACHE_SIZE of them, and so are the sets of
# those submasks that duals take their faces from; no benchmark workload
# walks that many distinct ones (README lists what a round fills).  Facet
# closures read a gapped support's table through _expand and keep the
# vertex masks of _clear_codes per support size up to the same bound
EXPAND_CACHE_SIZE = 1024
EXPAND_CACHED_VERTICES = 12

_cached_expand = lru_cache(maxsize=EXPAND_CACHE_SIZE)(submasks)


def _expand(omega: int) -> tuple[int, ...]:
    # submasks(omega), kept when omega is small enough
    if omega.bit_count() <= EXPAND_CACHED_VERTICES:
        return _cached_expand(omega)
    return submasks(omega)


@lru_cache(maxsize=EXPAND_CACHE_SIZE)
def _cached_subset_set(mask: int) -> frozenset[int]:
    return frozenset(_expand(mask))


def _subset_set(mask: int) -> frozenset[int]:
    # the submasks of ``mask`` as a set, kept under the rule of _expand
    if mask.bit_count() <= EXPAND_CACHED_VERTICES:
        return _cached_subset_set(mask)
    return frozenset(submasks(mask))


def _build_clear_codes(n: int) -> tuple[int, ...]:
    # entry j < n: the 2^n-bit set of the codes with bit j clear, that is
    # blocks of 2^j ones and 2^j zeros from the low end, built by doubling
    out = []
    for j in range(n):
        z, width = (1 << (1 << j)) - 1, 2 << j
        while width < 1 << n:
            z |= z << width
            width <<= 1
        out.append(z)
    return tuple(out)


_cached_clear_codes = lru_cache(maxsize=EXPAND_CACHED_VERTICES + 1)(
    _build_clear_codes)


def _clear_codes(n: int) -> tuple[int, ...]:
    if n <= EXPAND_CACHED_VERTICES:
        return _cached_clear_codes(n)
    return _build_clear_codes(n)


# from_facets closes on one bitset when the support's 2^|S| codes are at
# most this many times the subsets that expanding each distinct facet
# would list; a wider, sparser support keeps the per-facet expansion
CLOSURE_BITSET_RATIO = 8

_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _code_bitset(codes, n: int) -> int:
    # the 2^n-bit integer with bit c set for each given code c
    size = 1 << n
    bits = bytearray(b"0") * size
    for c in codes:
        bits[size - 1 - c] = 49  # ord("1"); the string is read high bit first
    return int(bits, 2)


def _bitset_masks(present: int, support: int):
    # the masks over ``support`` of the codes set in ``present``, ascending
    flags = format(present, "b")[::-1].encode().translate(_BIT_FLAGS)
    if support & (support + 1) == 0:  # vertices 1..n: each code is its mask
        return compress(range(len(flags)), flags)
    return compress(_expand(support), flags)


def _close_codes(codes, support: int):
    # the faces, as masks in ascending order, under the given codes over
    # ``support``: the downward closure as a subset-sum ("zeta") transform
    # on one 2^n-bit integer (Bjorklund, Husfeldt, Kaski and Koivisto,
    # STOC 2007).  Bit c stands for code c; the pass for vertex j adds
    # c - 2^j for every present c that has bit j set
    n = support.bit_count()
    present = _code_bitset(codes, n)
    for j, clear in enumerate(_clear_codes(n)):
        present |= (present >> (1 << j)) & clear
    return _bitset_masks(present, support)


def _codes_closed(present: int, n: int) -> bool:
    # whether the family of the codes set in ``present``, over n vertices,
    # is closed downward: no pass for a vertex j finds a code c with bit j
    # set whose c - 2^j is missing
    return not any((present >> (1 << j)) & clear & ~present
                   for j, clear in enumerate(_clear_codes(n)))


def _move_faces(faces, bit_map: dict[int, int]) -> list[int]:
    # each face with every bit b replaced by bit_map[b]
    out = []
    for f in faces:
        g = 0
        while f:
            low = f & -f
            g |= bit_map[low]
            f ^= low
        out.append(g)
    return out


def _codes_over(masks, support: int):
    # each mask, a subset of ``support``, as its code over it: bit i stands
    # for the i-th smallest vertex of support.  Over vertices 1..n each mask
    # is its own code, and the masks come back as they were given
    if support & (support + 1) == 0:
        return masks
    return _move_faces(masks, {b: 1 << i for i, b in enumerate(_bits_of(support))})


def _link_support(faces, sigma: int, within: int) -> int:
    # the vertices v of ``within`` with sigma + v a face: every face of the
    # slice at (sigma, omega) lies in omega cut down to them
    support = 0
    for b in _bits_of(within):
        if sigma | b in faces:
            support |= b
    return support


def _slice_faces(faces, sigma: int, omega: int) -> list[int]:
    # the slice by its definition, {tau subset of omega : sigma | tau a face},
    # with tau running over the subsets of omega inside the link support only;
    # no faces at all (the void complex) when sigma is not a face
    if sigma not in faces:
        return []
    return [e for e in _expand(_link_support(faces, sigma, omega))
            if sigma | e in faces]


class SimplicialComplex(Record):
    """Immutable simplicial complex: a ground mask and a face-mask family.

    ``faces`` empty means the void complex; otherwise 0 (the empty face) is
    always a member.  Use the classmethod constructors; the raw constructor
    does not validate (see :meth:`validate`).
    """

    # the duality witness holds weak references to complexes
    __slots__ = ("ground", "faces", "__weakref__")
    _fields = ("ground", "faces")

    def __init__(self, ground: int, faces: frozenset[int]):
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "faces", faces)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ground == other.ground and self.faces == other.faces

    def __hash__(self) -> int:
        return hash((self.ground, self.faces))

    # -- constructors ------------------------------------------------------

    @classmethod
    def void(cls, ground) -> "SimplicialComplex":
        """The complex with no faces at all."""
        return cls(_as_mask(ground), frozenset())

    @classmethod
    def empty_face_complex(cls, ground) -> "SimplicialComplex":
        """The complex whose single face is the empty set."""
        return cls(_as_mask(ground), frozenset((0,)))

    @classmethod
    def full_simplex(cls, ground) -> "SimplicialComplex":
        """The full simplex: every subset of ``ground`` is a face."""
        g = _as_mask(ground)
        return cls(g, _subset_set(g))

    @classmethod
    def boundary_simplex(cls, ground) -> "SimplicialComplex":
        """Proper subsets of ``ground``.  On an empty ground this is void."""
        g = _as_mask(ground)
        return cls(g, frozenset(_expand(g)[:-1]))

    @classmethod
    def from_facets(cls, ground, facets) -> "SimplicialComplex":
        """Downward closure of the given facets.

        An empty facet list gives the void complex; ``[[]]`` gives the
        complex whose only face is the empty set.
        """
        g = _as_mask(ground)
        masks = []
        for facet in facets:
            f = _as_mask(facet)
            _require_in_ground(g, f, "facet")
            masks.append(f)
        distinct = set(masks)
        support = 0
        for f in distinct:
            support |= f
        expanded = sum(1 << f.bit_count() for f in distinct)
        if 1 << support.bit_count() <= CLOSURE_BITSET_RATIO * expanded:
            return cls(g, frozenset(_close_codes(_codes_over(distinct, support),
                                                 support)))
        closed = set()
        for f in masks:
            if f not in closed:
                closed.update(submasks(f))
        return cls(g, frozenset(closed))

    # -- basic queries ------------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def n_vertices(self) -> int:
        return self.ground.bit_count()

    def has_face(self, face) -> bool:
        return _as_mask(face) in self.faces

    def dim(self):
        """Top face dimension; None for the void complex."""
        if self.is_void:
            return None
        return max(f.bit_count() for f in self.faces) - 1

    def support(self) -> int:
        """Mask of vertices that actually appear in some face."""
        s = 0
        for f in self.faces:
            s |= f
        return s

    def facets(self) -> list[int]:
        """Maximal faces, sorted by (size, mask)."""
        # f is maximal iff adding any one vertex outside f leaves the family,
        # over the ground and any vertex an unvalidated face has outside it.
        # When their codes are few enough (the rule of from_facets), that is
        # one pass per vertex j on the bitset of the codes, marking c when
        # c + 2^j is present; else one lookup per face and vertex
        faces = self.faces
        g = self.ground | self.support()
        n = g.bit_count()
        if 1 << n <= CLOSURE_BITSET_RATIO * len(faces):
            present = _code_bitset(_codes_over(faces, g), n)
            covered = 0
            for j, clear in enumerate(_clear_codes(n)):
                covered |= (present >> (1 << j)) & clear
            out = _bitset_masks(present & ~covered, g)
        else:
            bits = _bits_of(g)
            out = [f for f in faces
                   if not any(f | b in faces for b in bits if not f & b)]
        return sorted(out, key=lambda f: (f.bit_count(), vertices_of(f)))

    def validate(self) -> "SimplicialComplex":
        """Check the structural invariants, returning self."""
        for f in self.faces:
            if f & ~self.ground:
                raise ValueError(f"face {vertices_of(f)} leaves the ground set")
            for b in _bits_of(f):
                if f ^ b not in self.faces:
                    raise ValueError(
                        f"face family is not downward closed at {vertices_of(f)}"
                    )
        return self

    def __repr__(self) -> str:
        if self.is_void:
            inner = "void"
        else:
            inner = "facets=" + str([list(vertices_of(f)) for f in self.facets()])
        return f"SimplicialComplex(ground={list(vertices_of(self.ground))}, {inner})"

    # -- the four local operations -----------------------------------------

    def link(self, sigma) -> "SimplicialComplex":
        """Faces disjoint from ``sigma`` whose union with it is a face.

        The result lives on ``ground minus sigma``.  If ``sigma`` is not a
        face the link is void; if it is a maximal face the link is ``{0}``.
        """
        s = _as_mask(sigma)
        _require_in_ground(self.ground, s, "link")
        return SimplicialComplex(
            self.ground & ~s,
            frozenset(f ^ s for f in self.faces if f & s == s),
        )

    def restrict(self, omega) -> "SimplicialComplex":
        """Full subcomplex on the vertex subset ``omega``."""
        w = _as_mask(omega)
        _require_in_ground(self.ground, w, "restriction")
        return SimplicialComplex(w, frozenset(f for f in self.faces if f & ~w == 0))

    def slice(self, sigma, omega) -> "SimplicialComplex":
        """Link at ``sigma`` restricted to ``omega`` (disjoint from sigma).

        Equals ``{tau subset of omega : sigma union tau is a face}`` on the
        ground set ``omega``; void exactly when ``sigma`` is not a face.
        """
        s, w = _as_mask(sigma), _as_mask(omega)
        if s & w:
            raise ValueError("slice index sets must be disjoint")
        _require_in_ground(self.ground, s | w, "slice")
        return SimplicialComplex(w, frozenset(_slice_faces(self.faces, s, w)))

    def dual(self, relative_to) -> "SimplicialComplex":
        """Alexander dual relative to an ambient set containing the support.

        Faces of the dual are the complements (in ``relative_to``) of the
        non-faces of self.  The dual of the full simplex is void and vice
        versa; applying ``dual`` twice with the same ambient set returns the
        original face family.

        The faces are all subsets of the ambient set but the complements of
        the faces of self, one set difference.  A face with a vertex outside
        the ambient set has a complement that is no subset and removes
        nothing, so the counts add up to 2^n exactly when there is none.
        """
        s_amb = _as_mask(relative_to)
        if s_amb == 0:
            raise ValueError("dual requires a nonempty ambient vertex set")
        faces = self.faces
        out = _subset_set(s_amb).difference(map(s_amb.__xor__, faces))
        if len(out) + len(faces) != 1 << s_amb.bit_count():
            bad = vertices_of(self.support() & ~s_amb)[0]
            raise ValueError(f"support vertex {bad} is outside the ambient set")
        return SimplicialComplex(s_amb, out)

    # -- lattice operations on one ground ------------------------------------

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        if self.ground != other.ground:
            raise ValueError("union requires equal ground sets")
        return SimplicialComplex(self.ground, self.faces | other.faces)

    def intersection(self, other: "SimplicialComplex") -> "SimplicialComplex":
        if self.ground != other.ground:
            raise ValueError("intersection requires equal ground sets")
        return SimplicialComplex(self.ground, self.faces & other.faces)

    def relabel(self, mapping: dict[int, int]) -> "SimplicialComplex":
        """Relabel vertices through an injective map given on the ground set."""
        for key in mapping:
            # True and 2.0 would pass a lookup as the vertices 1 and 2
            if type(key) is not int:
                raise ValueError(f"relabeling map keys must be integers, got {key!r}")
        shift = {}
        for b in _bits_of(self.ground):
            v = b.bit_length()
            if v not in mapping:
                raise ValueError(f"relabeling map misses ground vertex {v}")
            shift[b] = mask_of((mapping[v],))
        if len(set(shift.values())) != len(shift):
            raise ValueError("relabeling map is not injective on the ground set")
        ground, *faces = _move_faces((self.ground, *self.faces), shift)
        return SimplicialComplex(ground, frozenset(faces))


def make_complex(ground, facets) -> SimplicialComplex:
    """Downward closure of a facet list; the module-level constructor."""
    return SimplicialComplex.from_facets(ground, facets)


def join(factors) -> SimplicialComplex:
    """Join of complexes on pairwise disjoint ground sets.

    Faces are unions of one face from each factor.  Any void factor makes
    the join void; the join of no factors is ``{0}`` on the empty ground.
    """
    factors = list(factors)
    ground = 0
    for k in factors:
        if k.ground & ground:
            bad = vertices_of(k.ground & ground)[0]
            raise ValueError(f"join factors overlap at vertex {bad}")
        ground |= k.ground
    if any(k.is_void for k in factors):
        return SimplicialComplex.void(ground)
    acc = {0}
    for k in factors:
        acc = {a | f for a in acc for f in k.faces}
    return SimplicialComplex(ground, frozenset(acc))


def _check_pairs(pairs):
    ground = 0
    for x, a in pairs:
        if x.ground != a.ground:
            raise ValueError("each pair must share one ground set")
        if not a.faces <= x.faces:
            extra = next(iter(a.faces - x.faces))
            raise ValueError(
                f"subcomplex face {list(vertices_of(extra))} is not a face of its pair"
            )
        if x.ground & ground:
            bad = vertices_of(x.ground & ground)[0]
            raise ValueError(f"pair ground sets overlap at vertex {bad}")
        ground |= x.ground
    return ground


def polyhedral_complex(K: SimplicialComplex, pairs) -> SimplicialComplex:
    """Union over faces tau of K of the joins (X_k for k in tau, A_k else).

    ``pairs[i]`` is the pair ``(X, A)`` attached to the i-th smallest ground
    vertex of K.  A face f of the result belongs to exactly one of the
    joins of (X_k minus A_k for k in tau, A_k else), tau the positions
    where f meets X_k outside A_k, so the result is built as their disjoint
    union, each join as the unions of one face per position: its cost is
    the size of the result, not the product of the face lists.
    The void K gives the void result on the union of the pair grounds.
    """
    pairs = list(pairs)
    bits = _positions(K.ground, pairs, "pairs for the ground of K")
    ground = _check_pairs(pairs)
    inside = [a.faces for _, a in pairs]
    outside = [x.faces - a.faces for x, a in pairs]
    out = []
    for tau in K.faces:
        if tau & ~K.ground:
            continue  # an unvalidated face no choice of positions gives
        lists = [outside[i] if tau & b else inside[i] for i, b in enumerate(bits)]
        acc = [0]
        for faces in sorted(lists, key=len):
            acc = [a | f for a in acc for f in faces]
        out += acc
    return SimplicialComplex(ground, frozenset(out))


def composition_complex(K: SimplicialComplex, factors) -> SimplicialComplex:
    """Polyhedral complex with pairs (full simplex on L's ground, L)."""
    return polyhedral_complex(
        K, [(SimplicialComplex.full_simplex(L.ground), L) for L in factors]
    )


def ghost_factorization(K: SimplicialComplex, pairs):
    """Split a polyhedral complex over the positions with void subcomplex.

    Returns ``(core, cone_factors)`` where ``core`` is the polyhedral complex
    of the link of S = {positions k with A_k void} over the remaining pairs
    and ``cone_factors`` lists X_k for k in S.  The join of the core with the
    cone factors equals ``polyhedral_complex(K, pairs)``; when S is not a
    face the core (hence the join) is void.
    """
    pairs = list(pairs)
    bits = _positions(K.ground, pairs, "pairs for the ground of K")
    _check_pairs(pairs)
    s_mask = 0
    core_pairs = []
    cone_factors = []
    for b, (x, a) in zip(bits, pairs):
        if a.is_void:
            s_mask |= b
            cone_factors.append(x)
        else:
            core_pairs.append((x, a))
    core = polyhedral_complex(K.link(s_mask), core_pairs)
    return core, cone_factors


def enumerate_complexes(ground):
    """All simplicial complexes on a ground set (at most 4 vertices).

    Yields the void complex first, then every downward-closed family
    containing the empty face, in ascending order of its code: bit i of
    the code puts in the nonempty subset of ground code i + 1.
    """
    g = _as_mask(ground)
    n = g.bit_count()
    if n > 4:
        raise ValueError("exhaustive enumeration is limited to 4 vertices")
    yield SimplicialComplex.void(g)
    for code in range(1 << (1 << n) - 1):
        # bit c: code c is a face
        present = code << 1 | 1
        if _codes_closed(present, n):
            yield SimplicialComplex(g, frozenset(_bitset_masks(present, g)))


def random_complex(rng, ground) -> SimplicialComplex:
    """Random complex: 5% void, 5% just the empty face, else random facets.

    The facet count is uniform on [0, 2^n] and each facet is uniform over
    subsets of the ground; the family is the downward closure.  A facet
    count of zero also yields the void complex.
    """
    g = _as_mask(ground)
    n = g.bit_count()
    r = rng.random()
    if r < 0.05:
        return SimplicialComplex.void(g)
    if r < 0.10:
        return SimplicialComplex.empty_face_complex(g)
    count = rng.randint(0, 1 << n)
    codes = [rng.getrandbits(n) for _ in range(count)]
    return SimplicialComplex(g, frozenset(_close_codes(codes, g)))


def random_subcomplex(rng, X: SimplicialComplex) -> SimplicialComplex:
    """Random subcomplex of X (possibly void, possibly all of X)."""
    return X.intersection(random_complex(rng, X.ground))


def consecutive_blocks(sizes) -> list[int]:
    """Ground masks for consecutive blocks of the given sizes, from vertex 1."""
    out = []
    v = 1
    for n in sizes:
        if n < 0:
            raise ValueError("block sizes must be nonnegative")
        out.append(mask_of(range(v, v + n)))
        v += n
    return out


def embed_on_blocks(locals_: list[SimplicialComplex]):
    """Relabel complexes on local grounds [1..n_k] onto consecutive blocks."""
    out = []
    offset = 0
    for L in locals_:
        n = L.n_vertices
        if L.ground != mask_of(range(1, n + 1)):
            raise ValueError("each factor must have ground {1,...,n}")
        out.append(L.relabel({v: v + offset for v in range(1, n + 1)}))
        offset += n
    return out
