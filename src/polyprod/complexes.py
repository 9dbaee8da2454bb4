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

from dataclasses import dataclass
from itertools import product


def mask_of(vertices) -> int:
    """Bitmask of an iterable of positive integer labels."""
    m = 0
    for v in vertices:
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"vertex labels must be positive integers, got {v!r}")
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of labels in a bitmask (one step per set bit)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def submasks(mask: int):
    """All submasks of ``mask``, descending, ending with 0."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def _as_mask(x) -> int:
    return x if isinstance(x, int) else mask_of(x)


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable simplicial complex: a ground mask and a face-mask family.

    ``faces`` empty means the void complex; otherwise 0 (the empty face) is
    always a member.  Use the classmethod constructors; the raw constructor
    does not validate (see :meth:`validate`).
    """

    ground: int
    faces: frozenset[int]

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
        return cls(g, frozenset(submasks(g)))

    @classmethod
    def boundary_simplex(cls, ground) -> "SimplicialComplex":
        """Proper subsets of ``ground``.  On an empty ground this is void."""
        g = _as_mask(ground)
        return cls(g, frozenset(s for s in submasks(g) if s != g))

    @classmethod
    def from_facets(cls, ground, facets) -> "SimplicialComplex":
        """Downward closure of the given facets.

        An empty facet list gives the void complex; ``[[]]`` gives the
        complex whose only face is the empty set.
        """
        g = _as_mask(ground)
        closed = set()
        for facet in facets:
            f = _as_mask(facet)
            if f & ~g:
                bad = vertices_of(f & ~g)[0]
                raise ValueError(f"facet vertex {bad} is not in the ground set")
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
        by_size = sorted(self.faces, key=lambda f: (-f.bit_count(), f))
        out: list[int] = []
        for f in by_size:
            if not any(f & g == f for g in out):
                out.append(f)
        return sorted(out, key=lambda f: (f.bit_count(), vertices_of(f)))

    def validate(self) -> "SimplicialComplex":
        """Check the structural invariants, returning self."""
        for f in self.faces:
            if f & ~self.ground:
                raise ValueError(f"face {vertices_of(f)} leaves the ground set")
            for v in vertices_of(f):
                if f & ~(1 << (v - 1)) not in self.faces:
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
        if s & ~self.ground:
            bad = vertices_of(s & ~self.ground)[0]
            raise ValueError(f"link vertex {bad} is not in the ground set")
        return SimplicialComplex(
            self.ground & ~s,
            frozenset(f ^ s for f in self.faces if f & s == s),
        )

    def restrict(self, omega) -> "SimplicialComplex":
        """Full subcomplex on the vertex subset ``omega``."""
        w = _as_mask(omega)
        if w & ~self.ground:
            bad = vertices_of(w & ~self.ground)[0]
            raise ValueError(f"restriction vertex {bad} is not in the ground set")
        return SimplicialComplex(w, frozenset(f for f in self.faces if f & ~w == 0))

    def slice(self, sigma, omega) -> "SimplicialComplex":
        """Link at ``sigma`` restricted to ``omega`` (disjoint from sigma).

        Equals ``{tau subset of omega : sigma union tau is a face}`` on the
        ground set ``omega``; void exactly when ``sigma`` is not a face.
        """
        s, w = _as_mask(sigma), _as_mask(omega)
        if s & w:
            raise ValueError("slice index sets must be disjoint")
        if (s | w) & ~self.ground:
            bad = vertices_of((s | w) & ~self.ground)[0]
            raise ValueError(f"slice vertex {bad} is not in the ground set")
        keep = ~(s | w)
        return SimplicialComplex(
            w, frozenset(f ^ s for f in self.faces if f & s == s and f & keep == 0)
        )

    def dual(self, relative_to) -> "SimplicialComplex":
        """Alexander dual relative to an ambient set containing the support.

        Faces of the dual are the complements (in ``relative_to``) of the
        non-faces of self.  The dual of the full simplex is void and vice
        versa; applying ``dual`` twice with the same ambient set returns the
        original face family.
        """
        s_amb = _as_mask(relative_to)
        if s_amb == 0:
            raise ValueError("dual requires a nonempty ambient vertex set")
        supp = self.support()
        if supp & ~s_amb:
            bad = vertices_of(supp & ~s_amb)[0]
            raise ValueError(f"support vertex {bad} is outside the ambient set")
        return SimplicialComplex(
            s_amb,
            frozenset(s_amb ^ s for s in submasks(s_amb) if s not in self.faces),
        )

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
        verts = vertices_of(self.ground)
        images = [mapping[v] for v in verts]
        if len(set(images)) != len(images):
            raise ValueError("relabeling map is not injective on the ground set")
        shift = {1 << (v - 1): 1 << (mapping[v] - 1) for v in verts}

        def move(f: int) -> int:
            g = 0
            while f:
                low = f & -f
                g |= shift[low]
                f ^= low
            return g

        return SimplicialComplex(
            move(self.ground), frozenset(move(f) for f in self.faces)
        )


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
    vertex of K.  A face f of the candidate join belongs to the result iff
    the set of positions where f meets X_k outside A_k is a face of K.
    The void K gives the void result on the union of the pair grounds.
    """
    pairs = list(pairs)
    kverts = vertices_of(K.ground)
    if len(pairs) != len(kverts):
        raise ValueError(
            f"expected {len(kverts)} pairs for the ground of K, got {len(pairs)}"
        )
    ground = _check_pairs(pairs)
    out = set()
    face_lists = [sorted(x.faces) for x, _ in pairs]
    sub_sets = [a.faces for _, a in pairs]
    kbits = [1 << (v - 1) for v in kverts]
    for combo in product(*face_lists):
        tau = 0
        f = 0
        for i, fk in enumerate(combo):
            f |= fk
            if fk not in sub_sets[i]:
                tau |= kbits[i]
        if tau in K.faces:
            out.add(f)
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
    kverts = vertices_of(K.ground)
    if len(pairs) != len(kverts):
        raise ValueError(
            f"expected {len(kverts)} pairs for the ground of K, got {len(pairs)}"
        )
    _check_pairs(pairs)
    s_mask = 0
    core_pairs = []
    cone_factors = []
    for v, (x, a) in zip(kverts, pairs):
        if a.is_void:
            s_mask |= 1 << (v - 1)
            cone_factors.append(x)
        else:
            core_pairs.append((x, a))
    core = polyhedral_complex(K.link(s_mask), core_pairs)
    return core, cone_factors


def enumerate_complexes(ground):
    """All simplicial complexes on a ground set (at most 4 vertices).

    Yields the void complex first, then every downward-closed family
    containing the empty face, in a fixed deterministic order.
    """
    g = _as_mask(ground)
    n = g.bit_count()
    if n > 4:
        raise ValueError("exhaustive enumeration is limited to 4 vertices")
    nonempty = sorted(s for s in submasks(g) if s)
    yield SimplicialComplex.void(g)
    for code in range(1 << len(nonempty)):
        fam = {0}
        for i, s in enumerate(nonempty):
            if code >> i & 1:
                fam.add(s)
        ok = True
        for f in fam:
            x = f
            while x:
                low = x & -x
                if f ^ low not in fam:
                    ok = False
                    break
                x ^= low
            if not ok:
                break
        if ok:
            yield SimplicialComplex(g, frozenset(fam))


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
    positions = [1 << (v - 1) for v in vertices_of(g)]
    count = rng.randint(0, 1 << n)
    closed: set[int] = set()
    for _ in range(count):
        bits = rng.getrandbits(n)
        f = 0
        for i, p in enumerate(positions):
            if bits >> i & 1:
                f |= p
        if f not in closed:
            closed.update(submasks(f))
    return SimplicialComplex(g, frozenset(closed))


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
