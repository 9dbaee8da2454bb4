"""Randomized and exhaustive verification suites for the structural identities.

Each suite checks one identity family on randomly generated instances (plus
curated edge instances in the first trial slots) and reports one line per
trial: ``TRIAL <seed> <suite> PASS|FAIL``.  Failing trials carry a
counterexample rendered in the document format, shrunk by the dual,
slice-dual and alexander suites.  Trials are deterministic: trial i of a
run with seed s uses the derived seed ``s * 1_000_003 + i``.

A suite is one check ``check(rng, i, max_vertices)`` returning None or the
failure text, plus one ``SUITES`` entry naming it; :func:`suite_trials`
runs it per trial and :func:`_fan_out` spreads the trials over the cores.
"""

from __future__ import annotations

import marshal
import os
import random
import time
from bisect import bisect_right
from collections.abc import Sequence
from functools import cache

from ._record import Record
from .abelian import FgAbelianGroup, GradedGroup
from .complexes import (
    SimplicialComplex,
    _bits_of,
    composition_complex,
    consecutive_blocks,
    embed_on_blocks,
    enumerate_complexes,
    ghost_factorization,
    join,
    make_complex,
    mask_of,
    polyhedral_complex,
    random_complex,
    random_subcomplex,
    vertices_of,
)
from .documents import document_of
from .hochster import (
    DualityCheckError,
    alexander_duality_witness,
    composition_homology,
    hochster_composition_formula,
    hochster_table,
    slice_duality_mismatches,
)
from .homology import GF, homology_consistency_failures, reduced_homology
from .spaces import (
    FiniteSpacePair,
    SpherePairSystem,
    complement_identity_check,
    factorization_identity_check,
    sphere_pair_duality_check,
    sphere_pair_homology,
    substitution_identity_check,
)

# number of complexes (void and {0} included) on 0..4 labeled vertices;
# the exhaustive census must reproduce these exactly
_COMPLEX_COUNTS = (2, 3, 6, 20, 168)

RP2_FACETS = (
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
)


def rp2_complex() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    return make_complex(range(1, 7), RP2_FACETS)


def cone_over_rp2() -> SimplicialComplex:
    """Cone over the 6-vertex projective plane with apex vertex 7.

    Its slice at (sigma, omega) = ({7}, [6]) is the projective plane, so
    duality suites on this complex exercise torsion.
    """
    facets = [f + (7,) for f in RP2_FACETS]
    return make_complex(range(1, 8), facets)


def cycle_complex(n: int, start: int = 1) -> SimplicialComplex:
    """The n-gon boundary cycle on vertices start..start+n-1 (n >= 3)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    vs = list(range(start, start + n))
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return make_complex(vs, edges)


# self-dual complexes on local grounds {1..n}, one per size
_SELF_DUAL_FACETS = {
    1: ((),),
    2: ((1,),),
    3: ((1,), (2,), (3,)),
    4: ((1, 4), (2, 4), (3, 4)),
}


@cache
def self_dual_complex(n: int) -> SimplicialComplex:
    return make_complex(range(1, n + 1), _SELF_DUAL_FACETS[n])


class Trial(Record):
    _fields = __slots__ = ("seed", "suite", "ok", "counterexample")

    def __init__(self, seed: int, suite: str, ok: bool, counterexample: str = ""):
        _set_seed(self, seed)
        _set_suite(self, suite)
        _set_ok(self, ok)
        _set_counterexample(self, counterexample)

    def lines(self) -> list[str]:
        head = f"TRIAL {self.seed} {self.suite} {'PASS' if self.ok else 'FAIL'}"
        if self.ok or not self.counterexample:
            return [head]
        return [head] + ["  " + l for l in self.counterexample.splitlines()]


# the slots' own setters, as for SimplicialComplex: one Trial per trial
_set_seed = Trial.seed.__set__
_set_suite = Trial.suite.__set__
_set_ok = Trial.ok.__set__
_set_counterexample = Trial.counterexample.__set__


class TrialLog(Sequence):
    """A suite's trials in memory that grows with its failures, not its trials.

    A passing trial under the log's suite name whose seed is one past the
    previous pass's extends that run of seeds; any other trial is kept as it
    came.  Reading rebuilds ``Trial(seed, suite, True)`` for a run's seeds,
    and the log compares and hashes like the tuple of its trials.
    """

    __slots__ = ("suite", "_parts", "_ends")

    def __init__(self, suite: str, trials=()):
        self.suite = suite
        self._parts: list[range | Trial] = []
        self._ends: list[int] = []  # trials up to and including each part
        for t in trials:
            self.append(t)

    def append(self, trial: Trial) -> None:
        end = len(self) + 1
        if trial.ok and not trial.counterexample and trial.suite == self.suite:
            last = self._parts[-1] if self._parts else None
            if isinstance(last, range) and last.stop == trial.seed:
                self._parts[-1], self._ends[-1] = range(last.start, trial.seed + 1), end
                return
            trial = range(trial.seed, trial.seed + 1)
        self._parts.append(trial)
        self._ends.append(end)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        at = range(len(self))[i]  # bounds and negative indices as for a tuple
        if isinstance(at, range):
            return tuple(self[j] for j in at)
        k = bisect_right(self._ends, at)
        part = self._parts[k]
        if isinstance(part, Trial):
            return part
        return Trial(part[at - self._ends[k]], self.suite, True)  # back from its end

    def __iter__(self):
        for part in self._parts:
            if isinstance(part, Trial):
                yield part
            else:
                yield from (Trial(seed, self.suite, True) for seed in part)

    def __eq__(self, other):
        if not isinstance(other, (TrialLog, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"TrialLog({self.suite!r}, {self._parts!r})"


class SuiteResult(Record):
    """One suite's trials, held as a :class:`TrialLog` of the trials given."""

    _fields = __slots__ = ("suite", "trials")

    def __init__(self, suite: str, trials: TrialLog):
        if not isinstance(trials, TrialLog):
            trials = TrialLog(suite, trials)
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "trials", trials)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[Trial, ...]:
        # a run of seeds holds passes only
        return tuple(t for t in self.trials._parts if isinstance(t, Trial) and not t.ok)

    def summary(self) -> str:
        return (f"suite {self.suite}: {len(self.trials)} trials, "
                f"{len(self.failures)} failures")

    def report_lines(self) -> list[str]:
        lines = []
        for t in self.trials:
            lines.extend(t.lines())
        lines.append(self.summary())
        return lines


def _subseed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def _fan_out(count: int, job):
    """Yield ``job(i)`` for each i in ``range(count)``, in order.

    On k usable cores (capped at the count) the indices split into
    contiguous chunks, about 32 per process, whose numbers go into a ticket
    pipe; k - 1 children are forked, and each, like this process, claims
    the next chunk whenever it is free, so a slow chunk (the dual census)
    holds up only the process that claimed it.  A child sends each chunk's
    results, which ``marshal`` must take, down its own pipe as one
    length-prefixed message, and blocks once the pipe is full; this process
    keeps only the finished chunks ahead of the one it yields.  Without
    ``os.fork`` or ``os.sched_getaffinity``, or on one core, every job runs
    here with no pipe; a fork refused leaves one claimer fewer.  A lost
    chunk raises ``ChildProcessError`` with its first index.  Closing the
    generator kills and reaps the children, and a child ends within 0.1 s
    of its parent's end, by a thread that watches it.
    """
    k = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        k = max(1, min(len(os.sched_getaffinity(0)), count))
    if k == 1:
        yield from map(job, range(count))
        return
    # at most 1024 chunks, so that every 4-byte ticket fits in a
    # one-page pipe before any process reads one
    size = -(-count // min(count, 32 * k, 1024))
    chunks = -(-count // size)

    def chunk(c: int) -> list:
        return [job(i) for i in range(c * size, min(count, c * size + size))]

    parent = os.getpid()
    tickets, w = os.pipe()
    _write_all(w, b"".join(c.to_bytes(4, "little") for c in range(chunks)))
    os.close(w)  # a claim past the last ticket reads end of file
    readers = {}  # each child's pipe, with the bytes of its unread message
    pids = []
    try:
        for _ in range(1, k):
            r, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(out)
                continue
            if pid == 0:
                try:  # never return into the caller's stack or flush its buffers
                    os.close(r)
                    for fd in readers:  # the earlier children's pipes
                        os.close(fd)
                    import threading  # only a forked child starts a thread

                    threading.Thread(target=_end_when_orphaned, args=(parent,),
                                     daemon=True).start()
                    while ticket := os.read(tickets, 4):
                        c = int.from_bytes(ticket, "little")
                        data = marshal.dumps((c, chunk(c)))
                        _write_all(out, len(data).to_bytes(4, "little") + data)
                finally:
                    os._exit(0)
            os.close(out)
            pids.append(pid)
            readers[r] = bytearray()
        import select  # only a run that forks waits on its children

        done = {}  # finished chunks not yet yielded, by number
        claiming = True
        for c in range(chunks):
            while c not in done:
                if readers:  # collect what has come, waiting only with no chunk left to claim
                    ready = select.select(list(readers), [], [], 0 if claiming else None)[0]
                    for fd in ready:
                        _receive(fd, readers, done)
                    if c in done:
                        break
                if claiming:
                    if ticket := os.read(tickets, 4):
                        mine = int.from_bytes(ticket, "little")
                        done[mine] = chunk(mine)
                        continue
                    claiming = False
                if not readers:  # every chunk claimed, every child gone, c never came
                    raise ChildProcessError(c * size)
            yield from done.pop(c)
    finally:
        os.close(tickets)
        for fd in readers:
            os.close(fd)
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL; one that already exited waits to be reaped
            os.waitpid(pid, 0)


def _end_when_orphaned(parent: int) -> None:
    # a forked child's watch: a job may run for seconds, and once the
    # process that forked the child is gone no one reads its results
    while os.getppid() == parent:
        time.sleep(0.1)
    os._exit(0)


def _write_all(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _receive(fd: int, readers: dict, done: dict) -> None:
    # read what one child's pipe holds, keeping each whole message's chunk
    # in ``done``; at end of file the child has ended and its pipe is closed
    data = os.read(fd, 1 << 16)
    if not data:
        os.close(fd)
        del readers[fd]
        return
    buf = readers[fd]
    buf += data
    while len(buf) >= 4 and len(buf) >= (end := 4 + int.from_bytes(buf[:4], "little")):
        c, outcomes = marshal.loads(buf[4:end])
        done[c] = outcomes
        del buf[:end]


def _serialize(**named) -> str:
    parts = []
    for label, K in named.items():
        parts.append(f"{label}:")
        parts.extend("  " + line for line in document_of(K).render().splitlines())
    return "\n".join(parts)


def _factors(complexes) -> dict:
    return {f"factor_{j + 1}": K for j, K in enumerate(complexes)}


def _pair(sigma: int, omega: int) -> str:
    return f"sigma={list(vertices_of(sigma))} omega={list(vertices_of(omega))}"


def minimize_complex(K: SimplicialComplex, still_fails,
                     drop_vertices: bool = True) -> SimplicialComplex:
    """Greedy counterexample shrinker.

    Repeatedly drops a ground vertex (restricting to the rest) or a maximal
    face, keeping any change under which ``still_fails`` stays true, until
    no single deletion preserves the failure.
    """
    changed = True
    while changed:
        changed = False
        if drop_vertices:
            for b in _bits_of(K.ground):
                smaller = K.restrict(K.ground & ~b)
                if still_fails(smaller):
                    K = smaller
                    changed = True
                    break
            if changed:
                continue
        for f in K.facets():
            cand = SimplicialComplex(K.ground, frozenset(K.faces - {f}))
            if still_fails(cand):
                K = cand
                changed = True
                break
    return K


# One generator per random instance shape.  Each must keep the order of its
# draws from ``rng``: every trial drawn through it depends on that order.
def _random_pair_split(rng, ground: int):
    """Random disjoint (sigma, omega) inside a ground mask."""
    sigma = omega = 0
    for b in _bits_of(ground):
        digit = rng.randrange(3)
        if digit == 1:
            sigma |= b
        elif digit == 2:
            omega |= b
    return sigma, omega


def _random_blocks(rng, total_max: int):
    """Sizes and masks of 1-3 consecutive blocks of 1-4 vertices each; they
    hold ``total_max`` vertices at most unless that is under one per block."""
    m = rng.randint(1, 3)
    budget = total_max
    sizes = []
    for k in range(m):
        n_k = rng.randint(1, max(1, min(4, budget - (m - k - 1))))
        sizes.append(n_k)
        budget -= n_k
    return sizes, consecutive_blocks(sizes)


def _random_pairs(rng, blocks) -> list:
    """A random X on each block and a random subcomplex A of it."""
    pairs = []
    for b in blocks:
        X = random_complex(rng, b)
        pairs.append((X, random_subcomplex(rng, X)))
    return pairs


# ---------------------------------------------------------------------------
# suite: dual (involution, De Morgan, small-ground census)

def _dual_failure(K: SimplicialComplex, d: SimplicialComplex | None = None):
    # ``d``, when given, is K.dual(K.ground)
    g = K.ground
    if g == 0:
        return None
    if d is None:
        d = K.dual(g)
    if len(K.faces) + len(d.faces) != 1 << K.n_vertices:
        return "face counts of a complex and its dual do not sum to 2^n"
    if d.dual(g) != K:
        return "dual applied twice does not return the original"
    # the two checks above pass for the non-faces of K left uncomplemented
    if not K.faces.isdisjoint(map(g.__xor__, d.faces)):
        return "a face of the dual complements a face of the complex"
    return None


def _de_morgan_failure(K1: SimplicialComplex, K2: SimplicialComplex,
                       duals: dict | None = None):
    # ``duals``, when given, maps face families on the shared ground to the
    # duals there; any other complex, such as a union or an intersection
    # that is not in it, goes through ``dual``.  A complex is never falsy
    g = K1.ground
    known = (duals or {}).get
    d1 = known(K1.faces) or K1.dual(g)
    d2 = known(K2.faces) or K2.dual(g)
    K = K1.union(K2)
    if (known(K.faces) or K.dual(g)) != d1.intersection(d2):
        return "dual of a union is not the intersection of duals"
    K = K1.intersection(K2)
    if (known(K.faces) or K.dual(g)) != d1.union(d2):
        return "dual of an intersection is not the union of duals"
    return None


def _census_failure():
    for n, expect in enumerate(_COMPLEX_COUNTS):
        g = mask_of(range(1, n + 1))
        family = list(enumerate_complexes(g))
        if len(family) != expect:
            return (
                f"census on {n} vertices found {len(family)} complexes, "
                f"expected {expect}"
            )
        if n == 0:
            continue
        # the family is closed under union and intersection, so De Morgan
        # reads the duals of both from those of its members
        duals = {K.faces: K.dual(g) for K in family}
        for K in family:
            err = _dual_failure(K, duals[K.faces])
            if err:
                return err + "\n" + _serialize(complex=K)
        for K1 in family:
            for K2 in family:
                err = _de_morgan_failure(K1, K2, duals)
                if err:
                    return err + "\n" + _serialize(first=K1, second=K2)
    return None


def _check_dual(rng, i: int, max_vertices: int):
    if i == 0:
        return _census_failure()
    n = rng.randint(1, max_vertices)
    ground = (1 << n) - 1
    K1 = random_complex(rng, ground)
    K2 = random_complex(rng, ground)
    d1, d2 = K1.dual(K1.ground), K2.dual(K2.ground)
    if err := _dual_failure(K1, d1):
        K1 = minimize_complex(K1, lambda c: _dual_failure(c) is not None)
    elif err := _dual_failure(K2, d2):
        K2 = minimize_complex(K2, lambda c: _dual_failure(c) is not None)
    elif _de_morgan_failure(K1, K2, {K1.faces: d1, K2.faces: d2}):
        # shrink both by facets on their shared ground until neither can lose
        # one; the shrunk pair may break the other law, so report its own
        before = None
        while before != (K1, K2):
            before = K1, K2
            K1 = minimize_complex(K1, lambda c: _de_morgan_failure(c, K2) is not None,
                                  drop_vertices=False)
            K2 = minimize_complex(K2, lambda c: _de_morgan_failure(K1, c) is not None,
                                  drop_vertices=False)
        err = _de_morgan_failure(K1, K2)
    else:
        return None
    return err + "\n" + _serialize(first=K1, second=K2)


# ---------------------------------------------------------------------------
# suite: slice-dual (dual of a slice is the complementary slice of the dual)

def _slice_dual_failure(K: SimplicialComplex, sigma: int, omega: int):
    lhs = K.slice(sigma, omega).dual(omega)
    rhs = K.dual(K.ground).slice(K.ground & ~(sigma | omega), omega)
    if lhs != rhs:
        return f"slice dual mismatch at {_pair(sigma, omega)}"
    return None


def _check_slice_dual(rng, i: int, max_vertices: int):
    n = rng.randint(1, max_vertices)
    K = random_complex(rng, (1 << n) - 1)
    sigma, omega = _random_pair_split(rng, K.ground)
    if omega == 0:
        omega = _bits_of(K.ground)[rng.randrange(n)]
        sigma &= ~omega
    err = _slice_dual_failure(K, sigma, omega)
    if err is None:
        return None
    small = minimize_complex(K, lambda c: _slice_dual_failure(c, sigma, omega) is not None,
                             drop_vertices=False)
    return err + "\n" + _serialize(complex=small)


# ---------------------------------------------------------------------------
# suite: compose-slice (slices of polyhedral products work blockwise)

def _check_compose_slice(rng, i: int, max_vertices: int):
    _, blocks = _random_blocks(rng, max_vertices)
    K = random_complex(rng, (1 << len(blocks)) - 1)
    pairs = _random_pairs(rng, blocks)
    S = polyhedral_complex(K, pairs)
    sigma, omega = _random_pair_split(rng, S.ground)
    lhs = S.slice(sigma, omega)
    sliced_pairs = [
        (x.slice(sigma & b, omega & b), a.slice(sigma & b, omega & b))
        for (x, a), b in zip(pairs, blocks)
    ]
    rhs = polyhedral_complex(K, sliced_pairs)
    if lhs != rhs:
        return (
            f"blockwise slice mismatch at {_pair(sigma, omega)}\n"
            + _serialize(outer=K, **_factors(x for x, _ in pairs))
        )
    # ghost factorization: positions with a void subcomplex split off
    # as join factors over the link
    core, cones = ghost_factorization(K, pairs)
    if join([core] + cones) != S:
        return (
            "ghost factorization does not reassemble the product\n"
            + _serialize(outer=K)
        )
    return None


# ---------------------------------------------------------------------------
# suite: compose-dual (duality swaps a composition for the dual composition)

def _check_compose_dual(rng, i: int, max_vertices: int):
    sizes, blocks = _random_blocks(rng, max_vertices)
    K = random_complex(rng, (1 << len(blocks)) - 1)
    factors = [random_complex(rng, b) for b in blocks]
    S = composition_complex(K, factors)
    total = (1 << sum(sizes)) - 1
    lhs = S.dual(total)
    rhs = composition_complex(
        K.dual(K.ground), [L.dual(b) for L, b in zip(factors, blocks)]
    )
    if lhs != rhs:
        return (
            "dual of the composition is not the composition of duals\n"
            + _serialize(outer=K, **_factors(factors))
        )
    # closure: compositions of self-dual complexes stay self-dual
    sd_sizes = [rng.randint(1, 4) for _ in blocks]
    sd_outer = self_dual_complex(len(blocks))
    sd = composition_complex(
        sd_outer, embed_on_blocks([self_dual_complex(s) for s in sd_sizes])
    )
    if sd.dual(sd.ground) != sd:
        return (
            "composition of self-dual complexes is not self-dual\n"
            + _serialize(outer=sd_outer)
        )
    return None


# ---------------------------------------------------------------------------
# suite: alexander (slice homology of K against dual slice cohomology)

def _duality_table_failure(K: SimplicialComplex):
    """Compare every nonempty-omega entry of K's table with the dual table.

    The witness at (sigma, omega) checks F not in K exactly when ground - F
    is a dual face, for sigma <= F <= sigma + omega; one at (empty, ground)
    covers every pair.
    """
    dual = K.dual(K.ground)
    table = hochster_table(K)
    co_dual = hochster_table(dual, cohomology=True)
    for sigma, omega, (d, lhs, rhs) in slice_duality_mismatches(table, co_dual):
        return (
            f"slice homology at {_pair(sigma, omega)} degree {d} is "
            f"{lhs}, dual cohomology gives {rhs}"
        )
    try:
        alexander_duality_witness(K, 0, K.ground, precomputed_dual=dual)
    except DualityCheckError as e:
        return f"witness failed at {_pair(0, K.ground)}: {e}"
    return None


@cache
def _torsion_complexes():
    return (cone_over_rp2(), rp2_complex())


def _check_alexander(rng, i: int, max_vertices: int):
    curated = [c for c in _torsion_complexes() if c.n_vertices <= max_vertices]
    if i < len(curated):
        K = curated[i]
    else:
        n = rng.randint(1, max_vertices)
        K = random_complex(rng, (1 << n) - 1)
    err = _duality_table_failure(K)
    if err is None:
        bad = homology_consistency_failures(K)
        err = "; ".join(bad) if bad else None
    if err is None:
        return None
    small = minimize_complex(
        K, lambda c: c.ground != 0 and _duality_table_failure(c) is not None
    )
    # report the failure of the complex printed below it
    err = _duality_table_failure(small) or err
    return err + "\n" + _serialize(complex=small)


# ---------------------------------------------------------------------------
# suite: composition-homology (tensor formula for compositions)

def _free_random_complex(rng, ground) -> SimplicialComplex:
    # resample until the reduced homology is torsion-free; on small grounds
    # the first draw already is
    for _ in range(20):
        L = random_complex(rng, ground)
        h = reduced_homology(L)
        if not any(g.torsion for _, g in h.groups):
            return L
    return SimplicialComplex.empty_face_complex(ground)


def _sphere_like(rng, verts) -> SimplicialComplex:
    # every caller passes a run of consecutive labels, ascending
    if len(verts) >= 3 and rng.random() < 0.5:
        return cycle_complex(len(verts), verts[0])
    return SimplicialComplex.boundary_simplex(verts)


def _biased_free_complex(rng, ground) -> SimplicialComplex:
    # plain random complexes on few vertices are almost always contractible,
    # which would make the tensor identity vacuous; mix in actual spheres
    if rng.random() < 0.6:
        return _sphere_like(rng, ground)
    return _free_random_complex(rng, ground)


def _sphere_degree(parts) -> int:
    return sum(d + 1 for d in parts) - 1


@cache
def _composition_curated():
    tri = SimplicialComplex.boundary_simplex(range(1, 4))
    seg = SimplicialComplex.boundary_simplex
    point = SimplicialComplex.empty_face_complex
    return (
        (tri, (seg(range(4, 6)), seg(range(6, 8)), seg(range(8, 10)))),
        (cycle_complex(4), (point(mask_of([5])), point(mask_of([6])),
                            seg(range(7, 9)), point(mask_of([9])))),
        (seg(range(1, 3)), (cycle_complex(5, start=3), point(mask_of([8])))),
    )


def _check_composition_homology(rng, i: int, max_vertices: int):
    curated = _composition_curated()
    if i < len(curated):
        K, factors = curated[i]
        try:
            h = composition_homology(K, factors)
        except DualityCheckError as e:
            return str(e)
        want = _sphere_degree(
            [d for d, _ in reduced_homology(K).groups]
            + [d for L in factors for d, _ in reduced_homology(L).groups]
        )
        if h.total_rank() != 1 or h.at(want) != FgAbelianGroup(1):
            return (
                f"homology sphere closure failed: got {h}, expected Z "
                f"in degree {want}\n" + _serialize(outer=K)
            )
        return None
    _, blocks = _random_blocks(rng, max_vertices)
    outer = range(1, len(blocks) + 1)
    if rng.random() < 0.6:
        K = _sphere_like(rng, outer)
    else:
        K = random_complex(rng, outer)
    factors = [_biased_free_complex(rng, vertices_of(b)) for b in blocks]
    try:
        composition_homology(K, factors)
        composition_homology(K, factors, GF(2))
    except DualityCheckError as e:
        return str(e) + "\n" + _serialize(outer=K, **_factors(factors))
    comp = composition_complex(K, factors)
    bad = homology_consistency_failures(comp)
    if bad:
        return "; ".join(bad) + "\n" + _serialize(composition=comp)
    return None


# ---------------------------------------------------------------------------
# suite: hochster-composition (piecewise table formula)

def _check_hochster_composition(rng, i: int, max_vertices: int):
    _, blocks = _random_blocks(rng, max_vertices)
    K = random_complex(rng, (1 << len(blocks)) - 1)
    factors = []
    for b in blocks:
        L = random_complex(rng, b)
        if L.is_void:
            L = SimplicialComplex.empty_face_complex(b)
        factors.append(L)
    coeff = GF(2) if i % 5 == 4 else None
    report = hochster_composition_formula(K, factors, coeff)
    if report.ok:
        return None
    v = report.failures()[0]
    return (
        f"piece mismatch at {_pair(v.sigma, v.omega)}: {v.lhs} vs {v.rhs}\n"
        + _serialize(outer=K, **_factors(factors))
    )


# ---------------------------------------------------------------------------
# suite: complement (finite set models of the complement identity)

_LETTERS = ("a", "b", "c")


def _random_finite_pairs(rng, m: int, least: int = 1) -> list:
    """m finite pairs, each of ``least`` to ``least + 2`` points and any subset."""
    pairs = []
    for _ in range(m):
        nx = rng.randint(least, least + 2)
        points = frozenset(_LETTERS[:nx])
        sub = frozenset(rng.sample(sorted(points), rng.randint(0, nx)))
        pairs.append(FiniteSpacePair(points, sub))
    return pairs


def _check_complement(rng, i: int, max_vertices: int):
    m = rng.randint(1, max_vertices)
    ground = (1 << m) - 1
    if i % 10 == 0:
        K = SimplicialComplex.full_simplex(ground)
    elif i % 10 == 5:
        K = SimplicialComplex.void(ground)
    else:
        K = random_complex(rng, ground)
    pairs = _random_finite_pairs(rng, m)
    v = complement_identity_check(K, pairs)
    if v.ok:
        # idempotence: complementing the complement recovers the start
        v = complement_identity_check(
            K.dual(K.ground), [p.complement() for p in pairs]
        )
    return None if v.ok else v.detail + "\n" + _serialize(complex=K)


# ---------------------------------------------------------------------------
# suite: substitution (two-level products collapse through the composition)

def _check_substitution(rng, i: int, max_vertices: int):
    m = rng.randint(1, max_vertices)
    K = random_complex(rng, (1 << m) - 1)
    sizes = [rng.randint(1, 2) for _ in range(m)]
    inner = _random_pairs(rng, consecutive_blocks(sizes))
    leaf_pairs = _random_finite_pairs(rng, sum(sizes), least=0)
    v = substitution_identity_check(K, inner, leaf_pairs)
    if v.ok:
        # factorization of positions with empty subspace through the link
        v = factorization_identity_check(K, _random_finite_pairs(rng, m))
    return None if v.ok else v.detail + "\n" + _serialize(outer=K)


# ---------------------------------------------------------------------------
# suite: sphere-duality (ledger pairing between a space and its complement)

@cache
def _sphere_oracles():
    point_pair = (
        SimplicialComplex.empty_face_complex(mask_of([1])),
        SpherePairSystem.of((1, 0)),
        GradedGroup.from_dict({0: FgAbelianGroup(2)}),
    )
    four_spheres = (
        SimplicialComplex.boundary_simplex(range(1, 3)),
        SpherePairSystem.of((1, 0), (1, 0)),
        GradedGroup.from_dict({
            0: FgAbelianGroup(1),
            1: FgAbelianGroup(1),
            2: FgAbelianGroup(4),
        }),
    )
    return (point_pair, four_spheres)


def _check_sphere_duality(rng, i: int, max_vertices: int):
    oracles = _sphere_oracles()
    if i < len(oracles):
        K, system, want = oracles[i]
        report = sphere_pair_homology(K, system)
        if report.total != want:
            return f"oracle total {report.total} differs from {want}"
        v = sphere_pair_duality_check(K, system)
        return None if v.ok else v.detail
    n = rng.randint(1, max_vertices)
    K = random_complex(rng, (1 << n) - 1)
    params = []
    for _ in range(n):
        r = rng.randint(0, 3)
        params.append((r, rng.randint(0, r)))
    v = sphere_pair_duality_check(K, SpherePairSystem.of(*params))
    return None if v.ok else v.detail + "\n" + _serialize(complex=K)


# ---------------------------------------------------------------------------
# registry

class SuiteSpec(Record):
    _fields = __slots__ = ("check", "trials", "max_vertices", "census")

    def __init__(self, check, trials: int, max_vertices: int, census: bool = False):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "max_vertices", max_vertices)
        object.__setattr__(self, "census", census)


SUITES = {
    "dual": SuiteSpec(_check_dual, 10_000, 8, census=True),
    "slice-dual": SuiteSpec(_check_slice_dual, 1000, 10),
    "compose-slice": SuiteSpec(_check_compose_slice, 1000, 10),
    "compose-dual": SuiteSpec(_check_compose_dual, 1000, 10),
    "alexander": SuiteSpec(_check_alexander, 500, 7),
    "composition-homology": SuiteSpec(_check_composition_homology, 210, 9),
    "hochster-composition": SuiteSpec(_check_hochster_composition, 50, 8),
    "complement": SuiteSpec(_check_complement, 1000, 4),
    "substitution": SuiteSpec(_check_substitution, 500, 3),
    "sphere-duality": SuiteSpec(_check_sphere_duality, 200, 6),
}


# the largest ground a suite may draw on.  A random complex draws up to 2^n
# facets (out of memory, as failed trials, at 26).  At 16 one trial can take
# a minute: complement's and substitution's finite models enumerate a product
# of up to 3 points per vertex at every face, and alexander's tables span 3^n pairs
MAX_SUITE_VERTICES = 16


def suite_trials(name: str, trials: int | None = None,
                 max_vertices: int | None = None, seed: int = 0):
    """The trials of one named suite, each run as it is read; with its
    ``census`` set, trial 0 is an exhaustive check ahead of the random ones."""
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; choose one of: {known}")
    spec = SUITES[name]
    t = spec.trials if trials is None else trials
    mv = spec.max_vertices if max_vertices is None else max_vertices
    for arg, value in (("trials", t), ("max_vertices", mv), ("seed", seed)):
        # bool is an int subclass, and True would pass as 1
        if type(value) is not int:
            raise ValueError(f"{arg} must be an integer, got {value!r}")
    if t < 0:
        raise ValueError("trial count must be nonnegative")
    if mv < 1:
        raise ValueError("max vertices must be at least 1")
    if mv > MAX_SUITE_VERTICES:
        raise ValueError(f"max vertices must be at most {MAX_SUITE_VERTICES}, got {mv}")
    return _trials(name, spec.check, t + 1 if spec.census else t, mv, seed)


def _trials(name: str, check, count: int, max_vertices: int, seed: int):
    """Trial i < count is ``check(rng, i, max_vertices)``: None or the failure
    text, and a check that raises fails with the exception as the text.  The
    process that runs trial i first reseeds the run's one ``random.Random``
    with its seed, so no state passes from one trial to the next."""
    rng = random.Random()

    def outcome(i: int):
        rng.seed(_subseed(seed, i))
        try:
            return check(rng, i, max_vertices)
        except Exception as e:
            return f"check raised {type(e).__name__}: {e}"

    outcomes = _fan_out(count, outcome)
    try:
        for i, err in enumerate(outcomes):
            yield Trial(_subseed(seed, i), name, err is None, err or "")
    except ChildProcessError as e:  # its one argument is the first trial lost
        raise RuntimeError(f"suite {name}: the process running trial {e.args[0]} (seed "
                           f"{_subseed(seed, e.args[0])}) ended without its result") from None
    finally:
        outcomes.close()  # kills and reaps the children now, not when collected


def run_suite(name: str, trials: int | None = None,
              max_vertices: int | None = None, seed: int = 0) -> SuiteResult:
    """Run one named suite and collect its trials."""
    return SuiteResult(name, suite_trials(name, trials, max_vertices, seed))
