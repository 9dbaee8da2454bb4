"""Spans around calls into each polyprod module, recorded from outside.

Nothing in the package is edited: :meth:`Tracer.install` rebinds every name
under which a traced public function is reachable (its defining module, each
module that imported it, the package namespace, or the class that owns a
method) to a wrapper that records one span per call.  Spans live in compact
arrays until :meth:`Tracer.write_spans` writes them out after the round.

Every span belongs to a time bucket, and a bucket's value is the *self* time
of its spans: the span duration minus the time spent in child spans and in
the tracer's own bookkeeping.  The buckets therefore partition the traced
wall time, and whatever remains (benchmark code outside any span plus the
wrapper overhead) is reported as ``bench.self_s``.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

import polyprod.abelian as abelian
import polyprod.cli as cli
import polyprod.complexes as complexes
import polyprod.documents as documents
import polyprod.hochster as hochster
import polyprod.homology as homology
import polyprod.spaces as spaces
import polyprod.verify as verify

SimplicialComplex = complexes.SimplicialComplex
ComplexDocument = documents.ComplexDocument

# Self-time buckets, one or more per layer.  Their sum plus bench.self_s is
# the traced wall time.
SELF_TIME_METRICS = (
    "cli.self_s",
    "documents.parse_s",
    "documents.render_s",
    "complexes.build_s",
    "complexes.dual_s",
    "complexes.slice_s",
    "complexes.product_s",
    "homology.self_s",
    "hochster.table_s",
    "hochster.witness_s",
    "hochster.composition_s",
    "abelian.tensor_s",
    "spaces.ledger_s",
    "spaces.finite_s",
    "verify.runner_self_s",
)

# (owner, attribute, bucket, counter hook name or None).  Generators such as
# submasks or index_pairs are not traced: a wrapper would time only the
# creation of the generator, not the iteration.
TRACED = (
    (cli, "main", "cli.self_s", None),
    (documents, "parse_document", "documents.parse_s", None),
    (documents, "document_of", "documents.render_s", None),
    (ComplexDocument, "render", "documents.render_s", None),
    (SimplicialComplex, "from_facets", "complexes.build_s", "faces_out"),
    (SimplicialComplex, "full_simplex", "complexes.build_s", "faces_out"),
    (SimplicialComplex, "boundary_simplex", "complexes.build_s", "faces_out"),
    (SimplicialComplex, "facets", "complexes.build_s", None),
    (SimplicialComplex, "relabel", "complexes.build_s", "faces_out"),
    (SimplicialComplex, "union", "complexes.build_s", "faces_out"),
    (SimplicialComplex, "intersection", "complexes.build_s", "faces_out"),
    (complexes, "make_complex", "complexes.build_s", None),
    (complexes, "random_complex", "complexes.build_s", "faces_out"),
    (complexes, "random_subcomplex", "complexes.build_s", None),
    (complexes, "embed_on_blocks", "complexes.build_s", None),
    (SimplicialComplex, "dual", "complexes.dual_s", "dual"),
    (SimplicialComplex, "slice", "complexes.slice_s", "slice"),
    (SimplicialComplex, "link", "complexes.slice_s", "slice"),
    (SimplicialComplex, "restrict", "complexes.slice_s", "slice"),
    (complexes, "join", "complexes.product_s", "faces_out"),
    (complexes, "polyhedral_complex", "complexes.product_s", "faces_out"),
    (complexes, "composition_complex", "complexes.product_s", None),
    (complexes, "ghost_factorization", "complexes.product_s", None),
    (homology, "homology_of_faces", "homology.self_s", "homology"),
    (homology, "reduced_homology", "homology.self_s", None),
    (homology, "reduced_cohomology", "homology.self_s", None),
    (homology, "relative_homology", "homology.self_s", None),
    (homology, "chain_complex", "homology.self_s", None),
    (homology, "smith_normal_form", "homology.self_s", None),
    (homology, "euler_characteristic_reduced", "homology.self_s", None),
    (homology, "homology_consistency_failures", "homology.self_s", None),
    (homology, "induced_inclusion_map", "homology.self_s", None),
    (homology, "certify_homology_split", "homology.self_s", None),
    (hochster, "hochster_table", "hochster.table_s", "table"),
    (hochster, "alexander_duality_witness", "hochster.witness_s", "witness"),
    (hochster, "duality_group_sides", "hochster.witness_s", None),
    (hochster, "composition_homology", "hochster.composition_s", None),
    (hochster, "hochster_composition_formula", "hochster.composition_s", None),
    (abelian, "tensor_additive", "abelian.tensor_s", "tensor"),
    (abelian, "graded_tensor", "abelian.tensor_s", "tensor"),
    (spaces, "sphere_pair_homology", "spaces.ledger_s", "ledger"),
    (spaces, "sphere_pair_duality_check", "spaces.ledger_s", None),
    (spaces, "finite_product", "spaces.finite_s", None),
    (spaces, "complement_identity_check", "spaces.finite_s", None),
    (spaces, "substitution_identity_check", "spaces.finite_s", None),
    (spaces, "factorization_identity_check", "spaces.finite_s", None),
    (verify, "run_suite", "verify.runner_self_s", "suite"),
    (verify, "minimize_complex", "verify.runner_self_s", None),
)

COUNT_METRICS = (
    "complexes.dual_calls",
    "complexes.slice_calls",
    "complexes.faces_out",
    "homology.calls",
    "homology.faces_in",
    "homology.max_faces",
    "hochster.table_entries",
    "hochster.witness_calls",
    "abelian.tensor_calls",
    "spaces.ledger_entries",
)


def relabelled_family(faces) -> tuple[int, ...]:
    """The face family moved onto vertices 1..k of its support, sorted.

    Two calls with equal results here ask for the homology of the same
    abstract complex, so the second one can be answered from a cache.
    """
    support = 0
    for f in faces:
        support |= f
    new_bit = {}
    k = 0
    while support:
        low = support & -support
        new_bit[low] = 1 << k
        k += 1
        support ^= low
    out = []
    for f in faces:
        g = 0
        while f:
            low = f & -f
            g |= new_bit[low]
            f ^= low
        out.append(g)
    out.sort()
    return tuple(out)


class Tracer:
    """Span recorder for one traced round (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.suites: dict[str, tuple[float, int]] = {}
        self._families: set[tuple[int, ...]] = set()
        self._repeats = 0
        # open spans: [span id, accumulated child and bookkeeping time]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self.origin = 0.0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name; the span clock starts here."""
        modules = [m for name, m in sys.modules.items()
                   if name == "polyprod" or name.startswith("polyprod.")]
        for owner, attr, bucket, hook in TRACED:
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            label = f"{getattr(owner, '__name__', '?').rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(fn, label, bucket, hook)
            self._rebind(owner, attr, raw,
                         classmethod(wrapper) if is_classmethod else wrapper)
            if isinstance(owner, type):
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn and not (m is owner and name == attr):
                        self._rebind(m, name, value, wrapper)
        self.origin = perf_counter()

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _rebind(self, owner, name, old, new) -> None:
        self._restore.append((owner, name, old))
        setattr(owner, name, new)

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, label, bucket, hook):
        tracer = self
        stack = self._stack
        self_time = self.self_time
        count = getattr(self, f"_count_{hook}") if hook else None
        name_id = self._name_id(label)

        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1][0] if stack else -1
            span_id = len(tracer.span_start)
            frame = [span_id, 0.0]
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self_time[bucket] += (end - start) - frame[1]
                tracer.span_start[span_id] = start - tracer.origin
                tracer.span_end[span_id] = end - tracer.origin
            if count is not None:
                count(span_id, args, kwargs, result, end - start)
            if stack:
                stack[-1][1] += perf_counter() - entered
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        traced.__doc__ = fn.__doc__
        return traced

    # -- counter hooks -------------------------------------------------------

    def _count_faces_out(self, span_id, args, kwargs, result, elapsed):
        if isinstance(result, SimplicialComplex):
            self.counts["complexes.faces_out"] += len(result.faces)

    def _count_dual(self, span_id, args, kwargs, result, elapsed):
        self.counts["complexes.dual_calls"] += 1
        self._count_faces_out(span_id, args, kwargs, result, elapsed)

    def _count_slice(self, span_id, args, kwargs, result, elapsed):
        self.counts["complexes.slice_calls"] += 1
        self._count_faces_out(span_id, args, kwargs, result, elapsed)

    def _count_homology(self, span_id, args, kwargs, result, elapsed):
        faces = args[0] if args else kwargs["faces"]
        n = len(faces)
        c = self.counts
        c["homology.calls"] += 1
        c["homology.faces_in"] += n
        if n > c["homology.max_faces"]:
            c["homology.max_faces"] = n
        family = relabelled_family(faces)
        if family in self._families:
            self._repeats += 1
        else:
            self._families.add(family)

    def _count_table(self, span_id, args, kwargs, result, elapsed):
        self.counts["hochster.table_entries"] += len(result.items())

    def _count_witness(self, span_id, args, kwargs, result, elapsed):
        self.counts["hochster.witness_calls"] += 1

    def _count_tensor(self, span_id, args, kwargs, result, elapsed):
        self.counts["abelian.tensor_calls"] += 1

    def _count_ledger(self, span_id, args, kwargs, result, elapsed):
        self.counts["spaces.ledger_entries"] += len(result.ledger)

    def _count_suite(self, span_id, args, kwargs, result, elapsed):
        name = result.suite
        self.span_name[span_id] = self._name_id(f"verify.run_suite[{name}]")
        seconds, trials = self.suites.get(name, (0.0, 0))
        self.suites[name] = (seconds + elapsed, trials + len(result.trials))

    # -- results -------------------------------------------------------------

    @property
    def repeat_ratio(self) -> float:
        calls = self.counts["homology.calls"]
        return self._repeats / calls if calls else 0.0

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def write_spans(self, path) -> None:
        """Gzipped tab-separated lines, one per span, in the order spans opened."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run_id\tspan_id\tparent_id\tname\tstart_s\tend_s\n")
            names = self.names
            run_id = self.run_id
            for i in range(len(self.span_start)):
                fh.write(
                    f"{run_id}\t{i}\t{self.span_parent[i]}\t"
                    f"{names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
