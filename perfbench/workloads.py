"""The benchmark workloads: seeded inputs, the timed work and its answer checks.

A workload object is built in three steps, each timed by the caller:

* the constructor generates every input from the seed (and writes the
  input documents), which is the set-up;
* :meth:`run` is the timed work, and records the time of each item in it
  in ``items``;
* :meth:`check` judges the answers recorded by :meth:`run` and returns
  ``(attempted, failed, problems)``.  A failed answer never stops the run.

Library calls go through the defining modules (``hochster.hochster_table``
and so on), never through private helpers, so a traced round sees every call
and a refactor inside a module cannot break the benchmark.

Why these three workloads:

* ``homology-large`` drives the CLI on complexes of a few thousand faces,
  where Smith reduction does nearly all the work.  Only the repeated
  coefficient queries on one complex reuse cached factors.
* ``slice-tables`` enumerates the 3^n slice pairs of 7-9 vertex complexes,
  three of them with torsion.  Nearly every homology call repeats an earlier face family,
  so it measures tables, slicing, witnesses and the caches, not Smith.
* ``verify-suites`` runs the ten verification suites through ``run_suite``
  at their default trial counts, with the workload seed: many small
  instances through the complex operations, the finite set models and the
  suite runner.

Heavier compositions, such as the 5-cycle composed with triangle boundaries
(30,527 faces, about 100 s) or the 4-cycle composed with tetrahedron
boundaries (65,025 faces, over 300 s), are left out only because the many
repeated runs, on the parent commit too, would take hours.  They do not hide
the Smith cost: the boundary-of-simplex ladder already shows it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import traceback
from time import perf_counter

import polyprod.cli as cli
import polyprod.complexes as complexes
import polyprod.documents as documents
import polyprod.hochster as hochster
import polyprod.homology as homology
import polyprod.spaces as spaces
import polyprod.verify as verify

# The 6-vertex real projective plane; kept here so that the expected answers
# do not depend on the package under test.
RP2_FACETS = (
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
)


def _shifted(facets, k):
    return [tuple(v + k for v in f) for f in facets]


def _closure(facets) -> set[int]:
    faces = {0}
    for f in facets:
        m = 0
        for v in f:
            m |= 1 << (v - 1)
        if m in faces:
            continue
        s = m
        while s:
            faces.add(s)
            s = (s - 1) & m
    return faces


def _doc_text(ground, facets) -> str:
    return (f"ground: {json.dumps(list(ground))}\n"
            f"facets: {json.dumps([list(f) for f in facets])}\n")


def _parse_doc(text):
    """(ground, facets) of a complex document, read without the package."""
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = json.loads(value)
    return fields["ground"], fields["facets"]


def _parse_groups(text):
    """Degree -> (rank, torsion) from ``polyprod homology`` output lines."""
    out = {}
    for line in text.splitlines():
        if line == "0":
            continue
        deg, _, groups = line.partition(": ")
        if not deg.startswith("d"):
            raise ValueError(f"unexpected homology line {line!r}")
        rank, torsion = 0, []
        for part in groups.split(" + "):
            if part == "Z":
                rank += 1
            elif part.startswith("Z^"):
                rank += int(part[2:])
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                raise ValueError(f"unexpected group {part!r}")
        out[int(deg[1:])] = (rank, tuple(sorted(torsion)))
    return out


def _reduced_euler(faces) -> int:
    # sum over faces of (-1)^dim, the empty face counting in dimension -1
    return sum(-1 if f.bit_count() % 2 == 0 else 1 for f in faces)


def _group_at(groups, d):
    return groups.get(d, (0, ()))


# ---------------------------------------------------------------------------
# homology-large

# ∂Δ on these vertex counts: the face count doubles per step while the
# Smith cost grows faster, which is the superlinear cost later work targets.
LADDER = (10, 11, 12)
RANDOM_COMPLEXES = 3
RANDOM_VERTICES = 12
RANDOM_FACETS = 60
QUERIES = (
    ("z", ()),
    ("cohomology", ("--cohomology",)),
    ("p2", ("--coeff", "p:2")),
)


class HomologyLarge:
    """CLI homology queries on large distinct complexes."""

    name = "homology-large"

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        rng = random.Random(seed)
        self.inputs = {}      # complex name -> (ground, facets) written by us
        self.expected = {}    # complex name -> {query: exact CLI output}
        for n in LADDER:
            name = f"bd{n}"
            self.inputs[name] = (range(1, n + 1),
                                 list(itertools.combinations(range(1, n + 1), n - 1)))
            self.expected[name] = {"z": f"d{n - 2}: Z\n",
                                   "cohomology": f"d{n - 2}: Z\n",
                                   "p2": f"d{n - 2}: Z^1\n"}
        # H~(RP2) = Z/2 in degree 1, so the join has Z/2 (x) Z/2 in degree 3
        # and Tor(Z/2, Z/2) in degree 4
        self.inputs["rp2-join-rp2"] = (
            range(1, 13),
            [f + g for f in RP2_FACETS for g in _shifted(RP2_FACETS, 6)],
        )
        self.expected["rp2-join-rp2"] = {
            "z": "d3: Z/2\nd4: Z/2\n",
            "cohomology": "d4: Z/2\nd5: Z/2\n",
            "p2": "d3: Z^1\nd4: Z^2\nd5: Z^1\n",
        }
        self.inputs["cone-rp2"] = (range(1, 8), [f + (7,) for f in RP2_FACETS])
        self.expected["cone-rp2"] = {"z": "0\n", "cohomology": "0\n", "p2": "0\n"}
        self.inputs["c4"] = (range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
        self.inputs["tri"] = (range(1, 4), [(1, 2), (2, 3), (1, 3)])
        self.random_names = []
        for i in range(RANDOM_COMPLEXES):
            facets = [sorted(rng.sample(range(1, RANDOM_VERTICES + 1),
                                        rng.randint(3, 6)))
                      for _ in range(RANDOM_FACETS)]
            name = f"random{i}"
            self.inputs[name] = (range(1, RANDOM_VERTICES + 1), facets)
            self.random_names.append(name)
        self.paths = {}
        for name, (ground, facets) in self.inputs.items():
            self.paths[name] = self._write(name, _doc_text(ground, facets))
        # the composition of the 4-cycle with four triangle boundaries:
        # 3,969 faces and the join-degree tensor Z in degree 1 + 4 + 4 = 9
        self.paths["c4-of-tri"] = os.path.join(workdir, "c4-of-tri.txt")
        self.expected["c4-of-tri"] = {"z": "d9: Z\n", "cohomology": "d9: Z\n",
                                      "p2": "d9: Z^1\n"}
        for name in self.random_names:
            self.paths[f"{name}-dual"] = os.path.join(workdir, f"{name}-dual.txt")
        self.queried = (
            [f"bd{n}" for n in LADDER]
            + ["rp2-join-rp2", "cone-rp2", "c4-of-tri"]
            + [x for name in self.random_names for x in (name, f"{name}-dual")]
        )
        # op -> (argv, output file or None); outputs: op -> (rc, stdout, error)
        self.ops = {("compose", "c4-of-tri"): (
            ["compose", self.paths["c4"]] + [self.paths["tri"]] * 4,
            self.paths["c4-of-tri"])}
        for name in self.random_names:
            self.ops[("dual", name)] = (["dual", self.paths[name]],
                                        self.paths[f"{name}-dual"])
        for name in self.queried:
            for query, flags in QUERIES:
                self.ops[(query, name)] = (["homology", *flags, self.paths[name]], None)
        self.outputs = {}
        self.items = {}

    def _write(self, name, text):
        path = os.path.join(self.workdir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def run(self) -> None:
        for op, (argv, out_path) in self.ops.items():
            buf, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                if out_path is not None:
                    with open(out_path, "w", encoding="utf-8") as fh:
                        fh.write(buf.getvalue())
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            self.items["/".join(op)] = perf_counter() - start
            self.outputs[op] = (rc, buf.getvalue(), err.getvalue())

    def _faces(self, name):
        """Face masks of a queried complex, from the document it was given."""
        if name in self.inputs:
            return _closure(self.inputs[name][1])
        with open(self.paths[name], encoding="utf-8") as fh:
            return _closure(_parse_doc(fh.read())[1])

    def check(self):
        failed = {}

        def fail(op, why):
            failed.setdefault(op, why)

        for op, (rc, out, err) in self.outputs.items():
            if rc != 0:
                fail(op, f"exit {rc}: {err.strip()[-300:]}")
        groups = {}
        for (query, name), (rc, out, _) in self.outputs.items():
            if rc != 0 or query in ("compose", "dual"):
                continue
            want = self.expected.get(name, {}).get(query)
            if want is not None and out != want:
                fail((query, name), f"got {out!r}, expected {want!r}")
            try:
                groups[(query, name)] = _parse_groups(out)
            except ValueError as e:
                fail((query, name), str(e))
        faces = {}
        for name in self.queried:
            try:
                faces[name] = self._faces(name)
            except (OSError, ValueError, KeyError) as e:
                for query, _ in QUERIES:
                    fail((query, name), f"cannot read the document: {e}")
        if len(faces.get("c4-of-tri", ())) != 3969:
            fail(("compose", "c4-of-tri"), "composition does not have 3,969 faces")
        for name, fs in faces.items():
            hz = groups.get(("z", name))
            hp = groups.get(("p2", name))
            if hz is None or hp is None:
                continue
            chi = sum((-1) ** d * r for d, (r, _) in hz.items())
            if chi != _reduced_euler(fs):
                fail(("z", name), "alternating rank sum is not the Euler characteristic")
            for d in set(hz) | set(hp) | {d + 1 for d in hz}:
                twos = sum(1 for t in _group_at(hz, d)[1] + _group_at(hz, d - 1)[1]
                           if t % 2 == 0)
                if _group_at(hp, d)[0] != _group_at(hz, d)[0] + twos:
                    fail(("p2", name), f"mod-2 rank in degree {d} breaks universal coefficients")
        ambient = (1 << RANDOM_VERTICES) - 1
        for name in self.random_names:
            dual_name = f"{name}-dual"
            if name in faces and dual_name in faces:
                own = {ambient ^ s for s in range(ambient + 1) if s not in faces[name]}
                if own != faces[dual_name]:
                    fail(("dual", name), "dual document is not the Alexander dual")
            hz = groups.get(("z", name))
            hc = groups.get(("cohomology", dual_name))
            if hz is None or hc is None:
                continue
            # H~_i(K) = H~^{n-i-3}(K dual) for n ambient vertices
            n = RANDOM_VERTICES
            for i in set(hz) | {n - j - 3 for j in hc}:
                if _group_at(hz, i) != _group_at(hc, n - i - 3):
                    fail(("cohomology", dual_name), f"Alexander duality fails in degree {i}")
        return len(self.ops), len(failed), [f"{op}: {why}" for op, why in failed.items()]

    def work_counts(self):
        counts = {"cli_calls": len(self.ops), "complexes_queried": len(self.queried)}
        with contextlib.suppress(OSError, ValueError, KeyError):
            counts["faces_reduced"] = sum(len(self._faces(n)) for n in self.queried)
        return counts

    def probe(self):
        """Chain build and Smith reduction of every queried complex, one stage at a time.

        Runs after the traced round, so the timed work is unchanged; the
        ranks it finds must agree with ``reduced_homology``.
        """
        build_s = smith_s = 0.0
        nnz = 0
        mismatches = []
        for name in self.queried:
            with open(self.paths[name], encoding="utf-8") as fh:
                K = documents.parse_document(fh.read()).complex()
            t = perf_counter()
            cx = homology.chain_complex(K)
            build_s += perf_counter() - t
            factors = {}
            for d in cx.boundaries:
                dense = cx.dense_boundary(d)
                nnz += sum(1 for row in dense for x in row if x)
                t = perf_counter()
                factors[d] = homology.smith_normal_form(dense)
                smith_s += perf_counter() - t
            expected = homology.reduced_homology(K)
            for d, basis in cx.bases.items():
                rank = len(basis) - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
                torsion = tuple(x for x in factors.get(d + 1, ()) if x != 1)
                got = expected.at(d)
                if rank != got.rank or sorted(torsion) != sorted(got.torsion):
                    mismatches.append(f"{name} degree {d}")
        return {
            "homology.chain_build_s": build_s,
            "homology.smith_s": smith_s,
            "homology.boundary_nnz": nnz,
        }, mismatches


# ---------------------------------------------------------------------------
# slice-tables

SLICE_RANDOM_VERTICES = 8
SLICE_RANDOM_FACETS = 12


class SliceTables:
    """Slice tables, entrywise duality, witnesses and ledgers of torsion complexes."""

    name = "slice-tables"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        make = complexes.make_complex
        tri_bd = [(7, 8), (8, 9), (7, 9)]
        self.cases = [
            ("rp2-join-s0", make(range(1, 9), [f + (v,) for f in RP2_FACETS for v in (7, 8)])),
            ("cone-rp2", make(range(1, 8), [f + (7,) for f in RP2_FACETS])),
            ("rp2-join-bd2", make(range(1, 10), [f + e for f in RP2_FACETS for e in tri_bd])),
        ]
        facets = [sorted(rng.sample(range(1, SLICE_RANDOM_VERTICES + 1), rng.randint(2, 5)))
                  for _ in range(SLICE_RANDOM_FACETS)]
        self.cases.append(("random", make(range(1, SLICE_RANDOM_VERTICES + 1), facets)))
        self.systems = []
        for _, K in self.cases:
            params = []
            for _ in range(K.n_vertices):
                r = rng.randint(0, 2)
                params.append((r, rng.randint(0, r)))
            self.systems.append(spaces.SpherePairSystem.of(*params))
        self.items = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pairs = 0
        self.entries = 0

    def _fail(self, what):
        if len(self.problems) < 20:
            self.problems.append(what)
        self.failed += 1

    def run(self) -> None:
        for (name, K), system in zip(self.cases, self.systems):
            state = {}
            for step in (self._tables, self._pairs, self._ledgers):
                item = f"{name}/{step.__name__[1:]}"
                start = perf_counter()
                try:
                    step(name, K, system, state)
                except Exception:
                    self.attempted += 1
                    self._fail(f"{item}: {traceback.format_exc(limit=3)}")
                    break
                finally:
                    self.items[item] = perf_counter() - start

    def _tables(self, name, K, system, state) -> None:
        self.attempted += 3
        state["dual"] = K.dual(K.ground)
        state["table"] = hochster.hochster_table(K)
        state["co_table"] = hochster.hochster_table(state["dual"], cohomology=True)
        self.entries += len(state["table"].items()) + len(state["co_table"].items())

    def _pairs(self, name, K, system, state) -> None:
        g, dual, co_table = K.ground, state["dual"], state["co_table"]
        for (sigma, omega), lhs in state["table"].items():
            if not omega:
                continue
            self.attempted += 2
            self.pairs += 1
            rhs = co_table.entry(g & ~(sigma | omega), omega)
            w = omega.bit_count()
            for d in set(lhs.degrees()) | {w - d2 - 1 for d2 in rhs.degrees()}:
                if lhs.at(d) != rhs.at(w - d - 1):
                    self._fail(f"{name}: table duality fails at {sigma}:{omega} degree {d}")
                    break
            try:
                hochster.alexander_duality_witness(K, sigma, omega, precomputed_dual=dual)
            except hochster.DualityCheckError as e:
                self._fail(f"{name}: witness at {sigma}:{omega}: {e}")

    def _ledgers(self, name, K, system, state) -> None:
        self.attempted += 1
        verdict = spaces.sphere_pair_duality_check(K, system)
        if not verdict.ok:
            self._fail(f"{name}: sphere-pair duality: {verdict.detail}")

    def check(self):
        return self.attempted, self.failed, self.problems

    def work_counts(self):
        return {"complexes": len(self.cases), "pairs_checked": self.pairs,
                "table_entries": self.entries}


# ---------------------------------------------------------------------------
# verify-suites

# Trials each suite runs at its default trial count and vertex limit (the
# dual suite adds one exhaustive census trial): 15,461 in all, the set the
# acceptance tests run.
SUITE_TRIALS = {
    "dual": 10_001,
    "slice-dual": 1000,
    "compose-slice": 1000,
    "compose-dual": 1000,
    "alexander": 500,
    "composition-homology": 210,
    "hochster-composition": 50,
    "complement": 1000,
    "substitution": 500,
    "sphere-duality": 200,
}


class VerifySuites:
    """Every verification suite at its defaults, as ``polyprod verify`` runs it."""

    name = "verify-suites"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.results = {}
        self.items = {}

    def run(self) -> None:
        for name in SUITE_TRIALS:
            start = perf_counter()
            try:
                self.results[name] = verify.run_suite(name, seed=self.seed)
            except Exception:
                self.results[name] = traceback.format_exc(limit=3)
            self.items[name] = perf_counter() - start

    def check(self):
        attempted = failed = 0
        problems = []
        for name, expect in SUITE_TRIALS.items():
            result = self.results.get(name)
            if not isinstance(result, verify.SuiteResult):
                attempted += expect
                failed += expect
                problems.append(f"{name}: {result}")
                continue
            got = len(result.trials)
            bad = len(result.failures) + abs(got - expect)
            attempted += max(got, expect)
            failed += bad
            if bad:
                problems.append(f"{name}: {len(result.failures)} failing trials, "
                                f"{got} trials where {expect} were expected")
        return attempted, failed, problems

    def work_counts(self):
        return {"trials_run": sum(len(r.trials) for r in self.results.values()
                                  if isinstance(r, verify.SuiteResult))}


WORKLOADS = {w.name: w for w in (HomologyLarge, SliceTables, VerifySuites)}
