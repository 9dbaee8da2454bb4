"""Benchmark of the polyprod engine: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload homology-large --seed 1 --seconds 30 --trace 0

Each round runs in a fresh interpreter (``worker.py``), so the homology
caches start cold as they do for a command line user.  A run makes a fixed
number of rounds for its ``--seconds`` (see ``ROUND_SECONDS``), one at a
time.  Before them, a few rounds stop right after the set-up, so that
``setup_s`` is a median of many samples.

With ``--trace 0`` the run reports the end-to-end metrics.  ``wall_s`` is
the sum over the round's timed items (CLI calls, table steps, suites) of each
item's fastest time over the untraced rounds; ``setup_s`` and
``peak_rss_mb`` are medians.  With ``--trace 1`` every other round is
traced, and the run reports the per-layer numbers of the traced round with
the median wall time, with ``trace.overhead`` as the median traced over the
median untraced round.  The last line of standard output is one JSON object;
the lines before it list every metric with its unit.  A fuller record, with
the machine, the source digest, the raw samples and the work counts, is
written under ``.perfbench/results``, and the spans of the reported traced
round under ``.perfbench/spans``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "polyprod"
OUT = ROOT / ".perfbench"

# Seconds one round takes on a 2-core Xeon VM, interpreter start and set-up
# included.  A run makes seconds // ROUND_SECONDS rounds (at least
# MIN_ROUNDS), so one --seed and --seconds always give the same rounds.
ROUND_SECONDS = {"homology-large": 7.5, "slice-tables": 6.5, "verify-suites": 20.0}
MIN_ROUNDS = 2
SETUP_ROUNDS = 8
# every run, with all its rounds, ends within this many seconds
RUN_DEADLINE_S = 170.0

# Kept in step with tracing.py and workloads.SUITE_TRIALS; listed here so the
# driver-facing process never imports the package it measures.
SUITES = ("dual", "slice-dual", "compose-slice", "compose-dual", "alexander",
          "composition-homology", "hochster-composition", "complement",
          "substitution", "sphere-duality")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "documents.parse_s": "s",
    "documents.render_s": "s",
    "complexes.build_s": "s",
    "complexes.dual_s": "s",
    "complexes.dual_calls": "count",
    "complexes.slice_s": "s",
    "complexes.slice_calls": "count",
    "complexes.product_s": "s",
    "complexes.faces_out": "count",
    "homology.calls": "count",
    "homology.self_s": "s",
    "homology.faces_in": "count",
    "homology.max_faces": "count",
    "homology.repeat_ratio": "ratio",
    "homology.chain_build_s": "s",
    "homology.smith_s": "s",
    "homology.boundary_nnz": "count",
    "hochster.table_s": "s",
    "hochster.table_entries": "count",
    "hochster.witness_s": "s",
    "hochster.witness_calls": "count",
    "hochster.composition_s": "s",
    "abelian.tensor_s": "s",
    "abelian.tensor_calls": "count",
    "spaces.ledger_s": "s",
    "spaces.ledger_entries": "count",
    "spaces.finite_s": "s",
    **{f"verify.{s}.{k}": u for s in SUITES for k, u in (("s", "s"), ("trials", "count"))},
    "verify.runner_self_s": "s",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "bench.self_s": "s",
}


class RoundFailed(RuntimeError):
    pass


def _machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"nproc": usable, "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "platform": platform.platform()}


def _source() -> dict:
    """Commit when the checkout is a git repository, and always a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _round(workload: str, seed: int, workdir: Path, deadline: float, *,
           setup_only: bool = False, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("no time left for another round")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"a round did not finish within {timeout:.0f} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"round exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _low_median_index(values) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)

    setups = [_round(workload, seed, workdir, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_ROUNDS)]
    plain, traced = [], []
    for r in range(max(MIN_ROUNDS, int(seconds // ROUND_SECONDS[workload]))):
        if trace and r % 2:
            path = spans_dir / f"{workload}-seed{seed}-round{r}.tsv.gz"
            res = _round(workload, seed, workdir, deadline, spans=path)
            res["spans_file"] = path
            traced.append(res)
        else:
            res = _round(workload, seed, workdir, deadline)
            plain.append(res)
        setups.append(res["setup_s"])

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    # The wall time of one round's work, estimated item by item: the fastest
    # of each item's untraced samples, summed.  Contention from other tenants
    # of a shared machine only ever adds time; on a shared 2-core Xeon VM it
    # came in spells of a second or two that slowed a round by up to half,
    # and there the summed per-item minimum spread about half as much across
    # runs as a median of round totals (see also Chen and Revels, "Robust
    # benchmarking in noisy environments", 2016).  The raw samples are kept
    # in the record.
    items = {}
    for r in plain:
        for name, value in r["items"].items():
            items.setdefault(name, []).append(value)
    round_wall = statistics.median(r["wall_s"] for r in plain)
    summary = {
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": sum(min(v) for v in items.values()),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_ratio": (attempted - failed) / attempted,
        },
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in rounds for p in r["problems"]][:20],
        "rounds": {"untraced": len(plain), "traced": len(traced),
                   "setup_only": SETUP_ROUNDS},
        "samples": {"setup_s": setups,
                    "round_wall_s": [r["wall_s"] for r in plain],
                    "traced_round_wall_s": [r["wall_s"] for r in traced]},
        "item_samples_s": items,
        "work": [r["work"] for r in rounds],
    }
    if traced:
        pick = traced[_low_median_index([r["wall_s"] for r in traced])]
        layers = {name: 0 for name in LAYER_UNITS}
        layers.update(pick["layers"])
        layers["trace.wall_s"] = pick["wall_s"]
        layers["trace.overhead"] = statistics.median(r["wall_s"] for r in traced) / round_wall
        summary["per_layer"] = layers
        kept = spans_dir / f"{workload}-seed{seed}.tsv.gz"
        os.replace(pick["spans_file"], kept)
        summary["spans_file"] = str(kept.relative_to(ROOT))
        for r in traced:
            if r is not pick:
                Path(r["spans_file"]).unlink(missing_ok=True)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one polyprod benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer numbers from traced rounds")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no polyprod sources under {PACKAGE.relative_to(ROOT)}; "
              "run from the root of a polyprod checkout", file=sys.stderr)
        return 2

    # byte-compile once, so set-up times an import from cached bytecode as a
    # command line user sees it
    if not compileall.compile_dir(str(PACKAGE), quiet=1):
        print("error: the polyprod sources do not compile", file=sys.stderr)
        return 2
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "source": _source(),
        **summary,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in summary["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in summary["end_to_end"].items()}
    r = summary["rounds"]
    print(f"{args.workload} seed {args.seed}: {r['untraced']} untraced and "
          f"{r['traced']} traced rounds, {r['setup_only']} set-up rounds; "
          f"record in {record_path.relative_to(ROOT)}")
    print(f"  error_rate {summary['error_rate']:.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} operations failed)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for problem in summary["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
