"""One round of one workload in a fresh interpreter.

Started by ``run.py`` once per round, so the homology caches start cold as
they do for a command line user.  Prints one JSON object on its last line:
set-up time, wall time of the timed work, peak resident memory, the answer
check counts and, for a traced round, the per-layer numbers.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _layer_metrics(tracer, wall_s: float) -> dict:
    from tracing import SELF_TIME_METRICS
    from workloads import SUITE_TRIALS

    out = dict(tracer.self_time)
    out.update(tracer.counts)
    out["homology.repeat_ratio"] = tracer.repeat_ratio
    for name in SUITE_TRIALS:
        seconds, trials = tracer.suites.get(name, (0.0, 0))
        out[f"verify.{name}.s"] = seconds
        out[f"verify.{name}.trials"] = trials
    out["bench.self_s"] = wall_s - sum(tracer.self_time[m] for m in SELF_TIME_METRICS)
    out["trace.spans"] = tracer.span_count
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True,
                        help="directory for this round's input documents")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the set-up and report only its time")
    parser.add_argument("--spans", help="trace the round and write its spans here")
    args = parser.parse_args()

    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{Path(args.spans).stem}")
        tracer.install()
    start = perf_counter()
    workload.run()
    wall_s = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = workload.check()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "items": workload.items,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "work": workload.work_counts(),
    }
    if tracer is not None:
        layers = _layer_metrics(tracer, wall_s)
        probe = getattr(workload, "probe", None)
        if probe is not None:
            stages, mismatches = probe()
            layers.update(stages)
            result["attempted"] += 1
            if mismatches:
                result["failed"] += 1
                result["problems"].append(
                    "stage probe disagrees with reduced_homology: " + ", ".join(mismatches[:5])
                )
        result["layers"] = layers
        tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
