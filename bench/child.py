"""One repetition of one workload, in a fresh process.

    python bench/child.py WORKLOAD --seed N --rep R --out SUMMARY.json
                          --tmp DIR [--trace]

``run.py`` spawns this with a hermetic environment and reads the
summary it writes: the wall-clock instant setup finished (``run.py``
knows when it spawned the process, so the difference is ``setup_s``),
the timed phase's wall time, per-operation latencies, exact simulated
counts, the correctness verdict, peak memory and, with ``--trace``, the
spans, the per-layer tally of setup and timed phase, and the timed
phase's coverage by root spans.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def run_sweep(name: str, seed: int, rep: int, traced: bool) -> dict:
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    prepared = workloads.prepare(name, seed, rep)
    ready = time.time()
    start = perf_counter()
    outcome = workloads.execute(prepared)
    end = perf_counter()
    if tracer is not None:
        tracer.uninstall()
    attempted, failed, notes = workloads.verify(
        prepared, outcome, workloads.load_expected(name)
    )
    summary = {
        "ready_wall": ready,
        "wall_s": outcome.wall_s,
        "latencies": outcome.latencies,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        **workloads.sim_counts(outcome),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        # Layer totals cover setup and the timed phase; coverage is the
        # share of the timed phase that root spans account for.
        state = tracer.state()
        covered = sum(
            s["end"] - s["start"] for s in state["spans"]
            if s["parent"] == -1 and s["start"] >= start and s["end"] <= end
        )
        summary["trace"] = {
            "tally": state["tally"],
            "unattributed_s": outcome.wall_s - covered,
            "coverage": covered / outcome.wall_s,
            "processes": [{"pid": state["pid"], "spans": state["spans"]}],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0,
                        help="repetition index: picks the case order")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tmp", required=True,
                        help="scratch directory for the served workload's server")
    args = parser.parse_args(argv)
    if args.workload == "served_open_loop":
        import served

        tmp = Path(args.tmp)
        trace_dir = None
        if args.trace:
            trace_dir = tmp / "spans"
            trace_dir.mkdir(parents=True, exist_ok=True)
        summary = served.run(
            args.seed, tmp,
            workloads.load_expected(args.workload), trace_dir=trace_dir,
        )
    else:
        summary = run_sweep(args.workload, args.seed, args.rep, args.trace)
    with open(args.out, "w") as f:
        json.dump(summary, f)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing every plan and trace object takes
    # seconds and measures nothing.
    os._exit(code)
