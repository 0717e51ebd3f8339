"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    PYTHONPATH=src python bench/run.py --seed 0              # every workload
    python3 bench/run.py --workload query_mix --seed 3 --seconds 25 --trace 0
    python3 bench/run.py --seed 0 --trace 1                  # per-layer numbers
    python3 bench/run.py --seed 0 --out A.json               # append to a report
    python3 bench/run.py --compare A.json B.json             # regression verdicts

Every repetition runs in a fresh subprocess (``child.py``) with inherited
``REPRO_*`` variables dropped and a fresh result cache and spool under
``.bench_run/``.  Sweep workloads repeat until ``--seconds`` is spent
(at least ``--reps`` times) and report the median setup and the mean
timed phase; ``served_open_loop`` runs once and reports percentiles over
its jobs.  ``--trace 1`` adds
traced repetitions, reports the per-layer metrics instead of the
end-to-end ones, and writes a chrome trace.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{name: {value, unit}}``).
The exit code is 0 only when the run completed and every output was
correct.  The simulator model itself is unvalidated -- the repository
holds no hardware reference -- so no simulator error figure is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
from served import end_session  # noqa: E402
from workloads import ROOT, SRC, SWEEPS, WORKLOADS, hermetic_env  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
RUN_DIR = ROOT / ".bench_run"
#: Wall-clock cap on one workload, under the 180 s a run may take.
DEADLINE_S = 170.0
MAX_REPS = 9
VALIDATION = ("unvalidated: the repository holds no hardware reference, "
              "so no simulator error figure is given")


def host_calib_s() -> float:
    """A fixed pure-Python loop, timed: reported beside results, never
    used to normalise them."""
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return perf_counter() - start


def environment() -> dict:
    rev = "unknown"
    # Only this checkout's own repository: git would otherwise search the
    # parent directories for one.
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "model_validation": VALIDATION,
    }


# -- repetitions ------------------------------------------------------------------


def run_child(name: str, seed: int, rep: int, traced: bool,
              tmp: Path, deadline: float) -> dict:
    """One repetition in a fresh process; its summary plus spawn timing."""
    tmp.mkdir(parents=True, exist_ok=True)
    out = tmp / "summary.json"
    cmd = [sys.executable, str(BENCH / "child.py"), name, "--seed", str(seed),
           "--rep", str(rep), "--out", str(out), "--tmp", str(tmp)]
    if traced:
        cmd.append("--trace")
    started = time.monotonic()
    spawn_wall = time.time()
    with open(tmp / "child.log", "w") as log:
        proc = subprocess.Popen(
            cmd, env=hermetic_env(tmp), cwd=ROOT, stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            end_session(proc.pid)
            proc.wait()
            pid_file = tmp / "server.pid"
            if pid_file.exists():
                end_session(int(pid_file.read_text()))
    if code != 0:
        tail = (tmp / "child.log").read_text()[-3000:]
        reason = "timed out" if code is None else f"exited {code}"
        raise RuntimeError(f"{name} repetition {reason}:\n{tail}")
    with open(out) as f:
        summary = json.load(f)
    summary["spawn_wall"] = spawn_wall
    summary["elapsed"] = time.monotonic() - started
    return summary


def repeat(name, seed, traced, tmp, deadline, reps, minimum, budget,
           started, cap=MAX_REPS):
    """Append repetitions to ``reps`` until ``minimum`` are done and the
    next one would overrun ``budget`` seconds since ``started``."""
    while len(reps) < cap:
        if len(reps) >= minimum:
            estimate = stats.median([r["elapsed"] for r in reps])
            if time.monotonic() - started + estimate > budget:
                break
        kind = "traced" if traced else "plain"
        reps.append(run_child(name, seed, len(reps), traced,
                              tmp / f"{kind}{len(reps)}", deadline))
    return reps


def end_to_end(reps) -> dict:
    """The end-to-end metrics over a workload's untraced repetitions.

    ``wall_s`` is the mean over repetitions, not the median: the host's
    speed shifts in spells longer than one repetition, and the median of
    three picks one spell where the mean averages them (see README.md).
    """
    pooled = [lat for r in reps for lat in r["latencies"]]
    walls = [r["wall_s"] for r in reps]
    return {
        "setup_s": stats.median([r["ready_wall"] - r["spawn_wall"] for r in reps]),
        "wall_s": sum(walls) / len(walls),
        "sim_rays_per_s": sum(r["rays"] for r in reps) / sum(walls),
        "peak_rss_mb": stats.median([r["rss_kb"] for r in reps]) / 1024.0,
        "latency_p50_s": stats.percentile(pooled, 50),
        "latency_p90_s": stats.percentile(pooled, 90),
    }


def per_layer(plain, traced) -> dict:
    """The per-layer metrics of the median traced repetition."""
    from tracer import layer_metrics

    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    trace = chosen["trace"]
    out = layer_metrics(trace["tally"])
    service = chosen.get("service")
    if service is None:
        host_s = chosen["wall_s"]
        overhead = (stats.median([r["wall_s"] for r in traced])
                    / stats.median([r["wall_s"] for r in plain]))
        service = {"queue_waits": [], "submit_rtts": [], "late": [],
                   "deduped": 0, "rejected": 0}
        overheads = []
    else:
        host_s = sum(chosen["run_times"])
        untraced = stats.median(plain[0]["run_times"])
        overhead = stats.median(chosen["run_times"]) / untraced if untraced else 0.0
        overheads = trace["overheads"]
    out.update({
        "service.queue_wait_p50_s": stats.percentile(service["queue_waits"], 50),
        "service.queue_wait_p90_s": stats.percentile(service["queue_waits"], 90),
        "service.run_p50_s": stats.percentile(chosen.get("run_times", []), 50),
        "service.run_p90_s": stats.percentile(chosen.get("run_times", []), 90),
        "service.overhead_p50_s": stats.percentile(overheads, 50),
        "service.submit_rtt_p50_s": stats.percentile(service["submit_rtts"], 50),
        "service.dedupe_ratio": service["deduped"] / chosen["attempted"],
        "service.rejected": service["rejected"],
        "sim.rays": chosen["rays"],
        "sim.warps": chosen["warps"],
        "sim.node_visits": chosen["node_visits"],
        "sim.host_us_per_warp": host_s / chosen["warps"] * 1e6,
        "loadgen.late_p99_s": stats.percentile(service["late"], 99),
        "trace.coverage": trace["coverage"],
        "trace.overhead": overhead,
        "trace.unattributed_s": trace["unattributed_s"],
    })
    return out


def chrome_trace(traced, path: Path) -> None:
    from tracer import chrome_events

    processes = [p for r in traced for p in r["trace"]["processes"]]
    starts = [s["start"] for p in processes for s in p["spans"]]
    origin = min(starts) if starts else 0.0
    events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": "service jobs (queue wait, run)"}}]
    for process in processes:
        events += chrome_events(process["spans"], process["pid"], origin)
    for summary in traced:
        for job in summary["trace"].get("jobs", []):
            for name, begin, end in (("job.queue", "submitted", "started"),
                                     ("job.run", "started", "finished")):
                events.append({
                    "name": name, "cat": "service", "ph": "X", "pid": 0,
                    "tid": job["index"], "ts": (job[begin] - origin) * 1e6,
                    "dur": (job[end] - job[begin]) * 1e6,
                    "args": {"case": job["label"]},
                })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def run_workload(name, seed, seconds, trace, min_reps, tmp, trace_path,
                 env) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    calib_before = host_calib_s()
    started = time.monotonic()
    plain, traced = [], []
    if name in SWEEPS:
        if trace:
            repeat(name, seed, False, tmp, deadline, plain, 2,
                   seconds / 2, started)
            repeat(name, seed, True, tmp, deadline, traced, 1,
                   seconds, started, cap=3)
        else:
            repeat(name, seed, False, tmp, deadline, plain,
                   min_reps, seconds, started)
    else:
        plain.append(run_child(name, seed, 0, False, tmp / "plain0", deadline))
        if trace:
            traced.append(run_child(name, seed, 0, True, tmp / "traced0",
                                    deadline))
    reps = plain + traced
    run = {
        "workload": name,
        "seed": seed,
        "environment": env,
        "seconds": seconds,
        "trace": int(trace),
        "reps": len(plain),
        "metrics": end_to_end(plain),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "notes": sorted({n for r in reps for n in r["notes"]}),
        "samples": {
            "setup_s": [r["ready_wall"] - r["spawn_wall"] for r in plain],
            "wall_s": [r["wall_s"] for r in plain],
            "latency_n": sum(len(r["latencies"]) for r in plain),
        },
    }
    if trace:
        run["per_layer"] = per_layer(plain, traced)
        chrome_trace(traced, trace_path)
        run["chrome_trace"] = str(trace_path)
    run["host_calib_s"] = [calib_before, host_calib_s()]
    return run


# -- reporting ---------------------------------------------------------------------


def print_run(run: dict, spec: dict) -> None:
    name = run["workload"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{name}: seed {run['seed']}, {run['reps']} untraced repetition(s), "
          f"host_calib_s {run['host_calib_s'][0]:.3f} -> {run['host_calib_s'][1]:.3f}")
    for metric in ("setup_s", "wall_s"):
        print(f"  per repetition {metric}: "
              + " ".join(f"{v:.4g}" for v in run["samples"][metric]))
    for metric, value in run["metrics"].items():
        print(f"  {metric:26s} {value:14.6g} {units[metric]}")
    n = run["samples"]["latency_n"]
    rule = stats.rule_percentile(n)
    print(f"  latency samples: {n} (highest percentile with >= 10 beyond: "
          f"{'none' if rule is None else f'p{rule:g}'})")
    rate = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    print(f"  {'error_rate':26s} {rate:14.6g} ratio "
          f"({run['failed']} of {run['attempted']} operations)")
    for note in run["notes"]:
        print(f"  FAILED: {note}")
    for metric, value in run.get("per_layer", {}).items():
        print(f"  {metric:26s} {value:14.6g} {units[metric]}")
    if "chrome_trace" in run:
        print(f"  chrome trace: {run['chrome_trace']}")


def result_line(runs, spec, trace: bool) -> dict:
    """The JSON object the last line of output carries."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for run in runs:
        values = run["per_layer"] if trace else run["metrics"]
        prefix = "" if len(runs) == 1 else run["workload"] + "."
        for entry in listed:
            metrics[prefix + entry["name"]] = {
                "value": values[entry["name"]], "unit": entry["unit"],
            }
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def append_report(path: Path, runs) -> None:
    report = {"runs": []}
    if path.exists():
        with open(path) as f:
            report = json.load(f)
    report["runs"].extend(runs)
    with open(path, "w") as f:
        json.dump(report, f, indent=1)


def compare(a_path: str, b_path: str, spec: dict) -> int:
    """Per workload x end-to-end metric: quartiles each side and a verdict."""
    sides = []
    for path in (a_path, b_path):
        with open(path) as f:
            runs = [r for r in json.load(f)["runs"] if not r["trace"]]
        sides.append(runs)
    worse = False
    print(f"{'workload':18s} {'metric':16s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'bound':>6s}  verdict")
    for name in WORKLOADS:
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            a, b = ([r["metrics"][metric] for r in side
                     if r["workload"] == name and metric in r["metrics"]]
                    for side in sides)
            if not a or not b:
                continue
            verdict = stats.verdict(a, b, entry["better"], entry["bound"])
            worse = worse or verdict == "worse"
            cols = []
            for values in (a, b):
                q1, q2, q3 = stats.quartiles(values)
                cols.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(f"{name:18s} {metric:16s} {cols[0]:>32s} {cols[1]:>32s} "
                  f"{entry['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="The repository benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced repetitions, report per-layer metrics")
    parser.add_argument("--reps", type=int, default=3,
                        help="minimum untraced repetitions per sweep workload")
    parser.add_argument("--out", default=None, metavar="REPORT.json",
                        help="append this run to a report file (for --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two report files; exit 1 on any 'worse'")
    args = parser.parse_args(argv)
    with open(SPEC) as f:
        spec = json.load(f)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    tmp = RUN_DIR / f"run-{os.getpid()}"
    base = Path(args.out) if args.out else RUN_DIR / "report.json"
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    runs = []
    try:
        for name in names:
            trace_path = base.with_name(f"{base.stem}.{name}.seed{args.seed}.trace.json")
            run = run_workload(name, args.seed, seconds, bool(args.trace),
                               args.reps, tmp / name, trace_path, env)
            print_run(run, spec)
            runs.append(run)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        append_report(Path(args.out), runs)
    result = result_line(runs, spec, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
