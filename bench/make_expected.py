"""Regenerate ``bench/expected/*.json``: per-case metric-dict digests.

    PYTHONPATH=src python bench/make_expected.py [WORKLOAD ...]

Each workload's cases run directly through ``run_cases`` (no server) in
a fresh process with the benchmark's hermetic environment, twice, in
two seeds' case orders; the digests must agree before they are written.
The served pool's digests come from direct runs too, so the benchmark
checks served results against direct ones.  Regenerate only when a
change is meant to alter simulated results.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

RUN_DIR = workloads.ROOT / ".bench_run"


def emit(name: str, seed: int) -> dict:
    """Digests of every case of ``name``, run in ``seed``'s order."""
    if name == "served_open_loop":
        from repro.experiments import parallel
        from repro.experiments.runner import default_context

        import served

        specs = workloads.permuted(served.pool(), seed)
        results = parallel.run_cases(specs, default_context(fast=True), jobs=0)
        pairs = [(spec, metrics, failure)
                 for spec, (metrics, failure) in zip(specs, results)]
    else:
        prepared = workloads.prepare(name, seed)
        pairs = workloads.execute(prepared).cases
    bad = [spec.label() for spec, _metrics, failure in pairs if failure is not None]
    if bad:
        raise SystemExit(f"{name}: quarantined cases {bad}")
    return {spec.label(): workloads.digest(metrics) for spec, metrics, _ in pairs}


def regenerate(name: str) -> None:
    runs = []
    for seed in (0, 1):
        tmp = RUN_DIR / f"expected-{name}-{seed}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        out = tmp / "digests.json"
        subprocess.run(
            [sys.executable, __file__, "--emit", name, str(seed), str(out)],
            env=workloads.hermetic_env(tmp), cwd=workloads.ROOT, check=True,
        )
        runs.append(json.loads(out.read_text()))
        shutil.rmtree(tmp, ignore_errors=True)
    if runs[0] != runs[1]:
        raise SystemExit(f"{name}: digests depend on case order")
    path = workloads.EXPECTED / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": name, "digests": dict(sorted(runs[0].items()))},
                  f, indent=1)
        f.write("\n")
    print(f"wrote {path.relative_to(workloads.ROOT)}: {len(runs[0])} digests")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="default: all of " + ", ".join(workloads.WORKLOADS))
    parser.add_argument("--emit", nargs=3, metavar=("WORKLOAD", "SEED", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        name, seed, out = args.emit
        Path(out).write_text(json.dumps(emit(name, int(seed))))
        return 0
    unknown = set(args.workloads) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    for name in args.workloads or workloads.WORKLOADS:
        regenerate(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
