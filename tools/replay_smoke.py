#!/usr/bin/env python3
"""CI smoke test for the memory-trace record/replay subsystem.

End to end, in one process (docs/MEMTRACE.md):

1. record a small scene's memory trace during a live run (baseline and
   prefetch),
2. assert the same-config replay reproduces the live run's ``SimStats``
   snapshot, cycles and per-SM cycles **bit for bit**,
3. replay each trace at two L2 sizes and assert each replay equals a
   fresh live run at that configuration exactly,
4. use memory traces as the oracle for live sweep points: a
   ``run_case`` GPU-override point equals a replay of the
   base-configuration trace at that override (baseline and prefetch,
   BUNNY and GSPL1, over ``l2_bytes``, ``dram_latency`` and
   ``gaussian_alpha_cycles``), and an override sweep through
   ``run_cases`` records no trace,
5. assert the refusal paths refuse: vtq cross-config, replay-unsafe
   axes, partial (budget-truncated) traces.

Run from the repository root:

    PYTHONPATH=src python tools/replay_smoke.py
"""

import dataclasses
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.errors import TraceBudgetExceeded, TraceError  # noqa: E402
from repro.experiments.parallel import gpu_sweep_cases, run_cases  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentContext,
    default_context,
    extract_metrics,
    run_case,
    scene_and_bvh,
)
from repro.memtrace import replay_trace, trace_dir  # noqa: E402
from repro.memtrace.store import record_trace  # noqa: E402
from repro.tracing import render_scene  # noqa: E402

L2_POINTS = (1 * 1024 * 1024, 4 * 1024 * 1024)
ORACLE_POINTS = (
    (("l2_bytes", L2_POINTS[1]),),
    (("dram_latency", 700),),
    (("gaussian_alpha_cycles", 16),),
)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"  ok: {message}")


def override_setup(setup, **fields):
    return dataclasses.replace(
        setup, gpu=dataclasses.replace(setup.gpu, **fields)
    )


def main():
    base = default_context(fast=True)
    context = ExperimentContext(
        setup=base.setup, scene_list=base.scene_list, use_disk_cache=False
    )
    scene, bvh = scene_and_bvh("BUNNY", context.setup)

    for policy in ("baseline", "prefetch"):
        print(f"BUNNY/{policy}:")
        start = time.perf_counter()
        trace, live = record_trace(
            scene, bvh, context.setup, policy, scene_name="BUNNY"
        )
        record_s = time.perf_counter() - start

        same = replay_trace(trace)
        check(
            same.stats.snapshot() == live.stats.snapshot()
            and same.cycles == live.cycles
            and same.per_sm_cycles == live.per_sm_cycles,
            f"same-config replay is bit-for-bit identical "
            f"({record_s:.2f}s live, {same.replay_wall_s:.2f}s replay)",
        )

        for l2_bytes in L2_POINTS:
            point = override_setup(context.setup, l2_bytes=l2_bytes)
            fresh = render_scene(scene, bvh, point, policy=policy)
            replayed = replay_trace(trace, (("l2_bytes", l2_bytes),))
            check(
                replayed.stats.snapshot() == fresh.stats.snapshot()
                and replayed.cycles == fresh.cycles,
                f"replay at l2_bytes={l2_bytes} equals a fresh live run",
            )

    print("refusals:")
    vtq_trace, _ = record_trace(
        scene, bvh, context.setup, "vtq", scene_name="BUNNY"
    )
    check(
        replay_trace(vtq_trace).stats.snapshot() is not None,
        "vtq same-config replay works",
    )
    try:
        replay_trace(vtq_trace, (("l2_bytes", L2_POINTS[0]),))
        check(False, "vtq cross-config replay must be refused")
    except TraceError:
        check(True, "vtq cross-config replay refused with TraceError")
    baseline_trace, _ = record_trace(
        scene, bvh, context.setup, "baseline", scene_name="BUNNY"
    )
    try:
        replay_trace(baseline_trace, (("l1_bytes", 4096),))
        check(False, "replay-unsafe axis must be refused")
    except TraceError:
        check(True, "replay-unsafe axis refused with TraceError")
    os.environ["REPRO_TRACE_BUDGET_BYTES"] = "64"
    try:
        record_trace(scene, bvh, context.setup, "baseline", scene_name="BUNNY")
        check(False, "over-budget recording must raise")
    except TraceBudgetExceeded as exc:
        check(exc.limit == 64, "over-budget recording raises with its limit")
    finally:
        del os.environ["REPRO_TRACE_BUDGET_BYTES"]

    print("live sweep points vs the replay oracle:")
    with tempfile.TemporaryDirectory(prefix="repro-replay-smoke-") as scratch:
        cached = ExperimentContext(
            setup=context.setup, scene_list=context.scene_list,
            use_disk_cache=True,
        )
        os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
        os.environ["REPRO_TRACE_DIR"] = os.path.join(scratch, "traces")
        try:
            for scene_name in ("BUNNY", "GSPL1"):
                oracle_scene, oracle_bvh = scene_and_bvh(
                    scene_name, context.setup
                )
                for policy in ("baseline", "prefetch"):
                    trace, _ = record_trace(
                        oracle_scene, oracle_bvh, context.setup, policy,
                        scene_name=scene_name,
                    )
                    for overrides in ORACLE_POINTS:
                        point = override_setup(context.setup, **dict(overrides))
                        oracle = extract_metrics(
                            replay_trace(trace, overrides), point
                        )
                        oracle.update(scene=scene_name, policy=policy)
                        live = run_case(
                            scene_name, policy, cached, gpu_overrides=overrides
                        )
                        check(
                            live == oracle,
                            f"{scene_name}/{policy} run_case at "
                            f"{dict(overrides)} equals the trace replay",
                        )
            specs = gpu_sweep_cases(
                "BUNNY", "prefetch", "dram_latency", [300, 471]
            )
            results = run_cases(specs, cached, jobs=0)
            check(
                all(failure is None for _, failure in results),
                "override sweep through run_cases completes",
            )
            directory = trace_dir()
            check(
                not directory.exists() or not any(directory.iterdir()),
                "override sweep leaves the trace directory empty",
            )
        finally:
            for name in ("REPRO_CACHE_DIR", "REPRO_TRACE_DIR"):
                os.environ.pop(name, None)

    print("replay smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
