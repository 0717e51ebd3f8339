"""Re-charge a recorded memory stream through fresh L1/L2/DRAM models.

Replay rebuilds the exact cache-hierarchy interaction of a live run
without re-running traversal: each recorded operation performs the same
``MemorySystem`` calls the engine made — per-lane ``access_lines`` with
the max-over-rays warp-step latency rule, ray-data loads, treelet burst
fetches, CTA state streams — against caches and DRAM built from the
*replay* configuration, while the traversal-side statistics (visits,
tests, SIMT samples, queue counters) are overlaid from the recording.

Scheduling:

* **baseline / prefetch** replay re-runs the size-1-warp-buffer
  greedy-then-oldest scheduler from the recorded warp genealogy, so the
  serialization of warps — and therefore every access's cycle stamp —
  is recomputed for the replay configuration.  This is exact across the
  replay-safe axes (:mod:`repro.memtrace.safety`).
* **vtq** replay walks the recorded chronological stream with explicit
  idle jumps; exact at the recorded configuration only.

The prefetcher is replayed live: recorded vote snapshots and candidate
lines drive a fresh popularity table wired to the replayed L1's demand
misses, so prefetch traffic and used/unused accounting respond to the
replay cache geometry exactly as a live run would.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional

import numpy as np

from repro.errors import TraceError
from repro.gpusim.config import GPUConfig
from repro.gpusim.memory import AccessKind, MemorySystem, make_shared_l2
from repro.gpusim.stats import SimStats, TraversalMode
from repro.memtrace.format import (
    MODE_LIST,
    OP_ADVANCE_TO,
    OP_CTA_RESTORE,
    OP_CTA_SAVE,
    OP_PF_NOTE,
    OP_PF_REFRESH,
    OP_RAY_LOAD_FINAL,
    OP_RAY_LOAD_REFILL,
    OP_RAY_LOAD_TS,
    OP_RAY_WRITE,
    OP_STEP,
    OP_TQ_END,
    OP_TQ_FETCH,
    MemTrace,
    SMTrace,
    apply_overlay,
)
from repro.memtrace.safety import ensure_replayable


class _ReplayPrefetcher:
    """The most-popular-treelet prefetcher, driven by recorded snapshots.

    Vote counts and candidate-access lines are functions of ray states
    (config-invariant), so they come from the trace; everything cache-
    dependent — which demand misses fire, which lines a prefetch
    installs, used/unused accounting — runs live against the replay L1.
    """

    def __init__(self, config, mem, stats, treelet_base, treelet_sizes, min_votes):
        self.config = config
        self.mem = mem
        self.stats = stats
        self.treelet_base = treelet_base
        self.treelet_sizes = treelet_sizes
        self.min_votes = min_votes
        self._votes: Dict[int, int] = {}
        self._outstanding: Dict[int, Dict[int, bool]] = {}
        mem.l1_miss_hook = self.on_miss

    def refresh(self, votes: Dict[int, int]) -> None:
        self._votes = votes
        self.settle({t for t, v in votes.items() if v >= self.min_votes})

    def settle(self, keep) -> None:
        for treelet in list(self._outstanding):
            if treelet in keep:
                continue
            for _line, used in self._outstanding.pop(treelet).items():
                if not used:
                    self.stats.prefetch_unused_lines += 1

    def note(self, lines) -> None:
        if not self._outstanding:
            return
        flat = {}
        for per_treelet in self._outstanding.values():
            flat.update((line, per_treelet) for line in per_treelet)
        for line in lines:
            holder = flat.get(line)
            if holder is not None:
                holder[line] = True

    def on_miss(self, line: int) -> None:
        address = line * self.config.line_bytes
        idx = int(np.searchsorted(self.treelet_base, address, side="right")) - 1
        if idx < 0 or address >= int(self.treelet_base[idx]) + int(
            self.treelet_sizes[idx]
        ):
            return  # access outside the BVH image (mirrors the live catch)
        if idx in self._outstanding:
            return
        if self._votes.get(idx, 0) < self.min_votes:
            return
        line_bytes = self.config.line_bytes
        start = int(self.treelet_base[idx]) // line_bytes
        end = (
            int(self.treelet_base[idx]) + int(self.treelet_sizes[idx])
            + line_bytes - 1
        ) // line_bytes
        new_lines = [l for l in range(start, end) if not self.mem.l1.contains(l)]
        self.mem.l1.insert_many(new_lines)
        self.stats.prefetch_lines += len(new_lines)
        self.stats.traffic_bytes["prefetch"] += len(new_lines) * line_bytes
        self.stats.traffic_bytes["dram"] += len(new_lines) * line_bytes
        self._outstanding[idx] = {l: False for l in new_lines}


def _exec_step(ops, p, cycle, mem, stats, config):
    """One recorded warp step: per-lane accesses + the latency rule."""
    mode = MODE_LIST[ops[p + 1]]
    tests = ops[p + 2]
    leaf_lanes = ops[p + 3]
    nlanes = ops[p + 4]
    p += 5
    max_latency = 0.0
    missing_lanes = 0
    misses = 0
    for _ in range(nlanes):
        nlines = ops[p]
        p += 1
        access_latency, lane_misses = mem.access_lines(
            ops[p : p + nlines], AccessKind.BVH, cycle
        )
        p += nlines
        if lane_misses:
            missing_lanes += 1
            misses += lane_misses
        if access_latency > max_latency:
            max_latency = access_latency
    latency = float(config.l1_latency)
    if missing_lanes:
        miss_fraction = missing_lanes / nlanes
        latency += miss_fraction * max(0.0, max_latency - config.l1_latency)
        latency += config.miss_serialization_cycles * (misses - 1)
    latency += config.intersection_latency
    # Leaf-cost operands (gaussian workloads only; zeros elsewhere) are
    # repriced from the *replay* config, making the gaussian cycle knobs
    # replay-safe axes.
    if tests or leaf_lanes:
        leaf_cycles = float(
            config.gaussian_alpha_cycles * tests
            + config.gaussian_blend_cycles * leaf_lanes
        )
        if leaf_cycles:
            latency += leaf_cycles
    stats.record_mode(mode, latency, 0)
    return p, cycle + latency, latency


def _exec_warp_span(ops, p, end, cycle, mem, stats, config, pf):
    """Replay one warp's op span (baseline/prefetch streams)."""
    while p < end:
        code = ops[p]
        if code == OP_STEP:
            p, cycle, _ = _exec_step(ops, p, cycle, mem, stats, config)
        elif code == OP_PF_REFRESH:
            count = ops[p + 1]
            p += 2
            votes = {}
            for _ in range(count):
                votes[ops[p]] = ops[p + 1]
                p += 2
            pf.refresh(votes)
        elif code == OP_PF_NOTE:
            count = ops[p + 1]
            pf.note(ops[p + 2 : p + 2 + count])
            p += 2 + count
        else:
            raise TraceError(f"unexpected op code {code} in a warp stream")
    return cycle


def _replay_warp_sm(sm: SMTrace, config, mem, stats, pf) -> float:
    """Genealogy replay: re-run the GTO scheduler over recorded warps."""
    ops = sm.ops.tolist()
    wstart = sm.warp_start.tolist()
    wend = sm.warp_end.tolist()
    wready = sm.warp_ready.tolist()
    wparent = sm.warp_parent.tolist()
    children: List[List[int]] = [[] for _ in wstart]
    heap = []
    seq = 0
    for i, parent in enumerate(wparent):
        if parent < 0:
            heapq.heappush(heap, (wready[i], seq, i))
            seq += 1
        else:
            children[parent].append(i)
    cycle = 0.0
    while heap:
        ready, _, i = heapq.heappop(heap)
        if ready > cycle:
            cycle = ready  # RT unit idles until the warp arrives
        cycle = _exec_warp_span(
            ops, wstart[i], wend[i], cycle, mem, stats, config, pf
        )
        for child in children[i]:
            heapq.heappush(heap, (cycle + wready[child], seq, child))
            seq += 1
    if pf is not None:
        pf.settle(set())
    return cycle


def _replay_linear_sm(sm: SMTrace, trace: MemTrace, config, vtq_meta, mem, stats):
    """Pinned-schedule replay of one SM's chronological vtq stream."""
    from repro.core.virtualization import cta_state_bytes

    ops = sm.ops.tolist()
    fops = sm.fops.tolist()
    treelet_base = trace.treelet_base
    treelet_sizes = trace.treelet_sizes
    line_bytes = config.line_bytes
    state_bytes = cta_state_bytes(config)
    state_lines = (state_bytes + line_bytes - 1) // line_bytes
    bandwidth_occupancy = float(config.dram_line_transfer * state_lines)
    preload = bool((vtq_meta or {}).get("preload_enabled", True))
    ts_mode = TraversalMode.TREELET_STATIONARY
    final_mode = TraversalMode.FINAL_RAY_STATIONARY

    cycle = 0.0
    fp = 0
    in_treelet_queue = False
    work_cycles = 0.0
    prev_warp_cycles = 0.0
    preload_credit = 0.0
    p = 0
    n = len(ops)
    while p < n:
        code = ops[p]
        if code == OP_STEP:
            p, cycle, latency = _exec_step(ops, p, cycle, mem, stats, config)
            if in_treelet_queue:
                work_cycles += latency
                prev_warp_cycles += latency
        elif code == OP_RAY_WRITE:
            count = ops[p + 1]
            for ray_id in ops[p + 2 : p + 2 + count]:
                mem.ray_data_access(ray_id, cycle, write=True)
            p += 2 + count
        elif code == OP_RAY_LOAD_TS:
            count = ops[p + 1]
            load_latency = 0.0
            for ray_id in ops[p + 2 : p + 2 + count]:
                load_latency = max(load_latency, mem.ray_data_access(ray_id, cycle))
            p += 2 + count
            if preload:
                load_latency = max(0.0, load_latency - prev_warp_cycles)
            cycle += load_latency
            work_cycles += load_latency
            stats.record_mode(ts_mode, load_latency)
            prev_warp_cycles = 0.0
        elif code in (OP_RAY_LOAD_FINAL, OP_RAY_LOAD_REFILL):
            count = ops[p + 1]
            load_latency = 0.0
            for ray_id in ops[p + 2 : p + 2 + count]:
                load_latency = max(load_latency, mem.ray_data_access(ray_id, cycle))
            p += 2 + count
            cycle += load_latency
            stats.record_mode(final_mode, load_latency)
        elif code == OP_TQ_FETCH:
            treelet = ops[p + 1]
            p += 2
            start = int(treelet_base[treelet]) // line_bytes
            end = (
                int(treelet_base[treelet]) + int(treelet_sizes[treelet])
                + line_bytes - 1
            ) // line_bytes
            fetch_latency = mem.fetch_treelet(range(start, end), cycle)
            if preload:
                fetch_latency -= min(preload_credit, fetch_latency)
            cycle += fetch_latency
            stats.record_mode(ts_mode, fetch_latency)
            in_treelet_queue = True
            work_cycles = 0.0
            prev_warp_cycles = 0.0
        elif code == OP_TQ_END:
            p += 1
            preload_credit = work_cycles if preload else 0.0
            in_treelet_queue = False
        elif code in (OP_CTA_SAVE, OP_CTA_RESTORE):
            p += 1
            mem.cta_state_transfer(state_bytes)
            cycle += bandwidth_occupancy
        elif code == OP_ADVANCE_TO:
            p += 1
            target = fops[fp]
            fp += 1
            if target > cycle:
                cycle = target
        else:
            raise TraceError(f"unexpected op code {code} in a linear stream")
    return cycle


def replay_trace(trace: MemTrace, gpu_overrides=None, *, record_obs: bool = True):
    """Replay ``trace`` at (recorded config + overrides); returns a
    :class:`repro.tracing.render.RenderResult` whose ``SimStats`` match
    what a live run at that configuration produces.

    Raises :class:`TraceError` for partial traces, replay-unsafe
    overrides, or cross-config requests on a pinned (vtq) trace.
    """
    from repro.experiments.runner import normalize_overrides

    started = time.perf_counter()
    meta = trace.meta
    overrides = dict(normalize_overrides(gpu_overrides))
    ensure_replayable(meta, overrides)
    gpu_fields = dict(meta["gpu"])
    gpu_fields.update(overrides)
    config = GPUConfig(**gpu_fields)
    policy = meta["policy"]
    vtq_meta = meta.get("vtq")
    prefetch_meta = meta.get("prefetch") or {}

    shared_l2 = make_shared_l2(config)
    per_sm_cycles: List[float] = []
    merged = SimStats()
    for index, sm in enumerate(trace.sms):
        stats = SimStats()
        mem = MemorySystem(config, stats, shared_l2)
        if policy == "vtq":
            cycle = _replay_linear_sm(sm, trace, config, vtq_meta, mem, stats)
        else:
            pf = None
            if policy == "prefetch":
                pf = _ReplayPrefetcher(
                    config, mem, stats, trace.treelet_base, trace.treelet_sizes,
                    int(prefetch_meta.get("min_votes", 1)),
                )
            cycle = _replay_warp_sm(sm, config, mem, stats, pf)
        stats.total_cycles = max(stats.total_cycles, cycle)
        apply_overlay(stats, meta["overlays"][index])
        per_sm_cycles.append(cycle)
        merged.merge(stats)

    from repro.tracing.render import RenderResult

    result = RenderResult(
        policy=policy,
        image=trace.image,
        stats=merged,
        cycles=max(per_sm_cycles) if per_sm_cycles else 0.0,
        per_sm_cycles=per_sm_cycles,
        scene_name=trace.scene,
    )
    result.replayed = True
    wall = time.perf_counter() - started
    result.replay_wall_s = wall
    if record_obs:
        from repro.obs import record_sim_stats
        from repro.obs import registry as obs_registry

        record_sim_stats(merged, scene=trace.scene, policy=policy)
        registry = obs_registry()
        registry.counter(
            "repro_memtrace_traces_total",
            "Memory-trace store events by kind.",
            ("event",),
        ).labels(event="replayed").inc()
        registry.histogram(
            "repro_memtrace_replay_seconds",
            "Wall time of one trace replay.",
        ).labels().observe(wall)
        record_wall = meta.get("record_wall_s") or 0.0
        if wall > 0.0 and record_wall > 0.0:
            registry.histogram(
                "repro_memtrace_replay_speedup",
                "Live-record wall time over replay wall time, per replay.",
            ).labels().observe(record_wall / wall)
    return result
