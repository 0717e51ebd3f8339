"""The standalone analytical model of Section 2.4.

The paper motivates treelets with a deliberately simple model, evaluated
before any architecture is designed:

* Record every BVH item visit made by every ray of the workload.
* Assume **no caching**: every access is a miss costing one memory latency.
* **Baseline** cycles = total item visits x memory latency.
* **Treelet queues** cycles: partition the rays into batches of
  ``concurrent`` rays; within a batch, a fetched treelet is shared by all
  rays at no extra cost, so a batch costs
  ``unique_treelets_touched x items_per_treelet x memory latency``.

More concurrent rays per batch means fewer duplicate treelet fetches and
a larger potential speedup — the argument for ray virtualization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.bvh.traversal import TraversalOrder, init_traversal, single_step
from repro.tracing.path_tracer import ShadingEngine


@dataclass
class RayTrace:
    """One ray's recorded traversal: the treelets of every item it visited."""

    treelets: List[int]

    @property
    def visits(self) -> int:
        return len(self.treelets)

    def unique_treelets(self) -> set:
        return set(self.treelets)


def trace_one_ray(bvh, origin, direction, tmin: float = 1e-4) -> RayTrace:
    """Record the treelet of every BVH item one ray visits."""
    state = init_traversal(bvh, origin, direction, tmin, TraversalOrder.TREELET)
    treelets: List[int] = []
    while True:
        step = single_step(bvh, state)
        if step is None:
            break
        treelets.append(bvh.treelet_of_item(step[0]))
    return RayTrace(treelets)


def collect_workload_traces(
    scene, bvh, width: int, height: int, max_bounces: int = 3, seed: int = 0
) -> List[RayTrace]:
    """Traces for the full path-traced workload: primaries plus secondaries.

    Rays are ordered primaries-first then bounce by bounce, matching how
    the GPU would see them arrive.
    """
    shading = ShadingEngine(scene, bvh, max_bounces=max_bounces, seed=seed)
    traces: List[RayTrace] = []
    alive = shading.primary_paths(width, height)
    while alive:
        next_alive = []
        for path in alive:
            state = shading.begin_traversal(path)
            treelets: List[int] = []
            while True:
                step = single_step(bvh, state)
                if step is None:
                    break
                treelets.append(bvh.treelet_of_item(step[0]))
            traces.append(RayTrace(treelets))
            if shading.shade(path, state):
                next_alive.append(path)
        alive = next_alive
    return traces


def baseline_cycles(
    traces: Sequence[RayTrace], memory_latency: float = 471.0
) -> float:
    """Section 2.4's no-caching baseline: every visit is one full miss."""
    return sum(t.visits for t in traces) * memory_latency


def unique_treelets_per_batch(
    traces: Sequence[RayTrace], concurrent_rays: int
) -> List[int]:
    """Unique treelets touched by each ``concurrent_rays``-sized batch.

    This is the curve behind the treelet-queue estimate (and a feature
    source for :mod:`repro.surrogate`): the flatter it stays as batches
    grow, the more duplicate treelet fetches sharing removes.
    """
    if concurrent_rays < 1:
        raise ValueError("concurrent_rays must be >= 1")
    counts: List[int] = []
    for start in range(0, len(traces), concurrent_rays):
        unique: set = set()
        for trace in traces[start : start + concurrent_rays]:
            unique.update(trace.treelets)
        counts.append(len(unique))
    return counts


def treelet_reuse_histogram(traces: Sequence[RayTrace]) -> Dict[int, int]:
    """Total visit count per treelet over the whole workload.

    The skew of this histogram (a few hot treelets absorbing most
    visits) is what makes treelet queues pay off; the surrogate layer
    summarizes it into scene features.
    """
    hist: Dict[int, int] = {}
    for trace in traces:
        for treelet in trace.treelets:
            hist[treelet] = hist.get(treelet, 0) + 1
    return hist


def treelet_queue_cycles(
    traces: Sequence[RayTrace],
    concurrent_rays: int,
    items_per_treelet: float,
    memory_latency: float = 471.0,
) -> float:
    """Section 2.4's treelet-queue cycle estimate for one concurrency level.

    Each ``concurrent_rays`` batch fetches each treelet it touches once
    (``unique x items_per_treelet`` misses).  Guaranteed monotonically
    non-increasing along divisibility chains of ``concurrent_rays``
    (c, 2c, 4c, ...): a doubled batch is the union of two old batches,
    and ``|unique(A ∪ B)| <= |unique(A)| + |unique(B)|``.  Between
    arbitrary levels whose batch boundaries do not nest, small local
    increases are possible.
    """
    return (
        sum(unique_treelets_per_batch(traces, concurrent_rays))
        * items_per_treelet
        * memory_latency
    )


def analytical_speedup(
    traces: Sequence[RayTrace],
    concurrent_rays: int,
    items_per_treelet: float,
    memory_latency: float = 471.0,
) -> float:
    """Section 2.4's estimate for one concurrency level.

    Returns baseline cycles / treelet-queue cycles.
    """
    if concurrent_rays < 1:
        raise ValueError("concurrent_rays must be >= 1")
    if not traces:
        return 1.0
    baseline = baseline_cycles(traces, memory_latency)
    treelet_cycles = treelet_queue_cycles(
        traces, concurrent_rays, items_per_treelet, memory_latency
    )
    if treelet_cycles == 0:
        return 1.0
    return baseline / treelet_cycles


def concurrency_sweep(
    traces: Sequence[RayTrace],
    bvh,
    concurrency_levels: Iterable[int] = (64, 128, 256, 512, 1024, 2048, 4096),
    memory_latency: float = 471.0,
) -> Dict[int, float]:
    """Figure 5's x-axis sweep: speedup estimate per concurrency level."""
    items_per_treelet = (
        (bvh.node_count + bvh.leaf_count) / bvh.treelet_count
        if bvh.treelet_count
        else 1.0
    )
    return {
        level: analytical_speedup(traces, level, items_per_treelet, memory_latency)
        for level in concurrency_levels
    }
