"""Warps, trace jobs and the warp-step primitive.

A :class:`SimRay` is one path-tracing ray in flight: its traversal state
plus identity (pixel, CTA, bounce).  A :class:`TraceWarp` is up to
``warp_size`` rays issued together by ``traceRayEXT()``.

:func:`warp_step` is the core timing primitive shared by every scalar
RT-unit model: advance all unfinished rays of a warp by one BVH item
visit, charge the slowest ray's memory latency plus the fixed-function
intersection latency, and record SIMT efficiency.

It is one :func:`~repro.bvh.traversal.single_step` per lane, in lane
order.  Batching the intersection math across one warp's lanes gains
nothing measurable: at most ``warp_size`` lanes cannot amortize a numpy
kernel call's fixed cost.  The SoA plan builder (:mod:`repro.gpusim.soa`)
is where the batch kernels run, on bounce-wide groups in the hundreds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.bvh.traversal import RayTraversalState, single_step
from repro.gpusim.config import GPUConfig
from repro.gpusim.memory import AccessKind, MemorySystem
from repro.gpusim.stats import SimStats, TraversalMode


class SimRay:
    """One ray in flight through the simulated GPU."""

    __slots__ = ("ray_id", "pixel", "cta_id", "bounce", "state")

    def __init__(
        self,
        ray_id: int,
        pixel: int,
        cta_id: int,
        bounce: int,
        state: RayTraversalState,
    ):
        self.ray_id = ray_id
        self.pixel = pixel
        self.cta_id = cta_id
        self.bounce = bounce
        self.state = state

    def finished(self) -> bool:
        return self.state.finished()

    def __repr__(self) -> str:
        return f"SimRay(id={self.ray_id}, pixel={self.pixel}, bounce={self.bounce})"


@dataclass
class TraceWarp:
    """A warp's worth of rays submitted to the RT unit."""

    rays: List[SimRay]
    cta_id: int
    ready_cycle: float = 0.0
    seq: int = 0  # submission order; the GTO scheduler's age key

    def active_rays(self) -> List[SimRay]:
        return [r for r in self.rays if not r.finished()]

    def all_finished(self) -> bool:
        return all(r.finished() for r in self.rays)

    def __len__(self) -> int:
        return len(self.rays)


def warp_step(
    bvh,
    rays: List[SimRay],
    mem: MemorySystem,
    config: GPUConfig,
    stats: SimStats,
    cycle: float,
    mode: TraversalMode,
    in_treelet_only: bool = False,
) -> Tuple[float, List[SimRay], int]:
    """Advance every unfinished ray of ``rays`` by one item visit.

    Returns ``(latency, stepped, tests)``: the step's latency in cycles,
    the rays that actually advanced, and the triangle tests performed.
    Rays whose step returns ``None`` (finished, or parked at a treelet
    boundary when ``in_treelet_only``) are left untouched and excluded
    from ``stepped``.

    Memory accesses of the lanes overlap: the step waits for the slowest
    lane (memory divergence), exactly the RT-unit behaviour the paper's
    SIMT-efficiency argument relies on.
    """
    max_latency = 0.0
    missing_lanes = 0
    misses = 0
    stepped: List[SimRay] = []
    tests = 0
    step_leaves = 0
    gaussian = getattr(bvh, "prim_kind", "triangle") == "gaussian"
    item_lines = bvh.item_lines
    recorder = mem.recorder
    lane_lines = [] if recorder is not None else None
    for ray in rays:
        result = single_step(bvh, ray.state, in_treelet_only=in_treelet_only)
        if result is None:
            continue
        item, is_leaf, ray_tests = result
        access_latency, ray_misses = mem.access_lines(
            item_lines[item], AccessKind.BVH, cycle
        )
        max_latency = max(max_latency, access_latency)
        if ray_misses:
            missing_lanes += 1
            misses += ray_misses
        stepped.append(ray)
        if lane_lines is not None:
            lane_lines.append(item_lines[item])
        tests += ray_tests
        if is_leaf:
            step_leaves += 1
            stats.leaf_visits += 1
        else:
            stats.node_visits += 1
    if not stepped:
        return 0.0, [], 0
    stats.triangle_tests += tests
    # Leaf-cost operands are recorded (and priced) only on gaussian
    # workloads, so triangle traces and cycle counts stay byte-identical
    # to the historical model.
    cost_tests = tests if gaussian else 0
    cost_leaves = step_leaves if gaussian else 0
    if recorder is not None:
        recorder.step(mode, lane_lines, tests=cost_tests, leaf_lanes=cost_leaves)
    latency = step_latency(
        config, len(stepped), max_latency, missing_lanes, misses,
        gaussian_leaf_cycles(config, cost_tests, cost_leaves) if gaussian else 0.0,
    )
    stats.record_simt(len(stepped), config.warp_size)
    stats.record_mode(mode, latency, tests)
    return latency, stepped, tests


def step_latency(
    config: GPUConfig,
    lanes: int,
    max_latency: float,
    missing_lanes: int,
    misses: int,
    leaf_cycles: float = 0.0,
) -> float:
    """The cycle cost of one warp step with ``lanes`` stepped lanes.

    Fractional-stall cost: the RT unit's memory scheduler keeps servicing
    lanes whose data is ready while the missing lanes wait, so a step
    costs the hit latency plus the worst miss latency weighted by the
    fraction of lanes that missed.  (A pure max() model would make every
    partially-missing step cost a full DRAM round trip, erasing the
    benefit of anything — prefetching, treelets — that converts *some*
    lanes' misses into hits.)  Each distinct miss beyond the first also
    pays the configured miss-port serialization.

    ``leaf_cycles`` is the workload-dependent extra leaf cost of the
    step (gaussian alpha evaluation + blend bookkeeping; see
    :func:`gaussian_leaf_cycles`).  Zero on triangle workloads — the
    guarded add keeps triangle steps float-identical to the historical
    formula.

    Shared by the scalar warp step and the SoA replay engines; the float
    operation order here is part of the bit-exactness contract.
    """
    latency = float(config.l1_latency)
    if missing_lanes:
        miss_fraction = missing_lanes / lanes
        latency += miss_fraction * max(0.0, max_latency - config.l1_latency)
        latency += config.miss_serialization_cycles * (misses - 1)
    latency += config.intersection_latency
    if leaf_cycles:
        latency += leaf_cycles
    return latency


def gaussian_leaf_cycles(config: GPUConfig, tests: int, leaf_lanes: int) -> float:
    """Extra leaf cost of one warp step on a gaussian workload.

    ``tests`` gaussian candidates each pay an alpha evaluation and each
    of the ``leaf_lanes`` leaf-visiting lanes pays the front-to-back
    blend bookkeeping.  Callers pass zeros on triangle workloads.
    """
    return float(
        config.gaussian_alpha_cycles * tests
        + config.gaussian_blend_cycles * leaf_lanes
    )

