"""Timing driver for query workloads: run query rays through the engines.

Rendering has a shading/bounce loop; query workloads are simpler — a flat
batch of independent "rays" (each a prepared traversal state) traced once.
This driver runs every query's functional traversal once
(:func:`repro.gpusim.soa.build_query_traces`, the render plan's wave
loop), replays the traces through the chosen policy's SoA RT unit in
warps, and reports cycles plus the usual statistics, so RTIndeX-style,
point-in-mesh and neighbor-search workloads can be compared across
baseline / prefetch / VTQ exactly like rendering is.  With
``REPRO_SOA_ENGINE=0`` the scalar units traverse the live states
instead — the oracle the replay matches bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.core.config import VTQConfig
from repro.gpusim.config import GPUConfig, scaled_config
from repro.gpusim.memory import MemorySystem, make_shared_l2
from repro.gpusim.soa import build_query_traces, soa_engine_enabled
from repro.gpusim.soa_engines import ReplayState, make_rt_unit
from repro.gpusim.stats import SimStats
from repro.gpusim.warp import SimRay, TraceWarp


@dataclass
class QueryTimingResult:
    """Outcome of one timed query batch."""

    policy: str
    cycles: float
    stats: SimStats
    states: List  # finished traversal states, query order
    # Which engine ran: "soa" (trace replay) or "scalar", as in
    # repro.tracing.RenderResult.
    engine: str = "scalar"


def time_queries(
    bvh,
    state_factory: Callable[[int], object],
    num_queries: int,
    policy: str = "baseline",
    config: GPUConfig = None,
    vtq: VTQConfig = None,
) -> QueryTimingResult:
    """Trace ``num_queries`` query rays through one SM's engine.

    ``state_factory(i)`` builds the i-th query's traversal state (see
    ``RangeIndex.make_query_state`` / ``MeshClassifier.make_query_state``);
    it runs once per query, in index order.  Functional results land in
    the returned ``states`` regardless of policy and engine — identical
    across them, as with rendering.
    """
    if num_queries < 1:
        raise ValueError("need at least one query")
    config = config or scaled_config()
    stats = SimStats()
    mem = MemorySystem(config, stats, make_shared_l2(config))
    if vtq is None:
        vtq = VTQConfig().scaled_to(min(config.max_virtual_rays_per_sm, num_queries))
    replay = soa_engine_enabled()
    engine = make_rt_unit(policy, bvh, config, mem, stats, vtq=vtq, replay=replay)

    states = [state_factory(i) for i in range(num_queries)]
    ray_states = states
    if replay:
        ray_states = [ReplayState(trace) for trace in build_query_traces(bvh, states)]
    rays = [SimRay(i, i, i // config.cta_threads, 0, ray_states[i])
            for i in range(num_queries)]
    for start in range(0, num_queries, config.warp_size):
        engine.submit(
            TraceWarp(rays[start : start + config.warp_size],
                      cta_id=start // config.cta_threads)
        )
    # Each query is traced once: completions start no follow-up work.
    cycles = engine.run(lambda done, cycle: None)
    return QueryTimingResult(
        policy=policy, cycles=cycles, stats=stats, states=states,
        engine="soa" if replay else "scalar",
    )
