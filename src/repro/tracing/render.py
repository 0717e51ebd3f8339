"""Render drivers: run a scene through a timing engine, end to end.

``render_scene`` is the single entry point the examples, tests and
benchmark harness use.  It:

1. builds primary rays from the scene camera (one per pixel),
2. groups pixels into CTAs and assigns CTAs round-robin to SMs,
3. instantiates the selected RT-unit engine per SM over a shared L2,
4. drives path tracing (shading between traversals) through the engines,
5. returns the image plus merged statistics and the cycle count (max over
   SMs — they run concurrently).

Policies:

* ``"baseline"``      — ray-stationary RT unit (paper's baseline GPU).
* ``"prefetch"``      — Treelet Prefetching, Chou et al. MICRO'23.
* ``"sorted"``        — software ray sorting (Garanzha & Loop 2010):
  each bounce's secondary rays are sorted by (direction octant, origin
  Morton code) before re-forming warps; the sort itself costs cycles —
  the overhead the paper's related-work section points at.
* ``"vtq"``           — Virtualized Treelet Queues (the contribution).

The functional image is identical across policies (deterministic
hash-based sampling; traversal is exact), which the test suite exploits.
Every policy has two drivers (``_DRIVERS``): the scalar one, which
shades live paths, and a plan-replay one, which replays the scene's
:class:`~repro.gpusim.soa.RenderPlan` through the SoA units — the
default, bit-identical to the scalar driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import faults
from repro.errors import TraceError
from repro.core.config import VTQConfig
from repro.core.virtualization import CTAStateCost, CTATracker
from repro.geometry.morton import state_sort_keys
from repro.gpusim.config import GPUConfig, ScaledSetup
from repro.gpusim.memory import MemorySystem, make_shared_l2
from repro.gpusim.soa import get_plan, soa_engine_enabled
from repro.gpusim.soa_engines import ReplayState, make_rt_unit
from repro.gpusim.stats import SimStats
from repro.gpusim.warp import SimRay, TraceWarp
from repro.tracing.path_tracer import ShadingEngine


@dataclass
class RenderResult:
    """Everything one simulated render produces."""

    policy: str
    image: np.ndarray           # (H, W, 3) linear radiance
    stats: SimStats             # merged across SMs
    cycles: float               # max over SMs (they run concurrently)
    per_sm_cycles: List[float]
    scene_name: str = ""
    # One ActivityTimeline per SM when the render was asked to record
    # spans (``record_timeline=True``); empty otherwise.
    timelines: List = field(default_factory=list)
    # Which engine actually ran: "soa" (plan replay) or "scalar", with the
    # reason for falling back when the SoA path was bypassed.
    engine: str = "scalar"
    engine_fallback_reason: Optional[str] = None

    def mean_radiance(self) -> float:
        return float(self.image.mean())


def render_scene(
    scene,
    bvh,
    setup: ScaledSetup,
    policy: str = "baseline",
    vtq_config: Optional[VTQConfig] = None,
    seed: int = 0,
    cycle_budget: Optional[float] = None,
    sanitize: Optional[bool] = None,
    record_timeline: bool = False,
    trace_recorder=None,
) -> RenderResult:
    """Path trace ``scene`` through the selected timing engine.

    ``cycle_budget`` bounds each SM's simulated cycles (the engine raises
    :class:`repro.errors.BudgetExceeded` past it).  ``sanitize`` runs the
    post-render invariant checks of :mod:`repro.gpusim.sanitize`;
    ``None`` defers to the ``REPRO_SANITIZE`` environment variable.
    ``record_timeline`` attaches one
    :class:`repro.gpusim.timeline.ActivityTimeline` per SM (returned in
    ``RenderResult.timelines``) — recording is purely observational and
    does not change any simulated number.  ``trace_recorder`` attaches a
    :class:`repro.memtrace.TraceRecorder` (same observational guarantee)
    that captures the memory transaction stream for later replay.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if trace_recorder is not None and trace_recorder.policy != policy:
        raise TraceError(
            f"trace recorder was built for policy {trace_recorder.policy!r} "
            f"but the render runs {policy!r}"
        )
    config = setup.gpu
    width, height = setup.image_width, setup.image_height
    pixels = width * height
    spp = max(1, setup.samples_per_pixel)

    # The SoA engine replays a precomputed render plan (one functional
    # pass per scene, shared across policies and configs) through pure
    # timing loops.  Fall back to the scalar engines when it is switched
    # off, or when the memory-trace recorder is attached: the recorder
    # hooks into warp internals the replay does not execute.
    scalar_driver, replay_driver = _DRIVERS[policy]
    fallback_reason: Optional[str] = None
    if not soa_engine_enabled():
        fallback_reason = "disabled"
    elif trace_recorder is not None:
        fallback_reason = "trace-recorder-attached"
    plans = None
    if fallback_reason is None:
        plans = get_plan(scene, bvh, setup, seed)

    if plans is None:
        shading = ShadingEngine(scene, bvh, max_bounces=setup.max_bounces, seed=seed)
        paths = shading.primary_paths(width, height, spp)
    else:
        # Plan replay never shades or touches path state; the functional
        # results live in the plan.
        shading = None
        paths = []

    shared_l2 = make_shared_l2(config)
    sm_stats = [SimStats() for _ in range(config.num_sms)]
    mems = [MemorySystem(config, sm_stats[i], shared_l2) for i in range(config.num_sms)]

    if vtq_config is None:
        vtq_config = VTQConfig().scaled_to(config.max_virtual_rays_per_sm)

    driver_cls = scalar_driver if plans is None else replay_driver
    per_sm_cycles: List[float] = []
    next_ray_id = [0]

    timelines: List = []
    for sm in range(config.num_sms):
        timeline = None
        if record_timeline:
            from repro.gpusim.timeline import ActivityTimeline

            timeline = ActivityTimeline(sm)
            timelines.append(timeline)
        driver = driver_cls(
            sm, scene, bvh, setup, shading, paths, mems[sm], sm_stats[sm],
            vtq_config, policy, next_ray_id, cycle_budget=cycle_budget,
            timeline=timeline, plans=plans,
        )
        if trace_recorder is not None:
            trace_recorder.begin_sm()
            mems[sm].recorder = trace_recorder
        per_sm_cycles.append(driver.run())
        if trace_recorder is not None:
            trace_recorder.end_sm(sm_stats[sm], per_sm_cycles[-1])
            mems[sm].recorder = None

    merged = SimStats()
    for stats in sm_stats:
        merged.merge(stats)
    if plans is not None:
        accum = plans.image_accum()
    else:
        accum = np.zeros((pixels, 3))
        for path in paths:
            accum[path.pixel] += path.radiance
    image = (accum / spp).reshape(height, width, 3)
    result = RenderResult(
        policy=policy,
        image=image,
        stats=merged,
        cycles=max(per_sm_cycles) if per_sm_cycles else 0.0,
        per_sm_cycles=per_sm_cycles,
        scene_name=getattr(scene, "name", ""),
        timelines=timelines,
        engine="scalar" if plans is None else "soa",
        engine_fallback_reason=fallback_reason,
    )
    _apply_stats_fault(result)
    from repro.gpusim.sanitize import check_render, sanitizer_enabled

    if sanitize or (sanitize is None and sanitizer_enabled()):
        check_render(result, setup)
    # Publish the run's merged stats into the process-wide metrics
    # registry (repro.obs).  Purely observational: the bridge only reads
    # the stats snapshot, so no simulated number changes.
    from repro.obs import record_sim_stats

    record_sim_stats(merged, scene=result.scene_name, policy=policy)
    return result


def _apply_stats_fault(result: RenderResult) -> None:
    """The STATS_CORRUPT fault site: deliberately break one invariant so
    tests can prove the sanitizer catches it."""
    key = f"{result.scene_name}:{result.policy}"
    spec = faults.should_fire(faults.STATS_CORRUPT, key)
    if spec is None:
        return
    invariant = spec.payload.get("invariant", "rays")
    stats = result.stats
    if invariant == "rays":
        stats.rays_completed += 1
    elif invariant == "queues":
        stats.treelet_queue_pushes += 7
    elif invariant == "cache":
        stats.cache_hits[("l1", "bvh")] = stats.cache_accesses[("l1", "bvh")] + 1
    elif invariant == "energy":
        stats.triangle_tests = -abs(stats.triangle_tests) - 1
    else:
        raise ValueError(f"unknown stats invariant {invariant!r}")


class _DriverBase:
    """Pixel -> CTA -> warp plumbing shared by all policies."""

    def __init__(
        self, sm, scene, bvh, setup, shading, paths, mem, stats,
        vtq_config, policy, ray_id_counter, cycle_budget=None, timeline=None,
        plans=None,
    ):
        self.sm = sm
        self.plans = plans
        self.cycle_budget = cycle_budget
        self.timeline = timeline
        self.scene = scene
        self.bvh = bvh
        self.setup = setup
        self.shading = shading
        self.paths = paths
        self.mem = mem
        self.stats = stats
        self.vtq_config = vtq_config
        self.policy = policy
        self._ray_id_counter = ray_id_counter
        self.config = setup.gpu

    def _new_ray_id(self) -> int:
        rid = self._ray_id_counter[0]
        self._ray_id_counter[0] += 1
        return rid

    def _num_slots(self) -> int:
        """How many path slots the render covers (pixels x samples)."""
        return len(self.paths)

    def _begin_ray_state(self, slot: int):
        """The traversal state a primary ray starts with for ``slot``."""
        return self.shading.begin_traversal(self.paths[slot])

    def _sm_ctas(self) -> List[List[int]]:
        """Path-slot lists of the CTAs this SM owns (round-robin assignment).

        Slots cover all samples of all pixels (sample-major), so at
        spp > 1 each sample's screen tiles form their own CTAs.
        """
        config = self.config
        slots = self._num_slots()
        ctas = []
        for cta_start in range(0, slots, config.cta_threads):
            cta_id = cta_start // config.cta_threads
            if cta_id % config.num_sms == self.sm:
                ctas.append(list(range(cta_start, min(cta_start + config.cta_threads, slots))))
        return ctas

    def _primary_cta_warps(self) -> List[tuple]:
        """``(cta_id, warps)`` for each CTA this SM owns, launch-staggered."""
        config = self.config
        out = []
        for local_idx, pixel_list in enumerate(self._sm_ctas()):
            cta_id = pixel_list[0] // config.cta_threads
            # CTAs launch in waves limited by the per-SM CTA slots; each
            # wave's raygen cost staggers its warps' arrival at the RT unit.
            wave = local_idx // config.max_cta_per_sm
            base_ready = (
                config.cta_launch_cycles
                + config.raygen_cycles_per_warp
                + wave * config.raygen_cycles_per_warp
            )
            warps = []
            for w_start in range(0, len(pixel_list), config.warp_size):
                lane_pixels = pixel_list[w_start : w_start + config.warp_size]
                rays = [
                    SimRay(self._new_ray_id(), p, cta_id, 0, self._begin_ray_state(p))
                    for p in lane_pixels
                ]
                warps.append(TraceWarp(rays, cta_id, ready_cycle=float(base_ready)))
            out.append((cta_id, warps))
        return out

    def _make_engine(self, policy: Optional[str] = None):
        """This SM's RT unit for ``policy`` (default: the render's) — the
        scalar unit, or its SoA subclass when replaying a plan."""
        return make_rt_unit(
            policy or self.policy, self.bvh, self.config, self.mem, self.stats,
            vtq=self.vtq_config, cycle_budget=self.cycle_budget,
            replay=self.plans is not None,
        )

    def _shade_ray(self, ray: SimRay) -> Optional[SimRay]:
        """Shade a completed traversal; returns the next bounce's ray or None."""
        path = self.paths[ray.pixel]
        if self.shading.shade(path, ray.state):
            return SimRay(
                self._new_ray_id(), ray.pixel, ray.cta_id, path.bounce,
                self.shading.begin_traversal(path),
            )
        return None


class _WarpDriver(_DriverBase):
    """Driver for warp-completion engines (baseline, prefetch).

    Without ray virtualization a warp's threads stall in the raygen shader
    until traversal completes, then shade and issue the next bounce from
    the same warp — dead lanes stay dead, which is the baseline's SIMT
    inefficiency on secondary bounces.
    """

    def run(self) -> float:
        config = self.config
        engine = self._make_engine()
        engine.timeline = self.timeline

        def on_complete(warp: TraceWarp, cycle: float) -> None:
            survivors = []
            for ray in warp.rays:
                nxt = self._shade_ray(ray)
                if nxt is not None:
                    survivors.append(nxt)
            if survivors:
                engine.submit(
                    TraceWarp(
                        survivors, warp.cta_id,
                        ready_cycle=cycle + config.shade_cycles_per_warp,
                    )
                )

        for _cta_id, warps in self._primary_cta_warps():
            for warp in warps:
                engine.submit(warp)
        return engine.run(on_complete)


class _SortedDriver(_DriverBase):
    """Software ray sorting (Garanzha & Loop 2010) over the baseline unit.

    Primary rays are traced as-is (they are screen-coherent already); each
    bounce's secondary rays are collected at a bounce barrier, sorted by
    (direction octant, origin Morton code), re-formed into warps and
    traced.  The sort is charged per key — the overhead that made the
    paper prefer treelet queues ("taking almost as long as ray traversal
    itself").
    """

    def _sort_keys(self, rays: List[SimRay]) -> np.ndarray:
        """The sort keys of one bounce's secondary rays, in list order."""
        bounds = self.scene.mesh.bounds()
        return state_sort_keys([ray.state for ray in rays], bounds.lo, bounds.hi)

    def run(self) -> float:
        config = self.config
        engine = self._make_engine("baseline")
        engine.timeline = self.timeline
        next_bounce: List[SimRay] = []

        def on_complete(warp: TraceWarp, cycle: float) -> None:
            for ray in warp.rays:
                nxt = self._shade_ray(ray)
                if nxt is not None:
                    next_bounce.append(nxt)

        for _cta_id, warps in self._primary_cta_warps():
            for warp in warps:
                engine.submit(warp)
        cycle = engine.run(on_complete)

        while next_bounce:
            rays = next_bounce[:]
            next_bounce.clear()
            order = np.argsort(self._sort_keys(rays), kind="stable")
            sort_cost = len(rays) * config.ray_sort_cycles_per_key
            ready = cycle + config.shade_cycles_per_warp + sort_cost
            for start in range(0, len(order), config.warp_size):
                group = [rays[i] for i in order[start : start + config.warp_size]]
                engine.submit(TraceWarp(group, group[0].cta_id, ready_cycle=ready))
            cycle = engine.run(on_complete)
        return cycle


class _VTQDriver(_DriverBase):
    """Driver for the VTQ engine: ray-granular completion + CTA resume.

    Ray virtualization (Section 4.1): a CTA suspends after issuing its
    rays (state saved to memory), resumes when its last ray finishes
    (state restored, injected into the CTA scheduler), shades, issues the
    next bounce's rays and suspends again.
    """

    def run(self) -> float:
        config = self.config
        engine = self._make_engine()
        engine.timeline = self.timeline
        tracker = CTATracker()
        cta_state = CTAStateCost(engine)

        def on_ray_complete(ray: SimRay, cycle: float) -> None:
            done = tracker.ray_done(ray.cta_id, ray.bounce, ray)
            if done is None:
                return
            # CTA ready: restore state, shade every lane, issue next bounce.
            latency = cta_state.restore()
            survivors = [nxt for nxt in (self._shade_ray(r) for r in done) if nxt]
            if not survivors:
                return
            bounce = survivors[0].bounce
            tracker.suspend(done[0].cta_id, bounce, len(survivors))
            cta_state.save()
            ready = cycle + latency + config.shade_cycles_per_warp
            for w_start in range(0, len(survivors), config.warp_size):
                engine.submit(
                    TraceWarp(
                        survivors[w_start : w_start + config.warp_size],
                        done[0].cta_id,
                        ready_cycle=ready,
                    )
                )

        for cta_id, warps in self._primary_cta_warps():
            total_rays = sum(len(w.rays) for w in warps)
            tracker.suspend(cta_id, 0, total_rays)
            cta_state.save()
            for warp in warps:
                engine.submit(warp)
        return engine.run(on_ray_complete)


class _SoAPlanMixin:
    """Plan-replay overrides shared by the SoA drivers.

    Rays carry :class:`ReplayState` objects built from the plan's traces;
    shading is replaced by a trace lookup (the plan recorded which paths
    survived each bounce), so the drivers' CTA/warp plumbing, completion
    callbacks and ray-id allocation run unchanged — in the same order as
    the scalar path, which keeps the ray-data address stream identical.
    """

    def _num_slots(self) -> int:
        return self.plans.num_slots

    def _begin_ray_state(self, slot: int):
        return ReplayState(self.plans.trace(slot, 0))

    def _shade_ray(self, ray: SimRay) -> Optional[SimRay]:
        trace = self.plans.trace(ray.pixel, ray.bounce + 1)
        if trace is None:
            return None
        return SimRay(
            self._new_ray_id(), ray.pixel, ray.cta_id, ray.bounce + 1,
            ReplayState(trace),
        )


class _SoAWarpDriver(_SoAPlanMixin, _WarpDriver):
    """Plan replay through the SoA baseline/prefetch units."""


class _SoASortedDriver(_SoAPlanMixin, _SortedDriver):
    """Plan replay through the SoA baseline unit, ordered by the plan's
    sort keys.

    A bounce's rays all share one bounce number, and their keys are the
    plan's at their slots — the scalar driver's keys, because a key
    depends on its own ray only.
    """

    def _sort_keys(self, rays: List[SimRay]) -> np.ndarray:
        return self.plans.sort_keys[rays[0].bounce][[ray.pixel for ray in rays]]


class _SoAVTQDriver(_SoAPlanMixin, _VTQDriver):
    """Plan replay through the SoA VTQ unit."""


#: The render policies: name -> (scalar driver, plan-replay driver).  The
#: RT unit each driver runs comes from
#: :data:`repro.gpusim.soa_engines.RT_UNITS`.
_DRIVERS = {
    "baseline": (_WarpDriver, _SoAWarpDriver),
    "prefetch": (_WarpDriver, _SoAWarpDriver),
    "sorted": (_SortedDriver, _SoASortedDriver),
    "vtq": (_VTQDriver, _SoAVTQDriver),
}
POLICIES = tuple(_DRIVERS)
