"""Render plans and query traces: the functional half of the SoA engine.

The scalar engines interleave two very different jobs per warp step:

* the *functional* work — pop a stack entry, slab-test children,
  Moller-Trumbore triangles, update closest hits, shade; and
* the *timing* work — price each lane's cache lines, charge the warp the
  slowest lane, advance the SM's cycle counter.

Only the timing work depends on the policy (baseline / prefetch /
sorted / vtq) and on the GPU configuration; the functional work is
identical across all of them, because every policy unit visits the same
BVH items in the same per-ray order (treelet-stationary scheduling
changes *when* a ray's visits happen, never *which* or in what per-ray
sequence, and ray sorting only changes which rays share a warp).

This module exploits that split.  :func:`build_plan` runs the functional
work **once per scene**, for *all* rays of a bounce at a time — a
bounce-synchronous wave loop that pops every live ray, then expands all
popped nodes in one :func:`expand_nodes_batch` call and intersects all
popped leaves in one :func:`intersect_leaves_batch` call (group sizes in
the hundreds, where the numpy kernels finally pay off).  The result is a
:class:`RenderPlan` of per-ray :class:`Trace` records, stored back to
back in flat :class:`TraceColumns`: the visit sequence (cache lines,
node/leaf kind, triangle-test counts) plus just enough stack/treelet
position metadata for the replay engines
(:mod:`repro.gpusim.soa_engines`) to reconstruct every scheduling
decision the scalar policy units make, and each secondary generation's
ray-sort keys for the sorted policy.  Replays are pure timing loops — no
geometry, no shading, no numpy — and one plan serves every policy ×
cache-config combination for the scene, which is where the end-to-end
speedup comes from.  :func:`build_query_traces` runs the same wave loop
over a flat batch of query states for :func:`repro.rtquery.time_queries`.

Plans are cached on the ``SceneBVH`` object itself (a small FIFO keyed
by render parameters, :data:`PLAN_CACHE_ENTRIES` entries), so sweeps that
run several policies over one scene build the plan once.

``REPRO_SOA_ENGINE`` (default on) gates the whole path, renders and
queries alike; :func:`repro.tracing.render.render_scene` falls back to
the scalar engines when it is off or when a memory-trace recorder is
attached (see ``RenderResult.engine_fallback_reason``).
"""

from __future__ import annotations

import os
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bvh.traversal import (
    expand_nodes_batch,
    intersect_leaves_batch,
    pop_next_recording,
)
from repro.geometry.morton import state_sort_keys

_soa_enabled = os.environ.get("REPRO_SOA_ENGINE", "1") != "0"


def set_soa_engine(enabled: bool) -> bool:
    """Toggle the SoA engine path; returns the previous value."""
    global _soa_enabled
    previous = _soa_enabled
    _soa_enabled = bool(enabled)
    return previous


def soa_engine_enabled() -> bool:
    return _soa_enabled


_COLUMNS = (
    "lines", "isleaf", "tests", "chains",
    "curwork", "cur_tre", "next_tre", "top_item",
)


class TraceColumns:
    """The traces of one plan build, stored as flat columns.

    A :class:`Trace` owns positions ``start .. end`` of every column.
    Position ``p`` describes the ray *before* visit ``p`` was popped;
    ``end`` is the state before the failed retiring pop, so a trace of
    ``n = end - start`` visits spans ``n + 1`` positions.  Storing all
    traces of a build back to back costs one slot per position and
    column: most traces are a handful of visits long, so per-trace
    sequences would cost more in object headers than in entries.

    Visit columns (entry ``end`` is padding — ``None`` / ``False`` / 0 —
    so one index addresses both kinds):

    ``lines``
        The item's cache-line tuple (``bvh.item_lines[item]``) — what the
        replay engines price.
    ``isleaf`` / ``tests``
        Leaf flag and triangle-test count (0 for nodes).
    ``chains``
        ``None``, or the treelets entered during the pop of the visit
        (``(T1, .., Tk)``, equal tuples shared within a build).

    Position columns:

    ``curwork``
        ``bool(current_stack)`` — raw, including entries that the next
        pop will cull.
    ``cur_tre`` / ``next_tre``
        ``current_treelet`` and the treelet-stack top (-1 when empty).
    ``top_item``
        Top ``current_stack`` item id (-1 when empty) — what the
        prefetcher's access observer reads.

    The builder appends each trace as its ray retires (:meth:`add`) and
    :meth:`seal` turns the columns into exact-size tuples once the build
    is done.
    """

    __slots__ = _COLUMNS + ("_shared",)

    def __init__(self):
        self.lines: List[Optional[Tuple[int, ...]]] = []
        self.isleaf: List[bool] = []
        self.tests: List[int] = []
        self.chains: List[Optional[Tuple[int, ...]]] = []
        self.curwork: List[bool] = []
        self.cur_tre: List[int] = []
        self.next_tre: List[int] = []
        self.top_item: List[int] = []
        self._shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def add(self, rec: "_Recording", tail: Tuple[int, ...]) -> "Trace":
        """Append a retired ray's recording; returns its trace."""
        start = len(self.curwork)
        shared = self._shared.setdefault
        self.lines += rec.lines
        self.lines.append(None)
        self.isleaf += rec.isleaf
        self.isleaf.append(False)
        self.tests += rec.tests
        self.tests.append(0)
        self.chains += [chain and shared(chain, chain) for chain in rec.chains]
        self.chains.append(None)
        self.curwork += rec.curwork
        self.cur_tre += rec.cur_tre
        self.next_tre += rec.next_tre
        self.top_item += rec.top_item
        return Trace(self, start, start + len(rec.lines), shared(tail, tail))

    def seal(self) -> None:
        """Freeze the columns into exact-size tuples (a plan outlives its
        build in the plan cache; lists keep growth slack)."""
        for name in _COLUMNS:
            setattr(self, name, tuple(getattr(self, name)))
        self._shared = None


class Trace:
    """One ray's complete traversal record for one bounce: positions
    ``start .. end`` of a :class:`TraceColumns`, plus its ``tail``.

    ``tail`` holds the treelets entered during the failed retiring pop —
    equal to the state's pending treelets, top first; the vtq engine
    drains these one ``enter_treelet`` at a time.

    Every trace has at least one visit: ``init_traversal`` pushes the
    root with ``entry_t = tmin``, which can never be culled.
    """

    __slots__ = ("columns", "start", "end", "tail")

    def __init__(self, columns: TraceColumns, start: int, end: int,
                 tail: Tuple[int, ...]):
        self.columns = columns
        self.start = start
        self.end = end
        self.tail = tail


class _Recording:
    """A ray's column entries while the plan builder runs it: one visit
    and one position per wave (see :class:`TraceColumns`)."""

    __slots__ = _COLUMNS

    def __init__(self):
        self.lines: List[Tuple[int, ...]] = []
        self.isleaf: List[bool] = []
        self.tests: List[int] = []
        self.chains: List[Optional[Tuple[int, ...]]] = []
        self.curwork: List[bool] = []
        self.cur_tre: List[int] = []
        self.next_tre: List[int] = []
        self.top_item: List[int] = []


class RenderPlan:
    """Everything policy-independent about one render.

    :meth:`trace` gives the :class:`Trace` of ``(slot, bounce)``, or
    ``None`` past the path's last bounce — the continuation signal (the
    path survived shading).  ``radiance`` is the per-slot
    ``(num_slots, 3)`` accumulated radiance — produced by the real
    shading engine during plan construction, so images reconstructed
    from it are bit-identical to the scalar path.  Slots are
    sample-major: ``slot = sample * pixels + pixel``.

    ``sort_keys[bounce]`` (``bounce >= 1``; entry 0 is None) is a
    ``(num_slots,)`` array holding each of that generation's rays'
    Garanzha–Loop key (:func:`repro.geometry.morton.state_sort_keys`)
    at its slot — what the sorted policy orders a bounce by.  A key is a
    function of its own ray and the scene bounds alone, so one call over
    the whole generation yields every SM's keys.
    """

    __slots__ = ("generations", "sort_keys", "radiance", "pixels", "spp", "num_slots")

    def __init__(self, generations, sort_keys, radiance, pixels: int, spp: int):
        # generations[bounce][slot]: that bounce's Trace, or None.
        self.generations: List[List[Optional[Trace]]] = generations
        self.sort_keys: List[Optional[np.ndarray]] = sort_keys
        self.radiance: np.ndarray = radiance
        self.pixels = pixels
        self.spp = spp
        self.num_slots = pixels * spp

    def trace(self, slot: int, bounce: int) -> Optional[Trace]:
        generations = self.generations
        return generations[bounce][slot] if bounce < len(generations) else None

    def image_accum(self) -> np.ndarray:
        """Per-pixel radiance sums, accumulated in slot order.

        Matches the scalar path's ``accum[path.pixel] += path.radiance``
        loop bit for bit: sample-major slots mean each pixel receives its
        samples' radiance in sample order, and the vectorized per-sample
        adds below perform the same per-element float additions in the
        same order.
        """
        accum = np.zeros((self.pixels, 3))
        radiance = self.radiance
        pixels = self.pixels
        for sample in range(self.spp):
            accum += radiance[sample * pixels : (sample + 1) * pixels]
        return accum


def _build_traces(bvh, states, columns: TraceColumns) -> List[Trace]:
    """Run every state in ``states`` to completion; one trace per state.

    All states advance in lock-step waves: one instrumented pop per live
    ray, then a single batched node-expansion and a single batched
    leaf-intersection over the whole wave (hundreds of groups — far past
    the kernels' scalar-fallback cutoffs; states collecting all hits
    take the scalar leaf kernel inside :func:`intersect_leaves_batch`).
    Per-ray visit order is exactly :func:`repro.bvh.traversal.pop_next`'s
    (the instrumented pop mirrors it), so the recorded sequence is the
    scalar engines'.  Each ray's recording joins ``columns`` as it
    retires.
    """
    item_lines = bvh.item_lines
    leaf_tris = bvh.leaf_tris
    traces: List[Optional[Trace]] = [None] * len(states)
    live = [(i, _Recording(), state) for i, state in enumerate(states)]
    while live:
        node_groups = []
        leaf_groups = []
        next_live = []
        for entry in live:
            i, rec, state = entry
            # Position metadata is captured before the pop so position p
            # describes the stacks as the policy engines observe them
            # between visits (park/queue/vote decisions all happen there).
            current_stack = state.current_stack
            treelet_stack = state.treelet_stack
            rec.curwork.append(bool(current_stack))
            rec.cur_tre.append(state.current_treelet)
            rec.next_tre.append(treelet_stack[-1][0] if treelet_stack else -1)
            rec.top_item.append(current_stack[-1][0] if current_stack else -1)

            popped, chain = pop_next_recording(bvh, state)
            if popped is None:
                traces[i] = columns.add(rec, chain)
                continue
            item, is_leaf, local_idx = popped
            rec.chains.append(chain or None)
            rec.lines.append(item_lines[item])
            rec.isleaf.append(is_leaf)
            if is_leaf:
                rec.tests.append(len(leaf_tris[local_idx]))
                leaf_groups.append((state, local_idx))
            else:
                rec.tests.append(0)
                node_groups.append((state, local_idx))
            next_live.append(entry)
        if node_groups:
            expand_nodes_batch(bvh, node_groups)
        if leaf_groups:
            intersect_leaves_batch(bvh, leaf_groups)
        live = next_live
    return traces


def build_query_traces(bvh, states) -> List[Trace]:
    """Run query traversal states to completion; one trace per state.

    The query-workload counterpart of :func:`build_plan`
    (:func:`repro.rtquery.time_queries` replays the traces through the
    SoA units).  Functional results — hits, ``all_hits``, counters — land
    in ``states``, exactly as the scalar engines leave them.
    """
    columns = TraceColumns()
    traces = _build_traces(bvh, states, columns)
    _release_batch_tables(bvh)
    columns.seal()
    return traces


def build_plan(scene, bvh, setup, seed: int = 0) -> RenderPlan:
    """Build the policy-independent render plan for one scene render.

    Drives real ``PathState`` / ``RayTraversalState`` objects through the
    real :class:`~repro.tracing.path_tracer.ShadingEngine`, so hit
    points, bounce decisions and radiance are the scalar path's exact
    floats — only the *schedule* of the functional work differs (waves
    over all rays instead of warp-at-a-time).  Each secondary generation
    also gets its Garanzha–Loop sort keys (see :class:`RenderPlan`).
    """
    from repro.tracing.path_tracer import ShadingEngine

    width = setup.image_width
    height = setup.image_height
    pixels = width * height
    spp = max(1, setup.samples_per_pixel)
    shading = ShadingEngine(scene, bvh, max_bounces=setup.max_bounces, seed=seed)
    paths = shading.primary_paths(width, height, spp)

    columns = TraceColumns()
    generations: List[List[Optional[Trace]]] = []
    sort_keys: List[Optional[np.ndarray]] = []
    bounds = scene.mesh.bounds()
    generation = [
        (slot, shading.begin_traversal(paths[slot])) for slot in range(len(paths))
    ]
    while generation:
        slots = [slot for slot, _state in generation]
        states = [state for _slot, state in generation]
        keys = None
        if generations:  # secondary rays: what the sorted policy orders
            keys = np.zeros(len(paths), dtype=np.uint64)
            keys[slots] = state_sort_keys(states, bounds.lo, bounds.hi)
        sort_keys.append(keys)
        by_slot: List[Optional[Trace]] = [None] * len(paths)
        for slot, trace in zip(slots, _build_traces(bvh, states, columns)):
            by_slot[slot] = trace
        generations.append(by_slot)
        generation = [
            (slot, shading.begin_traversal(paths[slot]))
            for slot, state in generation
            if shading.shade(paths[slot], state)
        ]
    _release_batch_tables(bvh)
    columns.seal()

    radiance = np.array([path.radiance for path in paths])
    return RenderPlan(generations, sort_keys, radiance, pixels, spp)


def _release_batch_tables(bvh) -> None:
    """Drop the BVH's batch-kernel tables once a plan is built.

    Only plan builds read them, a BVH rarely gets a second plan, and
    rebuilding them costs a few milliseconds against a build's tens to
    hundreds — while a cached BVH would otherwise hold them for life.
    """
    bvh.batch = None


_PLAN_CACHE_ATTR = "_soa_plan_cache"

#: Plans kept per BVH.  A sweep over policies and GPU configs reuses one
#: plan per scene; the headroom covers a few render-parameter variants.
PLAN_CACHE_ENTRIES = 4


def get_plan(scene, bvh, setup, seed: int = 0) -> RenderPlan:
    """:func:`build_plan`, cached on the BVH object.

    The cache key is every input the plan depends on: the render
    geometry parameters and the shading seed.  (GPU/cache configuration
    and policy are deliberately absent — plans are timing-free.)  The
    scene is checked by identity via a weakref: a BVH is always paired
    with the scene it was built from, but a mismatched call must not
    serve a stale plan.
    """
    key = (
        seed,
        setup.image_width,
        setup.image_height,
        max(1, setup.samples_per_pixel),
        setup.max_bounces,
    )
    cache = getattr(bvh, _PLAN_CACHE_ATTR, None)
    if cache is None:
        cache = OrderedDict()
        setattr(bvh, _PLAN_CACHE_ATTR, cache)
    entry = cache.get(key)
    if entry is not None:
        scene_ref, plan = entry
        if scene_ref() is scene:
            cache.move_to_end(key)
            return plan
        del cache[key]
    plan = build_plan(scene, bvh, setup, seed)
    cache[key] = (weakref.ref(scene), plan)
    while len(cache) > PLAN_CACHE_ENTRIES:
        cache.popitem(last=False)
    return plan
