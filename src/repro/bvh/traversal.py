"""Ray traversal: functional reference and the treelet traversal order.

Two traversal orders are provided, selected by :class:`TraversalOrder`:

``DEPTH_FIRST``
    The classic single-stack closest-hit traversal.

``TREELET``
    The two-stack treelet traversal order of Chou et al. (MICRO 2023),
    which both the paper's baseline GPU and the proposed architecture use:
    children in the ray's *current treelet* go to the current stack,
    children in other treelets are deferred to the *treelet stack*.  A ray
    exhausts its current stack before moving to the next treelet, so all
    work inside a treelet is done while that treelet is (presumably) hot in
    the cache.

The inner loop deliberately runs on plain Python floats and tuples: at the
scale of this reproduction it is ~5x faster than small-numpy-array code,
and the timing simulators execute millions of these steps.

Both the functional result (closest hit) and the per-step *memory access*
information (which BVH item was touched) come out of :func:`single_step`;
the timing models charge each step's item through their cache hierarchy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry.batch import (
    intersect_aabb_batch,
    intersect_gaussian_batch,
    intersect_tri_batch,
)

_INV_CLAMP = 1e30
_DET_EPS = 1e-12


class TraversalOrder(enum.Enum):
    """Order in which a ray visits BVH nodes."""

    DEPTH_FIRST = "depth_first"
    TREELET = "treelet"


@dataclass
class HitRecord:
    """Result of a complete traversal."""

    hit: bool
    t: float
    prim_id: int
    nodes_visited: int = 0
    leaf_visits: int = 0
    triangle_tests: int = 0


class RayTraversalState:
    """Mutable per-ray traversal state: stacks, closest hit, counters.

    ``current_stack`` holds ``(item, is_leaf, local_idx, entry_t)`` entries
    for the treelet currently being traversed (or everything, in
    depth-first order).  ``treelet_stack`` holds the same entries tagged
    with their treelet id, deferred until the ray switches treelets.
    """

    __slots__ = (
        "ox", "oy", "oz", "dx", "dy", "dz", "ix", "iy", "iz", "tmin", "tmax",
        "current_stack", "treelet_stack", "current_treelet",
        "t_hit", "hit_prim", "all_hits",
        "nodes_visited", "leaf_visits", "triangle_tests", "culled",
        "order", "ray_id",
    )

    def __init__(
        self,
        origin,
        direction,
        tmin: float,
        order: TraversalOrder,
        ray_id: int = -1,
        tmax: float = float("inf"),
        collect_all_hits: bool = False,
    ):
        self.ox, self.oy, self.oz = float(origin[0]), float(origin[1]), float(origin[2])
        self.dx, self.dy, self.dz = float(direction[0]), float(direction[1]), float(direction[2])
        self.ix = _safe_inv(self.dx)
        self.iy = _safe_inv(self.dy)
        self.iz = _safe_inv(self.dz)
        self.tmin = float(tmin)
        self.tmax = float(tmax)
        self.current_stack: List[Tuple[int, bool, int, float]] = []
        self.treelet_stack: List[Tuple[int, int, bool, int, float]] = []
        self.current_treelet = -1
        # Closest-hit mode shrinks t_hit as hits are found (pruning);
        # collect-all mode keeps it at tmax and records every hit instead
        # (the any-hit semantics general tree-query workloads need).
        self.t_hit = self.tmax
        self.hit_prim = -1
        self.all_hits: Optional[List[Tuple[int, float]]] = (
            [] if collect_all_hits else None
        )
        self.nodes_visited = 0
        self.leaf_visits = 0
        self.triangle_tests = 0
        self.culled = 0
        self.order = order
        self.ray_id = ray_id

    # -- queries ---------------------------------------------------------------

    def finished(self) -> bool:
        """True when no pending work remains on either stack."""
        return not self.current_stack and not self.treelet_stack

    def has_current_work(self) -> bool:
        return bool(self.current_stack)

    def next_treelet(self) -> Optional[int]:
        """Treelet the ray will traverse next (top of the treelet stack)."""
        if self.treelet_stack:
            return self.treelet_stack[-1][0]
        return None

    def pending_treelets(self) -> List[int]:
        """Distinct treelets on the treelet stack, top-most first."""
        seen = []
        for entry in reversed(self.treelet_stack):
            if entry[0] not in seen:
                seen.append(entry[0])
        return seen

    def hit_record(self) -> HitRecord:
        return HitRecord(
            hit=self.hit_prim >= 0,
            t=self.t_hit,
            prim_id=self.hit_prim,
            nodes_visited=self.nodes_visited,
            leaf_visits=self.leaf_visits,
            triangle_tests=self.triangle_tests,
        )

    # -- treelet switching ------------------------------------------------------

    def enter_treelet(self, treelet: int) -> int:
        """Move all deferred entries of ``treelet`` onto the current stack.

        Returns the number of entries moved.  Entry order is preserved so
        near-first pop order survives the detour through the treelet stack.
        """
        moved = []
        kept = []
        for entry in self.treelet_stack:
            if entry[0] == treelet:
                moved.append(entry[1:])
            else:
                kept.append(entry)
        self.treelet_stack = kept
        self.current_stack.extend(moved)
        self.current_treelet = treelet
        return len(moved)

    def advance_treelet(self) -> Optional[int]:
        """Enter the treelet at the top of the treelet stack, if any."""
        nxt = self.next_treelet()
        if nxt is None:
            return None
        self.enter_treelet(nxt)
        return nxt


def _safe_inv(d: float) -> float:
    if d > _DET_EPS:
        return min(1.0 / d, _INV_CLAMP)
    if d < -_DET_EPS:
        return max(1.0 / d, -_INV_CLAMP)
    return _INV_CLAMP if d >= 0 else -_INV_CLAMP


def init_traversal(
    bvh,
    origin,
    direction,
    tmin: float = 1e-4,
    order: TraversalOrder = TraversalOrder.TREELET,
    ray_id: int = -1,
    tmax: float = float("inf"),
    collect_all_hits: bool = False,
) -> RayTraversalState:
    """Create a traversal state positioned at the BVH root.

    ``collect_all_hits`` switches to any-hit semantics: every intersection
    in ``[tmin, tmax]`` is recorded in ``state.all_hits`` and nothing is
    pruned by earlier hits — what general tree-query workloads (point
    containment, database range scans) need.
    """
    state = RayTraversalState(
        origin, direction, tmin, order, ray_id, tmax=tmax,
        collect_all_hits=collect_all_hits,
    )
    root_treelet = bvh.treelet_of_item(0)
    state.current_treelet = root_treelet
    state.current_stack.append((0, False, 0, tmin))
    return state


def pop_next(bvh, state: RayTraversalState, in_treelet_only: bool = False):
    """Pop the next live stack entry, skipping culled ones.

    Returns ``(item, is_leaf, local_idx)`` or ``None`` under the same
    conditions :func:`single_step` returns ``None``.  This is the pop
    half of a step; callers must follow up with the expansion /
    intersection half.  ``single_step`` does both for one ray; the SoA
    plan builder pops a whole wave of rays (through
    :func:`pop_next_recording`) and then hands them to
    :func:`expand_nodes_batch` / :func:`intersect_leaves_batch`.
    """
    while True:
        if not state.current_stack:
            if in_treelet_only:
                return None
            if state.order is TraversalOrder.TREELET:
                if state.advance_treelet() is None:
                    return None
                continue
            return None

        item, is_leaf, local_idx, entry_t = state.current_stack.pop()
        if entry_t > state.t_hit:
            state.culled += 1
            continue
        return item, is_leaf, local_idx


def pop_next_recording(bvh, state: RayTraversalState):
    """:func:`pop_next` (TREELET order, non-treelet mode) that also reports
    which treelets were entered along the way.

    Returns ``(popped, chain)`` where ``popped`` is ``(item, is_leaf,
    local_idx)`` or ``None`` when the ray retires, and ``chain`` is the
    tuple of treelet ids :meth:`RayTraversalState.advance_treelet` entered
    during this pop (usually empty).  The SoA plan builder
    (:mod:`repro.gpusim.soa`) uses the chain to replay the exact treelet
    entry points later under the treelet-stationary policy units, where the
    same advances happen through explicit ``enter_treelet`` calls.

    Must mirror :func:`pop_next` exactly — any change to pop semantics has
    to land in both.
    """
    chain = ()
    while True:
        if not state.current_stack:
            nxt = state.advance_treelet()
            if nxt is None:
                return None, chain
            chain += (nxt,)
            continue
        item, is_leaf, local_idx, entry_t = state.current_stack.pop()
        if entry_t > state.t_hit:
            state.culled += 1
            continue
        return (item, is_leaf, local_idx), chain


def single_step(bvh, state: RayTraversalState, in_treelet_only: bool = False):
    """Advance ``state`` by one BVH item visit.

    Returns ``(item, is_leaf, tests)`` describing the visit, or ``None``
    when no step was taken because:

    * the ray has finished entirely, or
    * ``in_treelet_only`` is set and the current stack is exhausted (the
      ray sits at a treelet boundary awaiting re-queueing).

    Culled entries (entry distance beyond the current closest hit) are
    skipped for free, exactly as hardware discards them without a memory
    access.
    """
    popped = pop_next(bvh, state, in_treelet_only)
    if popped is None:
        return None
    item, is_leaf, local_idx = popped

    if is_leaf:
        state.leaf_visits += 1
        tests = _intersect_leaf(bvh, state, local_idx)
        state.triangle_tests += tests
        return (item, True, tests)

    state.nodes_visited += 1
    _expand_node(bvh, state, local_idx)
    return (item, False, 0)


def _expand_node(bvh, state: RayTraversalState, node: int) -> None:
    """Slab-test the node's children and push hits near-first."""
    ox, oy, oz = state.ox, state.oy, state.oz
    ix, iy, iz = state.ix, state.iy, state.iz
    tmin = state.tmin
    t_hit = state.t_hit
    hits = []
    for item, is_leaf, local_idx, child_treelet, b in bvh.node_children[node]:
        t1 = (b[0] - ox) * ix
        t2 = (b[3] - ox) * ix
        if t1 > t2:
            t1, t2 = t2, t1
        near, far = t1, t2
        t1 = (b[1] - oy) * iy
        t2 = (b[4] - oy) * iy
        if t1 > t2:
            t1, t2 = t2, t1
        if t1 > near:
            near = t1
        if t2 < far:
            far = t2
        t1 = (b[2] - oz) * iz
        t2 = (b[5] - oz) * iz
        if t1 > t2:
            t1, t2 = t2, t1
        if t1 > near:
            near = t1
        if t2 < far:
            far = t2
        if near < tmin:
            near = tmin
        if far > t_hit:
            far = t_hit
        if near <= far:
            hits.append((near, item, is_leaf, local_idx, child_treelet))

    _push_hits(state, hits)


def _push_hits(state: RayTraversalState, hits) -> None:
    """Push ``(near, item, is_leaf, local_idx, treelet)`` hits near-first."""
    if not hits:
        return
    # Push far-first so the nearest child is popped first.
    hits.sort(key=lambda h: -h[0])
    if state.order is TraversalOrder.TREELET:
        current = state.current_treelet
        cur_stack = state.current_stack
        tre_stack = state.treelet_stack
        for near, item, is_leaf, local_idx, child_treelet in hits:
            if child_treelet == current:
                cur_stack.append((item, is_leaf, local_idx, near))
            else:
                tre_stack.append((child_treelet, item, is_leaf, local_idx, near))
    else:
        for near, item, is_leaf, local_idx, _child_treelet in hits:
            state.current_stack.append((item, is_leaf, local_idx, near))


# Below these group sizes a numpy kernel call costs more than the lean
# scalar loops (plain-float tables were designed for them), so the batch
# helpers fall back per group.  The outputs are identical either way.
BATCH_MIN_NODE_GROUPS = 16
BATCH_MIN_LEAF_GROUPS = 16


def expand_nodes_batch(bvh, groups: List[Tuple[RayTraversalState, int]]) -> None:
    """Expand many (ray, node) pairs through one vectorized slab test.

    ``groups`` pairs each ray's traversal state with the node it popped.
    All children of all nodes are tested in a single
    :func:`repro.geometry.batch.intersect_aabb_batch` call on the padded
    ``(G, W, 6)`` table slice; the push order, culling and counters match
    :func:`_expand_node` bit for bit.  Small batches take the scalar loop
    (same results, less overhead).
    """
    if len(groups) < BATCH_MIN_NODE_GROUPS:
        for state, node in groups:
            state.nodes_visited += 1
            _expand_node(bvh, state, node)
        return
    tables = bvh.batch_tables()
    node_children = bvh.node_children
    boxes = tables.node_boxes[[node for _, node in groups]]
    rays = np.array(
        [(s.ox, s.oy, s.oz, s.ix, s.iy, s.iz, s.tmin, s.t_hit) for s, _ in groups]
    )
    mask, near = intersect_aabb_batch(
        rays[:, 0:3], rays[:, 3:6], boxes, rays[:, 6], rays[:, 7]
    )
    mask = mask.tolist()
    near = near.tolist()
    for g, (state, node) in enumerate(groups):
        state.nodes_visited += 1
        mask_row = mask[g]
        near_row = near[g]
        # Padding columns beyond the child count are never read: the
        # enumeration runs over the true child list.
        hits = [
            (near_row[k], child[0], child[1], child[2], child[3])
            for k, child in enumerate(node_children[node])
            if mask_row[k]
        ]
        _push_hits(state, hits)


def intersect_leaves_batch(
    bvh, groups: List[Tuple[RayTraversalState, int]]
) -> None:
    """Intersect many (ray, leaf) pairs, closest-hit ones through one
    vectorized MT (or gaussian) test.

    The kernels keep only the closest hit, so pairs whose state collects
    all hits take the scalar loop, as does a batch with fewer than
    :data:`BATCH_MIN_LEAF_GROUPS` closest-hit pairs (same results, less
    overhead).  Hit updates, tie-breaking and counters match
    :func:`_intersect_leaf` bit for bit.
    """
    closest = [group for group in groups if group[0].all_hits is None]
    batched = len(closest) >= BATCH_MIN_LEAF_GROUPS
    for state, leaf in groups:
        if not batched or state.all_hits is not None:
            state.leaf_visits += 1
            state.triangle_tests += _intersect_leaf(bvh, state, leaf)
    if not batched:
        return
    leaf_tris = bvh.leaf_tris
    indices = [leaf for _, leaf in closest]
    rays = np.array(
        [(s.ox, s.oy, s.oz, s.dx, s.dy, s.dz) for s, _ in closest]
    )
    tables = bvh.batch_tables().leaves()
    if getattr(bvh, "prim_kind", "triangle") == "gaussian":
        centers, precisions, thresholds = tables
        mask, t, _q = intersect_gaussian_batch(
            rays[:, 0:3], rays[:, 3:6],
            centers[indices], precisions[indices], thresholds[indices],
        )
        prim_col = -1
    else:
        v0, e1, e2 = tables
        mask, t, _u, _v = intersect_tri_batch(
            rays[:, 0:3], rays[:, 3:6], v0[indices], e1[indices], e2[indices],
        )
        prim_col = 3
    mask = mask.tolist()
    t = t.tolist()
    for g, (state, leaf) in enumerate(closest):
        tris = leaf_tris[leaf]
        t_hit = state.t_hit
        hit_prim = state.hit_prim
        tmin = state.tmin
        mask_row = mask[g]
        t_row = t[g]
        # Same scan order and strict-< update as the scalar loop, so the
        # first primitive reaching the minimum distance keeps the hit.
        for k in range(len(tris)):
            if mask_row[k]:
                tk = t_row[k]
                if tmin <= tk < t_hit:
                    t_hit = tk
                    hit_prim = tris[k][prim_col]
        state.t_hit = t_hit
        state.hit_prim = hit_prim
        state.leaf_visits += 1
        state.triangle_tests += len(tris)


def _intersect_leaf(bvh, state: RayTraversalState, leaf: int) -> int:
    """Intersect every primitive in the leaf with the scalar kernels.

    Dispatches on the BVH's primitive kind (Moller-Trumbore for
    triangles, peak-response for gaussians).  Closest-hit mode updates
    ``t_hit``/``hit_prim``; collect-all mode appends every in-range hit
    to ``all_hits`` without pruning.
    """
    if getattr(bvh, "prim_kind", "triangle") == "gaussian":
        return _intersect_leaf_gaussian(bvh, state, leaf)
    ox, oy, oz = state.ox, state.oy, state.oz
    dx, dy, dz = state.dx, state.dy, state.dz
    tmin = state.tmin
    all_hits = state.all_hits
    if all_hits is not None:
        return _intersect_leaf_all(bvh, state, leaf, all_hits)
    t_hit = state.t_hit
    hit_prim = state.hit_prim
    tris = bvh.leaf_tris[leaf]
    for v0, e1, e2, prim in tris:
        px = dy * e2[2] - dz * e2[1]
        py = dz * e2[0] - dx * e2[2]
        pz = dx * e2[1] - dy * e2[0]
        det = e1[0] * px + e1[1] * py + e1[2] * pz
        if -_DET_EPS < det < _DET_EPS:
            continue
        inv = 1.0 / det
        tx = ox - v0[0]
        ty = oy - v0[1]
        tz = oz - v0[2]
        u = (tx * px + ty * py + tz * pz) * inv
        if u < 0.0 or u > 1.0:
            continue
        qx = ty * e1[2] - tz * e1[1]
        qy = tz * e1[0] - tx * e1[2]
        qz = tx * e1[1] - ty * e1[0]
        v = (dx * qx + dy * qy + dz * qz) * inv
        if v < 0.0 or u + v > 1.0:
            continue
        t = (e2[0] * qx + e2[1] * qy + e2[2] * qz) * inv
        if tmin <= t < t_hit:
            t_hit = t
            hit_prim = prim
    state.t_hit = t_hit
    state.hit_prim = hit_prim
    return len(tris)


def _intersect_leaf_all(bvh, state: RayTraversalState, leaf: int, all_hits) -> int:
    """Collect-all-hits variant: record every hit in [tmin, tmax]."""
    ox, oy, oz = state.ox, state.oy, state.oz
    dx, dy, dz = state.dx, state.dy, state.dz
    tmin = state.tmin
    tmax = state.tmax
    tris = bvh.leaf_tris[leaf]
    for v0, e1, e2, prim in tris:
        px = dy * e2[2] - dz * e2[1]
        py = dz * e2[0] - dx * e2[2]
        pz = dx * e2[1] - dy * e2[0]
        det = e1[0] * px + e1[1] * py + e1[2] * pz
        if -_DET_EPS < det < _DET_EPS:
            continue
        inv = 1.0 / det
        tx = ox - v0[0]
        ty = oy - v0[1]
        tz = oz - v0[2]
        u = (tx * px + ty * py + tz * pz) * inv
        if u < 0.0 or u > 1.0:
            continue
        qx = ty * e1[2] - tz * e1[1]
        qy = tz * e1[0] - tx * e1[2]
        qz = tx * e1[1] - ty * e1[0]
        v = (dx * qx + dy * qy + dz * qz) * inv
        if v < 0.0 or u + v > 1.0:
            continue
        t = (e2[0] * qx + e2[1] * qy + e2[2] * qz) * inv
        if tmin <= t <= tmax:
            all_hits.append((prim, t))
    return len(tris)


def _intersect_leaf_gaussian(bvh, state: RayTraversalState, leaf: int) -> int:
    """Peak-response test every gaussian in the leaf.

    Leaf rows are ``(cx, cy, cz, m00, m01, m02, m11, m12, m22, qmax,
    prim)``.  A candidate passes when the squared Mahalanobis distance
    at the ray's peak-response point stays within the gaussian's
    precomputed log-space opacity threshold; the ``t``-window then
    decides closest-hit vs collect-all exactly as the triangle loops do.
    Every float operation replicates
    :func:`repro.geometry.batch.intersect_gaussian_batch` in order and
    association, so the two interchange mid-simulation.
    """
    ox, oy, oz = state.ox, state.oy, state.oz
    dx, dy, dz = state.dx, state.dy, state.dz
    tmin = state.tmin
    all_hits = state.all_hits
    tmax = state.tmax
    t_hit = state.t_hit
    hit_prim = state.hit_prim
    rows = bvh.leaf_tris[leaf]
    for cx, cy, cz, m00, m01, m02, m11, m12, m22, qmax, prim in rows:
        wx = ox - cx
        wy = oy - cy
        wz = oz - cz
        mdx = m00 * dx + m01 * dy + m02 * dz
        mdy = m01 * dx + m11 * dy + m12 * dz
        mdz = m02 * dx + m12 * dy + m22 * dz
        dmd = dx * mdx + dy * mdy + dz * mdz
        if dmd < _DET_EPS:
            continue
        inv = 1.0 / dmd
        wmd = wx * mdx + wy * mdy + wz * mdz
        t = -(wmd * inv)
        mwx = m00 * wx + m01 * wy + m02 * wz
        mwy = m01 * wx + m11 * wy + m12 * wz
        mwz = m02 * wx + m12 * wy + m22 * wz
        wmw = wx * mwx + wy * mwy + wz * mwz
        q = wmw - (wmd * wmd) * inv
        if q > qmax:
            continue
        if all_hits is not None:
            if tmin <= t <= tmax:
                all_hits.append((prim, t))
        elif tmin <= t < t_hit:
            t_hit = t
            hit_prim = prim
    if all_hits is None:
        state.t_hit = t_hit
        state.hit_prim = hit_prim
    return len(rows)


def full_traverse(
    bvh,
    origin,
    direction,
    tmin: float = 1e-4,
    order: TraversalOrder = TraversalOrder.TREELET,
) -> HitRecord:
    """Run a ray to completion and return its closest hit."""
    state = init_traversal(bvh, origin, direction, tmin, order)
    while single_step(bvh, state) is not None:
        pass
    return state.hit_record()

