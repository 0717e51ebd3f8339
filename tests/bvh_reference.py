"""The per-node binned-SAH builder, kept as the test oracle.

This is the builder ``repro.bvh.builder`` shipped before it went
level-synchronous: an explicit LIFO work stack that splits one node at a
time, allocating both children of a node when it splits.  The production
builder must reproduce its :class:`BinaryBVH` byte for byte (same node
numbering, bounds, leaf ranges and primitive order), so it is kept here
unchanged and compared against in ``tests/test_bvh_builder.py``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.bvh.builder import BinaryBVH, BuildConfig
from repro.geometry.aabb import AABB
from repro.geometry.triangle import TriangleMesh


def _centroid_bounds(centroids: np.ndarray) -> AABB:
    return AABB(centroids.min(axis=0), centroids.max(axis=0))


def build_binary_bvh_reference(
    mesh: TriangleMesh, config: BuildConfig = BuildConfig()
) -> BinaryBVH:
    """Build a binary SAH BVH over ``mesh`` one node at a time."""
    if mesh.triangle_count == 0:
        raise ValueError("cannot build a BVH over an empty mesh")

    tri_bounds = mesh.triangle_bounds()
    tri_lo = tri_bounds[:, 0:3]
    tri_hi = tri_bounds[:, 3:6]
    centroids = mesh.triangle_centroids()

    prim_order = np.arange(mesh.triangle_count, dtype=np.int64)

    bounds_lo: List[np.ndarray] = []
    bounds_hi: List[np.ndarray] = []
    left: List[int] = []
    right: List[int] = []
    first_prim: List[int] = []
    prim_count: List[int] = []

    def alloc_node(lo: np.ndarray, hi: np.ndarray) -> int:
        bounds_lo.append(lo)
        bounds_hi.append(hi)
        left.append(-1)
        right.append(-1)
        first_prim.append(0)
        prim_count.append(0)
        return len(left) - 1

    root_lo = tri_lo.min(axis=0)
    root_hi = tri_hi.max(axis=0)
    root = alloc_node(root_lo, root_hi)

    # Work stack of (node_index, start, end) primitive ranges to split.
    work = [(root, 0, mesh.triangle_count)]
    while work:
        node, start, end = work.pop()
        count = end - start
        if count <= config.max_leaf_size:
            first_prim[node] = start
            prim_count[node] = count
            continue

        idx = prim_order[start:end]
        cb = _centroid_bounds(centroids[idx])
        axis = cb.longest_axis()
        extent = cb.hi[axis] - cb.lo[axis]

        split = None
        if extent > 1e-12:
            split = _binned_sah_split(
                centroids[idx], tri_lo[idx], tri_hi[idx], cb, axis, config
            )

        if split is None and extent > 1e-12:
            # SAH prefers a leaf and the node is small enough to be one.
            first_prim[node] = start
            prim_count[node] = count
            continue

        if split is None:
            # Degenerate: all centroids coincide.  Median-split by index to
            # guarantee progress; primitive order is already arbitrary.
            split_mid = count // 2
        else:
            threshold, _ = split
            keys = centroids[idx][:, axis]
            in_left = keys < threshold
            # Stable partition preserving relative order on each side.
            prim_order[start:end] = np.concatenate([idx[in_left], idx[~in_left]])
            split_mid = int(in_left.sum())
            if split_mid == 0 or split_mid == count:
                split_mid = count // 2

        mid = start + split_mid
        lo_l, hi_l = _prim_range_bounds(prim_order, tri_lo, tri_hi, start, mid)
        lo_r, hi_r = _prim_range_bounds(prim_order, tri_lo, tri_hi, mid, end)
        lnode = alloc_node(lo_l, hi_l)
        rnode = alloc_node(lo_r, hi_r)
        left[node] = lnode
        right[node] = rnode
        work.append((lnode, start, mid))
        work.append((rnode, mid, end))

    bvh = BinaryBVH(mesh)
    bvh.bounds_lo = np.asarray(bounds_lo)
    bvh.bounds_hi = np.asarray(bounds_hi)
    bvh.left = np.asarray(left, dtype=np.int64)
    bvh.right = np.asarray(right, dtype=np.int64)
    bvh.first_prim = np.asarray(first_prim, dtype=np.int64)
    bvh.prim_count = np.asarray(prim_count, dtype=np.int64)
    bvh.prim_order = prim_order
    return bvh


def _prim_range_bounds(prim_order, tri_lo, tri_hi, start, end):
    idx = prim_order[start:end]
    return tri_lo[idx].min(axis=0), tri_hi[idx].max(axis=0)


def _binned_sah_split(centroids, lo, hi, cb: AABB, axis: int, config: BuildConfig):
    """Pick the best binned SAH split along ``axis``.

    Returns ``(threshold, cost)`` or ``None`` when making a leaf is cheaper
    and permitted by ``max_leaf_size``.
    """
    count = len(centroids)
    num_bins = config.num_bins
    cmin = cb.lo[axis]
    extent = cb.hi[axis] - cmin
    scale = num_bins / extent
    bin_idx = np.minimum(((centroids[:, axis] - cmin) * scale).astype(np.int64), num_bins - 1)

    bin_counts = np.bincount(bin_idx, minlength=num_bins)
    bin_lo = np.full((num_bins, 3), np.inf)
    bin_hi = np.full((num_bins, 3), -np.inf)
    for b in range(num_bins):
        mask = bin_idx == b
        if np.any(mask):
            bin_lo[b] = lo[mask].min(axis=0)
            bin_hi[b] = hi[mask].max(axis=0)

    # Sweep: left-to-right and right-to-left prefix bounds and counts.
    left_counts = np.cumsum(bin_counts)[:-1]
    right_counts = count - left_counts
    left_lo = np.minimum.accumulate(bin_lo, axis=0)[:-1]
    left_hi = np.maximum.accumulate(bin_hi, axis=0)[:-1]
    right_lo = np.minimum.accumulate(bin_lo[::-1], axis=0)[::-1][1:]
    right_hi = np.maximum.accumulate(bin_hi[::-1], axis=0)[::-1][1:]

    def areas(los, his):
        d = np.maximum(his - los, 0.0)
        d = np.where(np.isfinite(d), d, 0.0)
        return 2.0 * (d[:, 0] * d[:, 1] + d[:, 1] * d[:, 2] + d[:, 2] * d[:, 0])

    sa_left = areas(left_lo, left_hi)
    sa_right = areas(right_lo, right_hi)
    parent_sa = max(AABB(lo.min(axis=0), hi.max(axis=0)).surface_area(), 1e-20)

    split_costs = config.traversal_cost + config.intersection_cost * (
        sa_left * left_counts + sa_right * right_counts
    ) / parent_sa
    # Invalid splits (all prims on one side) get infinite cost.
    split_costs = np.where((left_counts == 0) | (right_counts == 0), np.inf, split_costs)

    best = int(np.argmin(split_costs))
    best_cost = split_costs[best]
    leaf_cost = config.intersection_cost * count
    if not np.isfinite(best_cost):
        return None
    if count <= config.max_leaf_size and leaf_cost <= best_cost:
        return None
    threshold = cmin + (best + 1) / scale
    return threshold, float(best_cost)
