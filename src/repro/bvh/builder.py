"""Binary BVH construction with a binned surface-area heuristic (SAH).

This plays the role Embree plays in the paper: producing a high-quality
binary tree that is then collapsed into a 4-wide BVH.  The builder is
level-synchronous: it splits every open node of one tree level together
with segmented numpy operations, so its Python overhead grows with tree
depth rather than node count, and no recursion is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.triangle import TriangleMesh


@dataclass(frozen=True)
class BuildConfig:
    """Parameters of the SAH builder.

    Attributes
    ----------
    max_leaf_size:
        Maximum triangles per leaf.  A node whose centroids all fall into
        one bin has no valid split and stays a leaf even when larger.
    num_bins:
        Number of SAH bins, laid along the node's longest centroid axis
        only (the other two axes are not binned).
    traversal_cost, intersection_cost:
        Relative SAH costs of visiting a node vs testing a triangle.
    """

    max_leaf_size: int = 4
    num_bins: int = 16
    traversal_cost: float = 1.0
    intersection_cost: float = 1.0

    def __post_init__(self):
        if self.max_leaf_size < 1:
            raise ValueError("max_leaf_size must be >= 1")
        if self.num_bins < 2:
            raise ValueError("num_bins must be >= 2")


class BinaryBVH:
    """A binary BVH over a triangle mesh, structure-of-arrays.

    ``prim_order`` maps leaf ranges to original triangle indices: leaf node
    ``i`` covers ``prim_order[first_prim[i] : first_prim[i] + prim_count[i]]``.
    Interior nodes have ``prim_count == 0`` and children ``left[i]``,
    ``right[i]``.
    """

    __slots__ = (
        "bounds_lo",
        "bounds_hi",
        "left",
        "right",
        "first_prim",
        "prim_count",
        "prim_order",
        "mesh",
    )

    def __init__(self, mesh: TriangleMesh):
        self.mesh = mesh
        self.bounds_lo: np.ndarray = np.zeros((0, 3))
        self.bounds_hi: np.ndarray = np.zeros((0, 3))
        self.left: np.ndarray = np.zeros(0, dtype=np.int64)
        self.right: np.ndarray = np.zeros(0, dtype=np.int64)
        self.first_prim: np.ndarray = np.zeros(0, dtype=np.int64)
        self.prim_count: np.ndarray = np.zeros(0, dtype=np.int64)
        self.prim_order: np.ndarray = np.zeros(0, dtype=np.int64)

    @property
    def node_count(self) -> int:
        return len(self.left)

    def is_leaf(self, node: int) -> bool:
        return self.prim_count[node] > 0

    def node_bounds(self, node: int) -> AABB:
        return AABB(self.bounds_lo[node], self.bounds_hi[node])

    def leaf_primitives(self, node: int) -> np.ndarray:
        """Original triangle indices covered by leaf ``node``."""
        if not self.is_leaf(node):
            raise ValueError(f"node {node} is not a leaf")
        start = self.first_prim[node]
        return self.prim_order[start : start + self.prim_count[node]]

    def depth(self) -> int:
        """Maximum depth of the tree (root = depth 1)."""
        if self.node_count == 0:
            return 0
        best = 0
        stack = [(0, 1)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            if not self.is_leaf(node):
                stack.append((int(self.left[node]), d + 1))
                stack.append((int(self.right[node]), d + 1))
        return best

    def sah_cost(self, config: BuildConfig = BuildConfig()) -> float:
        """Total SAH cost of the tree, normalized by root surface area."""
        if self.node_count == 0:
            return 0.0
        root_sa = self.node_bounds(0).surface_area()
        if root_sa <= 0:
            return 0.0
        cost = 0.0
        for i in range(self.node_count):
            sa = AABB(self.bounds_lo[i], self.bounds_hi[i]).surface_area()
            if self.is_leaf(i):
                cost += config.intersection_cost * self.prim_count[i] * sa
            else:
                cost += config.traversal_cost * sa
        return cost / root_sa


def build_binary_bvh(mesh: TriangleMesh, config: BuildConfig = BuildConfig()) -> BinaryBVH:
    """Build a binary SAH BVH over ``mesh``.

    Level-synchronous: all open nodes of one tree level are binned, costed
    and partitioned together with segmented numpy operations.  Nodes are
    then renumbered into depth-first allocation order: the root is node 0,
    a split allocates both children together, and the right subtree is
    numbered before the left one.

    Raises ``ValueError`` on an empty mesh (an acceleration structure over
    nothing has no root).
    """
    if mesh.triangle_count == 0:
        raise ValueError("cannot build a BVH over an empty mesh")

    n = mesh.triangle_count
    tri_bounds = mesh.triangle_bounds()
    tri_lo = tri_bounds[:, 0:3]
    tri_hi = tri_bounds[:, 3:6]
    centroids = mesh.triangle_centroids()
    # Axis-major copies: per-axis ufunc.at scatters are much faster on rows.
    lo_by_axis = np.ascontiguousarray(tri_lo.T)
    hi_by_axis = np.ascontiguousarray(tri_hi.T)
    # Only a mesh holding -0.0 can make a segmented min/max disagree with a
    # per-range one (the sign of a zero bound depends on reduction order).
    signed_zeros = bool(np.any(np.signbit(tri_bounds) & (tri_bounds == 0)))

    prim_order = np.arange(n, dtype=np.int64)

    # Nodes in creation order (level by level); renumbered at the end.
    capacity = 2 * n - 1
    node_lo = np.empty((capacity, 3), dtype=tri_lo.dtype)
    node_hi = np.empty((capacity, 3), dtype=tri_hi.dtype)
    left = np.full(capacity, -1, dtype=np.int64)
    right = np.full(capacity, -1, dtype=np.int64)
    first_prim = np.zeros(capacity, dtype=np.int64)
    prim_count = np.zeros(capacity, dtype=np.int64)
    node_lo[0] = tri_lo.min(axis=0)
    node_hi[0] = tri_hi.max(axis=0)
    node_count = 1

    # The open nodes of the current level and their [start, end) ranges.
    ids = np.zeros(1, dtype=np.int64)
    start = np.zeros(1, dtype=np.int64)
    end = np.full(1, n, dtype=np.int64)
    while ids.size:
        count = end - start
        small = count <= config.max_leaf_size
        first_prim[ids[small]] = start[small]
        prim_count[ids[small]] = count[small]
        ids, start, end, count = ids[~small], start[~small], end[~small], count[~small]
        if not ids.size:
            break

        # Gather every open primitive, one contiguous segment per node.
        k = ids.size
        rows = np.arange(k)
        offsets = np.cumsum(count) - count
        total = int(offsets[-1] + count[-1])
        seg = np.repeat(rows, count)
        pos = np.arange(total) + np.repeat(start - offsets, count)
        idx = prim_order[pos]
        cent = centroids[idx]

        cmin = np.minimum.reduceat(cent, offsets)
        cmax = np.maximum.reduceat(cent, offsets)
        axis = np.argmax(cmax - cmin, axis=1)
        cmin = cmin[rows, axis]
        extent = cmax[rows, axis] - cmin
        binned = extent > 1e-12
        keys = cent[np.arange(total), axis[seg]]
        threshold, has_split = _binned_sah_thresholds(
            keys, lo_by_axis[:, idx], hi_by_axis[:, idx], seg, count, cmin,
            extent, binned, node_lo[ids], node_hi[ids], config,
        )

        # Binned nodes with no finite-cost split stay leaves whatever their
        # size.
        stuck = binned & ~has_split
        first_prim[ids[stuck]] = start[stuck]
        prim_count[ids[stuck]] = count[stuck]

        # Stable partition on centroid < threshold.  Degenerate nodes and
        # partitions with one empty side split at count // 2 in place.
        sah = binned & has_split
        in_left = sah[seg] & (keys < threshold[seg])
        n_left = np.add.reduceat(in_left.astype(np.int64), offsets)
        moved = sah & (n_left > 0) & (n_left < count)
        split_len = np.where(moved, n_left, count // 2)
        order = np.argsort(2 * seg + (moved[seg] & ~in_left), kind="stable")
        idx = idx[order]
        prim_order[pos] = idx

        # Bounds of both halves of every node; stuck nodes' are dropped.
        child_starts = np.stack([offsets, offsets + split_len], axis=1).ravel()
        child_lo = _segment_reduce(np.minimum, tri_lo[idx], child_starts, signed_zeros)
        child_hi = _segment_reduce(np.maximum, tri_hi[idx], child_starts, signed_zeros)
        split = np.flatnonzero(~stuck)
        lids = node_count + 2 * np.arange(split.size)
        child_ids = np.stack([lids, lids + 1], axis=1).ravel()
        pick = np.stack([2 * split, 2 * split + 1], axis=1).ravel()
        left[ids[split]] = lids
        right[ids[split]] = lids + 1
        node_lo[child_ids] = child_lo[pick]
        node_hi[child_ids] = child_hi[pick]
        node_count += 2 * split.size

        mid = start[split] + split_len[split]
        ids = child_ids
        start = np.stack([start[split], mid], axis=1).ravel()
        end = np.stack([mid, end[split]], axis=1).ravel()

    # Depth-first allocation order: popping a split node from a LIFO work
    # stack gives its children the next two ids, right child popped first.
    left_of = left[:node_count].tolist()
    right_of = right[:node_count].tolist()
    new_id = [0] * node_count
    next_id = 1
    stack = [0]
    while stack:
        node = stack.pop()
        lnode = left_of[node]
        if lnode < 0:
            continue
        rnode = right_of[node]
        new_id[lnode] = next_id
        new_id[rnode] = next_id + 1
        next_id += 2
        stack.append(lnode)
        stack.append(rnode)
    new_id = np.asarray(new_id, dtype=np.int64)
    old_id = np.empty(node_count, dtype=np.int64)
    old_id[new_id] = np.arange(node_count)
    interior = left[old_id] >= 0

    bvh = BinaryBVH(mesh)
    bvh.bounds_lo = node_lo[old_id]
    bvh.bounds_hi = node_hi[old_id]
    bvh.left = np.where(interior, new_id[left[old_id]], -1)
    bvh.right = np.where(interior, new_id[right[old_id]], -1)
    bvh.first_prim = first_prim[old_id]
    bvh.prim_count = prim_count[old_id]
    bvh.prim_order = prim_order
    return bvh


def _binned_sah_thresholds(
    keys, lo, hi, seg, count, cmin, extent, binned, node_lo, node_hi, config
):
    """Best binned SAH split plane of every node in a level.

    ``keys`` are the primitives' centroid coordinates along their node's
    longest centroid axis, ``lo``/``hi`` their ``(3, N)`` axis-major
    bounds, ``seg`` their node row.  Returns ``(threshold, has_split)`` per
    node; ``has_split`` is False where no split has a finite cost (every
    split leaves one side empty, or the cost overflows).  Rows that are
    not ``binned`` (centroid extent <= 1e-12) get meaningless values.

    Every float expression keeps the order of operations of a per-node
    builder, so thresholds match one bit for bit.
    """
    k = count.size
    num_bins = config.num_bins
    # Rows that are not binned (tiny or NaN extent) put everything in bin 0.
    scale = num_bins / np.where(binned, extent, 1.0)
    rel = np.where(binned[seg], (keys - cmin[seg]) * scale[seg], 0.0)
    key = seg * num_bins + np.minimum(rel.astype(np.int64), num_bins - 1)

    bin_counts = np.bincount(key, minlength=k * num_bins).reshape(k, num_bins)
    bin_lo = np.full((3, k * num_bins), np.inf)
    bin_hi = np.full((3, k * num_bins), -np.inf)
    for a in range(3):
        np.minimum.at(bin_lo[a], key, lo[a])
        np.maximum.at(bin_hi[a], key, hi[a])
    bin_lo = bin_lo.reshape(3, k, num_bins)
    bin_hi = bin_hi.reshape(3, k, num_bins)

    # Sweep: left-to-right and right-to-left prefix bounds and counts.
    left_counts = np.cumsum(bin_counts, axis=1)[:, :-1]
    right_counts = count[:, None] - left_counts
    left_lo = np.minimum.accumulate(bin_lo, axis=2)[..., :-1]
    left_hi = np.maximum.accumulate(bin_hi, axis=2)[..., :-1]
    right_lo = np.minimum.accumulate(bin_lo[..., ::-1], axis=2)[..., ::-1][..., 1:]
    right_hi = np.maximum.accumulate(bin_hi[..., ::-1], axis=2)[..., ::-1][..., 1:]

    def areas(los, his):
        d = np.maximum(his - los, 0.0)
        d = np.where(np.isfinite(d), d, 0.0)
        return 2.0 * (d[0] * d[1] + d[1] * d[2] + d[2] * d[0])

    sa_left = areas(left_lo, left_hi)
    sa_right = areas(right_lo, right_hi)
    # AABB.surface_area of each node's own (never empty) bounds, floored
    # at 1e-20 the way max(sa, 1e-20) floors it.
    d = node_hi - node_lo
    parent_sa = 2.0 * (d[:, 0] * d[:, 1] + d[:, 1] * d[:, 2] + d[:, 2] * d[:, 0])
    parent_sa = np.where(1e-20 > parent_sa, 1e-20, parent_sa)

    split_costs = config.traversal_cost + config.intersection_cost * (
        sa_left * left_counts + sa_right * right_counts
    ) / parent_sa[:, None]
    # Invalid splits (all prims on one side) get infinite cost.
    split_costs = np.where((left_counts == 0) | (right_counts == 0), np.inf, split_costs)

    best = np.argmin(split_costs, axis=1)
    has_split = np.isfinite(split_costs[np.arange(k), best])
    threshold = cmin + (best + 1) / scale
    return threshold, has_split


def _segment_reduce(op, values, starts, signed_zeros):
    """``op.reduceat(values, starts, axis=0)``, bit-exact vs per-range reduces.

    Min and max are exact in any order except for the sign of a zero
    result, which depends on the order numpy reduces in.  With
    ``signed_zeros``, segments whose zero result could carry either sign
    are reduced again on their own, exactly as a per-range ``op.reduce``.
    """
    out = op.reduceat(values, starts, axis=0)
    if signed_zeros:
        zero = values == 0
        neg = zero & np.signbit(values)
        mixed = (
            (out == 0)
            & np.logical_or.reduceat(neg, starts, axis=0)
            & np.logical_or.reduceat(zero & ~neg, starts, axis=0)
        )
        ends = np.append(starts[1:], len(values))
        for i in np.flatnonzero(mixed.any(axis=1)):
            out[i] = op.reduce(values[starts[i] : ends[i]], axis=0)
    return out
