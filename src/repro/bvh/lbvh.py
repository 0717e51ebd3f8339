"""LBVH: linear (Morton-order) BVH construction.

The build real-time renderers use when geometry changes too much for
refitting: sort triangles by the Morton code of their centroid, then
emit a hierarchy by recursively splitting the sorted range at the
highest differing code bit (Lauterbach et al. 2009 / Karras 2012 style).
Quality is below a SAH build (longer rays through fatter boxes).

Here it is not the fast builder.  Its hierarchy pass is a per-node
Python loop, while the SAH builder (:mod:`repro.bvh.builder`) splits a
whole tree level per numpy pass and is faster: LANDS builds in 0.06 s
against 0.15 s for LBVH, BATH in 0.04 s against 0.08 s (2-vCPU Xeon,
numpy 2.4).  It stays as the Morton-order builder, the second tree
topology for quality comparisons.

``build_lbvh_binary`` produces the same :class:`BinaryBVH` structure as
the SAH builder, so the whole downstream pipeline (wide collapse,
treelets, layout, traversal, timing) is shared; ``build_scene_bvh_lbvh``
is the one-call variant.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.bvh.builder import BinaryBVH
from repro.bvh.layout import LayoutConfig
from repro.bvh.scene_bvh import SceneBVH, _prepare_tables, build_scene_bvh
from repro.bvh.treelets import partition_treelets
from repro.bvh.wide import collapse_to_wide
from repro.bvh.layout import build_layout
from repro.geometry.morton import morton_codes
from repro.geometry.triangle import TriangleMesh


def _highest_differing_bit(a: int, b: int) -> int:
    """Index of the most significant bit where the codes differ (-1: equal)."""
    x = a ^ b
    return x.bit_length() - 1


def build_lbvh_binary(mesh: TriangleMesh, max_leaf_size: int = 4) -> BinaryBVH:
    """Morton-order BVH over ``mesh`` (same output type as the SAH builder)."""
    if mesh.triangle_count == 0:
        raise ValueError("cannot build a BVH over an empty mesh")
    if max_leaf_size < 1:
        raise ValueError("max_leaf_size must be >= 1")

    centroids = mesh.triangle_centroids()
    bounds = mesh.bounds()
    codes = morton_codes(centroids, bounds.lo, bounds.hi)
    order = np.argsort(codes, kind="stable").astype(np.int64)
    sorted_codes = codes[order].astype(np.int64)

    tri_bounds = mesh.triangle_bounds()
    tri_lo = tri_bounds[:, 0:3]
    tri_hi = tri_bounds[:, 3:6]

    bounds_lo: List[np.ndarray] = []
    bounds_hi: List[np.ndarray] = []
    left: List[int] = []
    right: List[int] = []
    first_prim: List[int] = []
    prim_count: List[int] = []

    def alloc(start: int, end: int) -> int:
        idx = order[start:end]
        bounds_lo.append(tri_lo[idx].min(axis=0))
        bounds_hi.append(tri_hi[idx].max(axis=0))
        left.append(-1)
        right.append(-1)
        first_prim.append(0)
        prim_count.append(0)
        return len(left) - 1

    def split_point(start: int, end: int) -> int:
        """Split where the highest differing Morton bit flips."""
        first_code = int(sorted_codes[start])
        last_code = int(sorted_codes[end - 1])
        if first_code == last_code:
            return start + (end - start) // 2
        bit = _highest_differing_bit(first_code, last_code)
        mask = 1 << bit
        # Binary search for the first element with the bit set.
        lo, hi = start, end - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if int(sorted_codes[mid]) & mask:
                hi = mid
            else:
                lo = mid + 1
        return max(start + 1, min(lo, end - 1))

    root = alloc(0, mesh.triangle_count)
    work = [(root, 0, mesh.triangle_count)]
    while work:
        node, start, end = work.pop()
        count = end - start
        if count <= max_leaf_size:
            first_prim[node] = start
            prim_count[node] = count
            continue
        mid = split_point(start, end)
        lnode = alloc(start, mid)
        rnode = alloc(mid, end)
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
    bvh.prim_order = order
    return bvh


def build_scene_bvh_lbvh(
    mesh: TriangleMesh,
    layout_config: LayoutConfig = LayoutConfig(),
    treelet_budget_bytes: int = 8 * 1024,
    width: int = 4,
    max_leaf_size: int = 4,
) -> SceneBVH:
    """Full LBVH pipeline: Morton build -> wide -> treelets -> layout."""
    binary = build_lbvh_binary(mesh, max_leaf_size)
    wide = collapse_to_wide(binary, width)
    partition = partition_treelets(
        wide,
        budget_bytes=treelet_budget_bytes,
        node_bytes=layout_config.node_bytes,
        triangle_bytes=layout_config.triangle_bytes,
        leaf_header_bytes=layout_config.leaf_header_bytes,
    )
    layout = build_layout(wide, partition, layout_config)
    return _prepare_tables(mesh, wide, partition, layout)
