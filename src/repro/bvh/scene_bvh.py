"""SceneBVH: the fully-prepared acceleration structure.

Bundles the wide BVH, treelet partition and memory layout, and precomputes
flattened per-node / per-leaf lookup tables so the traversal inner loop
(the hottest code in the whole reproduction) runs on plain Python floats
instead of small numpy arrays.

The precomputed tables are:

``node_children[node]``
    list of ``(item_id, is_leaf, local_index, treelet_id, bounds6)`` for
    each valid child, where ``bounds6`` is a 6-tuple of floats.
``leaf_tris[leaf]``
    list of ``(v0, e1, e2, prim_id)`` tuples ready for Moller-Trumbore.
``item_lines[item]``
    tuple of cache-line ids covering the item's serialized bytes.
``treelet_of_item[item]`` / ``item_address[item]``
    from the partition / layout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.bvh.builder import BuildConfig, build_binary_bvh
from repro.bvh.layout import BVHLayout, LayoutConfig, build_layout
from repro.bvh.treelets import TreeletPartition, partition_treelets
from repro.bvh.wide import WideBVH, collapse_to_wide
from repro.geometry.triangle import TriangleMesh


class BatchTables:
    """Padded numpy mirrors of the traversal tables for the batch kernels.

    ``node_boxes[node]`` is ``(W, 6)`` child bounds (same row order as
    ``node_children[node]``, zero-padded past the child count).
    :meth:`leaves` returns the leaf mirrors, built on first use because
    all-hits passes never intersect leaves in batch: ``(v0, e1, e2)``,
    each ``(L, T, 3)`` triangle data (zero-padded — degenerate, so the
    triangle kernel rejects padding rows by itself).  Fixed-width padding
    lets a wave's worth of nodes or leaves be gathered with one fancy
    index instead of per-step concatenation.

    On a gaussian BVH the leaf mirrors are ``(centers, precisions,
    thresholds)`` instead — ``(L, T, 3)``, ``(L, T, 6)`` upper triangles
    and ``(L, T)`` — where padding rows carry a zero matrix and
    ``qmax = -1``, doubly self-rejecting in the gaussian kernel.
    """

    __slots__ = ("node_boxes", "_leaf_tris", "_prim_kind", "_leaves")

    def __init__(self, node_children, leaf_tris, prim_kind="triangle"):
        width = max((len(c) for c in node_children), default=1)
        self.node_boxes = np.zeros((len(node_children), max(width, 1), 6))
        for node, children in enumerate(node_children):
            for k, child in enumerate(children):
                self.node_boxes[node, k] = child[4]
        self._leaf_tris = leaf_tris
        self._prim_kind = prim_kind
        self._leaves = None

    def leaves(self) -> Tuple[np.ndarray, ...]:
        """The three leaf mirrors (see the class docstring)."""
        if self._leaves is None:
            self._leaves = _leaf_mirrors(self._leaf_tris, self._prim_kind)
        return self._leaves


def _leaf_mirrors(leaf_tris, prim_kind) -> Tuple[np.ndarray, ...]:
    depth = max(max((len(t) for t in leaf_tris), default=1), 1)
    if prim_kind == "gaussian":
        centers = np.zeros((len(leaf_tris), depth, 3))
        precisions = np.zeros((len(leaf_tris), depth, 6))
        thresholds = np.full((len(leaf_tris), depth), -1.0)
        for leaf, prims in enumerate(leaf_tris):
            for k, row in enumerate(prims):
                centers[leaf, k] = row[0:3]
                precisions[leaf, k] = row[3:9]
                thresholds[leaf, k] = row[9]
        return centers, precisions, thresholds
    shape = (len(leaf_tris), depth, 3)
    v0 = np.zeros(shape)
    e1 = np.zeros(shape)
    e2 = np.zeros(shape)
    for leaf, tris in enumerate(leaf_tris):
        for k, (a, b, c, _prim) in enumerate(tris):
            v0[leaf, k] = a
            e1[leaf, k] = b
            e2[leaf, k] = c
    return v0, e1, e2


@dataclass
class SceneBVH:
    """Acceleration structure plus all tables the simulators need."""

    mesh: TriangleMesh
    wide: WideBVH
    partition: TreeletPartition
    layout: BVHLayout
    node_children: List[List[Tuple[int, bool, int, int, Tuple[float, ...]]]]
    leaf_tris: List[List[Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...], int]]]
    item_lines: List[Tuple[int, ...]]
    treelet_lines: List[Tuple[int, ...]]
    # Lazily-built numpy mirror of node_children / leaf_tris consumed by
    # the batch intersection kernels (see batch_tables()).
    batch: Optional[BatchTables] = None
    # What the leaves hold: "triangle" (leaf_tris rows are (v0, e1, e2,
    # prim)) or "gaussian" (rows are (cx, cy, cz, m00, m01, m02, m11,
    # m12, m22, qmax, prim)).  Traversal and the leaf-cost model
    # dispatch on this.
    prim_kind: str = "triangle"

    @property
    def node_count(self) -> int:
        return self.wide.node_count

    @property
    def leaf_count(self) -> int:
        return self.wide.leaf_count

    @property
    def treelet_count(self) -> int:
        return self.partition.treelet_count

    @property
    def root_treelet(self) -> int:
        return self.partition.treelet_of_node(0)

    def treelet_of_item(self, item: int) -> int:
        return int(self.partition.treelet_of_item[item])

    def leaf_item(self, leaf: int) -> int:
        """Global item id of leaf block ``leaf``."""
        return self.wide.node_count + leaf

    def size_megabytes(self) -> float:
        return self.layout.size_megabytes()

    def batch_tables(self) -> BatchTables:
        """The padded numpy mirror of the traversal tables.

        Built on first use from the exact float values the scalar tables
        hold, so the batch kernels see bit-identical inputs, and kept
        until the SoA plan builder drops it at the end of a build.
        """
        if self.batch is None:
            self.batch = BatchTables(
                self.node_children, self.leaf_tris, self.prim_kind
            )
        return self.batch

    def summary(self) -> dict:
        """Scene statistics in the shape of the paper's Table 2 rows."""
        return {
            "triangles": self.mesh.triangle_count,
            "bvh_mb": self.size_megabytes(),
            "nodes": self.node_count,
            "leaves": self.leaf_count,
            "treelets": self.treelet_count,
        }


def build_scene_bvh(
    mesh: TriangleMesh,
    build_config: BuildConfig = BuildConfig(),
    layout_config: LayoutConfig = LayoutConfig(),
    treelet_budget_bytes: int = 8 * 1024,
    width: int = 4,
    compressed_leaves: bool = False,
) -> SceneBVH:
    """Full pipeline: SAH build -> wide collapse -> treelets -> layout -> tables.

    ``compressed_leaves=True`` serializes leaf blocks in the Benthin-style
    compressed format (smaller leaves, more geometry per treelet); the
    traversal still tests full-precision triangles — the compression is
    lossless for timing purposes and its geometric error is bounded by the
    codec (see :mod:`repro.bvh.compressed`).
    """
    if compressed_leaves:
        from repro.bvh.layout import compressed_layout_config

        layout_config = compressed_layout_config(base=layout_config)
    if getattr(mesh, "kind", "triangle") == "gaussian":
        if compressed_leaves:
            raise ValueError("compressed leaves are a triangle codec; "
                             "gaussian sets are stored uncompressed")
        if layout_config.triangle_bytes == LayoutConfig().triangle_bytes:
            # A gaussian record is fatter than a triangle: center (12) +
            # precision upper triangle (24) + opacity (4) + color (12) +
            # padding at float32 = 64 bytes per primitive.
            layout_config = dataclasses.replace(layout_config, triangle_bytes=64)
    binary = build_binary_bvh(mesh, build_config)
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


def _prepare_tables(
    mesh: TriangleMesh,
    wide: WideBVH,
    partition: TreeletPartition,
    layout: BVHLayout,
) -> SceneBVH:
    node_children = []
    for node in range(wide.node_count):
        count = int(wide.child_count[node])
        children = []
        for k in range(count):
            child = int(wide.child_index[node, k])
            is_leaf = bool(wide.child_is_leaf[node, k])
            item = child + wide.node_count if is_leaf else child
            bounds = tuple(float(v) for v in wide.child_bounds[node, k])
            children.append((item, is_leaf, child, int(partition.treelet_of_item[item]), bounds))
        node_children.append(children)

    prim_kind = getattr(mesh, "kind", "triangle")
    leaf_tris = []
    if prim_kind == "gaussian":
        centers = mesh.centers
        precisions = mesh.precisions
        qmax = mesh.qmax
        for leaf in range(wide.leaf_count):
            prims = wide.leaf_primitives(leaf)
            rows = []
            for prim in prims:
                c = centers[prim]
                m = precisions[prim]
                rows.append((
                    float(c[0]), float(c[1]), float(c[2]),
                    float(m[0]), float(m[1]), float(m[2]),
                    float(m[3]), float(m[4]), float(m[5]),
                    float(qmax[prim]), int(prim),
                ))
            leaf_tris.append(rows)
    else:
        vertices = wide.mesh.vertices
        indices = wide.mesh.indices
        for leaf in range(wide.leaf_count):
            prims = wide.leaf_primitives(leaf)
            tris = []
            for prim in prims:
                p = vertices[indices[prim]]
                v0 = (float(p[0, 0]), float(p[0, 1]), float(p[0, 2]))
                e1 = (
                    float(p[1, 0] - p[0, 0]),
                    float(p[1, 1] - p[0, 1]),
                    float(p[1, 2] - p[0, 2]),
                )
                e2 = (
                    float(p[2, 0] - p[0, 0]),
                    float(p[2, 1] - p[0, 1]),
                    float(p[2, 2] - p[0, 2]),
                )
                tris.append((v0, e1, e2, int(prim)))
            leaf_tris.append(tris)

    item_lines = [tuple(layout.item_lines(item)) for item in range(len(layout.item_address))]
    treelet_lines = [tuple(layout.treelet_lines(t)) for t in range(partition.treelet_count)]

    return SceneBVH(
        mesh=mesh,
        wide=wide,
        partition=partition,
        layout=layout,
        node_children=node_children,
        leaf_tris=leaf_tris,
        item_lines=item_lines,
        treelet_lines=treelet_lines,
        prim_kind=prim_kind,
    )
