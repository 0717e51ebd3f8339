"""Binary save/load of built acceleration structures.

Building a large scene's BVH (SAH build + collapse + partition + layout
+ table preparation) dominates cold-start time, so built structures can
be cached to disk: one ``.npz`` holds every array, and the derived
Python tables are re-prepared on load (they are fast to rebuild and
float-exactly determined by the arrays).

The format is versioned; loading a mismatched version raises rather
than mis-reading.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro import faults
from repro.bvh.layout import BVHLayout, LayoutConfig
from repro.bvh.scene_bvh import SceneBVH, _prepare_tables
from repro.bvh.treelets import TreeletPartition
from repro.bvh.wide import WideBVH
from repro.errors import BVHError
from repro.geometry.triangle import TriangleMesh

FORMAT_VERSION = 2


def save_scene_bvh(bvh: SceneBVH, path: Union[str, Path]) -> None:
    """Serialize ``bvh`` (mesh + wide BVH + partition + layout) to ``path``.

    Only triangle meshes are stored; a Gaussian-splat BVH raises
    :class:`BVHError` before anything is written.
    """
    if not isinstance(bvh.mesh, TriangleMesh):
        raise BVHError(
            f"cannot save a BVH over {type(bvh.mesh).__name__}: the format "
            "stores triangle meshes only"
        )
    layout_config = bvh.layout.config
    # Treelet member lists are ragged; store flattened + offsets.
    member_offsets = np.zeros(bvh.partition.treelet_count + 1, dtype=np.int64)
    for tid, members in enumerate(bvh.partition.treelet_items):
        member_offsets[tid + 1] = member_offsets[tid] + len(members)
    member_flat = np.concatenate(
        [np.asarray(m, dtype=np.int64) for m in bvh.partition.treelet_items]
    ) if bvh.partition.treelet_count else np.zeros(0, dtype=np.int64)

    np.savez_compressed(
        path,
        format_version=np.int64(FORMAT_VERSION),
        # mesh
        vertices=bvh.mesh.vertices,
        indices=bvh.mesh.indices,
        material_ids=bvh.mesh.material_ids,
        # wide BVH
        width=np.int64(bvh.wide.width),
        child_count=bvh.wide.child_count,
        child_index=bvh.wide.child_index,
        child_is_leaf=bvh.wide.child_is_leaf,
        child_bounds=bvh.wide.child_bounds,
        leaf_first_prim=bvh.wide.leaf_first_prim,
        leaf_prim_count=bvh.wide.leaf_prim_count,
        prim_order=bvh.wide.prim_order,
        root_bounds=bvh.wide.root_bounds.as_array(),
        # partition
        treelet_of_item=bvh.partition.treelet_of_item,
        treelet_bytes=np.asarray(bvh.partition.treelet_bytes, dtype=np.int64),
        member_flat=member_flat,
        member_offsets=member_offsets,
        budget_bytes=np.int64(bvh.partition.budget_bytes),
        # layout
        item_address=bvh.layout.item_address,
        item_bytes=bvh.layout.item_bytes,
        treelet_base=bvh.layout.treelet_base,
        treelet_sizes=bvh.layout.treelet_sizes,
        total_bytes=np.int64(bvh.layout.total_bytes),
        layout_params=np.asarray(
            [
                layout_config.node_bytes,
                layout_config.triangle_bytes,
                layout_config.leaf_header_bytes,
                layout_config.line_bytes,
                layout_config.base_address,
            ],
            dtype=np.int64,
        ),
    )
    # np.savez appends ``.npz`` when the path has no suffix; the fault
    # must corrupt the file actually written.
    written = Path(path)
    if written.suffix != ".npz" and not written.exists():
        written = written.with_suffix(written.suffix + ".npz")
    spec = faults.should_fire(faults.BVH_TRUNCATE, written.name)
    if spec is not None:
        faults.corrupt_file(
            written,
            faults.rng(spec, written.name),
            mode=spec.payload.get("mode", "truncate"),
        )


def load_scene_bvh(path: Union[str, Path]) -> SceneBVH:
    """Load a structure written by :func:`save_scene_bvh`.

    Raises :class:`BVHError` (a ``ValueError``) on a version mismatch or
    a corrupt / truncated file.
    """
    path = Path(path)
    try:
        return _load_scene_bvh(path)
    except BVHError:
        raise
    except Exception as exc:
        raise BVHError(
            f"corrupt or truncated BVH file {path.name}: {exc}"
        ) from exc


def _load_scene_bvh(path: Path) -> SceneBVH:
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise BVHError(
                f"BVH file format v{version}; this build reads v{FORMAT_VERSION}"
            )
        mesh = TriangleMesh(
            data["vertices"], data["indices"], data["material_ids"]
        )

        wide = WideBVH(int(data["width"]), mesh)
        wide.child_count = data["child_count"]
        wide.child_index = data["child_index"]
        wide.child_is_leaf = data["child_is_leaf"]
        wide.child_bounds = data["child_bounds"]
        wide.leaf_first_prim = data["leaf_first_prim"]
        wide.leaf_prim_count = data["leaf_prim_count"]
        wide.prim_order = data["prim_order"]
        from repro.geometry.aabb import AABB

        rb = data["root_bounds"]
        wide.root_bounds = AABB(rb[:3], rb[3:])

        offsets = data["member_offsets"]
        flat = data["member_flat"]
        treelet_items = [
            flat[offsets[t] : offsets[t + 1]].tolist()
            for t in range(len(offsets) - 1)
        ]
        partition = TreeletPartition(
            treelet_of_item=data["treelet_of_item"],
            treelet_items=treelet_items,
            treelet_bytes=data["treelet_bytes"].tolist(),
            budget_bytes=int(data["budget_bytes"]),
            node_count=wide.node_count,
        )

        params = data["layout_params"]
        config = LayoutConfig(
            node_bytes=int(params[0]),
            triangle_bytes=int(params[1]),
            leaf_header_bytes=int(params[2]),
            line_bytes=int(params[3]),
            base_address=int(params[4]),
        )
        layout = BVHLayout(
            item_address=data["item_address"],
            item_bytes=data["item_bytes"],
            treelet_base=data["treelet_base"],
            treelet_sizes=data["treelet_sizes"],
            total_bytes=int(data["total_bytes"]),
            config=config,
        )
    return _prepare_tables(mesh, wide, partition, layout)
