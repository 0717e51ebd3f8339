"""BVH substrate.

Pipeline (mirroring the paper's methodology section):

1. :mod:`repro.bvh.builder` builds a binary BVH with a binned surface-area
   heuristic (the role Embree plays in the paper).
2. :mod:`repro.bvh.wide` collapses it into a 4-wide BVH (the paper uses a
   4-wide tree repacked into Benthin et al.'s format).
3. :mod:`repro.bvh.treelets` partitions the wide BVH into byte-budgeted
   treelets (Aila & Karras style; the paper sizes treelets to half the L1).
4. :mod:`repro.bvh.layout` serializes nodes and leaf blocks into one flat
   byte-addressed memory image with treelet-contiguous addresses.
5. :mod:`repro.bvh.traversal` provides the functional traversal reference
   and the two-stack treelet traversal order (Chou et al., MICRO 2023) used
   by every timing model.

:func:`build_scene_bvh` runs steps 1-4 and is the only builder.  From a
scene name, :func:`repro.experiments.runner.scene_and_bvh` builds and
caches it.
"""

from repro.bvh.builder import BinaryBVH, BuildConfig, build_binary_bvh
from repro.bvh.wide import WideBVH, collapse_to_wide
from repro.bvh.treelets import TreeletPartition, partition_treelets
from repro.bvh.layout import BVHLayout, LayoutConfig, build_layout
from repro.bvh.compressed import CompressedLeafCodec
from repro.bvh.scene_bvh import SceneBVH, build_scene_bvh
from repro.bvh.refit import refit_scene_bvh
from repro.bvh.serialize import load_scene_bvh, save_scene_bvh
from repro.bvh.stats import describe
from repro.bvh.traversal import (
    HitRecord,
    RayTraversalState,
    TraversalOrder,
    full_traverse,
    init_traversal,
    single_step,
)

__all__ = [
    "BinaryBVH",
    "BuildConfig",
    "build_binary_bvh",
    "WideBVH",
    "collapse_to_wide",
    "TreeletPartition",
    "partition_treelets",
    "BVHLayout",
    "LayoutConfig",
    "build_layout",
    "CompressedLeafCodec",
    "SceneBVH",
    "build_scene_bvh",
    "refit_scene_bvh",
    "save_scene_bvh",
    "load_scene_bvh",
    "describe",
    "HitRecord",
    "RayTraversalState",
    "TraversalOrder",
    "full_traverse",
    "init_traversal",
    "single_step",
]
