"""General tree-traversal workloads on the RT unit (the paper's Section 8).

The paper closes by arguing that because workloads like RT-DBSCAN,
RTIndeX and RTNN "transform their data into a BVH tree and the search
query into a ray", virtualized treelet queues should accelerate them too.
This package implements that claim end-to-end for three such workloads:

* :class:`RangeIndex` — RTIndeX-style database indexing: keys are
  embedded as triangle "fins" along a line, a range scan
  ``[lo, hi]`` becomes a ray segment, and every key in range is an
  any-hit.
* :class:`MeshClassifier` — point-in-mesh classification (voxelization /
  3D-printing style): each query point casts one ray and the crossing
  parity decides inside vs outside.
* :class:`NeighborIndex` — RTNN-style fixed-radius neighbor search:
  points become bounding octahedra, a query becomes a short any-hit
  segment, candidates are distance-filtered exactly.

All three run their query rays through the unmodified timing engines
(baseline, prefetch, VTQ) via :func:`time_queries`, so the treelet-queue
machinery is exercised by non-rendering traffic exactly as the paper
anticipates.  As with rendering, the functional traversal runs once and
the SoA units replay its traces (``REPRO_SOA_ENGINE=0`` runs the scalar
units on the live states instead; results are bit-identical).
"""

from repro.rtquery.range_index import RangeIndex
from repro.rtquery.point_in_mesh import MeshClassifier
from repro.rtquery.neighbors import NeighborIndex
from repro.rtquery.driver import QueryTimingResult, time_queries

__all__ = [
    "RangeIndex",
    "MeshClassifier",
    "NeighborIndex",
    "QueryTimingResult",
    "time_queries",
]
