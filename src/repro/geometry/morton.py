"""Morton (Z-order) codes for spatial sorting.

Used by the ray-sorting baseline (Garanzha & Loop 2010): rays are grouped
by direction octant and the Morton code of their quantized origin, so
rays that start near each other and point the same way land in the same
warp.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _part1by2(x: np.ndarray) -> np.ndarray:
    """Spread the low 10 bits of each value 3 apart (masked magic)."""
    x = x.astype(np.uint64) & np.uint64(0x3FF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x030000FF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x0300F00F)
    x = (x | (x << np.uint64(4))) & np.uint64(0x030C30C3)
    x = (x | (x << np.uint64(2))) & np.uint64(0x09249249)
    return x


def morton3d(ix: np.ndarray, iy: np.ndarray, iz: np.ndarray) -> np.ndarray:
    """Interleave three 10-bit integer coordinates into 30-bit codes."""
    return (
        _part1by2(np.asarray(ix))
        | (_part1by2(np.asarray(iy)) << np.uint64(1))
        | (_part1by2(np.asarray(iz)) << np.uint64(2))
    )


def quantize_points(
    points: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int = 10
) -> np.ndarray:
    """Quantize ``(N, 3)`` points into the integer grid of a bounding box."""
    points = np.asarray(points, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    extent = np.maximum(hi - lo, 1e-12)
    levels = (1 << bits) - 1
    cells = np.clip((points - lo) / extent * levels, 0, levels)
    return cells.astype(np.uint64)


def morton_codes(points: np.ndarray, lo, hi) -> np.ndarray:
    """30-bit Morton codes of points within the box [lo, hi]."""
    q = quantize_points(points, lo, hi)
    return morton3d(q[:, 0], q[:, 1], q[:, 2])


def direction_octant(directions: np.ndarray) -> np.ndarray:
    """3-bit sign octant of each ``(N, 3)`` direction."""
    d = np.asarray(directions, dtype=np.float64)
    return (
        (d[:, 0] < 0).astype(np.uint64)
        | ((d[:, 1] < 0).astype(np.uint64) << np.uint64(1))
        | ((d[:, 2] < 0).astype(np.uint64) << np.uint64(2))
    )


def ray_sort_keys(origins: np.ndarray, directions: np.ndarray, lo, hi) -> np.ndarray:
    """Garanzha-Loop style keys: direction octant, then origin Morton code."""
    octants = direction_octant(directions)
    codes = morton_codes(origins, lo, hi)
    return (octants << np.uint64(30)) | codes


def state_sort_keys(states, lo, hi) -> np.ndarray:
    """:func:`ray_sort_keys` of traversal states, in list order.

    ``states`` are ``RayTraversalState``-like objects (``ox .. oz`` and
    ``dx .. dz``).  Each key depends on its own ray and the box alone, so
    the keys of any subset of a list equal that subset of its keys.
    """
    origins = np.array([[s.ox, s.oy, s.oz] for s in states])
    directions = np.array([[s.dx, s.dy, s.dz] for s in states])
    return ray_sort_keys(origins, directions, lo, hi)
