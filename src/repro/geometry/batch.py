"""Batch intersection kernels.

These kernels vectorize the *traversal* inner-loop math of
:mod:`repro.bvh.traversal` so a wave of rays can test their popped BVH
nodes / leaves in one numpy call instead of one Python call per ray (the
SoA plan builder's wave loop, :mod:`repro.gpusim.soa`).

They are deliberately **bit-identical** to the scalar loops: every
floating-point operation is performed in the same order and association
as the scalar code (``(a + b) + c``, per-axis min/max swap, the same
clamped direction inverses), so a simulation run produces exactly the
same hits, cycle counts and figure tables whichever path executes.
``tests/test_kernel_equivalence.py`` guards this property.

Both kernels accept two input shapes:

* **rows** — entry ``i`` is one (ray, primitive) pairing: ray arrays are
  ``(M, 3)`` and primitive arrays ``(M, 6)`` / ``(M, 3)``; or
* **padded groups** — ray arrays are ``(G, 3)`` and primitive arrays
  ``(G, K, 6)`` / ``(G, K, 3)``, i.e. each ray tests its own fixed-width
  slab of primitives (how :meth:`SceneBVH.batch_tables` stores nodes and
  leaves).  Padding rows compute garbage; callers mask them by count.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

# Must match repro.bvh.traversal._INV_CLAMP / _DET_EPS exactly: the
# scalar and batch kernels interchange mid-simulation.
INV_CLAMP = 1e30
DET_EPS = 1e-12


def safe_inverse(directions: np.ndarray) -> np.ndarray:
    """Clamped per-component direction inverses.

    Elementwise replica of ``repro.bvh.traversal._safe_inv``: components
    within ``DET_EPS`` of zero map to ``+/-INV_CLAMP`` (sign of the
    component, with ``+`` for exact zero), everything else to ``1/d``
    clamped into ``[-INV_CLAMP, INV_CLAMP]``.
    """
    d = np.asarray(directions, dtype=np.float64)
    inv = np.where(d >= 0.0, INV_CLAMP, -INV_CLAMP)
    pos = d > DET_EPS
    neg = d < -DET_EPS
    with np.errstate(divide="ignore"):
        recip = np.where(pos | neg, 1.0 / np.where(pos | neg, d, 1.0), 0.0)
    inv = np.where(pos, np.minimum(recip, INV_CLAMP), inv)
    inv = np.where(neg, np.maximum(recip, -INV_CLAMP), inv)
    return inv


def intersect_aabb_batch(
    origins: np.ndarray,
    inv_directions: np.ndarray,
    boxes: np.ndarray,
    tmin,
    t_hit,
) -> Tuple[np.ndarray, np.ndarray]:
    """Slab-test many (ray, box) pairings in one call.

    ``boxes`` rows are ``[lo_x, lo_y, lo_z, hi_x, hi_y, hi_z]``, shaped
    ``(M, 6)`` against ``(M, 3)`` rays, or ``(G, K, 6)`` against
    ``(G, 3)`` rays (each ray vs its own ``K`` boxes).  ``tmin`` /
    ``t_hit`` are scalars or per-ray arrays: the entry clamp and the
    current-closest-hit clip, exactly as the scalar expansion applies
    them.

    Returns ``(hit_mask, entry)`` of shape ``(M,)`` or ``(G, K)``;
    ``entry`` is the slab entry distance clamped to ``tmin`` (the
    traversal's near-first push key), valid only where ``hit_mask``.
    """
    origins = np.asarray(origins, dtype=np.float64)
    inv_directions = np.asarray(inv_directions, dtype=np.float64)
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim == 3:
        origins = origins[:, None, :]
        inv_directions = inv_directions[:, None, :]
        tmin = tmin[:, None] if isinstance(tmin, np.ndarray) else tmin
        t_hit = t_hit[:, None] if isinstance(t_hit, np.ndarray) else t_hit
    t1 = (boxes[..., 0:3] - origins) * inv_directions
    t2 = (boxes[..., 3:6] - origins) * inv_directions
    near3 = np.minimum(t1, t2)
    far3 = np.maximum(t1, t2)
    near = np.maximum(np.maximum(near3[..., 0], near3[..., 1]), near3[..., 2])
    far = np.minimum(np.minimum(far3[..., 0], far3[..., 1]), far3[..., 2])
    near = np.maximum(near, tmin)
    far = np.minimum(far, t_hit)
    return near <= far, near


def intersect_gaussian_batch(
    origins: np.ndarray,
    directions: np.ndarray,
    centers: np.ndarray,
    precisions: np.ndarray,
    qmax: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak-response test of many (ray, gaussian) pairings in one call.

    A 3D anisotropic Gaussian with center ``c`` and precision matrix
    ``M`` (inverse covariance) has its peak response along a ray
    ``o + t*d`` at ``t* = -(w.Md) / (d.Md)`` with ``w = o - c``; the
    squared Mahalanobis distance there is ``q = w.Mw - (w.Md)^2 /
    (d.Md)``.  A gaussian is a *candidate hit* when ``q <= qmax``, the
    per-primitive precomputed log-space opacity threshold (see
    :class:`repro.geometry.gaussian.GaussianSet`) — traversal never
    evaluates ``exp``; the shading engine turns ``q`` into a response.

    ``centers`` / ``precisions`` / ``qmax`` are shaped ``(M, 3)`` /
    ``(M, 6)`` / ``(M,)`` against ``(M, 3)`` rays, or ``(G, K, 3)`` /
    ``(G, K, 6)`` / ``(G, K)`` against ``(G, 3)`` rays.  ``precisions``
    rows are the symmetric upper triangle ``[m00, m01, m02, m11, m12,
    m22]``.  Padding rows (``qmax = -1``, ``M = 0``) are doubly
    self-rejecting: a zero matrix fails the ``d.Md`` positivity test and
    ``q = 0 > -1`` fails the threshold.

    Returns ``(candidate_mask, t, q)``; the ``t``-window test is left to
    the caller, exactly like :func:`intersect_tri_batch`.  Every float
    operation replicates ``repro.bvh.traversal._intersect_leaf_gaussian``
    in order and association, so the two interchange mid-simulation.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    precisions = np.asarray(precisions, dtype=np.float64)
    if centers.ndim == 3:
        origins = origins[:, None, :]
        directions = directions[:, None, :]
    wx = origins[..., 0] - centers[..., 0]
    wy = origins[..., 1] - centers[..., 1]
    wz = origins[..., 2] - centers[..., 2]
    dx, dy, dz = directions[..., 0], directions[..., 1], directions[..., 2]
    m00, m01, m02 = precisions[..., 0], precisions[..., 1], precisions[..., 2]
    m11, m12, m22 = precisions[..., 3], precisions[..., 4], precisions[..., 5]
    mdx = m00 * dx + m01 * dy + m02 * dz
    mdy = m01 * dx + m11 * dy + m12 * dz
    mdz = m02 * dx + m12 * dy + m22 * dz
    dmd = dx * mdx + dy * mdy + dz * mdz
    valid = dmd >= DET_EPS
    inv = np.where(valid, 1.0 / np.where(valid, dmd, 1.0), 0.0)
    wmd = wx * mdx + wy * mdy + wz * mdz
    t = -(wmd * inv)
    mwx = m00 * wx + m01 * wy + m02 * wz
    mwy = m01 * wx + m11 * wy + m12 * wz
    mwz = m02 * wx + m12 * wy + m22 * wz
    wmw = wx * mwx + wy * mwy + wz * mwz
    q = wmw - (wmd * wmd) * inv
    mask = valid & (q <= qmax)
    return mask, t, q


def intersect_tri_batch(
    origins: np.ndarray,
    directions: np.ndarray,
    v0: np.ndarray,
    e1: np.ndarray,
    e2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Moller-Trumbore many (ray, triangle) pairings in one call.

    ``v0`` / ``e1`` / ``e2`` are the triangle base vertex and edge
    vectors (precomputed, as the traversal tables store them), shaped
    ``(M, 3)`` against ``(M, 3)`` rays or ``(G, K, 3)`` against
    ``(G, 3)`` rays.

    Returns ``(candidate_mask, t, u, v)``: ``candidate_mask`` is True
    where the determinant is non-degenerate and the barycentrics lie in
    range — the ``t``-window test (closest-hit ``tmin <= t < t_hit`` vs
    any-hit ``tmin <= t <= tmax``) is left to the caller because the two
    traversal modes apply different bounds.  Degenerate rows carry
    ``t = u = v = 0`` and are never candidates.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if v0.ndim == 3:
        origins = origins[:, None, :]
        directions = directions[:, None, :]
    ox, oy, oz = origins[..., 0], origins[..., 1], origins[..., 2]
    dx, dy, dz = directions[..., 0], directions[..., 1], directions[..., 2]
    e1x, e1y, e1z = e1[..., 0], e1[..., 1], e1[..., 2]
    e2x, e2y, e2z = e2[..., 0], e2[..., 1], e2[..., 2]
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    valid = (det <= -DET_EPS) | (det >= DET_EPS)
    inv = np.where(valid, 1.0 / np.where(valid, det, 1.0), 0.0)
    tx = ox - v0[..., 0]
    ty = oy - v0[..., 1]
    tz = oz - v0[..., 2]
    u = (tx * px + ty * py + tz * pz) * inv
    qx = ty * e1z - tz * e1y
    qy = tz * e1x - tx * e1z
    qz = tx * e1y - ty * e1x
    v = (dx * qx + dy * qy + dz * qz) * inv
    t = (e2x * qx + e2y * qy + e2z * qz) * inv
    mask = valid & (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (u + v <= 1.0)
    return mask, t, u, v
