"""Shading: what happens between traversals.

The paper's workload is path tracing at one sample per pixel with up to
three bounces, terminating early when "the secondary ray's contribution to
the final pixel color is too small".  :class:`ShadingEngine` implements
exactly that: given a completed traversal it accumulates emitted light and
either produces the next bounce's ray or ends the path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.bvh.traversal import RayTraversalState, TraversalOrder, init_traversal
from repro.scenes.lumibench import Scene
from repro.scenes.materials import scatter
from repro.tracing.sampling import HashSampler

# A path whose throughput falls below this contributes negligibly (the
# paper's early-termination criterion).
CONTRIBUTION_CUTOFF = 0.02
_HIT_EPSILON = 1e-3


@dataclass
class PathState:
    """Per-sample path tracing state threaded across bounces.

    ``pixel`` indexes the image; ``sample`` distinguishes the paths of one
    pixel when rendering at more than one sample per pixel (it salts the
    hash sampler so samples decorrelate).
    """

    pixel: int
    origin: np.ndarray
    direction: np.ndarray
    throughput: np.ndarray = field(default_factory=lambda: np.ones(3))
    bounce: int = 0
    radiance: np.ndarray = field(default_factory=lambda: np.zeros(3))
    alive: bool = True
    sample: int = 0


class ShadingEngine:
    """Evaluates hits and spawns secondary rays for one scene."""

    def __init__(self, scene: Scene, bvh, max_bounces: int = 3, seed: int = 0):
        self.scene = scene
        self.bvh = bvh
        self.max_bounces = max_bounces
        self.seed = seed
        self._gaussian = getattr(scene.mesh, "kind", "triangle") == "gaussian"
        if self._gaussian:
            self._normals = None
            self._material_ids = None
        else:
            self._normals = scene.mesh.triangle_normals()
            self._material_ids = scene.mesh.material_ids
        self._sky = np.asarray(scene.sky_emission, dtype=np.float64)

    # -- path initialization ------------------------------------------------------

    def make_primary(self, pixel: int, origin, direction, sample: int = 0) -> PathState:
        return PathState(
            pixel=pixel,
            origin=np.asarray(origin, dtype=np.float64),
            direction=np.asarray(direction, dtype=np.float64),
            sample=sample,
        )

    def primary_paths(self, width: int, height: int, spp: int = 1) -> List[PathState]:
        """Every path slot of a ``width x height`` render at ``spp`` samples.

        Slots run sample-major: all of sample 0's pixels, then sample 1's,
        and so on — consecutive slots stay screen-coherent within a
        sample, which is how a GPU would dispatch multi-spp raygen CTAs
        too.  Camera rays are jittered by ``jitter_seed=sample`` only when
        ``spp > 1``.  The scalar render, the SoA plan builder and the
        analytical model all start from this list, so their slots agree.
        """
        camera = self.scene.camera
        paths: List[PathState] = []
        for sample in range(spp):
            jitter = sample if spp > 1 else None
            primaries = camera.primary_rays(width, height, jitter_seed=jitter)
            paths.extend(
                self.make_primary(
                    p, primaries.origins[p], primaries.directions[p], sample=sample
                )
                for p in range(width * height)
            )
        return paths

    def begin_traversal(self, path: PathState) -> RayTraversalState:
        """A fresh traversal state for the path's current ray."""
        return init_traversal(
            self.bvh, path.origin, path.direction, order=TraversalOrder.TREELET
        )

    # -- post-traversal shading ------------------------------------------------------

    def shade(self, path: PathState, traversal: RayTraversalState) -> bool:
        """Consume a finished traversal; returns True if the path continues.

        On continue, ``path.origin/direction/bounce/throughput`` describe
        the next ray to trace.
        """
        if not path.alive:
            return False
        if self._gaussian:
            return self._shade_gaussian(path, traversal)
        if traversal.hit_prim < 0:
            # Escaped: collect sky emission and end the path.
            path.radiance += path.throughput * self._sky
            path.alive = False
            return False

        prim = traversal.hit_prim
        material = self.scene.materials[int(self._material_ids[prim])]
        if material.is_emissive():
            path.radiance += path.throughput * np.asarray(material.emission)

        if path.bounce + 1 > self.max_bounces:
            path.alive = False
            return False

        normal = self._normals[prim]
        if not np.any(normal):
            path.alive = False  # degenerate triangle: absorb
            return False
        sampler = HashSampler(
            path.pixel, path.bounce, self.seed + 0x9E3779B1 * path.sample
        )
        new_direction, throughput = scatter(
            material, path.direction, normal, sampler
        )
        if new_direction is None:
            path.alive = False
            return False
        new_throughput = path.throughput * throughput
        if float(new_throughput.max()) < CONTRIBUTION_CUTOFF:
            path.alive = False
            return False

        hit_point = path.origin + traversal.t_hit * path.direction
        path.origin = hit_point + _HIT_EPSILON * new_direction
        path.direction = new_direction / np.linalg.norm(new_direction)
        path.throughput = new_throughput
        path.bounce += 1
        return True

    def _shade_gaussian(self, path: PathState, traversal: RayTraversalState) -> bool:
        """Front-to-back splat compositing, one splat per traversal.

        The closest accepted splat contributes ``g = alpha * exp(-q/2)``
        of its emitted color (``q`` re-derived through the exact scalar
        kernel math the traversal used, so the response matches the hit
        the traversal accepted) and attenuates the path by ``(1 - g)``;
        the path then continues *straight through* from just past the
        peak-response point — each traversal segment composites the next
        splat along the same line of sight, up to the bounce budget or
        the contribution cutoff, exactly the termination rules the
        triangle path applies.
        """
        import math

        if traversal.hit_prim < 0:
            # Escaped: the sky shines through whatever opacity remains.
            path.radiance += path.throughput * self._sky
            path.alive = False
            return False

        mesh = self.scene.mesh
        prim = traversal.hit_prim
        _t, q = mesh.peak_query(prim, path.origin, path.direction)
        g = float(mesh.opacities[prim]) * math.exp(-0.5 * q)
        path.radiance += path.throughput * g * mesh.colors[prim]
        new_throughput = path.throughput * (1.0 - g)

        if path.bounce + 1 > self.max_bounces:
            path.alive = False
            return False
        if float(new_throughput.max()) < CONTRIBUTION_CUTOFF:
            path.alive = False
            return False

        hit_point = path.origin + traversal.t_hit * path.direction
        path.origin = hit_point + _HIT_EPSILON * path.direction
        path.throughput = new_throughput
        path.bounce += 1
        return True

    # -- reference renderer --------------------------------------------------------

    def trace_path(self, pixel: int, origin, direction) -> np.ndarray:
        """Functionally trace one full path (no timing model); returns RGB.

        Used as the oracle against which every timing engine's image is
        compared.
        """
        from repro.bvh.traversal import full_traverse

        path = self.make_primary(pixel, origin, direction)
        while path.alive:
            state = self.begin_traversal(path)
            from repro.bvh.traversal import single_step

            while single_step(self.bvh, state) is not None:
                pass
            self.shade(path, state)
        return path.radiance
