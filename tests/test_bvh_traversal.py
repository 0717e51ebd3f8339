"""Traversal correctness: BVH closest hit must match brute force.

The traversal engine is the heart of every timing model, so these tests
cross-check both traversal orders against a brute-force oracle and verify
the treelet traversal order's structural promises.
"""

import numpy as np
import pytest

from repro.bvh import (
    TraversalOrder,
    build_scene_bvh,
    full_traverse,
    init_traversal,
    single_step,
)
from repro.geometry import rays_triangle_soup_intersect

from tests.conftest import grid_mesh, quad_mesh, random_soup


def make_rays(bvh, n, seed):
    """Random rays aimed into the scene bounds."""
    rng = np.random.default_rng(seed)
    box = bvh.wide.root_bounds
    center = box.centroid()
    radius = float(np.linalg.norm(box.extent())) * 0.75 + 1.0
    # Origins on a sphere around the scene, directions toward random interior
    # points: a mix of hitting and missing rays.
    phi = rng.uniform(0, 2 * np.pi, n)
    costheta = rng.uniform(-1, 1, n)
    sintheta = np.sqrt(1 - costheta**2)
    origins = center + radius * np.stack(
        [sintheta * np.cos(phi), sintheta * np.sin(phi), costheta], axis=1
    )
    targets = center + rng.uniform(-0.6, 0.6, (n, 3)) * box.extent()
    directions = targets - origins
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return origins, directions


@pytest.mark.parametrize("order", [TraversalOrder.DEPTH_FIRST, TraversalOrder.TREELET])
class TestAgainstOracle:
    def test_soup_matches_bruteforce(self, soup_bvh, order):
        origins, directions = make_rays(soup_bvh, 64, seed=1)
        tris = soup_bvh.mesh.triangle_vertices()
        oracle_idx, oracle_t = rays_triangle_soup_intersect(
            origins, directions, tris, np.full(64, 1e-4), np.full(64, np.inf)
        )
        for i in range(64):
            rec = full_traverse(soup_bvh, origins[i], directions[i], order=order)
            if oracle_idx[i] < 0:
                assert not rec.hit
            else:
                assert rec.hit
                assert rec.t == pytest.approx(oracle_t[i], rel=1e-9, abs=1e-9)

    def test_plane_matches_bruteforce(self, plane_bvh, order):
        origins, directions = make_rays(plane_bvh, 48, seed=2)
        tris = plane_bvh.mesh.triangle_vertices()
        oracle_idx, oracle_t = rays_triangle_soup_intersect(
            origins, directions, tris, np.full(48, 1e-4), np.full(48, np.inf)
        )
        for i in range(48):
            rec = full_traverse(plane_bvh, origins[i], directions[i], order=order)
            assert rec.hit == (oracle_idx[i] >= 0)
            if rec.hit:
                assert rec.t == pytest.approx(oracle_t[i], rel=1e-9, abs=1e-9)

    def test_orders_agree(self, soup_bvh, order):
        """Both orders find the same closest hit."""
        origins, directions = make_rays(soup_bvh, 32, seed=3)
        for i in range(32):
            a = full_traverse(soup_bvh, origins[i], directions[i], order=order)
            b = full_traverse(
                soup_bvh, origins[i], directions[i], order=TraversalOrder.DEPTH_FIRST
            )
            assert a.hit == b.hit
            if a.hit:
                assert a.t == pytest.approx(b.t, rel=1e-12)
                assert a.prim_id == b.prim_id


class TestStepMechanics:
    def test_miss_ray_terminates(self, soup_bvh):
        rec = full_traverse(soup_bvh, [1000.0, 0, 0], [1.0, 0, 0])
        assert not rec.hit
        # A ray pointed away from the scene should die at the root.
        assert rec.nodes_visited <= 1

    def test_counters_accumulate(self, soup_bvh):
        origins, directions = make_rays(soup_bvh, 8, seed=4)
        for i in range(8):
            rec = full_traverse(soup_bvh, origins[i], directions[i])
            assert rec.nodes_visited >= 1
            if rec.hit:
                assert rec.leaf_visits >= 1
                assert rec.triangle_tests >= 1

    def test_in_treelet_only_stops_at_boundary(self, soup_bvh):
        """With in_treelet_only, stepping halts when the current stack drains."""
        origins, directions = make_rays(soup_bvh, 16, seed=6)
        for i in range(16):
            state = init_traversal(soup_bvh, origins[i], directions[i])
            while single_step(soup_bvh, state, in_treelet_only=True) is not None:
                pass
            assert not state.has_current_work()
            # Either fully done or parked at a treelet boundary.
            if not state.finished():
                assert state.next_treelet() is not None

    def test_treelet_order_steps_stay_in_treelet(self, soup_bvh):
        """Every visited item belongs to the ray's current treelet."""
        origins, directions = make_rays(soup_bvh, 12, seed=7)
        for i in range(12):
            state = init_traversal(soup_bvh, origins[i], directions[i])
            while True:
                before = state.current_treelet
                step = single_step(soup_bvh, state, in_treelet_only=True)
                if step is None:
                    if state.finished():
                        break
                    moved = state.advance_treelet()
                    assert moved is not None
                    continue
                assert soup_bvh.treelet_of_item(step[0]) == before

    def test_enter_treelet_moves_all_entries(self, soup_bvh):
        origins, directions = make_rays(soup_bvh, 20, seed=8)
        for i in range(20):
            state = init_traversal(soup_bvh, origins[i], directions[i])
            while single_step(soup_bvh, state, in_treelet_only=True) is not None:
                pass
            nxt = state.next_treelet()
            if nxt is None:
                continue
            moved = state.enter_treelet(nxt)
            assert moved >= 1
            assert all(entry[0] != nxt for entry in state.treelet_stack)

    def test_pending_treelets_unique_and_ordered(self, soup_bvh):
        origins, directions = make_rays(soup_bvh, 10, seed=9)
        for i in range(10):
            state = init_traversal(soup_bvh, origins[i], directions[i])
            while single_step(soup_bvh, state, in_treelet_only=True) is not None:
                pass
            pend = state.pending_treelets()
            assert len(pend) == len(set(pend))
            if pend:
                assert pend[0] == state.next_treelet()

    def test_hit_record_before_any_step(self, soup_bvh):
        state = init_traversal(soup_bvh, [0, 0, -100.0], [0, 0, 1.0])
        rec = state.hit_record()
        assert not rec.hit
        assert rec.nodes_visited == 0

    def test_tmin_respected(self, plane_bvh):
        """A large tmin skips the plane hit entirely."""
        rec = full_traverse(plane_bvh, [0.1, 0.1, -5.0], [0, 0, 1.0], tmin=100.0)
        assert not rec.hit

    def test_quad_direct_hit(self):
        bvh = build_scene_bvh(quad_mesh(), treelet_budget_bytes=1024)
        rec = full_traverse(bvh, [0.2, 0.3, -2.0], [0, 0, 1.0])
        assert rec.hit
        assert rec.t == pytest.approx(2.0)
