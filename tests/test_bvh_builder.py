"""Tests for the binary SAH builder."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bvh import BuildConfig, build_binary_bvh
from repro.geometry import TriangleMesh
from repro.gpusim.config import default_setup
from repro.scenes import load_scene, scene_names

from tests.bvh_reference import build_binary_bvh_reference
from tests.conftest import grid_mesh, quad_mesh, random_soup

BVH_ARRAYS = (
    "bounds_lo", "bounds_hi", "left", "right", "first_prim", "prim_count",
    "prim_order",
)


def check_invariants(bvh):
    """Structural invariants every binary BVH must satisfy."""
    mesh = bvh.mesh
    # prim_order is a permutation of all triangles.
    assert sorted(bvh.prim_order.tolist()) == list(range(mesh.triangle_count))

    tri_bounds = mesh.triangle_bounds()
    visited_prims = np.zeros(mesh.triangle_count, dtype=bool)
    stack = [0]
    reachable = set()
    while stack:
        node = stack.pop()
        assert node not in reachable, "cycle or shared node"
        reachable.add(node)
        lo, hi = bvh.bounds_lo[node], bvh.bounds_hi[node]
        assert np.all(lo <= hi)
        if bvh.is_leaf(node):
            for prim in bvh.leaf_primitives(node):
                assert not visited_prims[prim]
                visited_prims[prim] = True
                assert np.all(tri_bounds[prim, 0:3] >= lo - 1e-9)
                assert np.all(tri_bounds[prim, 3:6] <= hi + 1e-9)
        else:
            l, r = int(bvh.left[node]), int(bvh.right[node])
            for child in (l, r):
                assert 0 <= child < bvh.node_count
                assert np.all(bvh.bounds_lo[child] >= lo - 1e-9)
                assert np.all(bvh.bounds_hi[child] <= hi + 1e-9)
            stack.extend((l, r))
    assert visited_prims.all(), "every triangle must live in exactly one leaf"
    assert len(reachable) == bvh.node_count, "unreachable nodes"


class TestBuild:
    def test_single_triangle(self):
        mesh = TriangleMesh(
            np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]]), np.array([[0, 1, 2]])
        )
        bvh = build_binary_bvh(mesh)
        assert bvh.node_count == 1
        assert bvh.is_leaf(0)
        check_invariants(bvh)

    def test_quad(self):
        bvh = build_binary_bvh(quad_mesh())
        check_invariants(bvh)

    def test_empty_mesh_rejected(self):
        mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            build_binary_bvh(mesh)

    def test_random_soup_invariants(self):
        bvh = build_binary_bvh(random_soup(300, seed=7))
        check_invariants(bvh)

    def test_grid_invariants(self):
        bvh = build_binary_bvh(grid_mesh(10, 10))
        check_invariants(bvh)

    def test_max_leaf_size_respected(self):
        config = BuildConfig(max_leaf_size=2)
        bvh = build_binary_bvh(random_soup(100, seed=3), config)
        leaves = [i for i in range(bvh.node_count) if bvh.is_leaf(i)]
        assert all(bvh.prim_count[leaf] <= 2 for leaf in leaves)

    def test_degenerate_coincident_triangles(self):
        """All centroids identical: builder must still terminate."""
        tri = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0.0]])
        vertices = np.tile(tri, (20, 1))
        indices = np.arange(60).reshape(20, 3)
        bvh = build_binary_bvh(TriangleMesh(vertices, indices))
        check_invariants(bvh)

    def test_collinear_centroids(self):
        """Centroids along one axis only."""
        meshes = []
        tri = np.array([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0.0]])
        vertices = []
        for i in range(50):
            vertices.append(tri + np.array([i * 1.0, 0, 0]))
        vertices = np.concatenate(vertices)
        indices = np.arange(150).reshape(50, 3)
        bvh = build_binary_bvh(TriangleMesh(vertices, indices))
        check_invariants(bvh)

    def test_sah_quality_vs_median_is_sane(self):
        """SAH cost on a plane should be modest (sanity bound, not golden)."""
        bvh = build_binary_bvh(grid_mesh(16, 16))
        assert bvh.sah_cost() < 100.0

    def test_depth_reasonable(self):
        bvh = build_binary_bvh(random_soup(256, seed=5))
        # A balanced-ish SAH tree over 256 prims should be far below 64 deep.
        assert bvh.depth() <= 64

    def test_bin_count_config_validated(self):
        with pytest.raises(ValueError):
            BuildConfig(num_bins=1)
        with pytest.raises(ValueError):
            BuildConfig(max_leaf_size=0)

    def test_leaf_primitives_raises_on_interior(self):
        bvh = build_binary_bvh(random_soup(50, seed=9))
        interior = [i for i in range(bvh.node_count) if not bvh.is_leaf(i)]
        if interior:
            with pytest.raises(ValueError):
                bvh.leaf_primitives(interior[0])


def assert_same_bvh(got, want):
    """Every BinaryBVH array matches in dtype, shape and bytes."""
    for name in BVH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def oracle_meshes(draw):
    """1-64 triangles shaped to hit the SAH edge cases (ties, degeneracies)."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(
        ["soup", "coincident", "planar", "collinear", "lattice"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        # Integer-lattice vertices produce SAH cost ties and centroids
        # exactly on bin edges; -0.0 exercises signed-zero bounds.
        coords = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
        tris = rng.choice(coords, size=(n, 3, 3))
    elif kind == "coincident":
        tris = np.broadcast_to(rng.uniform(-1, 1, size=(1, 3, 3)), (n, 3, 3))
    else:
        spread = draw(st.sampled_from([1e-9, 1e-3, 1.0, 100.0]))
        anchors = rng.uniform(-spread, spread, size=(n, 1, 3))
        if kind == "collinear":
            anchors[:, :, 1:] = 0.0
        tris = anchors + rng.uniform(-0.5, 0.5, size=(n, 3, 3)) * spread
        if kind == "planar":
            tris[:, :, 2] = draw(st.sampled_from([0.0, -0.0, 1.5]))
    return TriangleMesh(tris.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))


class TestMatchesPerNodeOracle:
    """The level-synchronous builder is byte-identical to the per-node one."""

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        oracle_meshes(),
        st.integers(1, 8),
        st.integers(2, 32),
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([0.5, 1.0, 3.0]),
    )
    def test_generated_meshes(self, mesh, leaf, bins, traversal, intersection):
        config = BuildConfig(
            max_leaf_size=leaf, num_bins=bins,
            traversal_cost=traversal, intersection_cost=intersection,
        )
        bvh = build_binary_bvh(mesh, config)
        assert_same_bvh(bvh, build_binary_bvh_reference(mesh, config))
        check_invariants(bvh)

    def test_signed_zero_bounds(self):
        """-0.0 and 0.0 mixed in one range: a zero bound keeps the sign the
        per-range reduction gives it, not whatever a segmented one would."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            tris = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0], size=(150, 3, 3))
            mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(450).reshape(150, 3))
            assert_same_bvh(build_binary_bvh(mesh), build_binary_bvh_reference(mesh))

    def test_no_valid_split_leaves_a_big_leaf(self):
        """Surface areas that overflow make every split cost inf: the node
        stays a leaf above max_leaf_size, as in the per-node builder."""
        tris = np.random.default_rng(0).uniform(-1e200, 1e200, size=(40, 3, 3))
        mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(120).reshape(40, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            bvh = build_binary_bvh(mesh)
            assert_same_bvh(bvh, build_binary_bvh_reference(mesh))
        assert bvh.node_count == 1 and bvh.prim_count[0] == 40

    @pytest.mark.slow
    @pytest.mark.parametrize("name", scene_names(include_gaussian=True))
    def test_registered_scenes(self, name):
        mesh = load_scene(name, scale=default_setup(fast=True).scene_scale).mesh
        assert_same_bvh(build_binary_bvh(mesh), build_binary_bvh_reference(mesh))
