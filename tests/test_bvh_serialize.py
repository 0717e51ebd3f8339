"""Tests for BVH disk serialization."""

import numpy as np
import pytest

from repro.bvh import build_scene_bvh, full_traverse
from repro.bvh.serialize import FORMAT_VERSION, load_scene_bvh, save_scene_bvh

from tests.conftest import random_soup
from tests.test_bvh_traversal import make_rays


@pytest.fixture(scope="module")
def original():
    return build_scene_bvh(random_soup(220, seed=91), treelet_budget_bytes=1024)


class TestRoundTrip:
    def test_structural_identity(self, original, tmp_path):
        path = tmp_path / "bvh.npz"
        save_scene_bvh(original, path)
        loaded = load_scene_bvh(path)
        assert loaded.node_count == original.node_count
        assert loaded.leaf_count == original.leaf_count
        assert loaded.treelet_count == original.treelet_count
        assert np.array_equal(loaded.layout.item_address, original.layout.item_address)
        assert np.array_equal(
            loaded.partition.treelet_of_item, original.partition.treelet_of_item
        )
        assert loaded.layout.config == original.layout.config

    def test_tables_identical(self, original, tmp_path):
        path = tmp_path / "bvh.npz"
        save_scene_bvh(original, path)
        loaded = load_scene_bvh(path)
        assert loaded.node_children == original.node_children
        assert loaded.item_lines == original.item_lines

    def test_traversal_identical(self, original, tmp_path):
        path = tmp_path / "bvh.npz"
        save_scene_bvh(original, path)
        loaded = load_scene_bvh(path)
        origins, directions = make_rays(original, 24, seed=92)
        for i in range(24):
            a = full_traverse(original, origins[i], directions[i])
            b = full_traverse(loaded, origins[i], directions[i])
            assert a.hit == b.hit
            if a.hit:
                assert a.t == b.t and a.prim_id == b.prim_id

    def test_wide_validates_after_load(self, original, tmp_path):
        path = tmp_path / "bvh.npz"
        save_scene_bvh(original, path)
        load_scene_bvh(path).wide.validate()

    def test_version_checked(self, original, tmp_path):
        path = tmp_path / "bvh.npz"
        save_scene_bvh(original, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["format_version"] = np.int64(FORMAT_VERSION + 1)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError):
            load_scene_bvh(path)

    def test_timing_results_identical(self, original, tmp_path):
        """The cycle-level behaviour, not just functional results, must
        survive serialization (addresses and treelets drive timing)."""
        from repro.gpusim import BaselineRTUnit, MemorySystem, SimStats, TraceWarp
        from repro.gpusim.config import scaled_config
        from tests.test_core_rt_unit_vtq import make_sim_rays

        path = tmp_path / "bvh.npz"
        save_scene_bvh(original, path)
        loaded = load_scene_bvh(path)
        cycles = []
        for bvh in (original, loaded):
            config = scaled_config()
            stats = SimStats()
            unit = BaselineRTUnit(bvh, config, MemorySystem(config, stats), stats)
            unit.submit(TraceWarp(make_sim_rays(bvh, 32, seed=93), 0))
            cycles.append(unit.run())
        assert cycles[0] == cycles[1]


def test_splat_bvh_save_is_refused_with_a_typed_error(tmp_path):
    """The format stores triangle meshes; a splat BVH must not half-write."""
    from repro.errors import BVHError
    from repro.scenes.gaussians import GAUSSIAN_SCENES, build_gaussian_set

    bvh = build_scene_bvh(build_gaussian_set(GAUSSIAN_SCENES[0], scale=0.3))
    path = tmp_path / "splat.npz"
    with pytest.raises(BVHError, match="GaussianSet"):
        save_scene_bvh(bvh, path)
    assert not path.exists()
