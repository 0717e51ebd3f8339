"""Tests for the experiment runner, figures and report rendering."""

import json

import pytest

from repro.core.config import VTQConfig
from repro.experiments import (
    default_context,
    fig01_baseline_bottlenecks,
    fig10_overall_speedup,
    fig14_mode_cycles,
    fig16_virtualization_overhead,
    fig17_energy,
    format_table,
    run_case,
    sec65_area_overheads,
    table1_configuration,
    table2_scenes,
)
from repro.experiments.runner import ExperimentContext, _case_key


@pytest.fixture(scope="module")
def ctx():
    base = default_context(fast=True)
    # Unit tests must not leak results into the benchmark disk cache.
    return ExperimentContext(
        setup=base.setup, scene_list=base.scene_list, use_disk_cache=False
    )


class TestRunner:
    def test_run_case_metrics(self, ctx):
        m = run_case("BUNNY", "baseline", ctx)
        assert m["cycles"] > 0
        assert 0 <= m["l1_bvh_miss_rate"] <= 1
        assert 0 <= m["simt_efficiency"] <= 1
        assert m["scene"] == "BUNNY"
        assert m["policy"] == "baseline"

    def test_metrics_json_serializable(self, ctx):
        m = run_case("BUNNY", "baseline", ctx)
        json.dumps(m)  # must not raise

    def test_cache_key_distinguishes_cases(self, ctx):
        setup = ctx.setup
        a = _case_key("BUNNY", "baseline", setup, None)
        b = _case_key("BUNNY", "vtq", setup, None)
        c = _case_key("BUNNY", "vtq", setup, VTQConfig(queue_threshold=8))
        d = _case_key("BUNNY", "vtq", setup, VTQConfig(queue_threshold=16))
        assert len({a, b, c, d}) == 4

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch, ctx):
        import repro.experiments.runner as runner

        monkeypatch.setattr(runner, "_CACHE_DIR", tmp_path)
        cached_ctx = ExperimentContext(
            setup=ctx.setup, scene_list=ctx.scene_list, use_disk_cache=True
        )
        first = run_case("BUNNY", "baseline", cached_ctx)
        assert list(tmp_path.glob("*.json"))
        second = run_case("BUNNY", "baseline", cached_ctx)
        assert first == second

    def test_default_context_scene_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCENES", "lands, frst")
        ctx = default_context()
        assert ctx.scenes() == ["LANDS", "FRST"]

    @pytest.mark.parametrize("scene_name, policy", [
        ("BUNNY", "baseline"), ("BUNNY", "prefetch"), ("BUNNY", "vtq"),
        ("GSPL1", "baseline"),
    ])
    def test_line_bytes_override_lays_out_the_bvh(self, ctx, scene_name, policy):
        """A line_bytes point renders on a BVH cut into lines of that size
        (gaussian scenes keep their 64-byte records), not on the default
        32-byte layout."""
        from dataclasses import replace

        from repro.bvh import LayoutConfig, build_scene_bvh
        from repro.experiments.runner import extract_metrics
        from repro.scenes import load_scene
        from repro.tracing import render_scene

        metrics = run_case(scene_name, policy, ctx, gpu_overrides={"line_bytes": 64})
        setup = replace(ctx.setup, gpu=replace(ctx.setup.gpu, line_bytes=64))
        scene = load_scene(scene_name, scale=setup.scene_scale)
        bvh = build_scene_bvh(
            scene.mesh, layout_config=LayoutConfig(line_bytes=64),
            treelet_budget_bytes=setup.gpu.treelet_bytes,
        )
        assert bvh.layout.config.line_bytes == 64
        if scene_name == "GSPL1":
            assert bvh.layout.config.triangle_bytes == 64
        result = render_scene(scene, bvh, setup, policy=policy)
        expected = extract_metrics(result, setup)
        expected.update(scene=scene_name, policy=policy)
        assert metrics == expected


class TestFigures:
    def test_fig01_shape(self, ctx):
        out = fig01_baseline_bottlenecks(ctx)
        assert out["rows"][-1][0] == "MEAN"
        assert len(out["rows"]) == len(ctx.scenes()) + 1

    def test_fig10_speedups_positive(self, ctx):
        out = fig10_overall_speedup(ctx)
        geo = out["rows"][-1]
        assert float(geo[2]) > 0
        assert float(geo[3]) > 0

    def test_fig14_fractions_sum_to_one(self, ctx):
        out = fig14_mode_cycles(ctx)
        for row in out["rows"]:
            total = sum(float(v) for v in row[1:])
            # Rows hold 3-decimal strings; allow their rounding error.
            assert total == pytest.approx(1.0, abs=5e-3)

    def test_fig16_overhead_finite(self, ctx):
        out = fig16_virtualization_overhead(ctx)
        mean = float(out["rows"][-1][1].rstrip("%"))
        assert -5.0 < mean < 100.0

    def test_fig17_energy_relative(self, ctx):
        out = fig17_energy(ctx)
        rel = float(out["rows"][-1][1])
        assert 0 < rel < 2.0

    def test_table1_includes_table1_fields(self, ctx):
        out = table1_configuration(ctx)
        keys = {row[0] for row in out["rows"]}
        assert {"num_sms", "l1_latency", "l2_latency", "rt_warp_buffer_size"} <= keys

    def test_table2_rows(self, ctx):
        out = table2_scenes(ctx)
        assert len(out["rows"]) == len(ctx.scenes())

    def test_sec65_paper_sizes(self, ctx):
        out = sec65_area_overheads(ctx)
        values = {row[0]: row[1] for row in out["rows"]}
        assert values["queue table (paper cfg)"] == "6.30KB"


class TestReport:
    def test_format_table_alignment(self):
        table = {
            "title": "T",
            "headers": ["a", "long_header"],
            "rows": [["x", "1"], ["longer", "2"]],
        }
        text = format_table(table)
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "long_header" in lines[2]
        # All data rows align on the separator column.
        positions = {line.index("|") for line in lines[2:] if "|" in line}
        assert len(positions) == 1

    def test_format_table_nested_simt(self):
        table = {
            "title": "outer",
            "headers": ["x"],
            "rows": [["1"]],
            "simt_table": {"title": "inner", "headers": ["y"], "rows": [["2"]]},
        }
        text = format_table(table)
        assert "inner" in text
