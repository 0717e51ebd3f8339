"""Tests for the design-space sweep utilities."""

from dataclasses import replace

import pytest

from repro.core.config import VTQConfig
from repro.errors import BudgetExceeded
from repro.experiments.runner import ExperimentContext
from repro.experiments import default_context
from repro.experiments.sweeps import (
    sweep_gpu_param,
    sweep_scenes,
    sweep_vtq_param,
)
from repro.gpusim.budget import CaseBudget


@pytest.fixture(scope="module")
def ctx():
    base = default_context(fast=True)
    return ExperimentContext(
        setup=base.setup, scene_list=("WKND",), use_disk_cache=False
    )


class TestVTQSweep:
    def test_rows_per_value(self, ctx):
        out = sweep_vtq_param("WKND", ctx, "queue_threshold", (8, 64))
        assert len(out["rows"]) == 2
        assert out["rows"][0][0] == "8"
        assert out["headers"][0] == "value"

    def test_metrics_parse(self, ctx):
        out = sweep_vtq_param("WKND", ctx, "repack_threshold", (8, 22))
        for row in out["rows"]:
            assert float(row[2].rstrip("x")) > 0
            assert 0 <= float(row[3]) <= 1
            assert 0 <= float(row[4]) <= 1

    def test_unknown_param_rejected(self, ctx):
        with pytest.raises(ValueError):
            sweep_vtq_param("WKND", ctx, "not_a_field", (1,))

    @pytest.mark.parametrize("scene, param, values", [
        ("BUNNY", "queue_threshold", (8, 64)),
        ("GSPL1", "repack_threshold", (8, 22)),
    ])
    def test_rows_match_run_cases(self, ctx, scene, param, values):
        """Each row is priced exactly as the case runner prices that VTQ
        point, against the case runner's baseline."""
        from repro.experiments.parallel import CaseSpec, run_cases
        from repro.experiments.sweeps import _metrics_row_from_dict

        specs = [CaseSpec(scene, "baseline")] + [
            CaseSpec(scene, "vtq", replace(VTQConfig(), **{param: value}))
            for value in values
        ]
        (base, _failure), *points = run_cases(specs, ctx, jobs=0)
        table = sweep_vtq_param(scene, ctx, param, values)
        assert table["rows"] == [
            _metrics_row_from_dict(str(value), base["cycles"], m)
            for value, (m, _failure) in zip(values, points)
        ]

    def test_points_run_under_the_case_budget(self, ctx):
        tight = replace(ctx, budget=CaseBudget(max_cycles=1.0))
        with pytest.raises(BudgetExceeded):
            sweep_vtq_param("WKND", tight, "queue_threshold", (8,))


class TestGPUSweep:
    def test_l1_sweep(self, ctx):
        out = sweep_gpu_param("WKND", ctx, "l1_bytes", (1024, 4096))
        assert len(out["rows"]) == 2

    def test_unknown_param_rejected(self, ctx):
        with pytest.raises(ValueError):
            sweep_gpu_param("WKND", ctx, "bogus", (1,))

    @pytest.mark.parametrize("param, values", [
        ("l1_bytes", (4096, 32768)),
        ("l2_bytes", (8192, 65536)),
    ])
    def test_rows_match_run_cases(self, ctx, param, values):
        """Each row is priced exactly as the case runner prices that
        override point, including l1_bytes points, which rebuild the BVH
        for their own treelet budget."""
        from repro.experiments.parallel import gpu_sweep_cases, run_cases
        from repro.experiments.sweeps import _metrics_row_from_dict

        def point_metrics(policy):
            specs = gpu_sweep_cases("BUNNY", policy, param, values)
            return [m for m, _failure in run_cases(specs, ctx, jobs=0)]

        table = sweep_gpu_param("BUNNY", ctx, param, values, policy="vtq")
        base, vtq = point_metrics("baseline"), point_metrics("vtq")
        assert table["rows"] == [
            _metrics_row_from_dict(str(value), b["cycles"], m)
            for value, b, m in zip(values, base, vtq)
        ]

    def test_bigger_l1_not_slower(self, ctx):
        out = sweep_gpu_param("WKND", ctx, "l1_bytes", (512, 8192),
                              policy="baseline")
        small = float(out["rows"][0][1].replace(",", ""))
        large = float(out["rows"][1][1].replace(",", ""))
        assert large <= small * 1.05


class TestSceneSweep:
    def test_one_row_per_scene(self, ctx):
        out = sweep_scenes(ctx)
        assert len(out["rows"]) == 1
        assert out["rows"][0][0] == "WKND"
