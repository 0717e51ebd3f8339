"""Bit-exactness contract of the SoA warp engine (REPRO_SOA_ENGINE).

The SoA path precomputes a policy-independent render plan (one
functional pass over all rays) and replays it through pure timing
engines.  Its license to exist is exactness: for every scene x policy x
error-path combination, the SoA engines must produce byte-identical
``SimStats`` snapshots, images and cycle counts to the scalar engines —
and when they cannot (memory-trace recorder attached, sorted policy),
``render_scene`` must fall back to the scalar path and say so.
"""

import dataclasses

import numpy as np
import pytest

from repro import faults
from repro.errors import BudgetExceeded, SanitizerError
from repro.experiments import default_context
from repro.experiments.runner import ExperimentContext, scene_and_bvh
from repro.faults import FaultSpec
from repro.core.config import VTQConfig
from repro.gpusim.soa import get_plan, set_soa_engine, soa_engine_enabled
from repro.gpusim.soa_engines import RT_UNITS
from repro.memtrace import replay_trace
from repro.memtrace.store import record_trace
from repro.tracing import render_scene

SCENES = ("BUNNY", "SPNZA")


@pytest.fixture(scope="module")
def ctx():
    base = default_context(fast=True)
    return ExperimentContext(
        setup=base.setup, scene_list=base.scene_list, use_disk_cache=False
    )


@pytest.fixture(autouse=True)
def _soa_on():
    """Every test starts from the default (SoA enabled) and restores it."""
    previous = set_soa_engine(True)
    yield
    set_soa_engine(previous)


def _render_both(scene, bvh, setup, policy, **kw):
    set_soa_engine(False)
    scalar = render_scene(scene, bvh, setup, policy=policy, **kw)
    set_soa_engine(True)
    soa = render_scene(scene, bvh, setup, policy=policy, **kw)
    return scalar, soa


def _assert_identical(scalar, soa):
    assert scalar.engine == "scalar"
    assert soa.engine == "soa"
    assert soa.engine_fallback_reason is None
    assert soa.stats.snapshot() == scalar.stats.snapshot()
    assert soa.image.tobytes() == scalar.image.tobytes()
    assert soa.cycles == scalar.cycles
    assert soa.per_sm_cycles == scalar.per_sm_cycles


class TestBitExactness:
    def test_soa_units_subclass_their_scalar_units(self):
        """Each policy row's SoA unit is its scalar unit with the warp
        loops replaced, so the scalar unit is the row's oracle."""
        for policy, (scalar, soa) in RT_UNITS.items():
            assert issubclass(soa, scalar), policy

    @pytest.mark.parametrize("scene_name", SCENES)
    @pytest.mark.parametrize("policy", RT_UNITS)
    def test_stats_image_cycles(self, ctx, scene_name, policy):
        scene, bvh = scene_and_bvh(scene_name, ctx.setup)
        scalar, soa = _render_both(scene, bvh, ctx.setup, policy)
        _assert_identical(scalar, soa)

    @pytest.mark.parametrize("scene_name", SCENES)
    def test_vtq_scaled_queues(self, ctx, scene_name):
        scene, bvh = scene_and_bvh(scene_name, ctx.setup)
        scalar, soa = _render_both(
            scene, bvh, ctx.setup, "vtq", vtq_config=VTQConfig().scaled_to(256)
        )
        _assert_identical(scalar, soa)

    def test_multi_sample_renders(self, ctx):
        setup = dataclasses.replace(ctx.setup, samples_per_pixel=2)
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        for policy in ("baseline", "vtq"):
            scalar, soa = _render_both(scene, bvh, setup, policy)
            _assert_identical(scalar, soa)

    @pytest.mark.parametrize("policy", ("baseline", "vtq"))
    def test_timeline_spans_identical(self, ctx, policy):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        scalar, soa = _render_both(
            scene, bvh, ctx.setup, policy, record_timeline=True
        )
        _assert_identical(scalar, soa)
        assert len(soa.timelines) == len(scalar.timelines)
        for a, b in zip(scalar.timelines, soa.timelines):
            assert a.spans == b.spans


class TestErrorPaths:
    @pytest.mark.parametrize("policy", RT_UNITS)
    def test_cycle_budget_partial_stats(self, ctx, policy):
        """BudgetExceeded fires at the same cycle with the same partials."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        outcomes = []
        for enabled in (False, True):
            set_soa_engine(enabled)
            with pytest.raises(BudgetExceeded) as exc_info:
                render_scene(
                    scene, bvh, ctx.setup, policy=policy, cycle_budget=5000.0
                )
            err = exc_info.value
            outcomes.append((str(err), err.limit, err.observed, err.partial))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("policy", RT_UNITS)
    def test_sanitizer_passes_soa_renders(self, ctx, policy):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        result = render_scene(scene, bvh, ctx.setup, policy=policy, sanitize=True)
        assert result.engine == "soa"

    def test_sanitizer_catches_corruption_under_soa(self, ctx):
        """The STATS_CORRUPT chaos fault trips the sanitizer identically."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        messages = []
        for enabled in (False, True):
            set_soa_engine(enabled)
            with faults.injected(
                FaultSpec(site=faults.STATS_CORRUPT, match="BUNNY:vtq")
            ):
                with pytest.raises(SanitizerError) as exc_info:
                    render_scene(
                        scene, bvh, ctx.setup, policy="vtq", sanitize=True
                    )
            messages.append(str(exc_info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("policy", RT_UNITS)
    def test_sim_stall_fault_hits_soa_engines(self, ctx, policy):
        """SIM_STALL specs match the SoA classes (names contain the scalar
        names), so chaos runs behave the same under either engine."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        match = RT_UNITS[policy][0].__name__
        cycles = []
        for enabled in (False, True):
            set_soa_engine(enabled)
            with faults.injected(
                FaultSpec(
                    site=faults.SIM_STALL, match=match,
                    payload={"extra_cycles": 123456.0},
                )
            ):
                result = render_scene(scene, bvh, ctx.setup, policy=policy)
            cycles.append(result.cycles)
        assert cycles[0] == cycles[1]
        assert cycles[0] >= 123456.0


class TestFallbacks:
    def test_disabled_flag_falls_back(self, ctx):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        set_soa_engine(False)
        assert not soa_engine_enabled()
        result = render_scene(scene, bvh, ctx.setup, policy="baseline")
        assert result.engine == "scalar"
        assert result.engine_fallback_reason == "disabled"

    def test_sorted_policy_falls_back(self, ctx):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        result = render_scene(scene, bvh, ctx.setup, policy="sorted")
        assert result.engine == "scalar"
        assert result.engine_fallback_reason == "policy-sorted"

    @pytest.mark.parametrize("policy", ("prefetch", "vtq"))
    def test_memtrace_recording_falls_back_and_replays(self, ctx, policy):
        """Recording under SoA runs the scalar engines (the recorder hooks
        into warp internals replay never executes), and the resulting
        trace still replays bit-for-bit."""
        assert soa_engine_enabled()
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        trace, live = record_trace(
            scene, bvh, ctx.setup, policy, scene_name="BUNNY"
        )
        assert live.engine == "scalar"
        assert live.engine_fallback_reason == "trace-recorder-attached"
        # The recorded run (scalar) equals the SoA run it replaced ...
        soa = render_scene(scene, bvh, ctx.setup, policy=policy)
        assert soa.engine == "soa"
        assert soa.stats.snapshot() == live.stats.snapshot()
        # ... and the trace replays byte-for-byte.
        replayed = replay_trace(trace)
        assert replayed.stats.snapshot() == live.stats.snapshot()
        assert replayed.cycles == live.cycles
        assert replayed.per_sm_cycles == live.per_sm_cycles


class TestSweepPathEngine:
    def test_run_cases_renders_never_fall_back(self, ctx, monkeypatch):
        """Every render a sweep reaches through ``run_cases`` runs the SoA
        engine: plain cases and ``gpu_overrides`` points, triangles and
        splats.  A silent scalar fallback keeps every result identical and
        shows only as lost speed, so no equivalence check can catch it."""
        from repro.experiments import runner
        from repro.experiments.parallel import CaseSpec, run_cases

        real_render = runner.render_scene
        engines = []

        def recording_render(*args, **kwargs):
            result = real_render(*args, **kwargs)
            engines.append((
                result.scene_name, result.policy,
                result.engine, result.engine_fallback_reason,
            ))
            return result

        monkeypatch.setattr(runner, "render_scene", recording_render)
        specs = [
            CaseSpec(scene_name, policy, gpu_overrides=overrides)
            for scene_name in ("BUNNY", "GSPL1")
            for policy in RT_UNITS
            for overrides in (None, (("l2_bytes", 65536),),
                              (("line_bytes", 64),))
        ]
        results = run_cases(specs, ctx, jobs=0, record_failures=False)
        assert [failure for _, failure in results] == [None] * len(specs)
        assert len(engines) == len(specs)
        fallbacks = [row for row in engines if row[2:] != ("soa", None)]
        assert fallbacks == []


class TestPlanCache:
    def test_plan_reused_across_policies(self, ctx):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        first = get_plan(scene, bvh, ctx.setup)
        again = get_plan(scene, bvh, ctx.setup)
        assert first is again

    def test_plan_keyed_on_render_parameters(self, ctx):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        base = get_plan(scene, bvh, ctx.setup)
        spp2 = get_plan(
            scene, bvh, dataclasses.replace(ctx.setup, samples_per_pixel=2)
        )
        assert spp2 is not base
        assert spp2.num_slots == 2 * base.num_slots
