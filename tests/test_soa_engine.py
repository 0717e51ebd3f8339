"""Bit-exactness contract of the SoA warp engine (REPRO_SOA_ENGINE).

The SoA path precomputes a policy-independent render plan (one
functional pass over all rays) and replays it through pure timing
engines.  Its license to exist is exactness: for every scene x policy x
error-path combination, the SoA engines must produce byte-identical
``SimStats`` snapshots, images and cycle counts to the scalar engines —
and when they cannot (memory-trace recorder attached), ``render_scene``
must fall back to the scalar path and say so.  Query workloads
(``repro.rtquery.time_queries``) replay query traces under the same
contract.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import faults
from repro.bvh import TraversalOrder, build_scene_bvh
from repro.bvh.traversal import init_traversal
from repro.errors import BudgetExceeded, SanitizerError
from repro.experiments import default_context
from repro.experiments.runner import ExperimentContext, scene_and_bvh
from repro.faults import FaultSpec
from repro.core.config import VTQConfig
from repro.gpusim.config import scaled_config
from repro.gpusim.soa import get_plan, set_soa_engine, soa_engine_enabled
from repro.gpusim.soa_engines import RT_UNITS
from repro.memtrace import replay_trace
from repro.memtrace.store import record_trace
from repro.rtquery import MeshClassifier, NeighborIndex, RangeIndex, time_queries
from repro.scenes import icosphere
from repro.tracing import render, render_scene
from repro.tracing.render import POLICIES

from tests.conftest import random_soup

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

    @pytest.mark.parametrize("scene_name", ("BUNNY", "GSPL1"))
    @pytest.mark.parametrize("layout", ("1spp", "2spp-3sm"))
    def test_sorted_policy(self, ctx, scene_name, layout):
        """Sorted replays the plan through the SoA baseline unit, ordering
        each bounce by the plan's sort keys — including at 2 spp, where
        a slot's keys differ per sample, and over 3 SMs, where each SM
        sorts its own subset of a bounce."""
        setup = ctx.setup
        if layout == "2spp-3sm":
            setup = dataclasses.replace(
                setup, samples_per_pixel=2,
                gpu=dataclasses.replace(setup.gpu, num_sms=3),
            )
        scene, bvh = scene_and_bvh(scene_name, setup)
        scalar, soa = _render_both(scene, bvh, setup, "sorted")
        _assert_identical(scalar, soa)

    @pytest.mark.parametrize("policy", ("baseline", "sorted", "vtq"))
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
    @pytest.mark.parametrize("policy", POLICIES)
    def test_cycle_budget_partial_stats(self, ctx, policy, monkeypatch):
        """BudgetExceeded fires at the same cycle with the same partials,
        and the SoA run got there replaying a plan."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        plan_gets = []

        def counting_get_plan(*args, **kwargs):
            plan_gets.append(soa_engine_enabled())
            return get_plan(*args, **kwargs)

        monkeypatch.setattr(render, "get_plan", counting_get_plan)
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
        assert plan_gets == [True]

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

    def test_sorted_policy_replays_plans(self, ctx):
        """No policy falls back for being itself: sorted replays plans."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        result = render_scene(scene, bvh, ctx.setup, policy="sorted")
        assert result.engine == "soa"
        assert result.engine_fallback_reason is None

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
        engine: every policy, plain cases and ``gpu_overrides`` points,
        triangles and splats.  A silent scalar fallback keeps every result
        identical and shows only as lost speed, so no equivalence check
        can catch it."""
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
            for policy in POLICIES
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


# -- query workloads ---------------------------------------------------------------

#: Query-timing configs: the default, and a narrow warp over a small L1
#: (the query counts below are not multiples of either warp size).
QUERY_CONFIGS = {
    "default": None,
    "warp16-l1k": dataclasses.replace(scaled_config(), warp_size=16, l1_bytes=1024),
}


def _time_both(bvh, factory, count, policy, config=None):
    set_soa_engine(False)
    scalar = time_queries(bvh, factory, count, policy=policy, config=config)
    set_soa_engine(True)
    soa = time_queries(bvh, factory, count, policy=policy, config=config)
    return scalar, soa


def _query_outcome(result):
    return (
        result.cycles,
        result.stats.snapshot(),
        [
            (s.all_hits, s.t_hit, s.hit_prim,
             s.nodes_visited, s.leaf_visits, s.triangle_tests)
            for s in result.states
        ],
    )


def _assert_queries_identical(scalar, soa):
    assert (scalar.engine, soa.engine) == ("scalar", "soa")
    assert _query_outcome(soa) == _query_outcome(scalar)


@pytest.fixture(scope="module")
def query_workloads():
    """RTIndeX scans, containment points and RTNN probes, as
    ``name -> (bvh, state factory, query count)``."""
    rng = np.random.default_rng(17)
    index = RangeIndex(rng.uniform(0, 1000, 600))
    scans = [(lo, lo + 40.0) for lo in rng.uniform(0, 960, 45).tolist()]
    classifier = MeshClassifier(icosphere(3, radius=2.0))
    points = rng.uniform(-2.5, 2.5, (101, 3))
    neighbors = NeighborIndex(rng.uniform(-5, 5, (200, 3)), 0.8)
    probes = rng.uniform(-5, 5, (37, 3))
    return {
        "range": (index.bvh,
                  lambda i: index.make_query_state(*scans[i], ray_id=i),
                  len(scans)),
        "mesh": (classifier.bvh,
                 lambda i: classifier.make_query_state(points[i], ray_id=i),
                 len(points)),
        "neighbors": (neighbors.bvh,
                      lambda i: neighbors.make_query_state(probes[i], ray_id=i),
                      len(probes)),
    }


class TestQueryReplay:
    """``time_queries`` replays query traces through the SoA units, bit
    for bit against the scalar units traversing the live states."""

    @pytest.mark.parametrize("config", QUERY_CONFIGS)
    @pytest.mark.parametrize("policy", RT_UNITS)
    @pytest.mark.parametrize("workload", ("range", "mesh", "neighbors"))
    def test_time_queries_identical(self, query_workloads, workload, policy, config):
        bvh, factory, count = query_workloads[workload]
        scalar, soa = _time_both(bvh, factory, count, policy, QUERY_CONFIGS[config])
        _assert_queries_identical(scalar, soa)

    def test_validation_precedes_work(self, query_workloads):
        bvh, _factory, _count = query_workloads["range"]
        calls = []

        def factory(i):
            calls.append(i)

        with pytest.raises(ValueError, match="need at least one query"):
            time_queries(bvh, factory, 0)
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            time_queries(bvh, factory, 3, policy="bogus")
        assert calls == []

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        triangles=st.integers(1, 40),
        queries=st.integers(1, 70),
        seed=st.integers(0, 10_000),
        mode=st.sampled_from(("all-hits", "closest-hit", "mixed")),
        aim=st.sampled_from(("at", "away")),
        order=st.sampled_from(TraversalOrder),
    )
    def test_generated_batches(self, triangles, queries, seed, mode, aim, order):
        """Small random soups (one triangle upward), 1-70 queries, all-hits
        and closest-hit states (so both leaf passes of the trace builder
        run), and batches aimed away from the soup, which all miss."""
        mesh = random_soup(triangles, seed=seed, extent=3.0, tri_size=1.0)
        bvh = build_scene_bvh(mesh, treelet_budget_bytes=512)
        rng = np.random.default_rng(seed)
        bounds = mesh.bounds()
        center = bounds.centroid()
        radius = float(np.linalg.norm(bounds.extent())) + 1.0
        normals = rng.normal(size=(queries, 3))
        normals /= np.maximum(np.linalg.norm(normals, axis=1, keepdims=True), 1e-12)
        origins = center + normals * radius
        if aim == "at":
            targets = center + rng.uniform(-0.5, 0.5, (queries, 3)) * bounds.extent()
            directions = targets - origins
        else:
            directions = normals  # radially outward from outside the soup
        collect = {
            "all-hits": [True] * queries,
            "closest-hit": [False] * queries,
            "mixed": rng.random(queries) < 0.5,
        }[mode]

        def factory(i):
            return init_traversal(
                bvh, origins[i], directions[i], tmin=0.0, order=order,
                ray_id=i, collect_all_hits=bool(collect[i]),
            )

        for policy in RT_UNITS:
            scalar, soa = _time_both(bvh, factory, queries, policy)
            _assert_queries_identical(scalar, soa)
            if aim == "away":
                assert all(
                    s.hit_prim < 0 and not s.all_hits for s in soa.states
                )
