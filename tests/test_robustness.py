"""End-to-end robustness tests: hardened caching, budgets, quarantine,
fault injection through real fault sites, and the state sanitizer."""

import json
import logging
import time
from collections import OrderedDict

import numpy as np
import pytest

import repro.experiments.runner as runner
from repro import faults
from repro.bvh.serialize import load_scene_bvh, save_scene_bvh
from repro.errors import (
    BVHError,
    BudgetExceeded,
    CacheError,
    SanitizerError,
    SceneError,
    SimulationError,
)
from repro.experiments import (
    default_context,
    fig10_overall_speedup,
    format_failures,
    run_case,
    run_case_quarantined,
)
from repro.experiments.runner import CaseBudget, ExperimentContext
from repro.faults import FaultSpec
from repro.gpusim.budget import wall_clock_watchdog
from repro.gpusim.sanitize import sanitize_render
from repro.scenes import load_scene
from repro.tracing import render_scene


@pytest.fixture(autouse=True)
def _clean_state():
    faults.clear()
    runner.clear_failures()
    yield
    faults.clear()
    runner.clear_failures()


@pytest.fixture(scope="module")
def ctx():
    base = default_context(fast=True)
    return ExperimentContext(
        setup=base.setup, scene_list=base.scene_list, use_disk_cache=False
    )


@pytest.fixture
def stored_trace(ctx, tmp_path, monkeypatch):
    """A stored (BUNNY, baseline) memory trace at the base configuration:
    what a replay path would need to serve an override point."""
    from repro.memtrace import ensure_trace

    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    return ensure_trace("BUNNY", "baseline", ctx)


@pytest.fixture
def cached_ctx(ctx, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_CACHE_DIR", tmp_path)
    return ExperimentContext(
        setup=ctx.setup, scene_list=ctx.scene_list, use_disk_cache=True
    )


def _cache_files(tmp_path):
    return sorted(tmp_path.glob("*.json"))


class TestCacheHardening:
    def test_truncated_entry_is_recomputed(self, cached_ctx, tmp_path, caplog):
        first = run_case("BUNNY", "baseline", cached_ctx)
        (entry_path,) = _cache_files(tmp_path)
        entry_path.write_text(entry_path.read_text()[: entry_path.stat().st_size // 2])
        with caplog.at_level(logging.WARNING, logger="repro.experiments"):
            again = run_case("BUNNY", "baseline", cached_ctx)
        assert again == first
        assert any("recomputing BUNNY:baseline" in r.message for r in caplog.records)
        # The damaged entry was replaced by a valid one.
        entry = json.loads(entry_path.read_text())
        assert entry["version"] == runner.RESULTS_VERSION

    def test_checksum_tamper_is_recomputed(self, cached_ctx, tmp_path):
        first = run_case("BUNNY", "baseline", cached_ctx)
        (entry_path,) = _cache_files(tmp_path)
        entry = json.loads(entry_path.read_text())
        entry["metrics"]["cycles"] = 1.0  # silent bit-rot
        entry_path.write_text(json.dumps(entry))
        assert run_case("BUNNY", "baseline", cached_ctx) == first

    def test_stale_version_is_recomputed(self, cached_ctx, tmp_path):
        first = run_case("BUNNY", "baseline", cached_ctx)
        (entry_path,) = _cache_files(tmp_path)
        entry = json.loads(entry_path.read_text())
        entry["version"] = "0"
        entry_path.write_text(json.dumps(entry))
        assert run_case("BUNNY", "baseline", cached_ctx) == first

    def test_read_cache_entry_rejects_defects(self, cached_ctx, tmp_path):
        run_case("BUNNY", "baseline", cached_ctx)
        (entry_path,) = _cache_files(tmp_path)
        key = entry_path.stem
        entry = json.loads(entry_path.read_text())
        # Good entry passes.
        assert runner._read_cache_entry(entry_path, key) == entry["metrics"]
        # Wrong key fails even with intact contents.
        with pytest.raises(CacheError, match="different case"):
            runner._read_cache_entry(entry_path, "someotherkey")
        entry_path.write_text("[1, 2, 3]")
        with pytest.raises(CacheError, match="schema"):
            runner._read_cache_entry(entry_path, key)
        entry_path.write_text("{not json")
        with pytest.raises(CacheError, match="unreadable"):
            runner._read_cache_entry(entry_path, key)

    def test_cache_corrupt_fault_round_trip(self, cached_ctx, tmp_path, caplog):
        """The CACHE_CORRUPT site damages the file the runner just wrote;
        the next run must fall back to recompute, not crash."""
        with faults.injected(
            FaultSpec(site=faults.CACHE_CORRUPT, match="BUNNY", max_fires=1)
        ):
            first = run_case("BUNNY", "baseline", cached_ctx)
        assert faults.registry().fired  # fault provably hit
        with caplog.at_level(logging.WARNING, logger="repro.experiments"):
            again = run_case("BUNNY", "baseline", cached_ctx)
        assert again == first
        assert any("recomputing" in r.message for r in caplog.records)


class TestSceneAndBVHFaults:
    def test_nan_mesh_raises_scene_error(self, ctx):
        with faults.injected(FaultSpec(site=faults.MESH_NAN, match="BUNNY")):
            with pytest.raises(SceneError, match="defective geometry"):
                load_scene("BUNNY", scale=ctx.setup.scene_scale)

    def test_nan_mesh_repairable_with_clean(self, ctx):
        with faults.injected(FaultSpec(site=faults.MESH_NAN, match="BUNNY")):
            scene = load_scene("BUNNY", scale=ctx.setup.scene_scale, clean=True)
        assert np.all(np.isfinite(scene.mesh.vertices))
        assert len(scene.mesh.indices) > 0

    def test_truncated_bvh_raises_bvh_error(self, ctx, tmp_path):
        scene, bvh = runner.scene_and_bvh("BUNNY", ctx.setup)
        path = tmp_path / "bunny.npz"
        with faults.injected(FaultSpec(site=faults.BVH_TRUNCATE)):
            save_scene_bvh(bvh, path)
        with pytest.raises(BVHError, match="corrupt or truncated"):
            load_scene_bvh(path)
        # An undamaged save still round-trips.
        save_scene_bvh(bvh, path)
        assert load_scene_bvh(path).mesh.vertices.shape == scene.mesh.vertices.shape


class TestBudgets:
    def test_cycle_budget_trips_with_partial_stats(self, ctx):
        tight = ExperimentContext(
            setup=ctx.setup, scene_list=ctx.scene_list,
            use_disk_cache=False, budget=CaseBudget(max_cycles=1.0),
        )
        with pytest.raises(BudgetExceeded) as excinfo:
            run_case("BUNNY", "baseline", tight)
        exc = excinfo.value
        assert exc.kind == "cycles"
        assert exc.limit == 1.0
        assert exc.partial["cycles"] > 1.0
        assert "rays_traced" in exc.partial
        # run_case annotates the failing case for quarantining callers.
        assert exc.scene == "BUNNY"
        assert exc.policy == "baseline"

    def test_stall_fault_blows_generous_budget(self, ctx):
        """SIM_STALL inflates the engine's cycle counter so even a budget
        no clean case would ever hit trips deterministically."""
        generous = ExperimentContext(
            setup=ctx.setup, scene_list=ctx.scene_list,
            use_disk_cache=False, budget=CaseBudget(max_cycles=1e9),
        )
        clean = run_case("BUNNY", "vtq", generous)
        assert clean["cycles"] < 1e9
        with faults.injected(FaultSpec(site=faults.SIM_STALL)):
            with pytest.raises(BudgetExceeded):
                run_case("BUNNY", "vtq", generous)

    def test_override_points_run_under_the_budget(self, ctx, stored_trace):
        """A GPU-override point is budgeted like any case: a stored memory
        trace for its (scene, policy) group must not let it skip the
        watchdogs."""
        tight = ExperimentContext(
            setup=ctx.setup, scene_list=ctx.scene_list,
            use_disk_cache=False, budget=CaseBudget(max_cycles=1.0),
        )
        for policy, overrides in (
            ("baseline", None),
            ("baseline", (("dram_latency", 400),)),
            ("vtq", (("dram_latency", 400),)),
        ):
            metrics, failure = run_case_quarantined(
                "BUNNY", policy, tight, gpu_overrides=overrides
            )
            assert metrics is None, (policy, overrides)
            assert failure.error_type == "BudgetExceeded"

    def test_wall_clock_watchdog_trips(self):
        with pytest.raises(BudgetExceeded) as excinfo:
            with wall_clock_watchdog(0.05, describe="sleepy case"):
                time.sleep(5.0)
        assert excinfo.value.kind == "wall"
        assert "sleepy case" in str(excinfo.value)

    def test_wall_clock_watchdog_noop_cases(self):
        with wall_clock_watchdog(None):
            pass  # disabled budget is a clean no-op

    def test_wall_clock_cooperative_in_worker_thread(self, ctx):
        """Off the main thread SIGALRM cannot fire; the cooperative
        monotonic deadline must trip the case instead."""
        import threading

        tight = ExperimentContext(
            setup=ctx.setup, scene_list=ctx.scene_list,
            use_disk_cache=False, budget=CaseBudget(wall_seconds=1e-6),
        )
        outcome = {}

        def work():
            try:
                outcome["metrics"] = run_case("BUNNY", "baseline", tight)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                outcome["exc"] = exc

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=120)
        exc = outcome.get("exc")
        assert isinstance(exc, BudgetExceeded)
        assert exc.kind == "wall"
        assert "rays_traced" in exc.partial

    def test_wall_clock_cooperative_disarms_cleanly(self):
        """The cooperative deadline is thread-local and cleared on exit."""
        import threading

        from repro.gpusim.budget import _cooperative_deadline, check_cycle_budget
        from repro.gpusim.stats import SimStats

        outcome = {}

        def work():
            with wall_clock_watchdog(3600.0, describe="armed"):
                outcome["armed"] = _cooperative_deadline() is not None
            outcome["disarmed"] = _cooperative_deadline() is None
            check_cycle_budget(0.0, None, SimStats())  # must not raise

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=30)
        assert outcome == {"armed": True, "disarmed": True}
        # The main thread still has no deadline armed.
        assert _cooperative_deadline() is None


class TestQuarantine:
    def test_run_case_quarantined_records_failure(self, ctx):
        with faults.injected(
            FaultSpec(site=faults.CASE_FAIL, payload={"message": "boom"})
        ):
            metrics, failure = run_case_quarantined("BUNNY", "baseline", ctx)
        assert metrics is None
        assert failure.label() == "BUNNY/baseline"
        assert failure.error_type == "SimulationError"
        assert failure.message == "boom"
        assert runner.failures() == [failure]

    def test_run_case_quarantined_success_path(self, ctx):
        metrics, failure = run_case_quarantined("BUNNY", "baseline", ctx)
        assert failure is None
        assert metrics["cycles"] > 0
        assert runner.failures() == []

    def test_sweep_completes_with_quarantined_cell(self, ctx):
        """A failing case in the 2-scene x 3-policy Figure 10 sweep leaves
        the sweep complete: the healthy scene still aggregates, the broken
        one becomes a marked cell."""
        with faults.injected(FaultSpec(site=faults.CASE_FAIL, match="SPNZA:vtq")):
            table = fig10_overall_speedup(ctx)
        cells = {row[0]: row for row in table["rows"]}
        assert "BUNNY" in cells and "GEOMEAN" in cells
        assert cells["SPNZA"][1].startswith("QUARANTINED SimulationError")
        assert len(cells["SPNZA"]) == len(table["headers"])
        (failure,) = runner.failures()
        assert failure.scene == "SPNZA"
        assert failure.policy == "vtq"

    def test_format_failures_summary(self, ctx):
        assert format_failures([]) == ""
        with faults.injected(FaultSpec(site=faults.CASE_FAIL, match="SPNZA")):
            run_case_quarantined("SPNZA", "prefetch", ctx)
        text = format_failures(runner.failures())
        assert "QUARANTINED CASES (1)" in text
        assert "SPNZA/prefetch" in text
        assert "SimulationError" in text

    def test_budget_failure_reports_partial_progress(self, ctx):
        tight = ExperimentContext(
            setup=ctx.setup, scene_list=ctx.scene_list,
            use_disk_cache=False, budget=CaseBudget(max_cycles=1.0),
        )
        metrics, failure = run_case_quarantined("BUNNY", "baseline", tight)
        assert metrics is None
        assert failure.error_type == "BudgetExceeded"
        assert failure.partial["rays_traced"] >= 0
        assert "partial progress" in format_failures([failure])


class TestSceneCacheLRU:
    def test_cache_is_bounded_and_lru(self, ctx, monkeypatch):
        from types import SimpleNamespace

        builds = []
        monkeypatch.setattr(
            runner, "load_scene",
            lambda name, scale: builds.append(name) or SimpleNamespace(mesh=None),
        )
        monkeypatch.setattr(
            runner, "build_scene_bvh",
            lambda mesh, **layout: object(),
        )
        monkeypatch.setattr(runner, "_scene_cache", OrderedDict())
        monkeypatch.setattr(runner, "SCENE_CACHE_ENTRIES", 2)

        runner.scene_and_bvh("A", ctx.setup)
        runner.scene_and_bvh("B", ctx.setup)
        runner.scene_and_bvh("A", ctx.setup)  # refresh A
        runner.scene_and_bvh("C", ctx.setup)  # evicts B, not A
        assert len(runner._scene_cache) == 2
        runner.scene_and_bvh("A", ctx.setup)  # still cached
        assert builds == ["A", "B", "C"]
        runner.scene_and_bvh("B", ctx.setup)  # was evicted: rebuilt
        assert builds == ["A", "B", "C", "B"]


class TestSanitizer:
    @pytest.mark.parametrize("policy", ("baseline", "prefetch", "sorted", "vtq"))
    def test_clean_render_passes_all_checks(self, ctx, policy):
        scene, bvh = runner.scene_and_bvh("BUNNY", ctx.setup)
        result = render_scene(scene, bvh, ctx.setup, policy=policy, sanitize=True)
        report = sanitize_render(result, ctx.setup)
        assert report.ok, report.summary()
        assert len(report.checked) >= 7

    @pytest.mark.parametrize(
        "invariant,needle",
        [
            ("rays", "ray conservation"),
            ("queues", "queue conservation"),
            ("cache", "cache reconciliation"),
            ("energy", "negative counter"),
        ],
    )
    def test_broken_invariant_provably_fails(self, ctx, invariant, needle):
        """Each sanitizer invariant must actually catch its violation:
        inject the corresponding stats corruption and assert the render
        raises with that check named."""
        scene, bvh = runner.scene_and_bvh("BUNNY", ctx.setup)
        with faults.injected(
            FaultSpec(site=faults.STATS_CORRUPT, payload={"invariant": invariant})
        ):
            with pytest.raises(SanitizerError) as excinfo:
                render_scene(scene, bvh, ctx.setup, policy="vtq", sanitize=True)
        assert any(needle in v for v in excinfo.value.violations)

    def test_override_points_are_sanitized(self, ctx, stored_trace):
        """Likewise a stored trace must not let an override point skip
        the post-render checks."""
        checked = ExperimentContext(
            setup=ctx.setup, scene_list=ctx.scene_list,
            use_disk_cache=False, sanitize=True,
        )
        with faults.injected(
            FaultSpec(site=faults.STATS_CORRUPT, payload={"invariant": "rays"})
        ):
            with pytest.raises(SanitizerError):
                run_case("BUNNY", "baseline", checked,
                         gpu_overrides=(("dram_latency", 400),))

    def test_env_var_enables_sanitizer(self, ctx, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        scene, bvh = runner.scene_and_bvh("BUNNY", ctx.setup)
        with faults.injected(
            FaultSpec(site=faults.STATS_CORRUPT, payload={"invariant": "queues"})
        ):
            with pytest.raises(SanitizerError):
                render_scene(scene, bvh, ctx.setup, policy="vtq")

    def test_explicit_opt_out_beats_env(self, ctx, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        scene, bvh = runner.scene_and_bvh("BUNNY", ctx.setup)
        with faults.injected(
            FaultSpec(site=faults.STATS_CORRUPT, payload={"invariant": "queues"})
        ):
            # sanitize=False overrides the environment: no check, no raise.
            render_scene(scene, bvh, ctx.setup, policy="vtq", sanitize=False)


class TestCLIStrict:
    def test_figure_strict_exit_status(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setattr(runner, "_CACHE_DIR", tmp_path)
        monkeypatch.delenv("REPRO_SCENES", raising=False)
        with faults.injected(FaultSpec(site=faults.CASE_FAIL, match="SPNZA")):
            assert main(["figure", "fig1", "--fast"]) == 0
        with faults.injected(FaultSpec(site=faults.CASE_FAIL, match="SPNZA")):
            assert main(["figure", "fig1", "--fast", "--strict"]) == 3

    def test_figure_strict_clean_run_is_zero(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setattr(runner, "_CACHE_DIR", tmp_path)
        monkeypatch.delenv("REPRO_SCENES", raising=False)
        assert main(["figure", "fig1", "--fast", "--strict"]) == 0
