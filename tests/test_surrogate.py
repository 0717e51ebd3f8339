"""Tests for ``repro.surrogate``: features, model, refine loop, pareto.

The headline contracts pinned here (docs/SURROGATE.md):

* determinism — one seeded generator threads through every stochastic
  choice, so two identical ``run_pareto`` calls produce byte-identical
  frontier JSON,
* verification — every reported frontier point is exact, the exact-run
  ledger is never overrun, and the achieved error statistics travel in
  the payload,
* admission — the service's ``pareto`` job kind validates its params
  synchronously.
"""

import json
import os

import numpy as np
import pytest

from repro.core.config import VTQConfig
from repro.errors import ServiceError
from repro.experiments.parallel import CaseSpec
from repro.experiments.runner import default_context
from repro.obs import registry as obs_registry, render_snapshot_text
from repro.service.jobs import Job, JobStore, new_job
from repro.surrogate import (
    ExactLedger,
    ExactRunner,
    SurrogateError,
    SurrogateModel,
    axis_kind,
    build_grid,
    epsilon_prune,
    make_point,
    pareto_indices,
    run_pareto,
)


GRID_KWARGS = dict(
    cache_count=4,
    queue_values=[2.0, 4.0, 8.0, 16.0, 32.0, 48.0],
    exact_budget=14,
    seed=3,
    jobs=0,
)


@pytest.fixture(scope="module")
def pareto_pair(tmp_path_factory):
    """Two identical small sweeps (fresh disk cache) for reuse below."""
    cache = tmp_path_factory.mktemp("surrogate-cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    try:
        context = default_context(fast=True)
        first = run_pareto("BUNNY", context, **GRID_KWARGS)
        second = run_pareto("BUNNY", context, **GRID_KWARGS)
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old
    return first, second


class TestAxes:
    def test_axis_kinds(self):
        assert axis_kind("l2_bytes") == "gpu"
        assert axis_kind("queue_threshold") == "vtq"
        with pytest.raises(SurrogateError, match="unknown sweep axis"):
            axis_kind("warp_flux_capacitance")

    def test_build_grid_is_cartesian_and_ordered(self):
        grid = build_grid("l2_bytes", [1024.0, 2048.0],
                          "queue_threshold", [4.0, 8.0, 16.0])
        assert len(grid) == 6
        values = [p.axis_values() for p in grid]
        assert values[0] == {"l2_bytes": 1024.0, "queue_threshold": 4.0}
        assert values[-1] == {"l2_bytes": 2048.0, "queue_threshold": 16.0}

    def test_make_point_routes_fields(self):
        point = make_point({"l2_bytes": 4096.0, "queue_threshold": 8.0})
        assert dict(point.gpu_overrides) == {"l2_bytes": 4096.0}
        assert dict(point.vtq_overrides) == {"queue_threshold": 8.0}


class TestParetoMath:
    def test_pareto_indices_dominance(self):
        costs = [1.0, 2.0, 3.0, 4.0]
        gains = [1.0, 3.0, 2.5, 3.5]
        # index 2 is dominated: costlier than 1 with less gain.
        assert pareto_indices(costs, gains) == [0, 1, 3]

    def test_epsilon_prune_collapses_flat_stretch(self):
        costs = [1.0, 2.0, 3.0]
        gains = [1.0, 1.001, 2.0]
        kept = epsilon_prune(costs, gains, [0, 1, 2], epsilon=0.02)
        assert kept == [0, 2]  # the 0.1% step is not worth 2x the cost


class TestSurrogateModel:
    def _data(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(24, 3))
        y = np.exp(1.0 + X @ np.array([0.5, -0.3, 0.2]))
        return X, {"cycles": y}

    def test_fit_predict_recovers_log_linear(self):
        X, targets = self._data()
        model = SurrogateModel(rng=np.random.default_rng(7))
        model.fit(X, targets)
        mean, spread = model.predict(X)["cycles"]
        rel = np.abs(mean - targets["cycles"]) / targets["cycles"]
        assert float(rel.max()) < 0.05
        assert np.all(spread >= 0)

    def test_same_seed_same_fit(self):
        X, targets = self._data()
        a = SurrogateModel(rng=np.random.default_rng(11))
        b = SurrogateModel(rng=np.random.default_rng(11))
        a.fit(X, targets)
        b.fit(X, targets)
        pa, _ = a.predict(X)["cycles"]
        pb, _ = b.predict(X)["cycles"]
        assert np.array_equal(pa, pb)

    def test_too_few_points_refused(self):
        model = SurrogateModel(rng=np.random.default_rng(0))
        with pytest.raises(SurrogateError, match="at least 3"):
            model.fit(np.ones((2, 2)), {"cycles": np.ones(2)})

    def test_log_target_must_be_positive(self):
        model = SurrogateModel(rng=np.random.default_rng(0))
        X = np.arange(12, dtype=float).reshape(4, 3)
        with pytest.raises(SurrogateError, match="positive"):
            model.fit(X, {"cycles": np.array([1.0, 2.0, -1.0, 3.0])})


class TestExactLedger:
    def test_budget_accounting(self):
        ledger = ExactLedger(limit=3)
        assert ledger.can_spend(3) and not ledger.can_spend(4)
        ledger.record(2)
        ledger.record()
        assert ledger.remaining() == 0
        assert ledger.as_dict() == {"total": 3, "limit": 3}


class TestRunPareto:
    def test_byte_identical_reruns(self, pareto_pair):
        """The seed-determinism regression: same seed, same bytes."""
        first, second = pareto_pair
        assert first.to_json() == second.to_json()

    def test_payload_schema(self, pareto_pair):
        payload = pareto_pair[0].payload
        assert payload["schema"] == "repro-pareto/1"
        assert payload["grid"]["size"] == len(payload["points"]) == 24
        err = payload["surrogate_error"]
        for key in ("bound", "bound_met", "policy_heldout",
                    "policy_final_heldout", "baseline_heldout",
                    "frontier_verification", "frontier_candidates"):
            assert key in err
        ledger = payload["exact_runs"]
        assert set(ledger) == {"total", "limit"}
        assert ledger["total"] <= ledger["limit"]

    def test_frontier_points_are_exact(self, pareto_pair):
        payload = pareto_pair[0].payload
        assert payload["frontier"], "expected a non-empty frontier"
        exact = {(p["cache"], p["queue"]) for p in payload["points"]
                 if p["exact"]}
        for row in payload["frontier"]:
            assert row["verified"]
            assert (row["cache"], row["queue"]) in exact

    def test_frontier_costs_strictly_gain(self, pareto_pair):
        rows = pareto_pair[0].payload["frontier"]
        costs = [row["cache"] for row in rows]
        gains = [row["speedup_vs_ref"] for row in rows]
        assert costs == sorted(costs)
        assert gains == sorted(gains)

    def test_obs_counters_and_text_rendering(self, pareto_pair):
        snap = obs_registry().snapshot()
        assert "repro_surrogate_predictions_total" in snap
        assert "repro_surrogate_exact_checks_total" in snap
        text = render_snapshot_text(snap)
        assert "repro_surrogate_predictions_total" in text
        assert "repro_surrogate_error_bound" in text

    def test_budget_too_small_refused(self):
        context = default_context(fast=True)
        with pytest.raises(SurrogateError, match="budget"):
            run_pareto("BUNNY", context, cache_count=4, queue_count=4,
                       exact_budget=8, jobs=0)


class TestAgainstExhaustiveGrid:
    def test_true_error_over_the_whole_grid(self, tmp_path, monkeypatch):
        """Price a 504-point BUNNY cache x queue grid with the surrogate,
        then every point exactly.  The sweep must stay cheap (at most 5%
        of the grid run exactly), its exact points must be exact, and the
        surrogate-priced points must stay within the contract's error
        bound on average against ground truth the payload never sees."""
        from repro.experiments.figures import vtq_default

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        context = default_context(fast=True)
        payload = run_pareto(
            "BUNNY", context, cache_count=8,
            queue_values=[float(v) for v in range(1, 64)], seed=3, jobs=0,
        ).payload
        grid = payload["grid"]
        points = build_grid(
            grid["cache_axis"], grid["cache_values"],
            grid["queue_axis"], grid["queue_values"],
        )
        exact = ExactRunner(
            "BUNNY", payload["policy"], context, vtq_default(context),
            ExactLedger(limit=None), jobs=0,
        ).run(points)
        # The max lands on deep-dominated corners the acquisition starves
        # of exact runs (they can never reach the frontier); the contract's
        # bound applies to the held-out and frontier errors.
        rel = [
            abs(row["cycles"] - exact[p]["cycles"]) / exact[p]["cycles"]
            for row, p in zip(payload["points"], points)
            if not row["exact"]
        ]
        error = payload["surrogate_error"]
        assert grid["size"] > payload["exact_runs"]["total"] >= 3
        assert payload["exact_fraction"] <= 0.05 + 1e-12
        assert all(
            row["cycles"] == exact[p]["cycles"]
            for row, p in zip(payload["points"], points) if row["exact"]
        )
        assert 0.0 <= sum(rel) / len(rel) <= max(rel)
        assert sum(rel) / len(rel) <= error["bound"]
        assert error["frontier_verification"]["max"] <= 0.10 + 1e-12
        assert error["bound_met"] is True


class TestServiceParetoKind:
    def test_new_job_accepts_params_for_pareto_only(self):
        spec = CaseSpec("BUNNY", "vtq")
        job = new_job(spec, kind="pareto", params={"seed": 7})
        assert job.kind == "pareto" and job.params == {"seed": 7}
        with pytest.raises(ServiceError, match="only valid for pareto"):
            new_job(spec, kind="case", params={"seed": 7})

    def test_record_round_trip_with_params(self, tmp_path):
        store = JobStore(tmp_path)
        job = new_job(
            CaseSpec("BUNNY", "vtq"), kind="pareto",
            params={"cache_count": 4, "queue_values": [2.0, 4.0]},
        )
        store.save(job)
        restored = store.load(job.job_id)
        assert restored == job
        assert restored.params["queue_values"] == [2.0, 4.0]

    def test_admission_validation(self):
        from repro.service.server import SimulationServer

        check = SimulationServer._check_pareto_job
        spec = CaseSpec("BUNNY", "vtq")
        out = check(spec, {"cache_axis": "l2_bytes", "queue_count": 4,
                           "error_bound": 0.1, "seed": 7})
        assert out == {"cache_axis": "l2_bytes", "queue_count": 4,
                       "error_bound": 0.1, "seed": 7}
        assert check(spec, None) == {}
        with pytest.raises(ServiceError, match="unknown pareto params"):
            check(spec, {"wat": 1})
        with pytest.raises(ServiceError, match="unknown sweep axis"):
            check(spec, {"queue_axis": "nope"})
        with pytest.raises(ServiceError, match=">= 12"):
            check(spec, {"exact_budget": 3})
        with pytest.raises(ServiceError, match="in \\(0, 1\\]"):
            check(spec, {"error_bound": 1.5})
        with pytest.raises(ServiceError, match="positive"):
            check(spec, {"queue_values": [4.0, -1.0]})
        with pytest.raises(ServiceError, match="params"):
            check(CaseSpec("BUNNY", "vtq",
                           gpu_overrides=(("l2_bytes", 4096),)), {})

    def test_job_params_survive_json(self):
        job = new_job(CaseSpec("BUNNY", "vtq"), kind="pareto",
                      params={"seed": 1})
        record = json.loads(json.dumps(job.to_record()))
        assert Job.from_record(record) == job

    def test_vtq_spec_rejected_for_pareto(self):
        from repro.service.server import SimulationServer

        spec = CaseSpec("BUNNY", "vtq", vtq=VTQConfig())
        with pytest.raises(ServiceError, match="sweep their own grid"):
            SimulationServer._check_pareto_job(spec, {})
