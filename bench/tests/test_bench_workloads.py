from collections import Counter

import pytest

import served
import workloads
from conftest import TINY


def test_served_schedule_is_seeded_and_stratified():
    plan = served.schedule(7, TINY)
    assert plan == served.schedule(7, TINY)
    assert plan != served.schedule(8, TINY)
    # A constant-rate open loop: one job due every 1/rate seconds.
    assert [offset for offset, _ in plan] == [
        i / TINY.served_jobs_per_s for i in range(len(plan))
    ]
    pool = served.pool(TINY)
    cells = Counter((pool[i].scene, pool[i].policy) for _, i in plan)
    assert set(cells.values()) == {TINY.served_jobs_per_cell}
    assert len(cells) == len(TINY.served_scenes) * len(workloads.POLICIES)
    # Exactly one repeat per cell.
    assert len(plan) - len({i for _, i in plan}) == len(cells)


def test_default_served_pool_is_the_documented_size():
    assert len(served.pool()) == 8 * 3 * 7
    plan = served.schedule(0)
    assert len(plan) == 120


def test_repetitions_get_their_own_case_order():
    cases = list(range(20))
    assert workloads.permuted(cases, 3, 0) == workloads.permuted(cases, 3, 0)
    assert workloads.permuted(cases, 3, 0) != workloads.permuted(cases, 3, 1)
    assert sorted(workloads.permuted(cases, 3, 1)) == cases


def _digests(name, rep, cache_dir, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / f"cache-{rep}"))
    prepared = workloads.prepare(name, seed=1, rep=rep, sizes=TINY)
    outcome = workloads.execute(prepared)
    order = [spec.label() for spec in prepared.cases]
    return order, {
        spec.label(): workloads.digest(metrics)
        for spec, metrics, _failure in outcome.cases
    }


@pytest.mark.parametrize("name", ["policy_sweep", "config_sweep"])
def test_case_order_leaves_digests_unchanged(name, cache_dir, monkeypatch, tmp_path):
    order_a, digests_a = _digests(name, 0, cache_dir, monkeypatch, tmp_path)
    order_b, digests_b = _digests(name, 1, cache_dir, monkeypatch, tmp_path)
    assert order_a != order_b
    assert digests_a == digests_b


@pytest.mark.parametrize("name", workloads.SWEEPS)
def test_sweep_workload_smoke(name, cache_dir):
    prepared = workloads.prepare(name, seed=0, sizes=TINY)
    outcome = workloads.execute(prepared)
    attempted, failed, notes = workloads.verify(prepared, outcome, None)
    assert (failed, notes) == (0, [])
    ops = len(prepared.cases) + (6 if name == "query_mix" else 0)
    assert len(outcome.latencies) == ops
    assert outcome.latencies == sorted(outcome.latencies)  # completion times
    assert outcome.wall_s >= outcome.latencies[-1]
    counts = workloads.sim_counts(outcome)
    assert counts["rays"] > 0 and counts["warps"] > 0
    if name == "query_mix":
        assert attempted == len(prepared.cases) + 3 * (
            TINY.range_scans + TINY.containment_points
        )
        # Every mismatch counts: break the oracle and each scan fails.
        prepared.index.oracle_query = lambda lo, hi: [-1]
        _, failed, _ = workloads.verify(prepared, outcome, None)
        assert failed == 3 * TINY.range_scans
    else:
        wrong = {spec.label(): "0" * 16 for spec in prepared.cases}
        _, failed, notes = workloads.verify(prepared, outcome, wrong)
        assert failed == len(prepared.cases)
        assert all("digest mismatch" in note for note in notes)


def test_served_workload_smoke(tmp_path):
    trace_dir = tmp_path / "spans"
    trace_dir.mkdir()
    summary = served.run(0, tmp_path, None, trace_dir=trace_dir, sizes=TINY)
    jobs = len(TINY.served_scenes) * 3 * TINY.served_jobs_per_cell
    assert (summary["attempted"], summary["failed"]) == (jobs, 0), summary["notes"]
    assert len(summary["latencies"]) == jobs
    assert all(lat is not None and lat > 0 for lat in summary["latencies"])
    assert summary["rss_kb"] > 0
    assert summary["service"]["rejected"] == 0
    trace = summary["trace"]
    assert trace["tally"]["layers"]["runner.case"][2] >= jobs - summary[
        "service"]["deduped"]
    assert 0.0 < trace["coverage"] <= 1.0
    # The server's whole process tree is gone.
    assert served._session_pids(int((tmp_path / "server.pid").read_text())) == []
