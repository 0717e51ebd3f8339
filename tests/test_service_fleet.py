"""Fleet scale-out coverage: result dedupe, shard routing, multi-node.

Three layers, cheapest first:

* :class:`ResultCache` / :func:`result_key` units — content addressing,
  checksum discipline, corrupt-entry eviction, the ``REPRO_SERVICE_DEDUPE``
  gate.
* :class:`FleetRegistry` units — heartbeat membership, rendezvous
  determinism, breaker-driven failover, the typed ``no-node`` /
  ``circuit-open`` rejections.  No sockets involved.
* End-to-end: a real head server plus real worker servers joined over
  loopback TCP (the exact ``repro serve --join`` path), asserting the
  acceptance bar — fleet-served results byte-identical to a direct
  ``run_case``, dedupe hits with zero dispatch — plus the batch verb,
  tenant quotas and the HTTP gateway.
"""

import contextlib
import json
import socket
import threading
import time

import pytest

import repro.experiments.runner as runner
from repro.errors import AdmissionRejected, CircuitOpen, ServiceError
from repro.experiments import default_context
from repro.experiments.parallel import CaseSpec
from repro.resilience import BreakerBoard
from repro.service import jobs as jobstates
from repro.service.fleet import (
    NO_NODE,
    FleetRegistry,
    _weight,
    remaining_deadline,
)
from repro.service.jobs import new_job
from repro.service.resultcache import (
    RESULT_CACHE_VERSION,
    ResultCache,
    result_key,
)

from tests.test_service_server import ServerHarness


@pytest.fixture(autouse=True)
def service_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # Fast worker registration so fleet tests don't wait on heartbeats.
    monkeypatch.setenv("REPRO_SERVICE_HEARTBEAT_S", "0.05")
    runner.clear_failures()
    yield
    runner.clear_failures()


# -- result cache ----------------------------------------------------------------


class TestResultCache:
    def _ctx(self):
        return default_context(fast=True)

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        key = result_key("case", CaseSpec("BUNNY", "baseline"), self._ctx())
        assert cache.lookup(key) is None
        cache.store(key, {"cycles": 42.0})
        assert cache.lookup(key) == {"cycles": 42.0}
        assert len(cache) == 1

    def test_key_is_content_addressed(self, tmp_path):
        ctx = self._ctx()
        spec = CaseSpec("BUNNY", "baseline")
        assert result_key("case", spec, ctx) == result_key("case", spec, ctx)
        distinct = {
            result_key("case", spec, ctx),
            result_key("case", CaseSpec("SPNZA", "baseline"), ctx),
            result_key("case", CaseSpec("BUNNY", "vtq"), ctx),
            result_key("pareto", spec, ctx, params={"budget_axis": [1.0]}),
        }
        assert len(distinct) == 4

    def test_env_gate_disables_lookup_and_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DEDUPE", "0")
        cache = ResultCache(tmp_path / "results")
        cache.store("abc", {"cycles": 1.0})
        assert len(cache) == 0
        assert cache.lookup("abc") is None

    def test_corrupt_entries_are_evicted_not_served(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cache.store("good", {"cycles": 1.0})
        # Torn write: not JSON at all.
        cache.path("torn").write_text("{not json")
        # Tampered result: checksum no longer matches.
        entry = json.loads(cache.path("good").read_text())
        entry["result"]["cycles"] = 999.0
        cache.path("tampered").write_text(json.dumps(entry))
        # Entry copied under the wrong key.
        entry = json.loads(cache.path("good").read_text())
        cache.path("stolen").write_text(json.dumps(entry))
        # Stale schema version.
        entry = json.loads(cache.path("good").read_text())
        entry["version"] = RESULT_CACHE_VERSION + "-old"
        entry["key"] = "stale"
        cache.path("stale").write_text(json.dumps(entry))
        for key in ("torn", "tampered", "stolen", "stale"):
            assert cache.lookup(key) is None
            assert not cache.path(key).exists()  # evicted on contact
        assert cache.lookup("good") == {"cycles": 1.0}

    def test_init_sweeps_orphaned_tmp_files(self, tmp_path):
        root = tmp_path / "results"
        cache = ResultCache(root)
        cache.store("kept", {"cycles": 1.0})
        (root / "dead.json.tmp").write_text("{")
        cache = ResultCache(root)
        assert not (root / "dead.json.tmp").exists()
        assert cache.lookup("kept") == {"cycles": 1.0}

    def test_unserializable_result_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path / "results")
        cache.store("bad", {"handle": object()})  # TypeError inside
        assert len(cache) == 0
        assert list(cache.root.glob("*.tmp")) == []

    def test_entry_bound_evicts_least_recently_used(self, tmp_path, monkeypatch):
        import os
        import time

        monkeypatch.setenv("REPRO_SERVICE_DEDUPE_MAX_ENTRIES", "3")
        cache = ResultCache(tmp_path / "results")
        now = time.time()
        for i, key in enumerate(("k0", "k1", "k2", "k3", "k4")):
            cache.store(key, {"cycles": float(i)})
            # Deterministic mtime ordering without sleeping.
            os.utime(cache.path(key), (now + i, now + i))
            cache._enforce_limits(keep=cache.path(key))
        assert len(cache) == 3
        assert cache.lookup("k0") is None and cache.lookup("k1") is None
        # A hit refreshes recency: k2 survives the next eviction, k3 goes.
        assert cache.lookup("k2") == {"cycles": 2.0}
        os.utime(cache.path("k2"), (now + 10, now + 10))
        cache.store("k5", {"cycles": 5.0})
        os.utime(cache.path("k5"), (now + 11, now + 11))
        cache._enforce_limits(keep=cache.path("k5"))
        assert cache.lookup("k3") is None
        for key in ("k2", "k4", "k5"):
            assert cache.lookup(key) is not None, key

    def test_byte_bound_keeps_newest_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DEDUPE_MAX_BYTES", "1")
        cache = ResultCache(tmp_path / "results")
        cache.store("a", {"cycles": 1.0})
        cache.store("b", {"cycles": 2.0})
        # The bound is tighter than any single entry; the just-written
        # entry is never evicted (an aggressive bound must not force a
        # 0% hit rate), so exactly one entry remains.
        assert len(cache) == 1
        assert cache.lookup("b") == {"cycles": 2.0}

    def test_garbage_limits_degrade_to_unlimited(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DEDUPE_MAX_ENTRIES", "lots")
        monkeypatch.setenv("REPRO_SERVICE_DEDUPE_MAX_BYTES", "-5")
        cache = ResultCache(tmp_path / "results")
        for i in range(6):
            cache.store(f"k{i}", {"cycles": float(i)})
        assert len(cache) == 6


# -- fleet registry --------------------------------------------------------------


def _registry(threshold=1, **kwargs):
    kwargs.setdefault("ttl_s", 30.0)
    kwargs.setdefault("expire_s", 120.0)
    board = BreakerBoard(
        failure_threshold=threshold, cooldown_s=60.0, subject="node"
    )
    return FleetRegistry(breakers=board, **kwargs)


class TestFleetRegistry:
    def test_membership_lifecycle(self):
        fleet = _registry()
        assert not fleet.fleet_mode()
        fleet.register("w1", "127.0.0.1:7001")
        fleet.register("w2", "127.0.0.1:7002", slots=4)
        assert len(fleet) == 2 and fleet.fleet_mode()
        assert fleet.heartbeat("w1").node_id == "w1"
        with pytest.raises(ServiceError, match="re-register"):
            fleet.heartbeat("ghost")
        assert fleet.deregister("w2") is True
        assert fleet.deregister("w2") is False
        assert [n["node_id"] for n in fleet.snapshot()] == ["w1"]

    def test_register_validation(self):
        fleet = _registry()
        with pytest.raises(ServiceError, match="node_id"):
            fleet.register("", "127.0.0.1:7001")
        with pytest.raises(ServiceError, match="endpoint"):
            fleet.register("w1", "")
        with pytest.raises(ServiceError, match="slots"):
            fleet.register("w1", "127.0.0.1:7001", slots=0)

    def test_reregistration_keeps_dispatch_bookkeeping(self):
        fleet = _registry()
        node = fleet.register("w1", "127.0.0.1:7001")
        node.dispatched = 7
        node.failures = 2
        refreshed = fleet.register("w1", "127.0.0.1:7099")  # worker restart
        assert refreshed.endpoint == "127.0.0.1:7099"
        assert refreshed.dispatched == 7 and refreshed.failures == 2

    def test_routing_is_deterministic_and_owner_first(self):
        fleet = _registry()
        for i in range(3):
            fleet.register(f"w{i}", f"127.0.0.1:700{i}")
        owner = fleet.route("BUNNY")
        for _ in range(5):
            assert fleet.route("BUNNY").node_id == owner.node_id
        assert fleet.ranked("BUNNY")[0].node_id == owner.node_id
        # Rendezvous ranking is a pure function of (node_id, scene_key).
        order = [n.node_id for n in fleet.ranked("BUNNY")]
        assert order == sorted(
            order, key=lambda nid: _weight(nid, "BUNNY"), reverse=True
        )

    def test_scenes_spread_across_nodes(self):
        fleet = _registry()
        for i in range(4):
            fleet.register(f"w{i}", f"127.0.0.1:700{i}")
        owners = {fleet.route(f"SCENE-{i}").node_id for i in range(32)}
        assert len(owners) > 1  # hashing actually shards

    def test_failover_when_owner_circuit_open(self):
        fleet = _registry(threshold=1)
        for i in range(3):
            fleet.register(f"w{i}", f"127.0.0.1:700{i}")
        ranked = fleet.ranked("BUNNY")
        fleet.breakers.breaker(ranked[0].node_id).record_failure()  # trips
        routed = fleet.route("BUNNY", consume=True)
        assert routed.node_id == ranked[1].node_id
        assert fleet.failover_routes == 1 and fleet.owner_routes == 0
        assert fleet.shard_hit_rate() == 0.0
        # Non-consuming admission checks don't move the affinity stats.
        fleet.route("BUNNY")
        assert fleet.failover_routes == 1

    def test_all_circuits_open_is_typed_circuit_open(self):
        fleet = _registry(threshold=1)
        fleet.register("w1", "127.0.0.1:7001")
        fleet.register("w2", "127.0.0.1:7002")
        for node_id in ("w1", "w2"):
            fleet.breakers.breaker(node_id).record_failure()
        with pytest.raises(CircuitOpen) as err:
            fleet.route("BUNNY")
        assert err.value.retry_after_s is not None

    def test_stale_nodes_stop_routing_then_expire(self):
        fleet = _registry(ttl_s=0.05, expire_s=0.2)
        fleet.register("w1", "127.0.0.1:7001")
        assert fleet.route("BUNNY").node_id == "w1"
        time.sleep(0.1)
        # Past TTL: still registered (fleet mode holds — no silent local
        # fallback) but no longer routable.
        assert fleet.fleet_mode()
        with pytest.raises(AdmissionRejected) as err:
            fleet.route("BUNNY")
        assert err.value.reason == NO_NODE
        assert err.value.retry_after_s == pytest.approx(0.05)
        time.sleep(0.15)
        assert not fleet.fleet_mode()  # expired entirely
        assert len(fleet) == 0

    def test_heartbeat_revives_a_stale_node(self):
        fleet = _registry(ttl_s=0.05, expire_s=60.0)
        fleet.register("w1", "127.0.0.1:7001")
        time.sleep(0.1)
        assert fleet.live_nodes() == []
        fleet.heartbeat("w1")
        assert [n.node_id for n in fleet.live_nodes()] == ["w1"]

    def test_remaining_deadline_is_monotonic_based(self):
        job = new_job(CaseSpec("BUNNY", "baseline"))
        assert remaining_deadline(job) is None
        job = new_job(CaseSpec("BUNNY", "baseline"), deadline_s=30.0)
        assert remaining_deadline(job) == 30.0  # not yet admitted: full
        job.admitted_monotonic = time.monotonic() - 10.0
        assert remaining_deadline(job) == pytest.approx(20.0, abs=1.0)


# -- end to end ------------------------------------------------------------------


_BLOCK = threading.Event()
_STARTED = threading.Event()


def blocking_worker(spec, context):
    _STARTED.set()
    if not _BLOCK.wait(30):
        raise RuntimeError("test never released blocking_worker")
    return ({"cycles": 1.0, "scene": spec.scene}, None)


@pytest.fixture
def blocked():
    _BLOCK.clear()
    _STARTED.clear()
    yield
    _BLOCK.set()


def _endpoint_str(harness: ServerHarness) -> str:
    host, port = harness.server.endpoint
    return f"{host}:{port}"


def _wait_for_nodes(client, count, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        nodes = client.nodes()
        if len(nodes) >= count and all(n["live"] for n in nodes):
            return nodes
        time.sleep(0.05)
    raise AssertionError(f"fleet never reached {count} live node(s)")


class TestFleetEndToEnd:
    def test_two_node_fleet_is_byte_identical_to_direct_run(self, tmp_path):
        with contextlib.ExitStack() as stack:
            head = stack.enter_context(ServerHarness(spool=tmp_path / "head"))
            workers = [
                stack.enter_context(
                    ServerHarness(
                        spool=tmp_path / f"w{i}",
                        join=_endpoint_str(head),
                        node_id=f"w{i}",
                    )
                )
                for i in range(2)
            ]
            del workers
            client = head.client()
            _wait_for_nodes(client, 2)

            # Shard routing is deterministic and introspectable.
            routed = client.route("BUNNY")
            assert client.route("BUNNY")["node_id"] == routed["node_id"]

            ids = [
                client.submit("BUNNY", "baseline"),
                client.submit("SPNZA", "vtq"),
            ]
            records = client.wait(ids, timeout=180)
            assert [r["state"] for r in records] == [jobstates.DONE] * 2
            assert all(not r["deduped"] for r in records)

            # Both jobs ran on worker nodes, not on the head.
            nodes = client.nodes()
            assert sum(n["dispatched"] for n in nodes) == 2
            health = client.health()
            assert health["fleet"]["fleet_mode"] is True
            assert len(health["fleet"]["nodes"]) == 2
            assert health["fleet"]["shard_hit_rate"] == 1.0

        # The acceptance bar: fleet-served == direct serial run_cases.
        ctx = default_context(fast=True)
        assert records[0]["result"] == runner.run_case("BUNNY", "baseline", ctx)
        assert records[1]["result"] == runner.run_case("SPNZA", "vtq", ctx)

    def test_dedupe_answers_identical_submission_with_zero_dispatch(
        self, tmp_path
    ):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            first = client.submit("BUNNY", "baseline", client_id="alice")
            original = client.wait([first], timeout=120)[0]
            assert client.health()["dispatched"] == 1

            # Identical content from a different client: served from the
            # result cache, terminal immediately, nothing dispatched.
            second = client.submit("BUNNY", "baseline", client_id="bob")
            record = client.result(second)
            assert record["state"] == jobstates.DONE
            assert record["deduped"] is True
            assert record["result"] == original["result"]
            health = client.health()
            assert health["dispatched"] == 1  # the hit never dispatched
            assert health["dedupe"]["entries"] == 1

            # Different content still dispatches.
            third = client.submit("BUNNY", "vtq")
            assert client.wait([third], timeout=120)[0]["deduped"] is False
            assert client.health()["dispatched"] == 2

    def test_legacy_replay_kind_is_a_case_alias(self, tmp_path):
        """Old clients' ``kind="replay"`` submissions run as plain case
        jobs, on any policy, and dedupe against the same case."""
        overrides = (("l2_bytes", 65536),)
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            first = client.submit(
                "BUNNY", "vtq", kind="replay", gpu_overrides=overrides
            )
            original = client.wait([first], timeout=120)[0]
            assert original["state"] == jobstates.DONE
            assert original["kind"] == "case"
            second = client.submit("BUNNY", "vtq", gpu_overrides=overrides)
            record = client.result(second)
            assert record["deduped"] is True
            assert record["result"] == original["result"]
        ctx = default_context(fast=True)
        assert original["result"] == runner.run_case(
            "BUNNY", "vtq", ctx, gpu_overrides=overrides
        )

    def test_batch_verb_gives_per_item_outcomes(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            results = client.submit_batch(
                [
                    {"scene": "BUNNY", "policy": "baseline"},
                    {"scene": "NOSUCH"},
                    {"scene": "SPNZA", "priority": 5},
                ],
                client_id="batcher",
                tenant="acme",
            )
            assert [r["ok"] for r in results] == [True, False, True]
            assert "unknown scene" in results[1]["error"]
            admitted = [r["job_id"] for r in results if r["ok"]]
            records = client.wait(admitted, timeout=120)
            assert [r["state"] for r in records] == [jobstates.DONE] * 2
            assert all(r["client_id"] == "batcher" for r in records)
            assert all(r["tenant"] == "acme" for r in records)
            assert records[1]["priority"] == 5  # per-item override won

    def test_batch_validation(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            with pytest.raises(ServiceError, match="items"):
                client.request({"op": "batch"})
            with pytest.raises(ServiceError, match="items"):
                client.submit_batch([])

    def test_tenant_quota_is_enforced_across_clients(self, tmp_path, blocked):
        harness = ServerHarness(spool=tmp_path / "spool", tenant_max=1)
        harness.server.scheduler.worker_fn = blocking_worker
        with harness:
            client = harness.client()
            running = client.submit(
                "BUNNY", "baseline", client_id="a", tenant="acme"
            )
            assert _STARTED.wait(10)  # dispatched: not a queued quota user
            queued = client.submit(
                "BUNNY", "baseline", client_id="b", tenant="acme"
            )
            # Third acme submission — different client, same tenant.
            with pytest.raises(AdmissionRejected) as err:
                client.submit("SPNZA", "baseline", client_id="c", tenant="acme")
            assert err.value.reason == "tenant-quota"
            assert err.value.retry_after_s is not None
            # Another tenant is unaffected.
            other = client.submit(
                "SPNZA", "baseline", client_id="c", tenant="zeta"
            )
            _BLOCK.set()
            records = client.wait([running, queued, other], timeout=60)
            assert [r["state"] for r in records] == [jobstates.DONE] * 3

    def test_tenant_max_zero_means_unlimited(self, tmp_path):
        """``repro serve --tenant-max 0`` starts and admits, as its help says."""
        with ServerHarness(spool=tmp_path / "spool", tenant_max=0) as harness:
            assert harness.server.queue.per_tenant_max is None
            client = harness.client()
            job_ids = [
                client.submit(scene, "baseline", client_id=scene, tenant="acme")
                for scene in ("BUNNY", "SPNZA")
            ]
            records = client.wait(job_ids, timeout=60)
        assert [r["state"] for r in records] == [jobstates.DONE] * 2

    def test_silent_fleet_rejects_no_node_instead_of_running_locally(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVICE_NODE_TTL_S", "0.05")
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            client.register_node("ghost", "127.0.0.1:1", slots=1)
            time.sleep(0.2)  # ghost never heartbeats: past TTL, registered
            with pytest.raises(AdmissionRejected) as err:
                client.submit("BUNNY", "baseline")
            assert err.value.reason == NO_NODE
            assert client.health()["dispatched"] == 0
            # Dedupe still answers even with no routable node.
            assert client.deregister_node("ghost") is True
            done = client.submit("BUNNY", "baseline")
            client.wait([done], timeout=120)
            client.register_node("ghost", "127.0.0.1:1", slots=1)
            time.sleep(0.2)
            deduped = client.submit("BUNNY", "baseline")
            assert client.status(deduped)["deduped"] is True

    def test_worker_verbs_are_refused_on_worker_nodes(self, tmp_path):
        with contextlib.ExitStack() as stack:
            head = stack.enter_context(ServerHarness(spool=tmp_path / "head"))
            worker = stack.enter_context(
                ServerHarness(
                    spool=tmp_path / "w0",
                    join=_endpoint_str(head),
                    node_id="w0",
                )
            )
            _wait_for_nodes(head.client(), 1)
            with pytest.raises(ServiceError, match="worker"):
                worker.client().nodes()


# -- http gateway ----------------------------------------------------------------


def _http(harness, method: str, target: str, body=None):
    """One raw HTTP/1.0 exchange; returns (status, parsed-or-raw body)."""
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode()
    request = (
        f"{method} {target} HTTP/1.0\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    ).encode() + payload
    host, port = harness.server.endpoint
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, tail = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    if b"application/json" in head:
        return status, json.loads(tail.decode())
    return status, tail.decode()


class TestHttpGateway:
    def test_health_and_metrics(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            status, health = _http(harness, "GET", "/health")
            assert status == 200 and health["ok"] is True
            status, text = _http(harness, "GET", "/metrics")
            assert status == 200
            assert "repro_service_queue_depth" in text
            assert "repro_service_dedupe_entries" in text

    def test_submit_then_stream_job_progress(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            status, reply = _http(
                harness, "POST", "/submit",
                {"scene": "BUNNY", "policy": "baseline"},
            )
            assert status == 200
            job_id = reply["job_id"]
            # The SSE stream emits state-change events and closes after
            # the terminal one.
            status, stream = _http(
                harness, "GET", f"/jobs/{job_id}/stream"
            )
            assert status == 200
            events = [
                json.loads(line[len("data: "):])
                for line in stream.split("\n\n")
                if line.startswith("data: ")
            ]
            assert events, "stream produced no events"
            assert events[-1]["state"] == jobstates.DONE
            assert all("result" not in e for e in events)
            status, reply = _http(harness, "GET", f"/jobs/{job_id}")
            assert status == 200
            assert reply["job"]["state"] == jobstates.DONE
            assert reply["job"]["result"]["scene"] == "BUNNY"

    def test_batch_and_jobs_listing(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            status, reply = _http(
                harness, "POST", "/batch",
                {
                    "items": [{"scene": "BUNNY"}, {"scene": "NOSUCH"}],
                    "client_id": "curl",
                },
            )
            assert status == 200
            assert [r["ok"] for r in reply["results"]] == [True, False]
            assert reply["admitted"] == 1
            harness.client().wait(
                [reply["results"][0]["job_id"]], timeout=120
            )
            status, listing = _http(harness, "GET", "/jobs?state=done")
            assert status == 200
            assert len(listing["jobs"]) == 1

    def test_typed_http_errors(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            status, body = _http(harness, "GET", "/nope")
            assert status == 404 and "no route" in body["error"]
            status, body = _http(
                harness, "POST", "/submit", {"scene": "NOSUCH"}
            )
            assert status == 400 and "unknown scene" in body["error"]
            status, body = _http(harness, "GET", "/jobs/bogus-id")
            assert status == 400 and "no such job" in body["error"]

    def test_admission_rejection_maps_to_429(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_NODE_TTL_S", "0.05")
        with ServerHarness(spool=tmp_path / "spool") as harness:
            harness.client().register_node("ghost", "127.0.0.1:1")
            time.sleep(0.2)
            status, body = _http(
                harness, "POST", "/submit",
                {"scene": "BUNNY", "policy": "baseline"},
            )
            assert status == 429
            assert body["reason"] == NO_NODE
            assert body["retry_after_s"] is not None
