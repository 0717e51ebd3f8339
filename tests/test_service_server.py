"""End-to-end coverage of the socket front end.

Each test runs a real :class:`SimulationServer` on an ephemeral
localhost TCP port (or a unix socket) inside a background thread with
its own event loop, and talks to it with the stock synchronous
:class:`ServiceClient` — the same code paths the CLI verbs use.

Flow-control tests (queue-full, cancel-while-running, draining) swap the
scheduler's worker for a module-level blocking stub; in ``jobs=0``
serial mode the stub runs in-process, so plain ``threading.Event``
hand-offs work.
"""

import asyncio
import os
import socket
import threading

import pytest

import repro.experiments.runner as runner
from repro.errors import AdmissionRejected, ServiceError
from repro.experiments import default_context
from repro.experiments.parallel import CaseSpec
from repro.service import protocol
from repro.service import jobs as jobstates
from repro.service.client import ServiceClient
from repro.service.jobs import JobStore, new_job
from repro.service.server import SimulationServer


@pytest.fixture(autouse=True)
def service_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # The health cache counters must not depend on the audit log.
    monkeypatch.delenv("REPRO_CACHE_TRACE", raising=False)
    runner.clear_failures()
    yield
    runner.clear_failures()


_BLOCK = threading.Event()
_STARTED = threading.Event()


def blocking_worker(spec, context):
    """Hold the (single, serial) worker slot until the test releases it."""
    _STARTED.set()
    if not _BLOCK.wait(30):
        raise RuntimeError("test never released blocking_worker")
    return ({"cycles": 1.0, "scene": spec.scene}, None)


@pytest.fixture
def blocked():
    _BLOCK.clear()
    _STARTED.clear()
    yield
    _BLOCK.set()  # never leave a server thread stuck


class ServerHarness:
    """Run a server in a daemon thread; stop it cleanly on exit."""

    def __init__(self, **kwargs):
        kwargs.setdefault("endpoint", ("127.0.0.1", 0))
        kwargs.setdefault("jobs", 0)
        kwargs.setdefault("fast", True)
        self.server = SimulationServer(**kwargs)
        self.loop = None
        self.thread = None
        self.error = None
        self._up = threading.Event()

    async def _main(self):
        self.loop = asyncio.get_running_loop()
        try:
            await self.server.start()
        except Exception as exc:  # surface bind failures in the test
            self.error = exc
            self._up.set()
            return
        self._up.set()
        await self.server.serve_forever()

    def __enter__(self):
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True
        )
        self.thread.start()
        if not self._up.wait(15):
            raise RuntimeError("server did not come up")
        if self.error is not None:
            raise self.error
        return self

    def __exit__(self, *exc_info):
        if self.thread.is_alive() and self.loop is not None:
            self.loop.call_soon_threadsafe(self.server.stop)
        self.thread.join(timeout=15)

    def client(self, timeout=30.0) -> ServiceClient:
        endpoint = self.server.endpoint
        if isinstance(endpoint, tuple):
            endpoint = f"{endpoint[0]}:{endpoint[1]}"
        return ServiceClient(endpoint=endpoint, timeout=timeout)


class TestEndToEnd:
    def test_served_results_match_direct_run(self, tmp_path):
        """The acceptance bar: served == serial CLI path, byte for byte."""
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            ids = [
                client.submit("BUNNY", "baseline"),
                client.submit("SPNZA", "vtq"),
            ]
            records = client.wait(ids, timeout=120)
        assert [r["state"] for r in records] == [jobstates.DONE] * 2
        ctx = default_context(fast=True)
        assert records[0]["result"] == runner.run_case("BUNNY", "baseline", ctx)
        assert records[1]["result"] == runner.run_case("SPNZA", "vtq", ctx)

    def test_unix_socket_endpoint(self, tmp_path):
        sock_path = tmp_path / "svc.sock"
        with ServerHarness(
            spool=tmp_path / "spool", endpoint=str(sock_path)
        ) as harness:
            assert sock_path.exists()
            health = harness.client().health()
            assert health["ok"] and health["queue_depth"] == 0
        assert not sock_path.exists()  # unlinked on shutdown

    def test_status_vs_result_vs_jobs(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            job_id = client.submit("BUNNY", "baseline", client_id="tester")
            client.wait([job_id], timeout=120)
            status = client.status(job_id)
            assert status["state"] == jobstates.DONE
            assert "result" not in status
            result = client.result(job_id)
            assert result["result"]["scene"] == "BUNNY"
            listed = client.jobs()
            assert [j["job_id"] for j in listed] == [job_id]
            assert listed[0]["client_id"] == "tester"
            assert client.jobs(state=jobstates.FAILED) == []
            with pytest.raises(ServiceError, match="unknown state"):
                client.jobs(state="limbo")

    def test_health_reports_cache_counters(self, tmp_path, monkeypatch):
        # Dedupe off: this test is about the *runner's disk cache*, and
        # needs the second identical submission to actually dispatch.
        monkeypatch.setenv("REPRO_SERVICE_DEDUPE", "0")
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            # Same case twice: one compute, one disk-cache hit.
            client.wait(
                [client.submit("BUNNY", "baseline") for _ in range(2)],
                timeout=120,
            )
            health = client.health()
        assert health["states"][jobstates.DONE] == 2
        assert health["dispatched"] == 2
        assert health["cache"]["computes"] == 1
        assert health["cache"]["hits"] == 1
        assert health["cache"]["hit_rate"] == 0.5

    def test_serving_writes_no_cache_audit_log(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            client.wait([client.submit("BUNNY", "baseline")], timeout=120)
            assert client.health()["cache"]["computes"] == 1
        assert "REPRO_CACHE_TRACE" not in os.environ
        assert not (tmp_path / "spool" / "cache_trace.log").exists()

    def test_submit_validation(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            with pytest.raises(ServiceError, match="unknown scene"):
                client.submit("NOSUCH", "baseline")
            with pytest.raises(ServiceError, match="unknown policy"):
                client.submit("BUNNY", "warp-drive")
            with pytest.raises(ServiceError, match="no such job"):
                client.status("bogus-id")


class TestFlowControl:
    def test_queue_full_rejection(self, tmp_path, blocked):
        harness = ServerHarness(spool=tmp_path / "spool", queue_max=1)
        harness.server.scheduler.worker_fn = blocking_worker
        with harness:
            client = harness.client()
            first = client.submit("BUNNY", "baseline")  # dispatched, blocks
            assert _STARTED.wait(10)
            queued = client.submit("BUNNY", "baseline")  # fills the queue
            with pytest.raises(AdmissionRejected) as err:
                client.submit("BUNNY", "baseline")
            assert err.value.reason == "queue-full"
            _BLOCK.set()
            records = client.wait([first, queued], timeout=60)
            assert [r["state"] for r in records] == [jobstates.DONE] * 2

    def test_cancel_queued_but_not_running(self, tmp_path, blocked):
        harness = ServerHarness(spool=tmp_path / "spool")
        harness.server.scheduler.worker_fn = blocking_worker
        with harness:
            client = harness.client()
            running = client.submit("BUNNY", "baseline")
            assert _STARTED.wait(10)
            queued = client.submit("SPNZA", "baseline")
            cancelled = client.cancel(queued)
            assert cancelled["state"] == jobstates.CANCELLED
            assert client.status(queued)["state"] == jobstates.CANCELLED
            with pytest.raises(ServiceError, match="already running"):
                client.cancel(running)
            _BLOCK.set()
            client.wait([running], timeout=60)
            with pytest.raises(ServiceError, match="already done"):
                client.cancel(running)
            # The cancelled job never dispatched.
            assert client.status(queued)["dispatch_index"] is None

    def test_drain_rejects_new_submissions(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            client = harness.client()
            drained = client.drain()
            assert drained["drained"] is True
            assert "_stop_after_reply" not in drained
            with pytest.raises(AdmissionRejected) as err:
                client.submit("BUNNY", "baseline")
            assert err.value.reason == "draining"

    def test_drain_stop_shuts_down(self, tmp_path):
        harness = ServerHarness(spool=tmp_path / "spool")
        with harness:
            client = harness.client()
            job_id = client.submit("BUNNY", "baseline")
            reply = client.drain(stop=True)
            assert reply["drained"] is True
            assert reply["states"][jobstates.DONE] == 1
            harness.thread.join(timeout=15)
            assert not harness.thread.is_alive()
            with pytest.raises(ServiceError):
                client.health()
        # The finished job survived shutdown in the spool.
        store = JobStore(tmp_path / "spool" / "jobs")
        assert store.load(job_id).state == jobstates.DONE


class TestRestartAdoption:
    def test_spooled_jobs_are_re_adopted_and_run(self, tmp_path):
        spool = tmp_path / "spool"
        store = JobStore(spool / "jobs")
        queued = new_job(CaseSpec("BUNNY", "baseline"))
        orphaned = new_job(CaseSpec("SPNZA", "baseline"))
        orphaned.state = jobstates.RUNNING  # a crash left it mid-flight
        orphaned.started_at = 1.0
        orphaned.attempts = 1
        store.save(queued)
        store.save(orphaned)
        with ServerHarness(spool=spool) as harness:
            client = harness.client()
            assert client.health()["adopted"] == 2
            records = client.wait(
                [queued.job_id, orphaned.job_id], timeout=120
            )
        assert [r["state"] for r in records] == [jobstates.DONE] * 2
        assert records[1]["attempts"] == 2  # pre-crash attempt preserved


class TestProtocolErrors:
    def _raw_roundtrip(self, harness, payload: bytes):
        host, port = harness.server.endpoint
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(payload)
            with sock.makefile("rb") as stream:
                return protocol.decode(stream.readline())

    @pytest.mark.parametrize("overrides, message", [
        ([["l2_bytez", 65536]], "not a GPUConfig field"),
        ([["dram_latency", "slow"]], "not a valid dram_latency value"),
        ([["line_bytes", 48]], "line_bytes"),
    ])
    def test_bad_gpu_overrides_rejected_at_admission(
        self, tmp_path, overrides, message
    ):
        """Unknown fields, non-numeric values and values GPUConfig refuses
        get a typed error at the door and never reach the queue."""
        request = {
            "op": "submit", "scene": "BUNNY", "policy": "baseline",
            "gpu_overrides": overrides,
        }
        with ServerHarness(spool=tmp_path / "spool") as harness:
            reply = self._raw_roundtrip(
                harness, protocol.encode(request)
            )
            assert reply["ok"] is False
            assert reply["reason"] != "internal"
            assert message in reply["error"]
            client = harness.client()
            assert client.health()["queue_depth"] == 0
            assert client.jobs() == []

    def test_malformed_and_unknown_requests(self, tmp_path):
        with ServerHarness(spool=tmp_path / "spool") as harness:
            reply = self._raw_roundtrip(harness, b"this is not json\n")
            assert reply["ok"] is False
            assert "malformed" in reply["error"]
            reply = self._raw_roundtrip(harness, b'"a bare string"\n')
            assert reply["ok"] is False
            assert "JSON objects" in reply["error"]
            with pytest.raises(ServiceError, match="unknown op"):
                harness.client().request({"op": "frobnicate"})
            # The connection loop survived all of the above.
            assert harness.client().health()["ok"]
