#!/usr/bin/env python3
"""Chaos smoke test: seeded faults against the real execution stack.

Three legs, all deterministic (fixed seeds, fixed kill points):

A. **Chaos sweep** — ``run_chaos_sweep`` runs a real four-case sweep
   under a seeded schedule of worker kills, a worker hang, a journal
   disk-full and slow claim I/O, then checks the resilience
   invariants: no case lost, every failure typed, every survivor
   byte-identical to the fault-free run.
B. **Kill + resume** — a sweep subprocess is killed immediately after
   its third journal checkpoint; the rerun must resume those completed
   cases from the journal without touching the runner for them (zero
   cache reads, zero recomputes), finish the rest, and delete the
   journal.
C. **Service under faults** — against a live ``repro serve``: an
   injected transient connection drop on an idempotent verb recovers
   via the client retry policy, and a queue-full rejection carries a
   machine-readable ``retry_after_s`` hint that ``submit_admitted``
   waits out.

This is what CI runs; it is also handy after any change to the
resilience stack:

    PYTHONPATH=src python tools/chaos_smoke.py

Exit status 0 means every invariant held.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import faults  # noqa: E402
from repro.errors import AdmissionRejected, ServiceError  # noqa: E402
from repro.experiments import default_context  # noqa: E402
from repro.experiments.parallel import CaseSpec  # noqa: E402
from repro.resilience import SweepJournal, run_chaos_sweep  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

SRC = str(Path(__file__).resolve().parents[1] / "src")
CHAOS_SEED = 0
KILL_AFTER = 3  # leg B: die right after this many journal checkpoints

RESUME_CASES = [
    CaseSpec(scene, policy)
    for scene in ("BUNNY", "SPNZA")
    for policy in ("baseline", "prefetch", "vtq")
]


def leg_a_chaos_sweep() -> None:
    context = default_context(fast=True)
    cases = [
        CaseSpec(scene, policy)
        for scene in context.scenes()
        for policy in ("baseline", "prefetch")
    ]
    report = run_chaos_sweep(cases, context, seed=CHAOS_SEED, jobs=2)
    print(f"[A] {report.summary()}")
    assert report.ok, (
        "chaos invariants violated: "
        + json.dumps(report.as_dict(), indent=2, sort_keys=True)
    )
    assert report.lost == 0, f"{report.lost} case(s) lost"
    assert report.quarantined >= 1, (
        "the poisoned kill should quarantine exactly its victim; "
        f"got {report.quarantined} quarantined"
    )
    assert report.survived + report.quarantined == report.cases
    sites = {site for site, _key in report.fired}
    assert faults.DISK_FULL in sites, (
        f"journal disk-full never fired in the parent: {sorted(sites)}"
    )
    print(f"[A] ok: {report.survived} byte-identical survivors, "
          f"{report.quarantined} typed quarantine(s)")


def _sweep_child_source(kill_after: int) -> str:
    """Source of the leg-B child: run the sweep, die after N checkpoints.

    ``kill_after=0`` runs to completion.  The kill is ``os._exit(9)``
    immediately after the Nth journal append returns — the most hostile
    deterministic stand-in for SIGKILL: the checkpoint is durable, all
    later bookkeeping is lost.  The child sweeps serially so the abrupt
    exit cannot orphan pool workers.
    """
    return f"""
import os, sys
from repro.experiments import default_context
from repro.experiments.parallel import CaseSpec, run_cases
from repro.resilience import journal as journal_mod

cases = [CaseSpec(scene, policy)
         for scene in ("BUNNY", "SPNZA")
         for policy in ("baseline", "prefetch", "vtq")]
kill_after = {kill_after}
if kill_after:
    state = {{"n": 0}}
    original = journal_mod.SweepJournal.record
    def record(self, *args, **kwargs):
        original(self, *args, **kwargs)
        state["n"] += 1
        if state["n"] >= kill_after:
            os._exit(9)
    journal_mod.SweepJournal.record = record
results = run_cases(cases, default_context(fast=True),
                    jobs=0 if kill_after else 2)
assert all(metrics is not None and failure is None
           for metrics, failure in results), results
"""


def leg_b_kill_resume() -> None:
    scratch = tempfile.mkdtemp(prefix="repro-chaos-resume-")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = str(Path(scratch) / "cache")
    env.pop("REPRO_CACHE_TRACE", None)

    proc = subprocess.run(
        [sys.executable, "-c", _sweep_child_source(KILL_AFTER)],
        env=env, timeout=300,
    )
    assert proc.returncode == 9, (
        f"kill-run child exited {proc.returncode}, expected the staged 9"
    )

    # The journal must have survived the kill with exactly the
    # checkpointed cases in it.
    os.environ["REPRO_CACHE_DIR"] = env["REPRO_CACHE_DIR"]
    try:
        journal = SweepJournal.for_cases(RESUME_CASES, default_context(fast=True))
        assert journal is not None and journal.path.exists(), (
            "no journal survived the killed sweep"
        )
        checkpointed = set(journal.load())
        assert len(checkpointed) == KILL_AFTER, (
            f"journal holds {len(checkpointed)} case(s), expected {KILL_AFTER}"
        )
        print(f"[B] killed after {KILL_AFTER} checkpoints; journal "
              f"{journal.path.name} holds {len(checkpointed)} case(s)")

        # Rerun with a cache-trace log: journaled cases must not be
        # re-resolved at all — no COMPUTE, not even a cache HIT.
        trace_log = Path(scratch) / "cache_trace.log"
        env["REPRO_CACHE_TRACE"] = str(trace_log)
        proc = subprocess.run(
            [sys.executable, "-c", _sweep_child_source(0)],
            env=env, timeout=300,
        )
        assert proc.returncode == 0, f"resume run exited {proc.returncode}"
        touched = {}
        for line in trace_log.read_text().splitlines():
            event, _, key = line.partition(" ")
            touched.setdefault(event, set()).add(key)
        recomputed = checkpointed & touched.get("COMPUTE", set())
        reread = checkpointed & touched.get("HIT", set())
        assert not recomputed, f"resume recomputed {len(recomputed)} journaled case(s)"
        assert not reread, (
            f"resume re-read {len(reread)} journaled case(s) from the cache "
            "instead of the journal"
        )
        assert len(touched.get("COMPUTE", set())) == len(RESUME_CASES) - KILL_AFTER, (
            f"resume computed {touched.get('COMPUTE')} — expected exactly "
            f"the {len(RESUME_CASES) - KILL_AFTER} unjournaled case(s)"
        )
        assert not journal.path.exists(), (
            "completed sweep should have deleted its journal"
        )
        print(f"[B] ok: resume recomputed 0/{KILL_AFTER} journaled cases, "
              f"computed the {len(RESUME_CASES) - KILL_AFTER} missing ones, "
              "journal deleted on completion")
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for_server(client: ServiceClient, proc, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server exited early with status {proc.returncode}")
        try:
            return client.health()
        except ServiceError:
            time.sleep(0.2)
    raise SystemExit("server did not come up in time")


def leg_c_service_faults() -> None:
    port = free_port()
    endpoint = f"127.0.0.1:{port}"
    scratch = tempfile.mkdtemp(prefix="repro-chaos-service-")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = str(Path(scratch) / "cache")
    env["REPRO_SERVICE_RETRY_AFTER_S"] = "0.2"

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", endpoint,
            "--spool", str(Path(scratch) / "spool"),
            "--jobs", "0",
            "--queue-max", "1",
            "--fast",
        ],
        env=env,
    )
    client = ServiceClient(endpoint=endpoint, timeout=30)
    try:
        wait_for_server(client, proc)

        # A transient connection drop on an idempotent verb must be
        # absorbed by the client retry policy, not surfaced.
        drop = faults.FaultSpec(
            site=faults.SOCKET_DROP, match="health:connect",
            seed=CHAOS_SEED, max_fires=1,
        )
        with faults.injected(drop) as registry:
            health = client.health()
            assert health["states"] is not None
            assert (faults.SOCKET_DROP, "health:connect") in registry.fired, (
                "injected drop never fired — the retry was not exercised"
            )
        print("[C] idempotent verb recovered from an injected connection drop")

        # Saturate the depth-1 queue: the rejection must carry the
        # server's machine-readable retry_after_s hint...
        job_ids, rejection = [], None
        for _ in range(12):
            try:
                job_ids.append(client.submit("BUNNY", "baseline"))
            except AdmissionRejected as exc:
                rejection = exc
                break
        assert rejection is not None, (
            f"queue never filled after {len(job_ids)} admissions"
        )
        assert rejection.reason == "queue-full", rejection.reason
        assert rejection.retry_after_s is not None, (
            "queue-full rejection carried no retry_after_s hint"
        )
        assert rejection.retryable
        print(f"[C] queue-full rejection carried retry_after_s="
              f"{rejection.retry_after_s:g}")

        # ...and submit_admitted waits the hint out and gets admitted.
        job_ids.append(client.submit_admitted(
            CaseSpec("SPNZA", "prefetch"), max_wait_s=60.0,
        ))
        records = client.wait(job_ids, timeout=300)
        assert all(r["state"] == "done" for r in records), records
        print(f"[C] ok: submit_admitted admitted after backoff; "
              f"all {len(records)} jobs done")

        reply = client.drain(stop=True)
        assert reply["drained"] is True
        proc.wait(timeout=30)
        assert proc.returncode == 0, f"server exit status {proc.returncode}"
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)


def main() -> int:
    leg_a_chaos_sweep()
    leg_b_kill_resume()
    leg_c_service_faults()
    print("chaos smoke: all invariants held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
