"""The ``served_open_loop`` workload: ``repro serve`` under an open loop.

One client process starts ``repro serve --fast --jobs 1`` (through
``serve.py``, which can trace it) and warms it with one job per (scene,
policy) at a point outside the job pool.  It then submits jobs at a
constant rate whether or not earlier ones finished.

The job pool is 8 scenes (6 triangle, 2 splat) x 3 policies x 7
``dram_latency`` values.  Every (scene, policy) cell gets the same
number of jobs, one of which repeats an earlier point, so every seed
offers the same mix of work and a fifth of the jobs are repeats the
dedupe layer can answer.  baseline and prefetch jobs are served by
memory-trace replay, vtq jobs by live plan replay.

Latency is measured from when a job was *due* to the job record's
``finished_at``.  Both are wall-clock readings on the same host, so the
client's poll interval never rounds them, and a stalled client that
sends late is charged for it.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from workloads import DEFAULT, POLICIES, ROOT, Sizes, digest, hermetic_env

BENCH = Path(__file__).resolve().parent
WARMUP_VTQ_RAYS = 2048
WARMUP_DRAM = 500
_ENDPOINT = re.compile(r"serving on \('([^']+)', (\d+)\)")


def pool(sizes: Sizes = DEFAULT):
    """The fixed job pool, as ``CaseSpec`` s."""
    from repro.experiments.parallel import CaseSpec

    return [
        CaseSpec(scene, policy, None, (("dram_latency", dram),))
        for scene in sizes.served_scenes
        for policy in POLICIES
        for dram in sizes.served_dram
    ]


def schedule(seed: int, sizes: Sizes = DEFAULT):
    """``[(offset_s, pool_index), ...]``: the seed's job sequence.

    Every (scene, policy) cell gets ``served_jobs_per_cell`` jobs with
    distinct DRAM latencies but one, which repeats an earlier one; the
    seed draws the latencies and the order.  Jobs are due at a constant
    rate (one every ``1 / served_jobs_per_s`` seconds), regardless of
    completions.
    """
    rng = random.Random(seed)
    n_dram = len(sizes.served_dram)
    cells = len(sizes.served_scenes) * len(POLICIES)
    picks = []
    for cell in range(cells):
        drams = rng.sample(range(n_dram), sizes.served_jobs_per_cell - 1)
        drams.append(rng.choice(drams))
        picks += [cell * n_dram + dram for dram in drams]
    rng.shuffle(picks)
    return [(i / sizes.served_jobs_per_s, index) for i, index in enumerate(picks)]


# -- server process ------------------------------------------------------------


def _session_pids(sid: int) -> List[int]:
    """Live (non-zombie) processes in session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def tree_hwm_kb(sid: int) -> int:
    """Peak resident memory (``VmHWM``) across the server's process tree."""
    best = 0
    for pid in _session_pids(sid):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        best = max(best, int(line.split()[1]))
        except OSError:
            continue
    return best


class Server:
    """``repro serve`` in its own session, so the whole tree can be reaped."""

    def __init__(self, tmp: Path, trace_dir: Optional[Path] = None):
        env = hermetic_env(tmp)
        env["PYTHONUNBUFFERED"] = "1"
        self.log_path = tmp / "server.log"
        cmd = [sys.executable, str(BENCH / "serve.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += ["serve", "--fast", "--jobs", "1", "--socket", "127.0.0.1:0",
                "--spool", str(tmp / "spool")]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        # If this client dies, run.py finds the server's session here.
        (tmp / "server.pid").write_text(str(self.proc.pid))

    def endpoint(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            match = _ENDPOINT.search(self.log_path.read_text())
            if match:
                return f"{match.group(1)}:{match.group(2)}"
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "server did not come up:\n" + self.log_path.read_text()[-2000:]
                )
            time.sleep(0.02)

    def stop(self, client=None) -> None:
        """Drain and stop; kill whatever is left; wait for every process."""
        from repro.errors import ServiceError

        if client is not None and self.proc.poll() is None:
            try:
                client.drain(stop=True)
            except ServiceError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        end_session(self.proc.pid, grace_s=20.0)


def end_session(sid: int, grace_s: float = 0.0) -> None:
    """Wait up to ``grace_s`` for session ``sid`` to exit, then kill the
    rest, and return only once every process in it is gone."""
    deadline = time.monotonic() + grace_s
    while True:
        left = _session_pids(sid)
        if not left:
            return
        if time.monotonic() >= deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


# -- the workload ----------------------------------------------------------------


def run(seed: int, tmp: Path, expected: Optional[Dict[str, str]],
        trace_dir: Optional[Path] = None, sizes: Sizes = DEFAULT) -> Dict:
    """Run the workload once; a summary for the orchestrator (see child.py).

    ``expected`` maps pool labels to metric digests (``None`` skips the
    check).  With ``trace_dir`` the server's pool worker writes its spans
    there and the summary carries the per-layer attribution.
    """
    from repro.core.config import VTQConfig
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    specs = pool(sizes)
    plan = schedule(seed, sizes)
    # One job per (scene, policy) at a point outside the pool, so no
    # measured job is a dedupe hit for it: scenes, BVHs and plans get
    # built, and the memory trace every replayed point shares is
    # recorded once, as a long-running server would have done already.
    warmups = {
        "baseline": {"gpu_overrides": (("dram_latency", WARMUP_DRAM),)},
        "prefetch": {"gpu_overrides": (("dram_latency", WARMUP_DRAM),)},
        "vtq": {"vtq": VTQConfig().scaled_to(WARMUP_VTQ_RAYS)},
    }
    wall_to_mono = time.time() - perf_counter()
    server = Server(tmp, trace_dir)
    client = None
    try:
        client = ServiceClient(endpoint=server.endpoint(), timeout=60.0)
        warm_ids = [
            client.submit(scene, policy, client_id="warmup", **warmup)
            for scene in sizes.served_scenes
            for policy, warmup in warmups.items()
        ]
        warm = _wait_idle(client, warm_ids, timeout=120.0)
        ready = time.time()

        origin = time.time() + 0.05
        sends = []
        for offset, index in plan:
            due = origin + offset
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            sent = time.time()
            spec = specs[index]
            try:
                job_id = client.submit(
                    spec.scene, spec.policy, gpu_overrides=spec.gpu_overrides,
                    client_id="bench",
                )
                error = None
            except ServiceError as exc:
                job_id, error = None, f"{type(exc).__name__}: {exc}"
            sends.append({"due": due, "sent": sent, "acked": time.time(),
                          "job_id": job_id, "index": index, "error": error})
        admitted = [s["job_id"] for s in sends if s["job_id"] is not None]
        records = dict(zip(admitted, _wait_idle(client, admitted, timeout=150.0)))
        hwm_kb = tree_hwm_kb(server.proc.pid)
    finally:
        server.stop(client)

    summary = _summarize(specs, sends, records, warm, expected, origin, ready)
    summary["rss_kb"] = hwm_kb
    if trace_dir is not None:
        summary["trace"] = _attribute(trace_dir, specs, sends, records, warm,
                                      wall_to_mono)
    return summary


def _wait_idle(client, job_ids, timeout: float) -> List[Dict]:
    """Wait until the server has nothing queued or running, then return
    the jobs' full records.  One ``health`` call per poll keeps the
    server's event loop free for the work being waited on."""
    deadline = time.monotonic() + timeout
    while True:
        health = client.health()
        if health["queue_depth"] == 0 and health["running"] == 0:
            return [client.result(job_id) for job_id in job_ids]
        if time.monotonic() > deadline:
            raise TimeoutError(f"server still busy after {timeout:g}s")
        time.sleep(0.01)


def _summarize(specs, sends, records, warm, expected, origin, ready) -> Dict:
    latencies: List[Optional[float]] = []
    notes: List[str] = []
    failed = 0
    counts = {"rays": 0, "warps": 0, "node_visits": 0}
    run_times, waits, finished = [], [], []
    deduped = 0
    for record in warm:
        if record["state"] != "done":
            notes.append(f"warm-up {record['spec']['scene']}: {record['state']}")
            failed += 1
    for send in sends:
        label = specs[send["index"]].label()
        record = records.get(send["job_id"])
        if record is None:
            latencies.append(None)
            failed += 1
            notes.append(f"{label}: rejected ({send['error']})")
            continue
        if record["state"] != "done":
            latencies.append(None)
            failed += 1
            notes.append(f"{label}: {record['state']} {record.get('error')}")
            continue
        latencies.append(record["finished_at"] - send["due"])
        finished.append(record["finished_at"])
        if expected is not None and digest(record["result"]) != expected.get(label):
            failed += 1
            notes.append(f"{label}: metric digest mismatch")
        result = record["result"]
        counts["rays"] += result["rays_traced"]
        counts["warps"] += result["warps"]
        counts["node_visits"] += result["node_visits"]
        if record["deduped"]:
            deduped += 1
        else:
            waits.append(record["started_at"] - record["submitted_at"])
            run_times.append(record["finished_at"] - record["started_at"])
    return {
        "ready_wall": ready,
        "wall_s": (max(finished) if finished else time.time()) - origin,
        "latencies": latencies,
        "attempted": len(sends),
        "failed": failed,
        "notes": notes,
        **counts,
        "run_times": run_times,
        "service": {
            "queue_waits": waits,
            "submit_rtts": [s["acked"] - s["sent"] for s in sends],
            "late": [s["sent"] - s["due"] for s in sends],
            "deduped": deduped,
            "rejected": sum(1 for s in sends if s["job_id"] is None),
        },
    }


def _attribute(trace_dir: Path, specs, sends, records, warm, wall_to_mono) -> Dict:
    """Layer totals from the worker's spans, and each job's unattributed time.

    The totals cover every case the worker ran, warm-ups included.  With
    one pool worker, cases run in dispatch order, so the i-th case root
    span belongs to the i-th dispatched job (labels are checked).  What a
    measured job's ``run`` interval holds outside its case span -- pool
    hand-off, pickling, spool writes -- is its unattributed time.
    """
    from tracer import sum_tallies

    states = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        with open(path) as f:
            states.append(json.load(f))
    roots = sorted(
        (span for state in states for span in state["spans"]
         if span["parent"] == -1 and span["name"] == "runner.case"),
        key=lambda span: span["start"],
    )
    load = {send["job_id"]: send for send in sends if send["job_id"] in records}
    dispatched = sorted(
        (r for r in list(warm) + list(records.values())
         if r.get("dispatch_index") is not None),
        key=lambda r: r["dispatch_index"],
    )
    overheads, jobs = [], []
    latency_total = sum(
        records[job_id]["finished_at"] - send["due"]
        for job_id, send in load.items() if records[job_id].get("finished_at")
    )
    for record, root in zip(dispatched, roots):
        if record["job_id"] not in load:
            continue
        run = record["finished_at"] - record["started_at"]
        label = specs[load[record["job_id"]]["index"]].label()
        if root["case"] != label:
            overheads.append(run)
            continue
        overheads.append(run - (root["end"] - root["start"]))
        jobs.append({
            "index": len(jobs),
            "label": label,
            "submitted": record["submitted_at"] - wall_to_mono,
            "started": record["started_at"] - wall_to_mono,
            "finished": record["finished_at"] - wall_to_mono,
        })
    unattributed = sum(overheads)
    return {
        "tally": sum_tallies(state["tally"] for state in states),
        "overheads": overheads,
        "unattributed_s": unattributed,
        "coverage": 1.0 - unattributed / latency_total if latency_total else 0.0,
        "processes": [
            {"pid": state["pid"], "spans": state["spans"]} for state in states
        ],
        "jobs": jobs,
    }
