"""Typed jobs and the crash-safe spool store.

A :class:`Job` wraps one :class:`repro.experiments.parallel.CaseSpec`
with the serving metadata the scheduler needs — priority, an optional
deadline, the submitting client — and a lifecycle state::

    queued ──> running ──> done
       │           └─────> failed
       └─────────────────> cancelled

Every state transition is persisted as an **atomic JSON record** (write
to ``<id>.json.tmp``, ``os.replace`` into place) under the spool
directory, so a crashed or restarted server finds a consistent record
per job: either the old state or the new one, never a torn file.  On
restart :meth:`JobStore.adopt` returns the jobs that should re-enter the
queue — everything spooled as ``queued``, plus ``running`` jobs the dead
server never finished (cases are idempotent and cached, so re-running
one is safe and usually a cache hit).
"""

from __future__ import annotations

import json
import math
import os
import time
import uuid
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.config import VTQConfig
from repro.errors import ServiceError
from repro.experiments.parallel import CaseSpec
from repro.gpusim.config import GPUConfig

RECORD_VERSION = "1"

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

# ``case`` jobs run one case (with any GPU overrides) through
# ``run_case``.  ``pareto`` jobs run a whole surrogate-priced frontier
# sweep (``repro.surrogate.run_pareto``) for the spec's scene/policy; the
# grid and budget live in ``Job.params``.
KINDS = ("case", "pareto")

# Retired kinds that older clients and spool records still carry, and
# the kind each runs as.
KIND_ALIASES = {"replay": "case"}


def canonical_kind(kind) -> str:
    """The job kind ``kind`` runs as (default ``case``); raises on unknown."""
    kind = str(kind or KINDS[0])
    kind = KIND_ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise ServiceError(f"unknown job kind {kind!r}; expected one of {KINDS}")
    return kind


def spec_to_dict(spec: CaseSpec) -> Dict:
    return {
        "scene": spec.scene,
        "policy": spec.policy,
        "vtq": asdict(spec.vtq) if spec.vtq is not None else None,
        "gpu_overrides": (
            [list(pair) for pair in spec.gpu_overrides]
            if spec.gpu_overrides else None
        ),
    }


def spec_from_dict(payload: Dict) -> CaseSpec:
    try:
        vtq = payload.get("vtq")
        overrides = payload.get("gpu_overrides")
        return CaseSpec(
            scene=payload["scene"],
            policy=payload["policy"],
            vtq=VTQConfig(**vtq) if vtq is not None else None,
            gpu_overrides=(
                tuple((str(name), value) for name, value in overrides)
                if overrides else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"unusable case spec {payload!r}: {exc}") from exc


def check_gpu_overrides(overrides, gpu: GPUConfig) -> None:
    """Refuse ``(name, value)`` overrides a worker could not run on ``gpu``.

    Each name must be a :class:`GPUConfig` field and each value a finite
    number (a bool for bool fields such as ``detailed_dram``; a number or
    null for ``l1_assoc``), and ``GPUConfig`` must accept the result.
    """
    if not overrides:
        return
    defaults = {f.name: f.default for f in fields(GPUConfig)}
    for name, value in overrides:
        if name not in defaults:
            raise ServiceError(f"gpu_overrides: {name!r} is not a GPUConfig field")
        if isinstance(defaults[name], bool):
            ok = isinstance(value, bool)
        elif value is None:
            ok = defaults[name] is None
        else:
            ok = (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and math.isfinite(value)
            )
        if not ok:
            raise ServiceError(
                f"gpu_overrides: {name}={value!r} is not a valid {name} value"
            )
    try:
        replace(gpu, **dict(overrides))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"gpu_overrides {dict(overrides)!r}: {exc}") from exc


@dataclass
class Job:
    """One unit of serving work: a case plus scheduling metadata."""

    job_id: str
    client_id: str
    spec: CaseSpec
    # "case" or "pareto" (see KINDS).
    kind: str = "case"
    priority: int = 0
    # Wall-clock seconds from submission the job may take, end to end;
    # the scheduler folds the *remaining* allowance into the case budget.
    deadline_s: Optional[float] = None
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    # Execution attempts so far (a worker crash consumes one and retries).
    attempts: int = 0
    # Position in the scheduler's global dispatch order (batching proof).
    dispatch_index: Optional[int] = None
    # Kind-specific knobs: for ``pareto`` jobs, keyword arguments for
    # ``run_pareto`` (grid axes/values, error bound, budget, seed, ...)
    # validated at admission; ``None`` for plain case jobs.
    params: Optional[Dict] = None
    result: Optional[Dict] = None
    error: Optional[Dict] = None
    # Quota bucket coarser than client_id (many clients per tenant);
    # the queue bounds queued jobs per tenant (see JobQueue).
    tenant: str = "public"
    # True when admission served this job straight from the fleet-wide
    # content-addressed result cache — no dispatch ever happened.
    deduped: bool = False
    # time.monotonic() when the job (re-)entered the queue, stamped by
    # JobQueue.submit.  This — not submitted_at — anchors deadline math,
    # so a wall-clock (NTP) step can't expire or inflate a budget.
    # Deliberately NOT persisted: a monotonic reading is meaningless in
    # another process, so a job re-adopted after a server restart comes
    # back with None and gets a fresh full deadline allowance when the
    # new server's queue stamps it again.
    admitted_monotonic: Optional[float] = None

    def scene_key(self) -> str:
        """The batching key: jobs sharing it reuse warmed scene/BVH
        caches, so the scheduler runs them consecutively."""
        return self.spec.scene

    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def label(self) -> str:
        return f"{self.job_id}({self.spec.label()})"

    def to_record(self) -> Dict:
        record = asdict(self)
        record["spec"] = spec_to_dict(self.spec)
        record["version"] = RECORD_VERSION
        # Monotonic readings don't survive the process; see the field.
        record.pop("admitted_monotonic", None)
        return record

    @classmethod
    def from_record(cls, record: Dict) -> "Job":
        if record.get("version") != RECORD_VERSION:
            raise ServiceError(
                f"job record version {record.get('version')!r} is not "
                f"{RECORD_VERSION!r}"
            )
        payload = {k: v for k, v in record.items() if k != "version"}
        try:
            payload["spec"] = spec_from_dict(payload["spec"])
            job = cls(**payload)
        except (KeyError, TypeError) as exc:
            raise ServiceError(f"unusable job record: {exc}") from exc
        if job.state not in STATES:
            raise ServiceError(f"job {job.job_id} has unknown state {job.state!r}")
        job.kind = canonical_kind(job.kind)
        return job


def new_job(
    spec: CaseSpec,
    client_id: str = "anonymous",
    priority: int = 0,
    deadline_s: Optional[float] = None,
    kind: str = "case",
    params: Optional[Dict] = None,
    tenant: str = "public",
) -> Job:
    """A fresh ``queued`` job with a unique id, stamped now."""
    if deadline_s is not None and deadline_s <= 0:
        raise ServiceError("deadline_s must be positive when set")
    kind = canonical_kind(kind)
    if params is not None and kind != "pareto":
        raise ServiceError("params is only valid for pareto jobs")
    return Job(
        job_id=uuid.uuid4().hex[:12],
        client_id=client_id or "anonymous",
        spec=spec,
        kind=kind,
        priority=int(priority),
        deadline_s=deadline_s,
        submitted_at=time.time(),
        params=dict(params) if params is not None else None,
        tenant=tenant or "public",
    )


class JobStore:
    """Atomic one-file-per-job persistence under a spool directory."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_tmp()

    def _sweep_tmp(self) -> int:
        """Remove orphaned ``*.json.tmp`` files; how many were removed.

        :meth:`save` writes ``<id>.json.tmp`` then ``os.replace``\\ s it
        into place; a crash between the two leaks the tmp file forever
        (it never matches the ``*.json`` glob, so nothing else would
        touch it).  The real record — old state or new — is intact by
        construction, so the orphan is pure garbage.
        """
        swept = 0
        for orphan in self.root.glob("*.json.tmp"):
            try:
                orphan.unlink()
                swept += 1
            except OSError:  # pragma: no cover - racing unlink is fine
                continue
        return swept

    def path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.json"

    def save(self, job: Job) -> None:
        """Persist ``job`` atomically (tmp write + rename)."""
        path = self.path(job.job_id)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w") as handle:
            json.dump(job.to_record(), handle)
        os.replace(tmp, path)

    def load(self, job_id: str) -> Job:
        path = self.path(job_id)
        try:
            with open(path) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            raise ServiceError(f"no such job {job_id!r}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ServiceError(f"unreadable job record {path.name}: {exc}") from exc
        return Job.from_record(record)

    def list(self) -> List[Job]:
        """Every readable job record, oldest submission first.

        An unreadable record (torn by a crash mid-rename on exotic
        filesystems, or hand-damaged) is skipped, never fatal — the
        server must come back up with whatever is intact.
        """
        jobs = []
        for path in sorted(self.root.glob("*.json")):
            try:
                with open(path) as handle:
                    jobs.append(Job.from_record(json.load(handle)))
            except (OSError, json.JSONDecodeError, ServiceError):
                continue
        jobs.sort(key=lambda job: (job.submitted_at, job.job_id))
        return jobs

    def counts(self) -> Dict[str, int]:
        """Job count per lifecycle state (zero-filled)."""
        counts = {state: 0 for state in STATES}
        for job in self.list():
            counts[job.state] += 1
        return counts

    def adopt(self) -> List[Job]:
        """Jobs a restarting server must re-queue, in submission order.

        ``queued`` records re-enter the queue as they are; ``running``
        records were in flight when the previous server died — they are
        reset to ``queued`` (keeping their attempt count) and persisted,
        then re-queued.  Terminal records are left untouched.
        """
        adopted = []
        for job in self.list():
            if job.state == QUEUED:
                adopted.append(job)
            elif job.state == RUNNING:
                job.state = QUEUED
                job.started_at = None
                job.dispatch_index = None
                self.save(job)
                adopted.append(job)
        return adopted
