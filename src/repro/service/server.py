"""The asyncio front end: sockets in, job records out.

:class:`SimulationServer` ties the serving pieces together — spool store,
admission-controlled queue, scene-batching scheduler — behind a
line-delimited JSON protocol (see :mod:`repro.service.protocol`) on a
unix-domain socket (default) or localhost TCP.  Verbs:

``submit``   admit one case as a job → ``{"job_id": ...}`` or a typed
             rejection (``queue-full`` / ``client-quota`` / ``draining``
             / ``circuit-open``); load rejections carry a
             machine-readable ``retry_after_s`` backoff hint
``status``   one job's record, without the result payload
``result``   one job's full record, including metrics once ``done``
``cancel``   cancel a *queued* job; running/terminal jobs are refused
``drain``    stop admitting, wait until queue and workers are idle;
             ``{"stop": true}`` also shuts the server down afterwards
``health``   queue depth, running count, per-state job counts, worker
             pool size, disk-cache hit/compute counters, uptime
``metrics``  the process-wide metrics registry: Prometheus text by
             default, the JSON snapshot with ``{"format": "json"}``
``batch``    bulk submission: many cases, one round trip, per-item
             typed admission outcomes
``register`` / ``heartbeat`` / ``deregister``
             worker-node membership (see :mod:`repro.service.fleet`)
``nodes`` / ``route``
             fleet introspection: registry snapshot, and where a scene's
             next job would be routed

A raw HTTP request line instead of JSON reaches the built-in gateway
(``GET /metrics|/health|/jobs[/<id>[/stream]]``, ``POST /submit|/batch``
— see ``_serve_http``), so curl, a Prometheus scraper or an EventSource
can use the same endpoint without a client library.

With worker nodes registered, admitted jobs are routed to the node
rendezvous-owning their scene (shard affinity — BVH/treelet-warm nodes
keep their scenes) and identical resubmissions are answered from the
content-addressed result cache without dispatching at all
(docs/SERVICE.md).

On start the server re-adopts spooled jobs (``queued`` as-is; orphaned
``running`` jobs reset to ``queued``) so a restart never loses admitted
work.  The ``health`` cache hit/compute counters are read from the
``repro_cache_events_total`` metric and count from the server's start.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import time
from pathlib import Path
from typing import Dict, Optional
from urllib.parse import parse_qs, urlsplit

from repro.errors import AdmissionRejected, ServiceError
from repro.experiments.parallel import jobs_from_env
from repro.experiments.runner import (
    ExperimentContext,
    cache_events,
    default_context,
)
from repro.obs import registry as obs_registry
from repro.scenes import scene_names
from repro.service import protocol
from repro.service import jobs as jobstates
from repro.service.fleet import FleetRegistry
from repro.service.jobs import (
    JobStore,
    check_gpu_overrides,
    new_job,
    spec_from_dict,
)
from repro.service.queue import JobQueue
from repro.service.resultcache import ResultCache, dedupe_enabled, result_key
from repro.service.scheduler import Scheduler
from repro.tracing.render import POLICIES

logger = logging.getLogger("repro.service.server")

# Admission and crash-retry limits (``repro serve --queue-max`` overrides
# the queue depth).
QUEUE_MAX = 64
CLIENT_MAX = 32
RETRIES = 1


class SimulationServer:
    """One long-lived simulation-serving process."""

    def __init__(
        self,
        context: Optional[ExperimentContext] = None,
        spool: Optional[Path] = None,
        endpoint: Optional[protocol.Endpoint] = None,
        jobs: Optional[int] = None,
        queue_max: Optional[int] = None,
        tenant_max: Optional[int] = None,
        fast: bool = False,
        node_id: Optional[str] = None,
        join: Optional[str] = None,
    ):
        self.context = context if context is not None else default_context(fast=fast)
        self.spool = Path(spool) if spool is not None else protocol.spool_dir()
        self.spool.mkdir(parents=True, exist_ok=True)
        self.endpoint = (
            endpoint if endpoint is not None else protocol.resolve_endpoint()
        )
        self.jobs = jobs if jobs is not None else jobs_from_env()
        self.store = JobStore(self.spool / "jobs")
        self.queue = JobQueue(
            max_depth=queue_max if queue_max is not None else QUEUE_MAX,
            per_client_max=CLIENT_MAX,
            # 0 or None: no per-tenant quota.
            per_tenant_max=tenant_max or None,
        )
        # Worker mode: `--join <head>` makes this server register itself
        # with a head server and heartbeat; the head routes jobs here.
        self.join = join
        self.node_id = node_id or f"node-{os.getpid()}"
        if self.join and not isinstance(self.endpoint, tuple):
            raise ServiceError(
                "a worker node needs a TCP endpoint the head can dial "
                "(set REPRO_SERVICE_TCP or --socket host:port)"
            )
        # Head-side fleet state: registry (empty until workers register;
        # a worker node never accepts registrations of its own — no
        # nested fleets) and the content-addressed result dedupe cache.
        self.fleet = FleetRegistry() if not self.join else None
        self.result_cache = ResultCache(self.spool / "results")
        self.scheduler = Scheduler(
            self.store,
            self.queue,
            self.context,
            jobs=self.jobs,
            retries=RETRIES,
            fleet=self.fleet,
            result_cache=self.result_cache,
        )
        self.draining = False
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._cache_base = {"hit": 0.0, "compute": 0.0}
        self.adopted = 0

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Re-adopt spooled jobs, bind the socket, start dispatching."""
        self._stop_event = asyncio.Event()
        for job in self.store.adopt():
            self.queue.admit_adopted(job)
            self.adopted += 1
        if self.adopted:
            logger.info("re-adopted %d spooled job(s)", self.adopted)
        if isinstance(self.endpoint, tuple):
            host, port = self.endpoint
            self._server = await asyncio.start_server(
                self._handle_client, host=host, port=port
            )
            # Ephemeral ports (port 0) resolve at bind time.
            self.endpoint = self._server.sockets[0].getsockname()[:2]
        else:
            path = Path(self.endpoint)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=str(path)
            )
        self.started_at = time.time()
        self._cache_base = _cache_event_counts()
        self.scheduler.kick()
        if self.join:
            self._heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop()
            )
        logger.info("serving on %s with %d worker(s)", self.endpoint, self.jobs)

    def _advertised_endpoint(self) -> str:
        host, port = self.endpoint  # worker mode guarantees TCP
        return f"{host}:{port}"

    async def _heartbeat_loop(self) -> None:
        """Worker-node membership: register with the head, then beat.

        Each wire call runs in a thread under the client's
        :class:`~repro.resilience.RetryPolicy` (register/heartbeat are
        idempotent verbs), so a transient head hiccup costs retries, not
        membership.  A head that restarted (and lost its in-memory
        registry) answers a beat with "unknown node"; that is the
        re-registration signal.
        """
        from repro.service.client import ServiceClient

        client = ServiceClient(endpoint=self.join, timeout=10.0)
        period = protocol.heartbeat_s()
        registered = False
        while True:
            try:
                if not registered:
                    await asyncio.to_thread(
                        client.register_node,
                        self.node_id,
                        self._advertised_endpoint(),
                        max(1, self.jobs),
                    )
                    registered = True
                    logger.info(
                        "registered with head %s as %s", self.join, self.node_id
                    )
                else:
                    await asyncio.to_thread(client.heartbeat, self.node_id)
            except ServiceError as exc:
                # Unknown-node means re-register next round; transport
                # failures just try again after the period.
                registered = registered and "unknown node" not in str(exc)
                logger.warning("heartbeat to %s failed: %s", self.join, exc)
            await asyncio.sleep(period)

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a ``drain {"stop": true}``)."""
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self._shutdown()

    def stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    async def _shutdown(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
            # Best-effort goodbye so the head stops routing here at once
            # instead of waiting out the TTL.
            from repro.service.client import ServiceClient

            try:
                await asyncio.to_thread(
                    ServiceClient(endpoint=self.join, timeout=2.0).deregister_node,
                    self.node_id,
                )
            except ServiceError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self.scheduler.stop()
        if not isinstance(self.endpoint, tuple):
            try:
                Path(self.endpoint).unlink()
            except OSError:
                pass
        logger.info("server stopped")

    # -- connection handling ---------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if line.startswith(b"GET ") or line.startswith(b"POST "):
                    # HTTP-gateway path: plain HTTP instead of the JSON
                    # protocol (grown out of the original `GET /metrics`
                    # escape hatch).  One request per connection,
                    # HTTP/1.0-style close after the response.
                    await self._serve_http(line, reader, writer)
                    break
                try:
                    request = protocol.decode(line)
                    response = await self._dispatch(request)
                except ServiceError as exc:
                    reason = getattr(exc, "reason", "error")
                    extra = {}
                    retry_after = getattr(exc, "retry_after_s", None)
                    if retry_after is not None:
                        # Machine-readable backoff hint (queue-full,
                        # client-quota, circuit-open rejections).
                        extra["retry_after_s"] = retry_after
                    response = protocol.error(str(exc), reason=reason, **extra)
                except Exception as exc:  # never kill the connection loop
                    logger.exception("request failed")
                    response = protocol.error(
                        f"internal error: {exc}", reason="internal"
                    )
                stop_after = response.pop("_stop_after_reply", False)
                writer.write(protocol.encode(response))
                await writer.drain()
                if stop_after:
                    self.stop()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:  # server shutting down mid-connection
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: Dict) -> Dict:
        op = request.get("op")
        if op == "submit":
            return self._op_submit(request)
        if op == "status":
            return self._op_record(request, include_result=False)
        if op == "result":
            return self._op_record(request, include_result=True)
        if op == "cancel":
            return self._op_cancel(request)
        if op == "drain":
            return await self._op_drain(request)
        if op == "health":
            return self._op_health()
        if op == "jobs":
            return self._op_jobs(request)
        if op == "metrics":
            return self._op_metrics(request)
        if op == "batch":
            return self._op_batch(request)
        if op in ("register", "heartbeat", "deregister", "nodes", "route"):
            return self._op_fleet(op, request)
        raise ServiceError(
            f"unknown op {op!r}; expected one of {', '.join(protocol.OPS)}"
        )

    # -- verbs -----------------------------------------------------------------

    def _op_submit(self, request: Dict) -> Dict:
        try:
            return self._admit(request)
        except AdmissionRejected as exc:
            obs_registry().counter(
                "repro_service_admission_rejections_total",
                "Submissions rejected at admission, by reason",
                ("reason",),
            ).labels(reason=getattr(exc, "reason", "error")).inc()
            raise

    def _admit(self, request: Dict) -> Dict:
        if self.draining:
            raise AdmissionRejected(
                "server is draining and admits no new jobs", reason="draining"
            )
        spec = spec_from_dict(
            {
                "scene": request.get("scene"),
                "policy": request.get("policy", "vtq"),
                "vtq": request.get("vtq"),
                "gpu_overrides": request.get("gpu_overrides"),
            }
        )
        if spec.scene not in scene_names(include_extra=True, include_gaussian=True):
            raise ServiceError(f"unknown scene {spec.scene!r}")
        if spec.policy not in POLICIES:
            raise ServiceError(
                f"unknown policy {spec.policy!r}; expected one of {POLICIES}"
            )
        check_gpu_overrides(spec.gpu_overrides, self.context.setup.gpu)
        # Normalised before the dedupe key: a legacy "replay" submission
        # and the equivalent "case" share one result.
        kind = jobstates.canonical_kind(request.get("kind"))
        params = request.get("params")
        if kind == "pareto":
            params = self._check_pareto_job(spec, params)
        elif params:
            raise ServiceError("params is only valid for pareto jobs")
        params = params if kind == "pareto" else None
        deadline = request.get("deadline_s")
        job = new_job(
            spec,
            client_id=str(request.get("client_id") or "anonymous"),
            priority=int(request.get("priority") or 0),
            deadline_s=float(deadline) if deadline is not None else None,
            kind=kind,
            params=params,
            tenant=str(request.get("tenant") or "public"),
        )
        # Content-addressed dedupe, checked before the breaker/fleet/queue
        # gates: an identical already-completed submission is answered
        # from the cache with zero dispatch, so it must not be turned
        # away by load shedding or an open circuit — serving it costs
        # nothing and touches no worker.
        cached = self.result_cache.lookup(
            result_key(kind, spec, self.context, params)
        )
        if cached is not None:
            job.state = jobstates.DONE
            job.deduped = True
            job.result = cached
            job.finished_at = time.time()
            self.store.save(job)
            obs_registry().counter(
                "repro_service_dedupe_hits_total",
                "Submissions answered from the fleet result cache",
                ("scene", "policy"),
            ).labels(scene=spec.scene, policy=spec.policy).inc()
            return protocol.ok(job_id=job.job_id, state=job.state, deduped=True)
        # A scene with an open circuit breaker is rejected at the door
        # (CircuitOpen is an AdmissionRejected, reason "circuit-open").
        self.scheduler.admission_check(spec.scene)
        if self.fleet is not None and self.fleet.fleet_mode():
            # Fleet admission: a submission that could never dispatch —
            # no live node, or every node's circuit open — is a typed
            # rejection at the door (non-consuming breaker check).
            self.fleet.route(job.scene_key(), consume=False)
        self.queue.submit(job)  # raises AdmissionRejected with a reason
        self.store.save(job)
        obs_registry().counter(
            "repro_service_submissions_total",
            "Jobs admitted into the queue",
            ("scene", "policy"),
        ).labels(scene=spec.scene, policy=spec.policy).inc()
        self.scheduler.kick()
        return protocol.ok(job_id=job.job_id, state=job.state)

    #: Top-level batch keys shared by every item unless it overrides them.
    _BATCH_DEFAULT_KEYS = ("client_id", "tenant", "priority", "deadline_s", "kind")

    def _op_batch(self, request: Dict) -> Dict:
        """Bulk submission: admit each item independently, one round trip.

        The reply's ``results`` list is aligned with ``items``; each
        entry is the item's own ``submit`` reply or its typed rejection
        (reason, ``retry_after_s``) — one full queue or tripped circuit
        never poisons the neighbouring items.
        """
        items = request.get("items")
        if not isinstance(items, list) or not items:
            raise ServiceError("batch needs a non-empty items list")
        defaults = {
            key: request[key]
            for key in self._BATCH_DEFAULT_KEYS
            if request.get(key) is not None
        }
        results = []
        for item in items:
            if not isinstance(item, dict):
                results.append(
                    protocol.error("batch items must be objects", reason="error")
                )
                continue
            merged = dict(defaults)
            merged.update(item)
            try:
                results.append(self._op_submit(merged))
            except ServiceError as exc:
                entry = protocol.error(
                    str(exc), reason=getattr(exc, "reason", "error")
                )
                retry_after = getattr(exc, "retry_after_s", None)
                if retry_after is not None:
                    entry["retry_after_s"] = retry_after
                results.append(entry)
        admitted = sum(1 for entry in results if entry.get("ok"))
        return protocol.ok(results=results, admitted=admitted)

    def _op_fleet(self, op: str, request: Dict) -> Dict:
        """Worker-node lifecycle and routing introspection verbs."""
        if self.fleet is None:
            raise ServiceError(
                f"this server is a worker node (--join); {op!r} is a "
                "head-server verb"
            )
        if op == "register":
            node = self.fleet.register(
                str(request.get("node_id") or ""),
                str(request.get("endpoint") or ""),
                int(request.get("slots") or 1),
            )
            # New capacity may unblock queued work at once.
            self.scheduler.kick()
            return protocol.ok(
                node=node.snapshot(),
                heartbeat_s=protocol.heartbeat_s(),
                ttl_s=self.fleet.ttl_s,
            )
        if op == "heartbeat":
            node = self.fleet.heartbeat(str(request.get("node_id") or ""))
            return protocol.ok(node_id=node.node_id, age_s=node.age_s())
        if op == "deregister":
            removed = self.fleet.deregister(str(request.get("node_id") or ""))
            return protocol.ok(removed=removed)
        if op == "nodes":
            return protocol.ok(
                nodes=self.fleet.snapshot(),
                fleet_mode=self.fleet.fleet_mode(),
                shard_hit_rate=self.fleet.shard_hit_rate(),
            )
        # route: where would this scene's next job land (non-consuming)?
        scene = request.get("scene")
        if not scene:
            raise ServiceError("route needs a scene")
        node = self.fleet.route(str(scene), consume=False)
        return protocol.ok(
            scene=str(scene), node_id=node.node_id, endpoint=node.endpoint
        )

    # Keyword arguments a pareto job may forward to ``run_pareto``.
    # ``jobs`` is deliberately absent: the sweep runs serially inside its
    # worker slot rather than nesting a second process pool.
    _PARETO_PARAM_KEYS = frozenset({
        "baseline_policy", "cache_axis", "queue_axis",
        "cache_values", "queue_values", "cache_count", "queue_count",
        "error_bound", "exact_fraction", "exact_budget",
        "frontier_epsilon", "seed",
    })

    @classmethod
    def _check_pareto_job(cls, spec, params) -> Dict:
        """Validate a pareto job's sweep parameters at admission.

        A bad grid axis or an impossible budget should be a synchronous
        "no" at submit time, not a failed job record minutes later."""
        from repro.surrogate import SurrogateError, axis_kind

        if spec.gpu_overrides or spec.vtq is not None:
            raise ServiceError(
                "pareto jobs sweep their own grid; submit without "
                "gpu_overrides/vtq and put the axes in params"
            )
        if params is None:
            params = {}
        if not isinstance(params, dict):
            raise ServiceError("pareto params must be an object")
        unknown = sorted(set(params) - cls._PARETO_PARAM_KEYS)
        if unknown:
            raise ServiceError(
                f"unknown pareto params {unknown}; expected a subset of "
                f"{sorted(cls._PARETO_PARAM_KEYS)}"
            )
        out: Dict = {}
        try:
            for key in ("cache_axis", "queue_axis"):
                if key in params:
                    try:
                        axis_kind(str(params[key]))
                    except SurrogateError as exc:
                        raise ServiceError(str(exc)) from exc
                    out[key] = str(params[key])
            for key in ("cache_values", "queue_values"):
                if params.get(key) is not None:
                    values = [float(v) for v in params[key]]
                    if not values or any(v <= 0 for v in values):
                        raise ServiceError(
                            f"{key} must be a non-empty list of positive "
                            f"numbers"
                        )
                    out[key] = values
            for key in ("cache_count", "queue_count"):
                if key in params:
                    count = int(params[key])
                    if count < 2:
                        raise ServiceError(f"{key} must be >= 2")
                    out[key] = count
            for key in ("error_bound", "exact_fraction"):
                if key in params:
                    bound = float(params[key])
                    if not 0.0 < bound <= 1.0:
                        raise ServiceError(f"{key} must be in (0, 1]")
                    out[key] = bound
            if params.get("exact_budget") is not None:
                budget = int(params["exact_budget"])
                if budget < 12:
                    raise ServiceError("exact_budget must be >= 12")
                out["exact_budget"] = budget
            if "frontier_epsilon" in params:
                eps = float(params["frontier_epsilon"])
                if eps < 0.0:
                    raise ServiceError("frontier_epsilon must be >= 0")
                out["frontier_epsilon"] = eps
            if "seed" in params:
                out["seed"] = int(params["seed"])
            if "baseline_policy" in params:
                base = str(params["baseline_policy"])
                if base not in POLICIES:
                    raise ServiceError(
                        f"unknown baseline_policy {base!r}; expected one "
                        f"of {POLICIES}"
                    )
                out["baseline_policy"] = base
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"unusable pareto params: {exc}") from exc
        return out

    def _require_job_id(self, request: Dict) -> str:
        job_id = request.get("job_id")
        if not job_id:
            raise ServiceError("request needs a job_id")
        return str(job_id)

    def _op_record(self, request: Dict, include_result: bool) -> Dict:
        job = self.store.load(self._require_job_id(request))
        record = job.to_record()
        if not include_result:
            record.pop("result", None)
        return protocol.ok(job=record)

    def _op_cancel(self, request: Dict) -> Dict:
        job_id = self._require_job_id(request)
        queued = self.queue.cancel(job_id)
        if queued is not None:
            queued.state = jobstates.CANCELLED
            queued.finished_at = time.time()
            self.store.save(queued)
            return protocol.ok(job_id=job_id, state=queued.state)
        job = self.store.load(job_id)  # unknown ids error here
        if job.state == jobstates.RUNNING:
            raise ServiceError(
                f"job {job_id} is already running and cannot be cancelled",
            )
        raise ServiceError(f"job {job_id} is already {job.state}")

    async def _op_drain(self, request: Dict) -> Dict:
        self.draining = True
        await self.scheduler.drain()
        response = protocol.ok(drained=True, states=self.store.counts())
        if request.get("stop"):
            # The reply still goes out; the handler stops the server after.
            response["_stop_after_reply"] = True
        return response

    def _op_jobs(self, request: Dict) -> Dict:
        """Job summaries (no result payloads), optionally state-filtered."""
        state = request.get("state")
        if state is not None and state not in jobstates.STATES:
            raise ServiceError(
                f"unknown state {state!r}; expected one of {jobstates.STATES}"
            )
        summaries = []
        for job in self.store.list():
            if state is not None and job.state != state:
                continue
            summaries.append(
                {
                    "job_id": job.job_id,
                    "state": job.state,
                    "kind": job.kind,
                    "scene": job.spec.scene,
                    "policy": job.spec.policy,
                    "client_id": job.client_id,
                    "priority": job.priority,
                    "attempts": job.attempts,
                    "dispatch_index": job.dispatch_index,
                    "submitted_at": job.submitted_at,
                    "error": job.error["type"] if job.error else None,
                }
            )
        return protocol.ok(jobs=summaries)

    def _op_health(self) -> Dict:
        fleet: Optional[Dict] = None
        if self.fleet is not None:
            fleet = {
                "nodes": self.fleet.snapshot(),
                "fleet_mode": self.fleet.fleet_mode(),
                "shard_hit_rate": self.fleet.shard_hit_rate(),
                "node_breakers": self.fleet.breakers.snapshot(),
            }
        return protocol.ok(
            queue_depth=len(self.queue),
            running=self.scheduler.running_count,
            states=self.store.counts(),
            draining=self.draining,
            workers=self.jobs,
            adopted=self.adopted,
            dispatched=len(self.scheduler.dispatch_log),
            breakers=self.scheduler.breakers.snapshot(),
            cache=self._cache_stats(),
            dedupe={
                "enabled": dedupe_enabled(),
                "entries": len(self.result_cache),
            },
            fleet=fleet,
            node_id=self.node_id if self.join else None,
            uptime_s=(
                time.time() - self.started_at if self.started_at else 0.0
            ),
        )

    def _cache_stats(self) -> Dict:
        """Disk result-cache hits and computes since :meth:`start`.

        Pool workers ship their ``repro_cache_events_total`` deltas home
        with each case, so this process's registry sees every event.
        """
        now = _cache_event_counts()
        hits = int(now["hit"] - self._cache_base["hit"])
        computes = int(now["compute"] - self._cache_base["compute"])
        total = hits + computes
        return {
            "hits": hits,
            "computes": computes,
            "hit_rate": hits / total if total else 0.0,
        }

    # -- metrics (docs/OBSERVABILITY.md) ---------------------------------------

    def _update_scrape_gauges(self) -> None:
        """Refresh the point-in-time gauges the exposition reports."""
        reg = obs_registry()
        reg.gauge(
            "repro_service_queue_depth", "Jobs currently queued"
        ).labels().set(len(self.queue))
        reg.gauge(
            "repro_service_running", "Jobs currently executing"
        ).labels().set(self.scheduler.running_count)
        reg.gauge(
            "repro_service_draining", "1 while the server refuses admissions"
        ).labels().set(1 if self.draining else 0)
        reg.gauge(
            "repro_service_workers", "Worker pool size"
        ).labels().set(self.jobs)
        reg.gauge(
            "repro_service_uptime_seconds", "Seconds since the server started"
        ).labels().set(
            time.time() - self.started_at if self.started_at else 0.0
        )
        jobs_by_state = reg.gauge(
            "repro_service_jobs", "Job records by lifecycle state", ("state",)
        )
        for state, count in self.store.counts().items():
            jobs_by_state.labels(state=state).set(count)
        reg.gauge(
            "repro_service_cache_hit_rate",
            "Disk result-cache hit rate since the server started",
        ).labels().set(self._cache_stats()["hit_rate"])
        if self.fleet is not None:
            reg.gauge(
                "repro_service_fleet_nodes", "Registered worker nodes"
            ).labels().set(len(self.fleet))
            reg.gauge(
                "repro_service_fleet_live_nodes",
                "Worker nodes with a fresh heartbeat",
            ).labels().set(len(self.fleet.live_nodes()))
            reg.gauge(
                "repro_service_shard_hit_rate",
                "Fraction of dispatches routed to their rendezvous owner",
            ).labels().set(self.fleet.shard_hit_rate())
        reg.gauge(
            "repro_service_dedupe_entries",
            "Entries in the fleet content-addressed result cache",
        ).labels().set(len(self.result_cache))

    def _op_metrics(self, request: Dict) -> Dict:
        """``metrics`` verb: Prometheus text, or a JSON snapshot."""
        self._update_scrape_gauges()
        reg = obs_registry()
        if request.get("format") == "json":
            return protocol.ok(metrics=reg.snapshot())
        return protocol.ok(text=reg.render_prometheus())

    # -- HTTP gateway ----------------------------------------------------------
    #
    # A deliberately tiny HTTP/1.0 server grown out of the original
    # `GET /metrics` escape hatch: curl-able without any client library,
    # one request per connection, JSON everywhere except the Prometheus
    # exposition.  Routes:
    #
    #   GET  /metrics             Prometheus text exposition
    #   GET  /health              the `health` verb as JSON
    #   GET  /jobs[?state=...]    job summaries
    #   GET  /jobs/<id>           one full job record
    #   GET  /jobs/<id>/stream    Server-Sent Events job progress: one
    #                             `data:` event per state change, closing
    #                             after the terminal state
    #   POST /submit              the `submit` verb (JSON body)
    #   POST /batch               the `batch` verb (JSON body)

    async def _serve_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, target = request_line.decode("latin-1").split()[:2]
        except (UnicodeDecodeError, ValueError):
            await self._http_reply(writer, 400, {"error": "malformed request"})
            return
        # Drain the headers; the only one that matters is Content-Length.
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    pass
        body: Dict = {}
        if method == "POST" and content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                await self._http_reply(
                    writer, 400, {"error": f"request body is not JSON: {exc}"}
                )
                return
            if not isinstance(body, dict):
                await self._http_reply(
                    writer, 400, {"error": "request body must be a JSON object"}
                )
                return
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        try:
            await self._http_route(method, path, query, body, writer)
        except ServiceError as exc:
            payload = {
                "error": str(exc),
                "reason": getattr(exc, "reason", "error"),
            }
            retry_after = getattr(exc, "retry_after_s", None)
            if retry_after is not None:
                payload["retry_after_s"] = retry_after
            status = 429 if isinstance(exc, AdmissionRejected) else 400
            await self._http_reply(writer, status, payload)
        except Exception as exc:  # pragma: no cover - parity with JSON path
            logger.exception("http request failed")
            await self._http_reply(writer, 500, {"error": f"internal error: {exc}"})

    async def _http_route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        body: Dict,
        writer: asyncio.StreamWriter,
    ) -> None:
        if method == "GET" and path == "/metrics":
            self._update_scrape_gauges()
            text = obs_registry().render_prometheus().encode("utf-8")
            await self._http_reply(
                writer, 200, raw=text,
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if method == "GET" and path == "/health":
            await self._http_reply(writer, 200, self._op_health())
            return
        if method == "GET" and path == "/jobs":
            await self._http_reply(writer, 200, self._op_jobs(dict(query)))
            return
        if method == "GET" and path.startswith("/jobs/"):
            tail = path[len("/jobs/"):]
            if tail.endswith("/stream"):
                await self._http_stream_job(tail[: -len("/stream")], writer)
                return
            record = self._op_record({"job_id": tail}, include_result=True)
            await self._http_reply(writer, 200, record)
            return
        if method == "POST" and path == "/submit":
            await self._http_reply(writer, 200, self._op_submit(body))
            return
        if method == "POST" and path == "/batch":
            await self._http_reply(writer, 200, self._op_batch(body))
            return
        await self._http_reply(
            writer, 404, {"error": f"no route for {method} {path}"}
        )

    async def _http_stream_job(
        self, job_id: str, writer: asyncio.StreamWriter, poll_s: float = 0.05
    ) -> None:
        """Server-Sent Events job progress: one event per state change.

        Emits the job's summary immediately, then every time its state
        changes, and closes after the terminal event — `curl -N` (or an
        EventSource) watches a job land without polling the verb API.
        """
        job = self.store.load(job_id)  # 404s (as ServiceError) before headers
        writer.write(
            b"HTTP/1.0 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"\r\n"
        )
        last_state: Optional[str] = None
        while True:
            if job.state != last_state:
                record = job.to_record()
                record.pop("result", None)
                writer.write(
                    b"data: " + json.dumps(record, sort_keys=True).encode()
                    + b"\n\n"
                )
                await writer.drain()
                last_state = job.state
            if job.terminal():
                return
            await asyncio.sleep(poll_s)
            job = self.store.load(job_id)

    @staticmethod
    async def _http_reply(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Optional[Dict] = None,
        raw: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> None:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   429: "Too Many Requests", 500: "Internal Server Error"}
        body = raw if raw is not None else json.dumps(
            payload or {}, sort_keys=True
        ).encode("utf-8")
        head = (
            f"HTTP/1.0 {status} {reasons.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


def _cache_event_counts() -> Dict[str, float]:
    """Disk result-cache hits and computes this process has counted."""
    events = cache_events()
    return {event: events.labels(event=event).value
            for event in ("hit", "compute")}
