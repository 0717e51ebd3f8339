"""Worker-node registry, shard-aware routing and remote dispatch.

This is ROADMAP item 3 — the paper's treelet-locality argument applied
one level up.  Inside one simulation, grouping rays by treelet keeps the
working set resident; across a fleet, routing every job for a scene to
the *same worker node* keeps that node's scene/BVH caches (in-process
LRU and disk cache alike) warm, so a fleet of N nodes behaves like N
disjoint shards instead of N cold caches.

**Membership** is heartbeat-based over the ordinary line-JSON protocol:
a worker (`repro serve --join <head>`) registers itself, then beats
every ``REPRO_SERVICE_HEARTBEAT_S`` under the client's
:class:`~repro.resilience.RetryPolicy`.  A node whose last beat is older
than ``REPRO_SERVICE_NODE_TTL_S`` stops receiving work; older than
:data:`NODE_EXPIRE_S` and it is dropped from the registry.
An unknown node's heartbeat is answered with a typed error telling it to
re-register (the head may have restarted and lost the registry — it is
deliberately in-memory; the *jobs* are what the spool makes durable).

**Routing** is rendezvous (highest-random-weight) hashing of
``(node_id, scene_key)``: every head ranks the same nodes identically
for a scene with no coordination state, and when a node joins or leaves
only that node's share of scenes moves — the rest of the fleet keeps its
warm shards.  Routing consults each candidate's **per-node circuit
breaker** (subject ``"node"``, tripped by transport failures at
dispatch): a tripped node is skipped so its scenes fail over to the next
node in rendezvous order, and when every live node is tripped the
submission is rejected with a typed ``circuit-open`` (smallest
``retry_after_s`` across the fleet).  No live nodes at all is the typed
``no-node`` rejection.

**Dispatch** re-submits the job over the wire to the chosen node and
polls it to a terminal state with the stock :class:`ServiceClient` —
the node runs the exact same `run_cases` machinery, so a fleet-served
result is byte-identical to a local one.  Transport failures raise
:class:`~repro.errors.ServiceUnavailable`, feed the node's breaker, and
leave the job to the scheduler's retry policy, which re-routes the next
attempt (failover).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    AdmissionRejected,
    CircuitOpen,
    ServiceError,
    ServiceUnavailable,
)
from repro.experiments.runner import CaseFailure, ExperimentContext
from repro.obs import registry as obs_registry
from repro.resilience import BreakerBoard
from repro.service import protocol
from repro.service.jobs import Job

#: Reason tag for "the fleet has no live node to run this".
NO_NODE = "no-node"

# A node silent this long is dropped from the registry.
NODE_EXPIRE_S = 60.0
# A node's circuit opens after this many consecutive transport failures,
# tighter than the scene breaker's 3: a node that dropped two dispatches
# in a row is almost certainly down, and the router has other nodes.
NODE_BREAKER_THRESHOLD = 2
NODE_BREAKER_COOLDOWN_S = 15.0


@dataclass
class WorkerNode:
    """One registered worker's membership record."""

    node_id: str
    endpoint: str
    slots: int = 1
    registered_at: float = field(default_factory=time.time)
    # Monotonic receipt time of the last heartbeat (or registration).
    last_beat: float = field(default_factory=time.monotonic)
    dispatched: int = 0
    failures: int = 0

    def age_s(self) -> float:
        return max(0.0, time.monotonic() - self.last_beat)

    def snapshot(self) -> Dict:
        return {
            "node_id": self.node_id,
            "endpoint": self.endpoint,
            "slots": self.slots,
            "registered_at": self.registered_at,
            "age_s": self.age_s(),
            "dispatched": self.dispatched,
            "failures": self.failures,
        }


def _weight(node_id: str, scene_key: str) -> int:
    """Rendezvous weight of placing ``scene_key`` on ``node_id``."""
    blob = f"{node_id}|{scene_key}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


class FleetRegistry:
    """Heartbeat membership plus rendezvous routing with node breakers."""

    def __init__(
        self,
        breakers: Optional[BreakerBoard] = None,
        ttl_s: Optional[float] = None,
        expire_s: Optional[float] = None,
    ):
        self.ttl_s = ttl_s if ttl_s is not None else protocol.node_ttl_s()
        self.expire_s = expire_s if expire_s is not None else NODE_EXPIRE_S
        self.breakers = breakers if breakers is not None else BreakerBoard(
            failure_threshold=NODE_BREAKER_THRESHOLD,
            cooldown_s=NODE_BREAKER_COOLDOWN_S,
            subject="node",
        )
        self._nodes: Dict[str, WorkerNode] = {}
        # Shard-affinity bookkeeping: how often routing kept a scene on
        # its rendezvous owner vs failed over past a tripped/dead node.
        self.owner_routes = 0
        self.failover_routes = 0

    # -- membership ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def register(self, node_id: str, endpoint: str, slots: int = 1) -> WorkerNode:
        if not node_id:
            raise ServiceError("register needs a node_id")
        if not endpoint:
            raise ServiceError("register needs an endpoint")
        if slots < 1:
            raise ServiceError("node slots must be >= 1")
        existing = self._nodes.get(node_id)
        node = WorkerNode(node_id=node_id, endpoint=str(endpoint), slots=int(slots))
        if existing is not None:
            # Re-registration (worker restart, or post-head-restart): keep
            # the dispatch bookkeeping, refresh everything liveness.
            node.dispatched = existing.dispatched
            node.failures = existing.failures
            node.registered_at = existing.registered_at
        self._nodes[node_id] = node
        obs_registry().counter(
            "repro_service_node_registrations_total",
            "Worker-node (re-)registrations",
            ("node",),
        ).labels(node=node_id).inc()
        return node

    def heartbeat(self, node_id: str) -> WorkerNode:
        """Refresh ``node_id``'s liveness; typed error if unknown.

        The "unknown node" error is the re-registration signal: a head
        restart empties the in-memory registry, and the worker's next
        beat learns it must register again.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise ServiceError(
                f"unknown node {node_id!r}: not registered (or expired); "
                "re-register"
            )
        node.last_beat = time.monotonic()
        return node

    def deregister(self, node_id: str) -> bool:
        return self._nodes.pop(node_id, None) is not None

    def prune(self) -> List[str]:
        """Drop nodes silent for longer than ``expire_s``; their ids."""
        dead = [
            node_id
            for node_id, node in self._nodes.items()
            if node.age_s() > self.expire_s
        ]
        for node_id in dead:
            del self._nodes[node_id]
        return dead

    def live_nodes(self) -> List[WorkerNode]:
        """Nodes fresh enough to receive work (beat within ``ttl_s``)."""
        self.prune()
        return [n for n in self._nodes.values() if n.age_s() <= self.ttl_s]

    def fleet_mode(self) -> bool:
        """True while any node is registered: execution goes remote.

        Deliberately counts *registered* (not merely live) nodes — a
        fleet whose nodes all went silent should reject with ``no-node``
        rather than silently falling back to head-local execution and
        masking the outage.  An operator who wants local fallback
        deregisters the fleet.
        """
        self.prune()
        return bool(self._nodes)

    def snapshot(self) -> List[Dict]:
        self.prune()
        return [
            dict(node.snapshot(), live=node.age_s() <= self.ttl_s)
            for node in sorted(self._nodes.values(), key=lambda n: n.node_id)
        ]

    def shard_hit_rate(self) -> float:
        """Fraction of dispatches that landed on their rendezvous owner."""
        total = self.owner_routes + self.failover_routes
        return self.owner_routes / total if total else 1.0

    # -- routing ---------------------------------------------------------------

    def ranked(self, scene_key: str) -> List[WorkerNode]:
        """Live nodes in rendezvous order for ``scene_key`` (owner first)."""
        return sorted(
            self.live_nodes(),
            key=lambda n: _weight(n.node_id, scene_key),
            reverse=True,
        )

    def route(self, scene_key: str, consume: bool = False) -> WorkerNode:
        """The node that should run ``scene_key``'s next job.

        Walks the rendezvous ranking, skipping nodes whose breaker
        refuses.  ``consume=True`` is the dispatch path (claims half-open
        probe slots via ``allow()``; the caller must report the outcome);
        ``consume=False`` is the admission check (``check()`` — never
        claims the probe).  Raises a typed ``no-node`` rejection when the
        fleet has no live node, and :class:`CircuitOpen` when every live
        node's circuit refuses.
        """
        ranked = self.ranked(scene_key)
        if not ranked:
            raise AdmissionRejected(
                f"no live worker node for {scene_key!r} "
                f"({len(self._nodes)} registered)",
                reason=NO_NODE,
                retry_after_s=self.ttl_s,
            )
        soonest: Optional[float] = None
        for index, node in enumerate(ranked):
            breaker = self.breakers.breaker(node.node_id)
            try:
                if consume:
                    breaker.allow()
                else:
                    breaker.check()
            except CircuitOpen as exc:
                if exc.retry_after_s is not None:
                    soonest = (
                        exc.retry_after_s
                        if soonest is None
                        else min(soonest, exc.retry_after_s)
                    )
                continue
            if consume:
                if index == 0:
                    self.owner_routes += 1
                else:
                    self.failover_routes += 1
                obs_registry().counter(
                    "repro_service_shard_routes_total",
                    "Dispatch routing decisions, by rendezvous position",
                    ("position",),
                ).labels(
                    position="owner" if index == 0 else "failover"
                ).inc()
            return node
        raise CircuitOpen(
            f"every live worker node's circuit is open for {scene_key!r} "
            f"({len(ranked)} node(s) tried)",
            retry_after_s=soonest if soonest is not None else 1.0,
        )


def remaining_deadline(job: Job) -> Optional[float]:
    """The deadline allowance left to forward to a worker node, measured
    on the head's monotonic clock (same discipline as the scheduler)."""
    if job.deadline_s is None:
        return None
    if job.admitted_monotonic is None:
        return job.deadline_s
    return job.deadline_s - max(0.0, time.monotonic() - job.admitted_monotonic)


def dispatch_remote(
    node: WorkerNode,
    job: Job,
    context: ExperimentContext,
    timeout_s: float = 300.0,
) -> Tuple[Optional[Dict], Optional[CaseFailure]]:
    """Run ``job`` on ``node``; the scheduler's ``(metrics, failure)``.

    Synchronous (the scheduler wraps it in ``asyncio.to_thread``): one
    stock :class:`ServiceClient` submission against the node's endpoint,
    then a poll to a terminal state.  The node executes through the same
    ``run_cases`` machinery as a local dispatch, so the metrics dict is
    byte-identical either way.

    Transport failures (connect refused, node died mid-poll) raise —
    the scheduler records them on the node's breaker and retries, which
    re-routes.  A job that *failed on the node* is not a transport
    failure: it comes back as a :class:`CaseFailure` reconstructed from
    the node's error record, exactly like a local in-worker failure.
    """
    from repro.service.client import ServiceClient

    deadline = remaining_deadline(job)
    if deadline is not None and deadline <= 0:
        raise ServiceUnavailable(
            f"job {job.job_id} deadline expired before remote dispatch"
        )
    client = ServiceClient(endpoint=node.endpoint, timeout=min(timeout_s, 60.0))
    job_id = client.submit_spec(
        job.spec,
        priority=job.priority,
        deadline_s=deadline,
        client_id=f"fleet/{job.client_id}",
        kind=job.kind,
        params=job.params,
    )
    try:
        record = client.wait(
            [job_id],
            timeout=timeout_s if deadline is None else min(timeout_s, deadline + 30.0),
        )[0]
    except TimeoutError as exc:
        raise ServiceUnavailable(
            f"node {node.node_id!r} never finished job {job_id}: {exc}"
        ) from exc
    if record["state"] == "done":
        return record["result"], None
    error = record.get("error") or {}
    detail = error.get("message") or f"job ended {record['state']!r}"
    failure = CaseFailure(
        scene=job.spec.scene,
        policy=job.spec.policy,
        error_type=str(error.get("type", "ServiceError")),
        message=f"node {node.node_id}: {detail}",
        partial=dict(error.get("partial") or {}),
    )
    return None, failure
