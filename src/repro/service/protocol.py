"""Wire protocol and shared configuration of the simulation service.

The server and client speak **line-delimited JSON** over a stream
socket: one request object per line, one response object per line, UTF-8
encoded.  A request always carries ``{"op": <verb>, ...}``; a response
always carries ``{"ok": true, ...}`` or
``{"ok": false, "error": <human message>, "reason": <machine tag>}``.
Keeping the framing this dumb means ``socat`` / ``nc`` can drive the
server by hand and the client needs nothing beyond the standard library.

The one exception to JSON framing: a line starting with an HTTP method
(``GET``/``POST``) reaches the server's built-in HTTP gateway —
``GET /metrics`` (Prometheus text), ``GET /health``, ``GET /jobs``,
``GET /jobs/<id>[/stream]`` (SSE progress), ``POST /submit`` and
``POST /batch`` — so a stock Prometheus scraper, ``curl`` or an
EventSource can point straight at the service's TCP endpoint.  The
JSON-native equivalents are the corresponding verbs.

Endpoint resolution (used by server, client and CLI alike):

* ``REPRO_SERVICE_SOCKET`` — path of a unix-domain socket (the default:
  ``<spool>/service.sock``).
* ``REPRO_SERVICE_TCP`` — ``host:port``; overrides the unix socket for
  platforms without ``AF_UNIX`` or for cross-host testing.  The server
  only ever binds localhost-style addresses; this is a lab service, not
  an internet-facing one.

Environment knobs (all optional, all prefixed ``REPRO_SERVICE_``):

=================================== ==============================================
``REPRO_SERVICE_SPOOL``             job-spool directory (default ``.cache/service``)
``REPRO_SERVICE_SOCKET``            unix socket path
``REPRO_SERVICE_TCP``               ``host:port`` TCP endpoint instead
``REPRO_SERVICE_RETRY_AFTER_S``     backoff hint sent with load rejections (default 1.0)
``REPRO_SERVICE_DEDUPE``            fleet result-dedupe cache gate (default on; 0 disables)
``REPRO_SERVICE_HEARTBEAT_S``       worker-node heartbeat period (default 1.0)
``REPRO_SERVICE_NODE_TTL_S``        heartbeat staleness before routing skips a node (default 10.0)
=================================== ==============================================

The worker pool size, queue depth bound and per-tenant quota are the
``repro serve`` flags ``--jobs``, ``--queue-max`` and ``--tenant-max``.
The other limits are module constants: ``server.CLIENT_MAX`` and
``RETRIES``, ``scheduler.BREAKER_*``, ``fleet.NODE_EXPIRE_S`` and
``fleet.NODE_BREAKER_*``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import ServiceError

#: Every verb the server understands.  ``batch`` submits many cases in
#: one round trip; ``register``/``heartbeat``/``deregister`` are the
#: worker-node lifecycle; ``nodes`` and ``route`` expose the fleet
#: registry (membership, and where a scene would be routed).
OPS = (
    "submit", "status", "result", "cancel", "drain", "health", "jobs",
    "metrics", "batch", "register", "heartbeat", "deregister", "nodes",
    "route",
)

_SPOOL_DEFAULT = Path(__file__).resolve().parents[3] / ".cache" / "service"

Endpoint = Union[str, Tuple[str, int]]


def spool_dir() -> Path:
    """The job-spool directory (``REPRO_SERVICE_SPOOL`` overrides)."""
    env = os.environ.get("REPRO_SERVICE_SPOOL")
    if env:
        return Path(env)
    return _SPOOL_DEFAULT


def _env_float(name: str, default: float, minimum: float = 0.0) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ServiceError(f"{name} must be a number, got {raw!r}") from None
    if value < minimum:
        raise ServiceError(f"{name} must be >= {minimum}, got {value}")
    return value


def retry_after_hint() -> float:
    """The ``retry_after_s`` hint attached to load-shedding rejections
    (queue-full, client-quota).  ``REPRO_SERVICE_RETRY_AFTER_S``
    overrides the 1-second default."""
    return _env_float("REPRO_SERVICE_RETRY_AFTER_S", 1.0)


def heartbeat_s() -> float:
    """Worker-node heartbeat period (``REPRO_SERVICE_HEARTBEAT_S``)."""
    return _env_float("REPRO_SERVICE_HEARTBEAT_S", 1.0, minimum=0.01)


def node_ttl_s() -> float:
    """How stale a node's last heartbeat may be before the router stops
    sending it work (``REPRO_SERVICE_NODE_TTL_S``)."""
    return _env_float("REPRO_SERVICE_NODE_TTL_S", 10.0, minimum=0.01)


def resolve_endpoint(explicit: Optional[str] = None) -> Endpoint:
    """Where the service listens / connects.

    ``explicit`` (a CLI flag) wins; a value containing ``":"`` with a
    numeric tail is a TCP ``host:port``, anything else a unix socket
    path.  Falls back to ``REPRO_SERVICE_TCP``, then
    ``REPRO_SERVICE_SOCKET``, then ``<spool>/service.sock``.
    """
    if explicit:
        parsed = _parse_tcp(explicit)
        return parsed if parsed is not None else explicit
    tcp = os.environ.get("REPRO_SERVICE_TCP")
    if tcp:
        parsed = _parse_tcp(tcp)
        if parsed is None:
            raise ServiceError(f"REPRO_SERVICE_TCP must be host:port, got {tcp!r}")
        return parsed
    sock = os.environ.get("REPRO_SERVICE_SOCKET")
    if sock:
        return sock
    return str(spool_dir() / "service.sock")


def _parse_tcp(value: str) -> Optional[Tuple[str, int]]:
    host, sep, port = value.rpartition(":")
    if not sep or "/" in value:
        return None
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        return None


# -- framing -----------------------------------------------------------------------


def encode(message: Dict) -> bytes:
    """One protocol line: compact JSON + newline."""
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


def decode(line: bytes) -> Dict:
    """Parse one protocol line; :class:`ServiceError` on malformed input."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed protocol line: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceError("protocol messages must be JSON objects")
    return message


def ok(**fields) -> Dict:
    response = {"ok": True}
    response.update(fields)
    return response


def error(message: str, reason: str = "error", **fields) -> Dict:
    response = {"ok": False, "error": message, "reason": reason}
    response.update(fields)
    return response
