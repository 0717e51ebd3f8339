"""Process-wide metrics registry: counters, gauges and histograms.

The observability layer every other subsystem instruments against
(``docs/OBSERVABILITY.md``).  Design constraints, in order:

* **Observational.**  Metrics are written next to existing code paths and
  never feed back into them — instrumenting a run must not change any
  simulated number (the same bar as ``REPRO_SOA_ENGINE``).
* **Exact.**  Counter values are plain Python numbers accumulated with
  ``+=``; bridging a :class:`repro.gpusim.stats.SimStats` into the
  registry reproduces its values bit-for-bit (tests assert equality, not
  approximation).
* **Mergeable.**  A registry serializes to a plain-dict *snapshot*;
  snapshots diff and merge, which is how per-case metrics recorded inside
  sweep worker *processes* are folded into the parent's registry
  (:func:`diff_snapshots` in the worker, :meth:`MetricsRegistry.merge_snapshot`
  in the parent).
* **Scrapeable.**  :meth:`MetricsRegistry.render_prometheus` renders the
  Prometheus text exposition format, served by the service's ``metrics``
  verb and its ``GET /metrics`` HTTP responder.

There is one process-wide default registry (:func:`registry`); tests swap
it with :func:`reset_registry`.  All operations are thread-safe — the
service mutates from its asyncio loop while scrape requests snapshot.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (seconds-flavoured; callers
#: timing something else pass their own).
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0, 300.0,
)

_KINDS = ("counter", "gauge", "histogram")


def _label_key(labels: Dict[str, str]) -> str:
    """Canonical string key for one label set (stable, JSON round-trip)."""
    return json.dumps(sorted((str(k), str(v)) for k, v in labels.items()))


def _labels_from_key(key: str) -> Dict[str, str]:
    return {k: v for k, v in json.loads(key)}


class Counter:
    """One monotonically increasing sample (one label set of a family)."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "MetricFamily", key: str):
        self._family = family
        self._key = key

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount!r})")
        with self._family._lock:
            self._family._samples[self._key] = (
                self._family._samples.get(self._key, 0) + amount
            )

    @property
    def value(self) -> float:
        with self._family._lock:
            return self._family._samples.get(self._key, 0)


class Gauge:
    """One point-in-time sample (one label set of a family)."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "MetricFamily", key: str):
        self._family = family
        self._key = key

    def set(self, value: float) -> None:
        with self._family._lock:
            self._family._samples[self._key] = value

    def inc(self, amount: float = 1) -> None:
        with self._family._lock:
            self._family._samples[self._key] = (
                self._family._samples.get(self._key, 0) + amount
            )

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def set_max(self, value: float) -> None:
        """Keep the larger of the current and new value (peak gauges)."""
        with self._family._lock:
            current = self._family._samples.get(self._key)
            if current is None or value > current:
                self._family._samples[self._key] = value

    @property
    def value(self) -> float:
        with self._family._lock:
            return self._family._samples.get(self._key, 0)


class Histogram:
    """One cumulative-bucket histogram (one label set of a family)."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "MetricFamily", key: str):
        self._family = family
        self._key = key

    def observe(self, value: float) -> None:
        family = self._family
        with family._lock:
            sample = family._samples.get(self._key)
            if sample is None:
                sample = {
                    "counts": [0] * (len(family.buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                }
                family._samples[self._key] = sample
            index = len(family.buckets)
            for i, bound in enumerate(family.buckets):
                if value <= bound:
                    index = i
                    break
            sample["counts"][index] += 1
            sample["sum"] += value
            sample["count"] += 1

    @property
    def sum(self) -> float:
        with self._family._lock:
            sample = self._family._samples.get(self._key)
            return sample["sum"] if sample else 0.0

    @property
    def count(self) -> int:
        with self._family._lock:
            sample = self._family._samples.get(self._key)
            return sample["count"] if sample else 0


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All samples of one metric name, across label sets."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        lock: threading.RLock,
        buckets: Optional[Sequence[float]] = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else ()
        self._lock = lock
        self._samples: Dict[str, object] = {}

    def labels(self, **labels: str):
        """The child for one label set (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {sorted(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        return _CHILD_TYPES[self.kind](self, _label_key(labels))

    def samples(self) -> List[Tuple[Dict[str, str], object]]:
        """``(labels, value)`` pairs, sorted by label key."""
        with self._lock:
            items = sorted(self._samples.items())
        return [(_labels_from_key(key), value) for key, value in items]


class MetricsRegistry:
    """A set of metric families; snapshotable, mergeable, renderable."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: Dict[str, MetricFamily] = {}

    # -- family constructors (idempotent) --------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, kind, help, labelnames, self._lock, buckets
                )
                self._families[name] = family
                return family
        if family.kind != kind or family.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} with "
                f"labels {family.labelnames}, not {kind}/{tuple(labelnames)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, labelnames, buckets)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Dict:
        """Plain-dict view of every family and sample (JSON-serializable)."""
        out: Dict = {}
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                samples = {
                    key: (dict(value, counts=list(value["counts"]))
                          if family.kind == "histogram" else value)
                    for key, value in family._samples.items()
                }
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "buckets": list(family.buckets),
                    "samples": samples,
                }
        return out

    def merge_snapshot(self, snap: Dict) -> None:
        """Fold a snapshot (typically a worker-process delta) into this
        registry: counters and histograms add, gauges take the incoming
        value (last writer wins)."""
        for name, family_snap in snap.items():
            family = self._family(
                name,
                family_snap["kind"],
                family_snap.get("help", ""),
                family_snap.get("labelnames", ()),
                family_snap.get("buckets") or None,
            )
            with self._lock:
                for key, value in family_snap.get("samples", {}).items():
                    if family.kind == "histogram":
                        sample = family._samples.get(key)
                        if sample is None:
                            family._samples[key] = {
                                "counts": list(value["counts"]),
                                "sum": value["sum"],
                                "count": value["count"],
                            }
                        else:
                            for i, c in enumerate(value["counts"]):
                                sample["counts"][i] += c
                            sample["sum"] += value["sum"]
                            sample["count"] += value["count"]
                    elif family.kind == "counter":
                        family._samples[key] = (
                            family._samples.get(key, 0) + value
                        )
                    else:
                        family._samples[key] = value

    # -- rendering -------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, value in family.samples():
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(
                        family.buckets, value["counts"]
                    ):
                        cumulative += count
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_render_labels(labels, le=_fmt(bound))} "
                            f"{cumulative}"
                        )
                    cumulative += value["counts"][-1]
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_render_labels(labels, le='+Inf')} {cumulative}"
                    )
                    lines.append(
                        f"{family.name}_sum{_render_labels(labels)} "
                        f"{_fmt(value['sum'])}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(labels)} "
                        f"{value['count']}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(labels)} {_fmt(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Dict[str, str], **extra: str) -> str:
    merged = dict(labels, **extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{name}="{_escape(str(merged[name]))}"' for name in sorted(merged)
    )
    return "{" + inner + "}"


def render_snapshot_text(snap: Dict) -> str:
    """A human-readable rendering of a registry snapshot (`repro stats`)."""
    lines: List[str] = []
    for name in sorted(snap):
        family = snap[name]
        samples = family.get("samples", {})
        if not samples:
            continue
        title = f"{name} ({family['kind']})"
        if family.get("help"):
            title += f" — {family['help']}"
        lines.append(title)
        for key in sorted(samples):
            labels = _labels_from_key(key)
            label_str = ", ".join(
                f"{k}={v}" for k, v in sorted(labels.items())
            )
            value = samples[key]
            if family["kind"] == "histogram":
                mean = value["sum"] / value["count"] if value["count"] else 0.0
                text = (
                    f"count={value['count']} sum={value['sum']:.4g} "
                    f"mean={mean:.4g}"
                )
            else:
                text = _fmt(value)
            lines.append(f"  {label_str or '(total)'}: {text}")
    return "\n".join(lines)


def diff_snapshots(before: Dict, after: Dict) -> Dict:
    """The delta that, merged onto ``before``, reproduces ``after``.

    Counters and histogram buckets subtract; gauges carry the ``after``
    value.  This is what a sweep worker returns to the parent process:
    only the metrics *this case* produced, even though the worker's
    process-local registry accumulates across the cases it runs.
    """
    delta: Dict = {}
    for name, family_after in after.items():
        family_before = before.get(name, {})
        samples_before = family_before.get("samples", {})
        kind = family_after["kind"]
        samples: Dict = {}
        for key, value in family_after.get("samples", {}).items():
            prior = samples_before.get(key)
            if kind == "histogram":
                if prior is None:
                    samples[key] = {
                        "counts": list(value["counts"]),
                        "sum": value["sum"],
                        "count": value["count"],
                    }
                else:
                    counts = [
                        c - p for c, p in zip(value["counts"], prior["counts"])
                    ]
                    if any(counts):
                        samples[key] = {
                            "counts": counts,
                            "sum": value["sum"] - prior["sum"],
                            "count": value["count"] - prior["count"],
                        }
            elif kind == "counter":
                diff = value - (prior or 0)
                if diff:
                    samples[key] = diff
            else:
                if prior is None or value != prior:
                    samples[key] = value
        if samples:
            delta[name] = dict(family_after, samples=samples)
    return delta


# -- the process-wide default registry ----------------------------------------

_REGISTRY = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def registry() -> MetricsRegistry:
    """The process-wide default registry every subsystem instruments."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Replace the default registry with a fresh one (tests); returns it."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        _REGISTRY = MetricsRegistry()
        return _REGISTRY
