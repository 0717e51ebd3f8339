"""Outside-in span tracer for the benchmark's ``--trace`` runs.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` replaces
the public functions at each layer boundary with timing wrappers, at
the name the *caller* looks up (``runner.render_scene`` and
``repro.tracing.render_scene`` are separate lookups of one function, so
both are wrapped).  :meth:`Tracer.uninstall` puts the originals back.

Two kinds of boundary:

* **spans** -- coarse calls (a case, a render, a plan build).  Each one
  is kept in memory as ``{name, start, end, parent, case, self}`` and
  exported as a chrome trace when the run ends.
* **fine** -- calls made thousands of times per render (memory pricing,
  batch kernels).  They only add to their layer's busy time and call
  count, and to the enclosing span's child time, so they stay cheap and
  the trace stays small.

A layer's *self* time is its busy time minus the time its child spans
(coarse or fine) cover.  Self times of all layers add up to the time
covered by root spans, which is how the benchmark checks coverage.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional

# layer name -> (busy_s, self_s, calls)
Tally = Dict[str, List[float]]


class _Frame:
    __slots__ = ("start", "child", "index", "case")

    def __init__(self, start, index, case):
        self.start = start
        self.child = 0.0
        self.index = index
        self.case = case


class Tracer:
    """In-memory spans plus per-layer busy/self/call tallies."""

    def __init__(self, clock: Callable[[], float] = perf_counter,
                 flush_dir: Optional[str] = None):
        self.clock = clock
        # When set, the process's state is rewritten to
        # ``<flush_dir>/spans-<pid>.json`` after every root span: server
        # pool workers never return control to the benchmark, so this is
        # how their spans get out.
        self.flush_dir = flush_dir
        self.spans: List[Optional[Dict]] = []
        self.stack: List[_Frame] = []
        self.layers: Tally = {}
        self.counts: Dict[str, List[float]] = {}
        self._patches: List = []

    # -- accumulators ------------------------------------------------------

    def _acc(self, layer: str) -> List[float]:
        return self.layers.setdefault(layer, [0.0, 0.0, 0])

    def _cnt(self, name: str) -> List[float]:
        return self.counts.setdefault(name, [0])

    def tally(self) -> Dict:
        """A copy of every layer's ``[busy_s, self_s, calls]`` and count."""
        return {
            "layers": {k: list(v) for k, v in self.layers.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
        }

    # -- wrappers ----------------------------------------------------------

    def span(self, fn: Callable, layer: str,
             case_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records a span in ``layer``.

        ``case_of(args, kwargs)`` names the case a span belongs to
        (children inherit their parent's); ``on_result(tracer, result,
        seconds)`` may add counts from the return value.
        """
        tracer = self
        acc = self._acc(layer)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if case_of is not None:
                case = case_of(args, kwargs)
            else:
                case = parent.case if parent is not None else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = _Frame(clock(), index, case)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                own = duration - frame.child
                acc[0] += duration
                acc[1] += own
                acc[2] += 1
                if parent is not None:
                    parent.child += duration
                tracer.spans[index] = {
                    "name": layer,
                    "start": frame.start,
                    "end": end,
                    "parent": parent.index if parent is not None else -1,
                    "case": case,
                    "self": own,
                }
            if on_result is not None:
                on_result(tracer, result, duration)
            if parent is None and tracer.flush_dir is not None:
                tracer.flush()
            return result

        return wrapper

    def fine(self, fn: Callable, layer: str,
             count: Optional[Callable] = None,
             count_name: Optional[str] = None) -> Callable:
        """Wrap a hot ``fn``: busy time and calls only, no span record.

        ``count(args)`` adds to the ``count_name`` counter per call.
        """
        tracer = self
        acc = self._acc(layer)
        cnt = self._cnt(count_name) if count is not None else None
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                acc[0] += duration
                acc[1] += duration
                acc[2] += 1
                stack = tracer.stack
                if stack:
                    stack[-1].child += duration
                if cnt is not None:
                    cnt[0] += count(args)

        return wrapper

    def counter(self, fn: Callable, count_name: str) -> Callable:
        """Wrap ``fn`` to count its calls in ``count_name``, untimed."""
        cnt = self._cnt(count_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cnt[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, target: str, attr: str, make: Callable) -> None:
        """Replace ``target.attr`` with ``make(original)``.

        ``target`` is ``"module"`` or ``"module:Class"``; class methods
        (including classmethods) are wrapped on the class itself.
        """
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
            raw = owner.__dict__[attr]
        else:
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Wrap every boundary in :data:`BOUNDARIES`."""
        for target, attr, kind, name, extra in BOUNDARIES:
            wrap = getattr(self, kind)
            self.patch(target, attr,
                       lambda fn, w=wrap, n=name, e=extra: w(fn, n, **e))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def state(self) -> Dict:
        return {
            "pid": os.getpid(),
            "spans": [s for s in self.spans if s is not None],
            "tally": self.tally(),
        }

    def flush(self) -> None:
        path = os.path.join(self.flush_dir, f"spans-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.state(), f)
        os.replace(tmp, path)


def sum_tallies(tallies) -> Dict:
    total = {"layers": {}, "counts": {}}
    for tally in tallies:
        for layer, values in tally["layers"].items():
            acc = total["layers"].setdefault(layer, [0.0, 0.0, 0])
            for i, value in enumerate(values):
                acc[i] += value
        for name, value in tally["counts"].items():
            total["counts"][name] = total["counts"].get(name, 0) + value
    return total


# -- the boundaries the benchmark wraps --------------------------------------


def _case_label(args, kwargs) -> str:
    """``run_case_quarantined(scene, policy, context, vtq=, gpu_overrides=)``."""
    from repro.experiments.parallel import CaseSpec

    scene, policy = args[0], args[1]
    vtq = kwargs.get("vtq", args[3] if len(args) > 3 else None)
    overrides = kwargs.get(
        "gpu_overrides", args[4] if len(args) > 4 else None
    )
    return CaseSpec(scene, policy, vtq, overrides or None).label()


def _query_label(args, kwargs) -> str:
    return f"rtquery/{kwargs.get('policy', args[3] if len(args) > 3 else 'baseline')}"


def _count_queries(tracer, result, _seconds) -> None:
    tracer._cnt("queries")[0] += len(result.states)


def _note_engine(tracer, result, seconds) -> None:
    if getattr(result, "engine", None) == "scalar":
        tracer._cnt("scalar_render_s")[0] += seconds


def _lines(args) -> int:
    return len(args[1])


def _batch_lines(args) -> int:
    return sum(map(len, args[1]))


_JOURNAL = "repro.resilience:SweepJournal"
_MEMORY = "repro.gpusim.memory:MemorySystem"

#: ``(target, attribute, wrapper method, layer or count, keyword arguments)``
#: for every wrapped name.
BOUNDARIES = [
    ("repro.experiments.runner", "load_scene", "span", "scenes", {}),
    ("repro.scenes", "blob", "span", "scenes", {}),
    ("repro.experiments.runner", "build_scene_bvh", "span", "bvh", {}),
    ("repro.rtquery.range_index", "build_scene_bvh", "span", "bvh", {}),
    ("repro.rtquery.point_in_mesh", "build_scene_bvh", "span", "bvh", {}),
    ("repro.gpusim.soa", "build_plan", "span", "soa.plan", {}),
    ("repro.tracing.render", "get_plan", "counter", "plan_gets", {}),
    ("repro.bvh.traversal", "intersect_aabb_batch", "fine", "geometry", {}),
    ("repro.bvh.traversal", "intersect_tri_batch", "fine", "geometry", {}),
    ("repro.bvh.traversal", "intersect_gaussian_batch", "fine", "geometry", {}),
    ("repro.experiments.runner", "render_scene", "span", "tracing",
     {"on_result": _note_engine}),
    ("repro.tracing", "render_scene", "span", "tracing",
     {"on_result": _note_engine}),
    (_MEMORY, "access_lines", "fine", "memory",
     {"count": _lines, "count_name": "lines"}),
    (_MEMORY, "access_lines_batch", "fine", "memory",
     {"count": _batch_lines, "count_name": "lines"}),
    ("repro.memtrace", "ensure_trace", "span", "memtrace.store", {}),
    ("repro.memtrace.store", "record_trace", "span", "memtrace.record", {}),
    ("repro.memtrace", "replay_trace", "span", "memtrace.replay", {}),
    ("repro.rtquery", "time_queries", "span", "rtquery",
     {"case_of": _query_label, "on_result": _count_queries}),
    ("repro.obs", "record_sim_stats", "span", "obs", {}),
    ("repro.experiments.runner", "extract_metrics", "span", "runner.extract", {}),
    ("repro.experiments.parallel", "run_case_quarantined", "span", "runner.case",
     {"case_of": _case_label}),
    ("repro.experiments.parallel", "run_cases", "span", "parallel", {}),
    (_JOURNAL, "for_cases", "span", "resilience", {}),
    (_JOURNAL, "load", "span", "resilience", {}),
    (_JOURNAL, "record", "span", "resilience", {}),
    (_JOURNAL, "complete", "span", "resilience", {}),
    (_JOURNAL, "close", "span", "resilience", {}),
]


def layer_metrics(tally: Dict) -> Dict[str, float]:
    """The per-layer metrics one tally yields (see bench/README.md)."""
    layers = tally["layers"]
    counts = tally["counts"]

    def busy(layer):
        return layers.get(layer, (0.0, 0.0, 0))[0]

    def own(layer):
        return layers.get(layer, (0.0, 0.0, 0))[1]

    def calls(layer):
        return layers.get(layer, (0.0, 0.0, 0))[2]

    builds = calls("soa.plan")
    gets = counts.get("plan_gets", 0)
    lines = counts.get("lines", 0)
    return {
        "scenes.load_s": busy("scenes"),
        "bvh.build_s": busy("bvh"),
        "soa.plan_build_s": busy("soa.plan"),
        "soa.plan_builds": builds,
        "soa.plan_hit_ratio": 1.0 - builds / gets if gets else 0.0,
        "geometry.kernel_s": busy("geometry"),
        "geometry.kernel_calls": calls("geometry"),
        "tracing.render_s": busy("tracing"),
        "tracing.render_self_s": own("tracing"),
        "tracing.renders": calls("tracing"),
        "tracing.scalar_render_s": counts.get("scalar_render_s", 0.0),
        "memory.price_s": busy("memory"),
        "memory.calls": calls("memory"),
        "memory.lines": lines,
        "memory.ns_per_line": busy("memory") / lines * 1e9 if lines else 0.0,
        "memtrace.record_s": busy("memtrace.record"),
        "memtrace.replay_s": busy("memtrace.replay"),
        "memtrace.replays": calls("memtrace.replay"),
        "memtrace.store_s": own("memtrace.store"),
        "rtquery.query_s": busy("rtquery"),
        "rtquery.queries": counts.get("queries", 0),
        "obs.bridge_s": busy("obs"),
        "runner.case_self_s": own("runner.case"),
        "runner.extract_s": busy("runner.extract"),
        "runner.cases": calls("runner.case"),
        "parallel.self_s": own("parallel"),
        "resilience.journal_s": busy("resilience"),
    }


def chrome_events(spans, pid: int, origin: float) -> List[Dict]:
    """Chrome-trace complete events (``ph: X``) for one process's spans."""
    events = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": f"pid {pid}"},
    }]
    for span in spans:
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "pid": pid,
            "tid": 0,
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": {"case": span["case"], "self_ms": span["self"] * 1e3},
        })
    return events
