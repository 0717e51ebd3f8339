"""The benchmark's in-process workloads: inputs, execution and checks.

Each sweep workload loads a different layer of the simulator stack
(bench/README.md says why each exists):

* ``policy_sweep`` -- the figure path: triangle and splat scenes under
  every policy, through ``run_cases`` with the disk cache and journal
  on.  Plan build and SoA replay plus memory pricing dominate.
* ``config_sweep`` -- the ``repro sweep gpu`` / pareto path: one scene,
  three policies, an L2 size x DRAM latency grid.  Memtrace record and
  replay dominate; one vtq plan serves every vtq point.
* ``query_mix`` -- the engine paths that bypass render plans: the
  ``sorted`` policy and the ``rtquery`` drivers (range scans checked
  against the array-scan oracle, containment checked across policies).

The fourth workload, ``served_open_loop``, lives in ``served.py``.

The seed permutes the order of sweep cases, which leaves the work
unchanged, and generates the query keys, scans and points.  Nothing here
imports ``repro`` at module level, so the orchestrator can read the
constants without paying for (or depending on) the simulator.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected"

SWEEPS = ("policy_sweep", "config_sweep", "query_mix")
WORKLOADS = SWEEPS + ("served_open_loop",)
POLICIES = ("baseline", "prefetch", "vtq")


@dataclass(frozen=True)
class Sizes:
    """Every input size.  Tests shrink these; digests hold for the defaults."""

    policy_scenes: Tuple[str, ...] = ("BUNNY", "SPNZA", "LANDS", "GSPL1")
    policy_side: int = 24
    config_scene: str = "CRNVL"
    config_side: int = 32
    l2_bytes: Tuple[int, ...] = (256 * 1024, 512 * 1024, 1024 * 1024)
    dram_latency: Tuple[int, ...] = (300, 471, 700)
    sorted_scenes: Tuple[str, ...] = ("BUNNY", "CRNVL", "LANDS")
    query_side: int = 24
    range_keys: int = 4_000
    range_scans: int = 256
    scan_width: float = 1e4
    blob_subdivisions: int = 4
    containment_points: int = 1024
    # Eight scenes fit the runner's 8-entry scene cache: with more, the
    # number of evictions varies by seed and swamps the latency numbers.
    served_scenes: Tuple[str, ...] = (
        "BUNNY", "SPNZA", "CHSNT", "REF", "CRNVL", "BATH", "GSPL1", "GSPL2",
    )
    served_dram: Tuple[int, ...] = (300, 350, 400, 471, 550, 625, 700)
    # 5 jobs per (scene, policy) cell = 120 jobs over 48 s, which keep
    # the one pool worker busy about a third of the time: a host slowdown
    # then stretches service times without piling jobs up in the queue.
    served_jobs_per_cell: int = 5
    served_jobs_per_s: float = 2.5


DEFAULT = Sizes()


def hermetic_env(tmp: Path) -> Dict[str, str]:
    """The environment every benchmark subprocess runs in.

    Inherited ``REPRO_*`` variables are dropped (a stray
    ``REPRO_SOA_ENGINE=0`` or ``REPRO_SCALE`` would change what is
    measured) and the result cache, service spool and temporary files
    go under ``tmp``, so a warm ``.cache/`` in the checkout never turns
    work into hits.  One BLAS thread and a fixed hash seed keep repeated
    runs alike.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(tmp),
        REPRO_CACHE_DIR=str(tmp / "cache"),
        REPRO_SERVICE_SPOOL=str(tmp / "spool"),
    )
    return env


def digest(metrics: Dict) -> str:
    """Digest of a case's metric dict, stable across a JSON round trip."""
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_expected(name: str) -> Dict[str, str]:
    with open(EXPECTED / f"{name}.json") as f:
        return json.load(f)["digests"]


# -- case lists ----------------------------------------------------------------


def policy_cases(sizes: Sizes = DEFAULT):
    from repro.core.config import VTQConfig
    from repro.experiments.parallel import CaseSpec

    scaled = VTQConfig().scaled_to(256)
    return [
        spec
        for scene in sizes.policy_scenes
        for spec in (
            CaseSpec(scene, "baseline"),
            CaseSpec(scene, "prefetch"),
            CaseSpec(scene, "vtq"),
            CaseSpec(scene, "vtq", scaled),
        )
    ]


def config_cases(sizes: Sizes = DEFAULT):
    from repro.experiments.parallel import CaseSpec

    return [
        CaseSpec(
            sizes.config_scene, policy, None,
            (("dram_latency", dram), ("l2_bytes", l2)),
        )
        for policy in POLICIES
        for l2 in sizes.l2_bytes
        for dram in sizes.dram_latency
    ]


def sorted_cases(sizes: Sizes = DEFAULT):
    from repro.experiments.parallel import CaseSpec

    return [CaseSpec(scene, "sorted") for scene in sizes.sorted_scenes]


def sweep_context(name: str, sizes: Sizes = DEFAULT):
    """The ``ExperimentContext`` one sweep workload runs under."""
    from dataclasses import replace

    from repro.experiments.runner import ExperimentContext
    from repro.gpusim.config import default_setup

    side, scenes = {
        "policy_sweep": (sizes.policy_side, sizes.policy_scenes),
        "config_sweep": (sizes.config_side, (sizes.config_scene,)),
        "query_mix": (sizes.query_side, sizes.sorted_scenes),
    }[name]
    setup = replace(default_setup(), image_width=side, image_height=side)
    return ExperimentContext(setup=setup, scene_list=tuple(scenes))


def cases_for(name: str, sizes: Sizes = DEFAULT):
    return {
        "policy_sweep": policy_cases,
        "config_sweep": config_cases,
        "query_mix": sorted_cases,
    }[name](sizes)


def permuted(items, seed: int, rep: int = 0) -> list:
    """``items`` in the order of the seed's ``rep``-th repetition: the
    same work in another sequence.  Each repetition of a run gets its own
    order, so a run's latency percentiles pool several orders."""
    items = list(items)
    random.Random(f"{seed}/{rep}").shuffle(items)
    return items


# -- setup, execution, checks ----------------------------------------------------


@dataclass
class Prepared:
    """A sweep workload after setup: everything built, nothing timed yet."""

    name: str
    context: object
    cases: list
    index: object = None
    scans: list = field(default_factory=list)
    classifier: object = None
    points: object = None


def prepare(name: str, seed: int, rep: int = 0,
            sizes: Sizes = DEFAULT) -> Prepared:
    """Build every scene, BVH and index the timed phase will use.

    Calls go through module attributes (``runner.scene_and_bvh``,
    ``scenes.blob``, ...) so a tracer installed beforehand sees them.
    """
    from repro.experiments import runner

    context = sweep_context(name, sizes)
    for scene in context.scene_list:
        runner.scene_and_bvh(scene, context.setup)
    prepared = Prepared(name, context, permuted(cases_for(name, sizes), seed, rep))
    if name == "query_mix":
        import numpy as np

        from repro import rtquery, scenes

        rng = np.random.default_rng(seed)
        prepared.index = rtquery.RangeIndex(rng.uniform(0, 1e6, sizes.range_keys))
        starts = rng.uniform(0, 1e6 - sizes.scan_width, sizes.range_scans)
        prepared.scans = [(s, s + sizes.scan_width) for s in starts.tolist()]
        solid = scenes.blob(
            sizes.blob_subdivisions, radius=2.0, bumpiness=0.15, seed=11
        )
        prepared.classifier = rtquery.MeshClassifier(solid)
        prepared.points = rng.uniform(-2.6, 2.6, (sizes.containment_points, 3))
    return prepared


@dataclass
class Outcome:
    """What one timed pass produced."""

    wall_s: float
    latencies: List[float]
    cases: list  # (spec, metrics, failure)
    scans: Dict[str, object] = field(default_factory=dict)
    containment: Dict[str, object] = field(default_factory=dict)


def execute(prepared: Prepared) -> Outcome:
    """The timed phase.

    Every case and every query batch is one operation, and all of them
    are requested at once when the phase starts, as a sweep's are: an
    operation's latency is the time from the start to its result.
    """
    from repro import rtquery
    from repro.experiments import parallel

    latencies: List[float] = []
    run_one = parallel.run_case_quarantined

    def timed_case(*args, **kwargs):
        try:
            return run_one(*args, **kwargs)
        finally:
            latencies.append(perf_counter() - start)

    start = perf_counter()
    parallel.run_case_quarantined = timed_case
    try:
        results = parallel.run_cases(prepared.cases, prepared.context, jobs=0)
    finally:
        parallel.run_case_quarantined = run_one
    outcome = Outcome(0.0, latencies, [
        (spec, metrics, failure)
        for spec, (metrics, failure) in zip(prepared.cases, results)
    ])
    if prepared.name == "query_mix":
        index, scans = prepared.index, prepared.scans
        classifier, points = prepared.classifier, prepared.points
        for policy in POLICIES:
            outcome.scans[policy] = rtquery.time_queries(
                index.bvh,
                lambda i: index.make_query_state(*scans[i], ray_id=i),
                len(scans), policy=policy,
            )
            latencies.append(perf_counter() - start)
        for policy in POLICIES:
            outcome.containment[policy] = rtquery.time_queries(
                classifier.bvh,
                lambda i: classifier.make_query_state(points[i], ray_id=i),
                len(points), policy=policy,
            )
            latencies.append(perf_counter() - start)
    outcome.wall_s = perf_counter() - start
    return outcome


def verify(prepared: Prepared, outcome: Outcome,
           expected: Optional[Dict[str, str]]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, notes)`` over every case and every query.

    A case fails when it is quarantined or its metric dict does not
    match the committed digest (not checked when ``expected`` is None,
    as for shrunk test inputs).  A range scan fails unless it returns
    exactly the oracle's keys; a containment query fails when its flag
    differs from the baseline policy's.
    """
    from repro.rtquery import MeshClassifier

    notes: List[str] = []
    attempted = failed = 0
    for spec, metrics, failure in outcome.cases:
        attempted += 1
        label = spec.label()
        if failure is not None:
            notes.append(f"{label}: quarantined {failure.error_type}")
        elif expected is not None and digest(metrics) != expected.get(label):
            notes.append(f"{label}: metric digest mismatch")
        else:
            continue
        failed += 1
    index, scans = prepared.index, prepared.scans
    oracle = [index.oracle_query(lo, hi) for lo, hi in scans] if scans else []
    for policy, result in outcome.scans.items():
        attempted += len(scans)
        bad = sum(
            sorted(p for p, _ in state.all_hits) != oracle[i]
            for i, state in enumerate(result.states)
        )
        if bad:
            failed += bad
            notes.append(f"scan/{policy}: {bad} results differ from the oracle")
    flags = {
        policy: [MeshClassifier.classify_state(s) for s in result.states]
        for policy, result in outcome.containment.items()
    }
    for policy, got in flags.items():
        attempted += len(got)
        bad = sum(a != b for a, b in zip(got, flags["baseline"]))
        if bad:
            failed += bad
            notes.append(f"containment/{policy}: {bad} flags differ from baseline")
    return attempted, failed, notes


def sim_counts(outcome: Outcome) -> Dict[str, int]:
    """Exact simulated work: rays (plus query rays), warps, node visits."""
    counts = {"rays": 0, "warps": 0, "node_visits": 0}
    for _spec, metrics, _failure in outcome.cases:
        if metrics is not None:
            counts["rays"] += metrics["rays_traced"]
            counts["warps"] += metrics["warps"]
            counts["node_visits"] += metrics["node_visits"]
    for result in list(outcome.scans.values()) + list(outcome.containment.values()):
        counts["rays"] += len(result.states)
        counts["warps"] += result.stats.warps_processed
        counts["node_visits"] += result.stats.node_visits
    return counts
