"""One function per paper table / figure.

Each returns a dict with ``title``, ``headers``, ``rows`` (strings or
numbers) and optionally ``series`` / ``notes``.  The benchmark files under
``benchmarks/`` call these and print them with
:func:`repro.experiments.report.format_table`; EXPERIMENTS.md records the
paper-vs-measured comparison.

A figure that runs simulator cases declares them once, in a case
function next to its table: one ``(scene, [CaseSpec, ...])`` row per
table row.  The table resolves exactly those rows, and
:func:`cases_for_figure` flattens the same rows for the parallel sweep
executor, so the cases a sweep warms are the cases the figure asks for.
"""

from __future__ import annotations

from dataclasses import asdict, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analytic import collect_workload_traces, concurrency_sweep
from repro.core.config import VTQConfig
from repro.core.treelet_queue import area_overheads
from repro.errors import BudgetExceeded, ReproError
from repro.experiments.parallel import CaseSpec, jobs_from_env, warm_cases
from repro.experiments.runner import (
    CaseFailure,
    ExperimentContext,
    record_failure,
    run_case,
    scene_and_bvh,
)
from repro.gpusim.stats import TraversalMode
from repro.scenes import scene_names, scene_spec

#: One table row's cases: the row's scene and the cases it needs, in the
#: order the table resolves them.
CaseRow = Tuple[str, List[CaseSpec]]
_BASELINE = ("baseline", None)
_PREFETCH = ("prefetch", None)

#: Figure 11's progress buckets, and the queue / repack thresholds of
#: Figures 12 and 13.
FIG11_BUCKETS = 12
FIG12_THRESHOLDS = (32, 64, 128)
FIG13_THRESHOLDS = (8, 16, 22)


def _geomean(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return float(np.exp(np.mean(np.log(values))))


def _quarantine_row(scene: str, exc: ReproError, width: int) -> List[str]:
    """Record a failed case and return the figure row marking its cell.

    Every figure loops per scene inside ``try/except ReproError``: a
    failing (scene, policy) case becomes one quarantined row while the
    rest of the figure still renders.  Shared aggregate lists are only
    appended after a scene's whole row computed, so mean/geomean rows
    stay consistent.
    """
    failure = record_failure(
        CaseFailure(
            scene=scene,
            policy=getattr(exc, "policy", "?"),
            error_type=type(exc).__name__,
            message=str(exc),
            partial=dict(exc.partial) if isinstance(exc, BudgetExceeded) else {},
        )
    )
    cell = f"QUARANTINED {failure.error_type}: {failure.message}"
    if len(cell) > 72:
        cell = cell[:69] + "..."
    return [scene, cell] + ["-"] * max(0, width - 2)


def _resolve(specs: Sequence[CaseSpec], context: ExperimentContext) -> List[Dict]:
    """Run one row's cases in order; the first failure raises out of the
    row, so the row's remaining cases never run."""
    return [
        run_case(spec.scene, spec.policy, context, vtq=spec.vtq) for spec in specs
    ]


def _each_scene(scenes: Sequence[str], *variants) -> List[CaseRow]:
    """One row per scene of its ``(policy, vtq)`` variants, in order."""
    return [
        (scene, [CaseSpec(scene, policy, vtq) for policy, vtq in variants])
        for scene in scenes
    ]


def vtq_default(context: ExperimentContext) -> VTQConfig:
    """Population-scaled VTQ parameters for this context.

    The paper's 128-ray queue threshold assumes 4096 rays in flight per
    SM.  The effective population here is min(virtual-ray budget, pixels
    assigned to the SM), so the threshold scales with whichever binds —
    otherwise queues can never reach the threshold and the treelet phase
    would be legislated away rather than decided dynamically.
    """
    setup = context.setup
    population = min(
        setup.gpu.max_virtual_rays_per_sm,
        max(1, setup.pixels // setup.gpu.num_sms),
    )
    return VTQConfig().scaled_to(population)


# ---------------------------------------------------------------------------
# Figure 1: baseline bottlenecks
# ---------------------------------------------------------------------------


def fig01_cases(context: ExperimentContext) -> List[CaseRow]:
    return _each_scene(context.scenes(), _BASELINE)


def fig01_baseline_bottlenecks(context: ExperimentContext) -> Dict:
    """Fig. 1a/1b: baseline L1 miss rate of BVH accesses and SIMT efficiency.

    Paper: miss rates average 58% (up to 70%), SIMT efficiency is low;
    both sorted by ascending BVH size.
    """
    rows = []
    misses, simts = [], []
    for scene, specs in fig01_cases(context):
        try:
            (m,) = _resolve(specs, context)
        except ReproError as exc:
            rows.append(_quarantine_row(scene, exc, 3))
            continue
        rows.append([scene, f"{m['l1_bvh_miss_rate']:.3f}", f"{m['simt_efficiency']:.3f}"])
        misses.append(m["l1_bvh_miss_rate"])
        simts.append(m["simt_efficiency"])
    if misses:
        rows.append(["MEAN", f"{np.mean(misses):.3f}", f"{np.mean(simts):.3f}"])
    return {
        "title": "Figure 1: baseline RT-unit bottlenecks (paper: avg 58% L1 miss, low SIMT)",
        "headers": ["scene", "L1 BVH miss rate", "SIMT efficiency"],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Figure 5: analytical model
# ---------------------------------------------------------------------------


def fig05_analytical_model(
    context: ExperimentContext, levels=(64, 256, 1024, 4096)
) -> Dict:
    """Fig. 5: Section 2.4's no-cache analytical speedup vs concurrency.

    Paper: gains grow with concurrent rays, reaching 3-4x for most scenes;
    the smallest-BVH scenes (WKND, SHIP) stand out highest.
    """
    setup = context.setup
    wanted = list(context.scenes())
    # Figure 5 includes the two small extra scenes when running the full suite.
    if set(wanted) == set(scene_names()):
        wanted = ["WKND", "SHIP"] + wanted
    rows = []
    for scene_name in wanted:
        try:
            scene, bvh = scene_and_bvh(scene_name, setup)
            traces = collect_workload_traces(
                scene, bvh, setup.image_width, setup.image_height, setup.max_bounces
            )
            sweep = concurrency_sweep(traces, bvh, levels)
        except ReproError as exc:
            rows.append(_quarantine_row(scene_name, exc, 1 + len(levels)))
            continue
        rows.append([scene_name] + [f"{sweep[l]:.2f}" for l in levels])
    return {
        "title": "Figure 5: analytical treelet speedup vs concurrent rays (paper: 3-4x at 4096)",
        "headers": ["scene"] + [f"{l} rays" for l in levels],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Figure 10: overall speedup
# ---------------------------------------------------------------------------


def fig10_cases(context: ExperimentContext) -> List[CaseRow]:
    return _each_scene(
        context.scenes(), _BASELINE, _PREFETCH, ("vtq", vtq_default(context))
    )


def fig10_overall_speedup(context: ExperimentContext) -> Dict:
    """Fig. 10: VTQ vs baseline and vs Treelet Prefetching.

    Paper: VTQ averages 1.95x over baseline (up to 2.55x) and 1.43x over
    treelet prefetching; SPNZA and CHSNT gain least.
    """
    rows = []
    over_base, over_pf = [], []
    for scene, specs in fig10_cases(context):
        try:
            base, pf, full = _resolve(specs, context)
        except ReproError as exc:
            rows.append(_quarantine_row(scene, exc, 4))
            continue
        s_base = base["cycles"] / full["cycles"]
        s_pf = pf["cycles"] / full["cycles"]
        rows.append(
            [scene, f"{pf['cycles'] and base['cycles'] / pf['cycles']:.2f}",
             f"{s_base:.2f}", f"{s_pf:.2f}"]
        )
        over_base.append(s_base)
        over_pf.append(s_pf)
    if over_base:
        rows.append(
            ["GEOMEAN", "", f"{_geomean(over_base):.2f}", f"{_geomean(over_pf):.2f}"]
        )
    return {
        "title": "Figure 10: overall speedup (paper: VTQ 1.95x over baseline, 1.43x over prefetching)",
        "headers": ["scene", "prefetch/baseline", "VTQ/baseline", "VTQ/prefetch"],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Gaussian-splat workload: policy head-to-head
# ---------------------------------------------------------------------------


def gaussian_cases(context: ExperimentContext) -> List[CaseRow]:
    from repro.scenes.gaussians import gaussian_scene_names, is_gaussian_scene

    scenes = [s for s in context.scenes() if is_gaussian_scene(s)]
    if not scenes:
        # The default context lists triangle scenes only; the splat
        # table always covers the registered gaussian suite.
        scenes = gaussian_scene_names()
    return _each_scene(scenes, _BASELINE, _PREFETCH, ("vtq", vtq_default(context)))


def fig_gaussian_policies(context: ExperimentContext) -> Dict:
    """Baseline vs prefetch vs VTQ on the procedural splat scenes.

    The Figure 10 question asked of a non-triangle primitive: does
    treelet scheduling still pay when leaf work is a Gaussian alpha
    evaluation (``gaussian_alpha_cycles`` per candidate plus
    ``gaussian_blend_cycles`` per leaf lane — see docs/MODEL.md) instead
    of a Möller–Trumbore test?  Splat leaves are fatter (64 B
    primitives, overlapping bounds) and the leaf-cost term shifts the
    compute/memory balance, so the VTQ margin here is the interesting
    number, not a rerun of the triangle table.
    """
    rows = []
    over_base, over_pf = [], []
    for scene, specs in gaussian_cases(context):
        try:
            splats = scene_and_bvh(scene, context.setup)[0].mesh.triangle_count
            base, pf, full = _resolve(specs, context)
        except ReproError as exc:
            rows.append(_quarantine_row(scene, exc, 8))
            continue
        s_base = base["cycles"] / full["cycles"]
        s_pf = pf["cycles"] / full["cycles"]
        rows.append(
            [
                scene,
                str(splats),
                f"{base['cycles']:,.0f}",
                f"{pf['cycles']:,.0f}",
                f"{full['cycles']:,.0f}",
                f"{base['cycles'] / pf['cycles']:.2f}",
                f"{s_base:.2f}",
                f"{s_pf:.2f}",
            ]
        )
        over_base.append(s_base)
        over_pf.append(s_pf)
    if over_base:
        rows.append(
            ["GEOMEAN", "", "", "", "",
             "", f"{_geomean(over_base):.2f}", f"{_geomean(over_pf):.2f}"]
        )
    return {
        "title": "Gaussian splats: policy head-to-head on the splat suite "
        "(leaf cost = alpha evaluation, not triangle tests)",
        "headers": [
            "scene", "splats", "baseline cyc", "prefetch cyc", "VTQ cyc",
            "prefetch/baseline", "VTQ/baseline", "VTQ/prefetch",
        ],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Figure 11: miss rate over time (LANDS)
# ---------------------------------------------------------------------------


def fig11_cases(context: ExperimentContext) -> List[CaseRow]:
    scenes = context.scenes()
    scene = "LANDS" if "LANDS" in scenes else scenes[-1]
    return _each_scene([scene], _BASELINE, ("vtq", vtq_default(context).naive()))


def fig11_missrate_over_time(context: ExperimentContext) -> Dict:
    """Fig. 11: L1 miss rate over time, treelet-stationary vs baseline.

    Paper (LANDS): the baseline plateaus near 60%; permanent treelet-
    stationary mode starts as low as 9% and climbs past the baseline
    (75-80%) once queues become underpopulated.
    """
    ((scene, specs),) = fig11_cases(context)
    buckets = FIG11_BUCKETS
    try:
        base, naive = _resolve(specs, context)
    except ReproError as exc:
        return {
            "title": f"Figure 11: L1 BVH miss rate over time, {scene}",
            "headers": ["progress", "baseline", "treelet-stationary (naive)"],
            "rows": [_quarantine_row(scene, exc, 3)],
            "series": {"baseline": [], "treelet_stationary": []},
        }

    def resample(series, n):
        if not series:
            return []
        xs = [p[0] for p in series]
        span = max(xs[-1] - xs[0], 1.0)
        out = [[] for _ in range(n)]
        for x, rate in series:
            idx = min(int((x - xs[0]) / span * n), n - 1)
            out[idx].append(rate)
        return [float(np.mean(b)) if b else float("nan") for b in out]

    base_series = resample(base["l1_timeline"], buckets)
    naive_series = resample(naive["l1_timeline"], buckets)
    rows = []
    for i in range(buckets):
        rows.append(
            [f"{(i + 0.5) / buckets:.0%}",
             f"{base_series[i]:.3f}" if i < len(base_series) else "-",
             f"{naive_series[i]:.3f}" if i < len(naive_series) else "-"]
        )
    return {
        "title": f"Figure 11: L1 BVH miss rate over time, {scene} "
        "(paper: treelet mode starts ~9%, ends above baseline)",
        "headers": ["progress", "baseline", "treelet-stationary (naive)"],
        "rows": rows,
        "series": {"baseline": base_series, "treelet_stationary": naive_series},
    }


# ---------------------------------------------------------------------------
# Figure 12: grouping underpopulated queues
# ---------------------------------------------------------------------------


def fig12_cases(context: ExperimentContext) -> List[CaseRow]:
    """Per scene: baseline, naive queues, then grouping at each threshold."""
    vtq = vtq_default(context)
    return _each_scene(
        context.scenes(), _BASELINE, ("vtq", vtq.naive()),
        *[("vtq", replace(vtq, queue_threshold=t, repack_enabled=False))
          for t in FIG12_THRESHOLDS],
    )


def fig12_grouping_thresholds(context: ExperimentContext) -> Dict:
    """Fig. 12: naive treelet queues vs grouping at several queue thresholds.

    Paper: grouping at 128 is ~8x faster than the naive implementation,
    but still ~5% slower than the baseline without warp repacking.
    """
    rows = []
    per_variant: Dict[str, List[float]] = {"naive": []}
    for t in FIG12_THRESHOLDS:
        per_variant[f"group@{t}"] = []
    for scene, specs in fig12_cases(context):
        try:
            base, *variants = _resolve(specs, context)
        except ReproError as exc:
            rows.append(_quarantine_row(scene, exc, 2 + len(FIG12_THRESHOLDS)))
            continue
        speeds = [base["cycles"] / m["cycles"] for m in variants]
        for k, s in zip(per_variant, speeds):
            per_variant[k].append(s)
        rows.append([scene] + [f"{s:.2f}" for s in speeds])
    if per_variant["naive"]:
        rows.append(
            ["GEOMEAN"] + [f"{_geomean(per_variant[k]):.2f}" for k in per_variant]
        )
    return {
        "title": "Figure 12: grouping underpopulated treelet queues "
        "(paper: ~8x over naive; ~5% below baseline at threshold 128)",
        "headers": ["scene", "naive"] + [f"group@{t}" for t in FIG12_THRESHOLDS],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Figure 13: warp repacking
# ---------------------------------------------------------------------------


def fig13_cases(context: ExperimentContext) -> List[CaseRow]:
    """Per scene: baseline, no repacking, then repacking at each threshold."""
    vtq = vtq_default(context)
    return _each_scene(
        context.scenes(), _BASELINE, ("vtq", replace(vtq, repack_enabled=False)),
        *[("vtq", replace(vtq, repack_threshold=t)) for t in FIG13_THRESHOLDS],
    )


def fig13_warp_repacking(context: ExperimentContext) -> Dict:
    """Fig. 13a/b: repacking speedup and SIMT efficiency.

    Paper: no repacking = 5% slowdown vs baseline with SIMT ~0.33;
    threshold 16 gives 1.84x, threshold 22 gives 1.95x with SIMT ~0.82
    (baseline SIMT ~0.37).
    """
    rows = []
    speeds: Dict[str, List[float]] = {"no repack": []}
    simts: Dict[str, List[float]] = {"baseline": [], "no repack": []}
    for t in FIG13_THRESHOLDS:
        speeds[f"repack@{t}"] = []
        simts[f"repack@{t}"] = []
    for scene, specs in fig13_cases(context):
        try:
            base, *variants = _resolve(specs, context)
        except ReproError as exc:
            rows.append(_quarantine_row(scene, exc, 2 + len(FIG13_THRESHOLDS)))
            continue
        scene_speeds = [base["cycles"] / m["cycles"] for m in variants]
        for k, s in zip(speeds, scene_speeds):
            speeds[k].append(s)
        for k, m in zip(simts, [base] + variants):
            simts[k].append(m["simt_efficiency"])
        rows.append([scene] + [f"{s:.2f}" for s in scene_speeds])
    if speeds["no repack"]:
        rows.append(["GEOMEAN"] + [f"{_geomean(speeds[k]):.2f}" for k in speeds])
    simt_table = [
        [k, f"{np.mean(v):.2f}" if v else "-"] for k, v in simts.items()
    ]
    return {
        "title": "Figure 13a: warp repacking speedup "
        "(paper: none=0.95x, 16=1.84x, 22=1.95x)",
        "headers": ["scene", "no repack"] + [f"repack@{t}" for t in FIG13_THRESHOLDS],
        "rows": rows,
        "simt_table": {
            "title": "Figure 13b: SIMT efficiency (paper: baseline 0.37, "
            "no-repack 0.33, repack@22 0.82)",
            "headers": ["variant", "SIMT efficiency"],
            "rows": simt_table,
        },
    }


# ---------------------------------------------------------------------------
# Figures 14 & 15: traversal-mode breakdowns
# ---------------------------------------------------------------------------


def vtq_cases(context: ExperimentContext) -> List[CaseRow]:
    """One VTQ case per scene (Figures 14 and 15, Section 6.5)."""
    return _each_scene(context.scenes(), ("vtq", vtq_default(context)))


def _mode_fraction_table(context: ExperimentContext, field: str, title: str) -> Dict:
    rows = []
    sums = {m.value: [] for m in TraversalMode}
    for scene, specs in vtq_cases(context):
        try:
            (m,) = _resolve(specs, context)
        except ReproError as exc:
            rows.append(_quarantine_row(scene, exc, 1 + len(TraversalMode)))
            continue
        fr = m[field]
        rows.append(
            [scene]
            + [f"{fr[mode.value]:.3f}" for mode in TraversalMode]
        )
        for mode in TraversalMode:
            sums[mode.value].append(fr[mode.value])
    if any(sums.values()):
        rows.append(
            ["MEAN"] + [f"{np.mean(sums[m.value]):.3f}" for m in TraversalMode]
        )
    return {
        "title": title,
        "headers": ["scene", "initial ray-stat", "treelet-stat", "final ray-stat"],
        "rows": rows,
    }


def fig14_mode_cycles(context: ExperimentContext) -> Dict:
    """Fig. 14: cycle share per traversal mode.

    Paper: short initial phase; the majority of cycles land in the final
    ray-stationary phase.
    """
    return _mode_fraction_table(
        context,
        "mode_cycle_fractions",
        "Figure 14: cycle distribution across traversal modes "
        "(paper: final ray-stationary dominates)",
    )


def fig15_mode_tests(context: ExperimentContext) -> Dict:
    """Fig. 15: intersection-test share per traversal mode.

    Paper: the treelet-stationary phase handles up to 52% of tests,
    15% on average.
    """
    return _mode_fraction_table(
        context,
        "mode_test_fractions",
        "Figure 15: intersection tests per traversal mode "
        "(paper: treelet-stationary avg 15%, up to 52%)",
    )


# ---------------------------------------------------------------------------
# Figure 16: ray virtualization overhead
# ---------------------------------------------------------------------------


def fig16_cases(context: ExperimentContext) -> List[CaseRow]:
    """Per scene: VTQ with, then without, the CTA save/restore cost."""
    vtq = vtq_default(context)
    ideal = replace(vtq, virtualization_overheads=False)
    return _each_scene(context.scenes(), ("vtq", vtq), ("vtq", ideal))


def fig16_virtualization_overhead(context: ExperimentContext) -> Dict:
    """Fig. 16: slowdown from CTA save/restore (paper: ~10% on average)."""
    rows = []
    overheads = []
    for scene, specs in fig16_cases(context):
        try:
            real, ideal = _resolve(specs, context)
        except ReproError as exc:
            rows.append(_quarantine_row(scene, exc, 2))
            continue
        overhead = real["cycles"] / ideal["cycles"] - 1.0
        overheads.append(overhead)
        rows.append([scene, f"{overhead * 100:.1f}%"])
    if overheads:
        rows.append(["MEAN", f"{np.mean(overheads) * 100:.1f}%"])
    return {
        "title": "Figure 16: ray virtualization overhead (paper: ~10% slowdown)",
        "headers": ["scene", "slowdown from CTA save/restore"],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Figure 17: energy
# ---------------------------------------------------------------------------


def fig17_cases(context: ExperimentContext) -> List[CaseRow]:
    return _each_scene(context.scenes(), _BASELINE, ("vtq", vtq_default(context)))


def fig17_energy(context: ExperimentContext) -> Dict:
    """Fig. 17: energy of treelet queues relative to the baseline.

    Paper: treelet queues save ~60% energy; ray virtualization consumes
    ~11% of the design's total energy (mostly CTA state movement).
    """
    rows = []
    rels, virt_shares = [], []
    for scene, specs in fig17_cases(context):
        try:
            base, full = _resolve(specs, context)
        except ReproError as exc:
            rows.append(_quarantine_row(scene, exc, 3))
            continue
        rel = full["energy"]["total"] / base["energy"]["total"]
        virt = full["energy"]["cta_state"] / full["energy"]["total"]
        rels.append(rel)
        virt_shares.append(virt)
        rows.append([scene, f"{rel:.2f}", f"{virt * 100:.1f}%"])
    if rels:
        rows.append(
            ["MEAN", f"{np.mean(rels):.2f}", f"{np.mean(virt_shares) * 100:.1f}%"]
        )
    return {
        "title": "Figure 17: energy vs baseline (paper: VTQ ~0.4x baseline; "
        "virtualization ~11% of VTQ total)",
        "headers": ["scene", "VTQ energy / baseline", "virtualization share"],
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Tables and Section 6.5
# ---------------------------------------------------------------------------


def table1_configuration(context: ExperimentContext) -> Dict:
    """Table 1: the simulated configuration actually in use."""
    gpu = context.setup.gpu
    rows = [[k, str(v)] for k, v in asdict(gpu).items()]
    return {
        "title": "Table 1: simulated GPU configuration (scale model; "
        "latencies verbatim from the paper)",
        "headers": ["parameter", "value"],
        "rows": rows,
    }


def table2_scenes(context: ExperimentContext) -> Dict:
    """Table 2: the evaluation scenes, paper sizes vs our scale models."""
    rows = []
    for name in context.scenes():
        spec = scene_spec(name)
        try:
            scene, bvh = scene_and_bvh(name, context.setup)
        except ReproError as exc:
            rows.append(_quarantine_row(name, exc, 6))
            continue
        rows.append(
            [
                name,
                f"{spec.paper_bvh_mb:.2f}",
                f"{spec.paper_tris / 1e6:.2f}M",
                f"{scene.mesh.triangle_count}",
                f"{bvh.size_megabytes() * 1024:.0f}KB",
                f"{bvh.treelet_count}",
            ]
        )
    return {
        "title": "Table 2: evaluation scenes (paper assets -> synthetic scale models)",
        "headers": [
            "scene", "paper BVH MB", "paper tris", "our tris", "our BVH", "treelets",
        ],
        "rows": rows,
    }


def sec65_area_overheads(context: ExperimentContext) -> Dict:
    """Section 6.5: hardware table sizes, plus observed peak occupancies."""
    vtq = vtq_default(context)
    gpu = context.setup.gpu
    sizes = area_overheads(VTQConfig(), max_virtual_rays=4096)
    rows = [
        ["count table (paper cfg)", f"{sizes['count_table_bytes'] / 1024:.2f}KB",
         "2.2KB in paper"],
        ["queue table (paper cfg)", f"{sizes['queue_table_bytes'] / 1024:.2f}KB",
         "6.29KB in paper"],
        ["ray data (paper cfg)", f"{sizes['ray_data_bytes'] / 1024:.0f}KB",
         "128KB in paper"],
    ]
    peaks_q, peaks_c = [], []
    for scene, specs in vtq_cases(context):
        try:
            (m,) = _resolve(specs, context)
        except ReproError as exc:
            rows.append(_quarantine_row(scene, exc, 3))
            continue
        peaks_q.append(m["queue_table_peak_entries"])
        peaks_c.append(m["count_table_peak_entries"])
    if peaks_q:
        rows.append(["peak queue-table entries (observed)", str(max(peaks_q)),
                     f"capacity {vtq.queue_table_entries}"])
        rows.append(["peak count-table entries (observed)", str(max(peaks_c)),
                     f"capacity {vtq.count_table_entries}; paper saw <=549"])
    return {
        "title": "Section 6.5: area overheads",
        "headers": ["structure", "size / value", "reference"],
        "rows": rows,
    }


class Figure(NamedTuple):
    """A table, and the case function whose rows it resolves (``None``
    for tables that run no simulator cases)."""

    table: Callable[[ExperimentContext], Dict]
    cases: Optional[Callable[[ExperimentContext], List[CaseRow]]] = None


def figure_registry() -> Dict[str, Figure]:
    """Name -> :class:`Figure`, the single source for CLI and tooling.

    The names are what ``python -m repro figure <name>`` accepts; the
    case functions are what :func:`cases_for_figure` flattens.
    """
    return {
        "table1": Figure(table1_configuration),
        "table2": Figure(table2_scenes),
        "fig1": Figure(fig01_baseline_bottlenecks, fig01_cases),
        "fig5": Figure(fig05_analytical_model),
        "fig10": Figure(fig10_overall_speedup, fig10_cases),
        "gaussian": Figure(fig_gaussian_policies, gaussian_cases),
        "fig11": Figure(fig11_missrate_over_time, fig11_cases),
        "fig12": Figure(fig12_grouping_thresholds, fig12_cases),
        "fig13": Figure(fig13_warp_repacking, fig13_cases),
        "fig14": Figure(fig14_mode_cycles, vtq_cases),
        "fig15": Figure(fig15_mode_tests, vtq_cases),
        "fig16": Figure(fig16_virtualization_overhead, fig16_cases),
        "fig17": Figure(fig17_energy, fig17_cases),
        "sec65": Figure(sec65_area_overheads, vtq_cases),
    }


def cases_for_figure(name: str, context: ExperimentContext) -> List[CaseSpec]:
    """The cases figure ``name`` runs, in the order its table runs them."""
    cases = figure_registry()[name].cases
    if cases is None:
        return []
    return [spec for _scene, specs in cases(context) for spec in specs]


def cases_for_figures(
    names: Sequence[str], context: ExperimentContext
) -> List[CaseSpec]:
    """Deduplicated union of :func:`cases_for_figure` over ``names``."""
    merged: List[CaseSpec] = []
    for name in names:
        merged.extend(cases_for_figure(name, context))
    return list(dict.fromkeys(merged))


def warm_figures(
    names: Sequence[str], context: ExperimentContext, jobs: Optional[int] = None
) -> int:
    """Fan the named figures' cases out over ``jobs`` workers (default
    ``REPRO_JOBS``) into the disk cache, for the tables to replay as
    cache hits; returns cases warmed (none with fewer than two workers).
    """
    if jobs is None:
        jobs = jobs_from_env()
    if jobs <= 1:
        return 0
    return warm_cases(cases_for_figures(names, context), context, jobs=jobs)
