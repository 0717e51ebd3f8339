"""Declarative design-space sweeps.

One-liners for the exploration loop architects actually run: pick a
scene, pick a parameter (of the VTQ design or of the GPU), give a value
list, get back a figure-style table (renderable with ``format_table``,
exportable with ``report.export``) of cycles / speedup / SIMT efficiency
/ treelet-mode share per point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.core.config import VTQConfig
from repro.experiments.runner import ExperimentContext, run_case


def _metrics_row_from_dict(label: str, baseline_cycles: float, m: Dict) -> List[str]:
    """One table row, built from a run_case metric dict."""
    return [
        label,
        f"{m['cycles']:,.0f}",
        f"{baseline_cycles / m['cycles']:.2f}x",
        f"{m['simt_efficiency']:.2f}",
        f"{m['mode_test_fractions']['treelet_stationary']:.3f}",
    ]


_HEADERS = ["value", "cycles", "speedup", "SIMT eff", "treelet share"]


def sweep_vtq_param(
    scene_name: str,
    context: ExperimentContext,
    param: str,
    values: Sequence,
    base: Optional[VTQConfig] = None,
) -> Dict:
    """Sweep one :class:`VTQConfig` field on one scene.

    Every point is one :func:`~repro.experiments.runner.run_case`, so it
    is cached, budgeted and sanitized like any case.  Raises
    ``ValueError`` for unknown fields (typos must not silently sweep
    nothing).
    """
    base = base or VTQConfig()
    if not hasattr(base, param):
        raise ValueError(f"VTQConfig has no field {param!r}")
    baseline = run_case(scene_name, "baseline", context)
    rows = []
    for value in values:
        cfg = replace(base, **{param: value})
        m = run_case(scene_name, "vtq", context, vtq=cfg)
        rows.append(_metrics_row_from_dict(str(value), baseline["cycles"], m))
    return {
        "title": f"VTQ sweep on {scene_name}: {param} in {list(values)}",
        "headers": _HEADERS,
        "rows": rows,
    }


def sweep_gpu_param(
    scene_name: str,
    context: ExperimentContext,
    param: str,
    values: Sequence,
    policy: str = "vtq",
) -> Dict:
    """Sweep one :class:`GPUConfig` field on one scene.

    Each point re-renders the baseline too (the baseline changes with the
    GPU), so the speedup column stays meaningful.  Every point is one
    :func:`~repro.experiments.runner.run_case` with per-point GPU
    overrides, so it is cached, budgeted and sanitized like any case,
    and an axis that changes the BVH (``l1_bytes`` sets the treelet
    budget) renders on the BVH built for that point.
    """
    if not hasattr(context.setup.gpu, param):
        raise ValueError(f"GPUConfig has no field {param!r}")
    rows = []
    for value in values:
        overrides = ((param, value),)
        base = run_case(scene_name, "baseline", context, gpu_overrides=overrides)
        m = (
            base
            if policy == "baseline"
            else run_case(scene_name, policy, context, gpu_overrides=overrides)
        )
        rows.append(_metrics_row_from_dict(str(value), base["cycles"], m))
    return {
        "title": f"GPU sweep on {scene_name}: {param} in {list(values)} "
        f"(policy {policy})",
        "headers": _HEADERS,
        "rows": rows,
    }


def sweep_scenes(
    context: ExperimentContext,
    policy: str = "vtq",
    vtq: Optional[VTQConfig] = None,
) -> Dict:
    """One row per scene in the context: the whole-suite summary table."""
    rows = []
    for scene in context.scenes():
        base = run_case(scene, "baseline", context)
        m = run_case(scene, policy, context, vtq=vtq)
        rows.append(_metrics_row_from_dict(scene, base["cycles"], m))
    return {
        "title": f"Per-scene summary (policy {policy})",
        "headers": ["scene"] + _HEADERS[1:],
        "rows": rows,
    }
