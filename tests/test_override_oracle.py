"""Live GPU-override points against a fresh render on the scalar engines.

``run_case(..., gpu_overrides=X)`` prices a point on the runner's cached
scene and BVH, and on the scene's cached render plan when the override
keeps the BVH.  The oracle shares none of that: it loads the scene,
builds the BVH the point's setup asks for (line size and treelet budget
included) and renders it on the scalar engines.  A plan reused where the
override should have rebuilt it, a BVH keyed or laid out for the wrong
point, or an override that never reaches the timing model shows up as a
metric mismatch.  The grid covers the VTQ policy and the two layout axes
(``l1_bytes`` sets the treelet budget, ``line_bytes`` the node layout).
"""

import json
from dataclasses import replace

import pytest

from repro.bvh import LayoutConfig, build_scene_bvh
from repro.experiments.runner import (
    ExperimentContext,
    default_context,
    extract_metrics,
    run_case,
)
from repro.gpusim import set_soa_engine
from repro.scenes import load_scene
from repro.tracing import render_scene

OVERRIDES = [
    (("l2_bytes", 1 << 20),),
    (("dram_latency", 700),),
    (("l1_bytes", 4096),),
    (("line_bytes", 64),),
    (("num_sms", 3),),
    (("dram_latency", 300), ("l2_bytes", 512 * 1024)),
]

POLICIES = ("baseline", "prefetch", "vtq")


@pytest.fixture(scope="module")
def ctx():
    base = default_context(fast=True)
    return ExperimentContext(
        setup=base.setup, scene_list=base.scene_list, use_disk_cache=False
    )


def _fresh_metrics(scene_name, setup):
    """Per-policy metric dicts of a scalar render built from scratch."""
    scene = load_scene(scene_name, scale=setup.scene_scale)
    bvh = build_scene_bvh(
        scene.mesh,
        layout_config=LayoutConfig(line_bytes=setup.gpu.line_bytes),
        treelet_budget_bytes=setup.gpu.treelet_bytes,
    )
    previous = set_soa_engine(False)
    try:
        out = {}
        for policy in POLICIES:
            metrics = extract_metrics(
                render_scene(scene, bvh, setup, policy=policy), setup
            )
            metrics["scene"] = scene_name
            metrics["policy"] = policy
            out[policy] = metrics
        return out
    finally:
        set_soa_engine(previous)


@pytest.mark.parametrize("overrides", OVERRIDES, ids=lambda o: ",".join(
    f"{name}={value}" for name, value in o
))
@pytest.mark.parametrize("scene_name", ["BUNNY", "GSPL1"])
def test_live_point_matches_fresh_scalar_render(ctx, scene_name, overrides):
    setup = replace(ctx.setup, gpu=replace(ctx.setup.gpu, **dict(overrides)))
    oracle = _fresh_metrics(scene_name, setup)
    for policy in POLICIES:
        live = run_case(scene_name, policy, ctx, gpu_overrides=overrides)
        assert json.dumps(live, sort_keys=True) == json.dumps(
            oracle[policy], sort_keys=True
        ), (scene_name, policy, overrides)
