import types

import pytest

from tracer import Tracer, layer_metrics


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    def hot():
        clock.advance(0.5)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        traced_hot()
        traced_hot()

    def outer():
        clock.advance(3.0)
        traced_middle()

    traced_leaf = tracer.span(leaf, "leaf")
    traced_hot = tracer.fine(hot, "hot", count=lambda args: 3, count_name="n")
    traced_middle = tracer.span(middle, "middle", case_of=lambda a, k: "case-1")
    tracer.span(outer, "outer")()

    busy = {layer: acc[0] for layer, acc in tracer.layers.items()}
    own = {layer: acc[1] for layer, acc in tracer.layers.items()}
    assert busy == {"leaf": 2.0, "hot": 1.0, "middle": 4.0, "outer": 7.0}
    assert own == {"leaf": 2.0, "hot": 1.0, "middle": 1.0, "outer": 3.0}
    # Self times telescope to the root span's duration.
    assert sum(own.values()) == 7.0
    assert tracer.counts["n"] == [6]

    spans = {s["name"]: s for s in tracer.state()["spans"]}
    assert set(spans) == {"leaf", "middle", "outer"}  # fine calls leave no span
    assert spans["outer"]["parent"] == -1
    assert spans["middle"]["parent"] == tracer.spans.index(spans["outer"])
    assert spans["leaf"]["case"] == "case-1"  # inherited from its parent
    assert spans["middle"]["self"] == 1.0


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.span(boom, "boom")()
    assert tracer.stack == []
    assert tracer.layers["boom"] == [1.0, 1.0, 1]


def test_install_wraps_the_callers_name_and_uninstall_restores_it():
    from repro.experiments import parallel, runner
    from repro.resilience import SweepJournal

    originals = (runner.render_scene, parallel.run_cases,
                 SweepJournal.__dict__["for_cases"])
    tracer = Tracer().install()
    try:
        assert runner.render_scene is not originals[0]
        assert parallel.run_cases is not originals[1]
        assert isinstance(SweepJournal.__dict__["for_cases"], classmethod)
    finally:
        tracer.uninstall()
    assert (runner.render_scene, parallel.run_cases,
            SweepJournal.__dict__["for_cases"]) == originals


def test_layer_metrics_derive_ratios():
    tally = {
        "layers": {"soa.plan": [2.0, 2.0, 1], "memory": [1.0, 1.0, 10]},
        "counts": {"plan_gets": 4, "lines": 1000},
    }
    metrics = layer_metrics(tally)
    assert metrics["soa.plan_hit_ratio"] == 0.75
    assert metrics["memory.ns_per_line"] == pytest.approx(1e6)
    assert metrics["memtrace.replays"] == 0


def test_render_spans_count_scalar_engine_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def render(engine):
        clock.advance(1.5)
        return types.SimpleNamespace(engine=engine)

    from tracer import _note_engine

    traced = tracer.span(render, "tracing", on_result=_note_engine)
    traced("soa")
    traced("scalar")
    assert tracer.counts["scalar_render_s"] == [1.5]
