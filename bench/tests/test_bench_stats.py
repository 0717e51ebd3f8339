import json
import math

import pytest

import run
import stats


@pytest.mark.parametrize("n, expected", [
    (9, None),       # fewer than ten samples above even the median
    (20, 50.0),      # 10 beyond p50, 5 beyond p75
    (40, 75.0),
    (99, 75.0),      # p90 would leave 9.9 beyond
    (100, 90.0),
    (120, 90.0),     # the served workload: 12 beyond p90
    (999, 95.0),
    (1000, 99.0),
    (10_000, 99.9),
])
def test_rule_percentile_has_ten_samples_beyond(n, expected):
    assert stats.rule_percentile(n) == expected


def test_percentile_interpolates_and_counts_failures_as_infinite():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 100) == 4.0
    assert stats.percentile([], 90) == 0.0
    # A failed operation misses any latency limit.
    assert math.isinf(stats.percentile([0.1, 0.2, None], 100))
    assert stats.percentile([0.1, 0.2, None], 0) == 0.1


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.quartiles(values) == (1.5, 3.0, 4.5)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert stats.spread(values) == pytest.approx(1.0)


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95]


def test_verdict_worse_when_median_moves_past_the_bound():
    slower = [v * 1.2 for v in STEADY]
    assert stats.verdict(STEADY, slower, "lower", 0.1) == "worse"
    # Direction matters: for a throughput the same shift is a gain.
    assert stats.verdict(STEADY, slower, "higher", 0.1) == "better"


def test_verdict_within_bound_for_small_shifts():
    assert stats.verdict(STEADY, [v * 1.005 for v in STEADY], "lower", 0.1) \
        == "within bound"
    assert stats.verdict(STEADY, STEADY, "lower", 0.1) == "within bound"


def test_verdict_better_needs_more_than_the_parents_spread():
    faster = [v * 0.9 for v in STEADY]
    assert stats.verdict(STEADY, faster, "lower", 0.1) == "better"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    shifted = [v * 1.3 for v in noisy]
    assert stats.verdict(noisy, shifted, "lower", 0.1) == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    assert stats.verdict(noisy, [5.0, 5.5, 6.0], "lower", 0.1) == "better"


def test_verdict_from_single_runs_only_flags_regressions():
    assert stats.verdict([10.0], [9.0], "lower", 0.1) == "unresolved"
    assert stats.verdict([10.0], [10.5], "lower", 0.1) == "unresolved"
    assert stats.verdict([10.0], [12.0], "lower", 0.1) == "worse"


def _report(path, values):
    runs = [{"workload": "policy_sweep", "trace": 0,
             "metrics": {"wall_s": v, "setup_s": 1.0}} for v in values]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_exits_nonzero_on_a_regression(tmp_path, capsys):
    with open(run.SPEC) as f:
        spec = json.load(f)
    parent = _report(tmp_path / "a.json", STEADY)
    same = _report(tmp_path / "b.json", STEADY)
    slower = _report(tmp_path / "c.json", [v * 1.5 for v in STEADY])
    assert run.compare(parent, same, spec) == 0
    assert run.compare(parent, slower, spec) == 1
    assert "worse" in capsys.readouterr().out
