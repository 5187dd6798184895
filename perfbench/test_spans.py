"""Tests of the benchmark's own arithmetic and wiring.

    python3 -m pytest perfbench -q
"""

import json
import types
from pathlib import Path

import pytest

import layers
import run
from spans import Span, Tracer, children_of, covered, median, per_pass_totals, \
    quartile_spread, self_time

ROOT = Path(__file__).resolve().parent.parent


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([(2, 4), (2.5, 3)], 0, 10) == 2
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_what_children_cover():
    spans = [Span("outer", 0.0, 10.0, None, 0),
             Span("a", 1.0, 3.0, 0, 0),
             Span("b", 2.0, 5.0, 0, 0),
             Span("leaf", 2.5, 2.75, 2, 0)]   # grandchild: inside b, not outer's child
    kids = children_of(spans)
    assert self_time(spans, 0, kids) == pytest.approx(6.0)
    assert self_time(spans, 2, kids) == pytest.approx(2.75)
    assert self_time(spans, 3, kids) == pytest.approx(0.25)


def test_per_pass_totals_count_a_recursive_name_once_and_divide_by_passes():
    spans = [Span("f", 0.0, 4.0, None, 0, {"bytes": 10}),
             Span("f", 1.0, 2.0, 0, 0, {"bytes": 6}),
             Span("f", 5.0, 7.0, None, 1, {"bytes": 4})]
    row = per_pass_totals(spans, passes=2)["f"]
    assert row["ms"] == pytest.approx((4.0 + 2.0) * 1e3 / 2)
    assert row["self_ms"] == pytest.approx((3.0 + 1.0 + 2.0) * 1e3 / 2)
    assert row["calls"] == 1.5
    assert row["bytes"] == 10


def test_median_and_quartile_spread():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    # statistics.quantiles(range 1..10, n=4) gives 2.75 and 8.25.
    assert quartile_spread(range(1, 11)) == pytest.approx((8.25 - 2.75) / 5.5)
    with pytest.raises(ValueError):
        median([])


def test_tracer_replaces_every_binding_and_restores_them():
    def work(x):
        return x + 1

    home = types.ModuleType("home")
    home.work = work
    user = types.ModuleType("user")
    user.work = work                      # bound at import, as `from .home import work`
    user.TABLE = {"go": work}             # dispatch table, as cli._COMMANDS

    tracer = Tracer([home, user])
    tracer.wrap(home, "work", "home.work", lambda a, k, r: {"out": r})
    assert user.work is not work and user.TABLE["go"] is not work
    assert user.work(1) == 2 and not tracer.spans     # no pass open: not recorded
    with tracer.recording(7):
        user.TABLE["go"](2)
    tracer.uninstall()
    assert home.work is work and user.work is work and user.TABLE["go"] is work
    [span] = tracer.spans
    assert (span.name, span.pass_id, span.parent, span.counts) == ("home.work", 7, None, {"out": 3})


def test_benchmark_json_lists_exactly_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()

    class Ledger:
        attempted, failed = 10, 0

    times = {"pass": 1.0, "train": 1.0, "perm": 0.1, "dct": 0.2,
             "pgd-linf": 0.5, "cw-l2": 1.5}
    samples = {name: [times] for name in run.WORKLOADS}
    metrics = run.end_to_end(samples, [2.0, 1.0, 3.0], 100.0, Ledger())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: metric["unit"] for name, metric in metrics.items()}
    assert metrics["setup_s"]["value"] == 2.0
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
