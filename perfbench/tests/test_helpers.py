"""Unit tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from perfbench.stats import (  # noqa: E402
    MIN_BEYOND,
    beyond,
    due_times,
    percentile,
    tail_percentile,
)
from array import array  # noqa: E402

from perfbench.host import REFERENCE_RATE, HostMeter  # noqa: E402
from perfbench.run import end_to_end  # noqa: E402
from perfbench.tracer import Span, Tracer, covered, lane_accounting, load_spans, self_times  # noqa: E402


class TestTailPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100

    def test_beyond_counts_ranks_above(self):
        assert beyond(100, 0.9) == 10
        assert beyond(100, 0.99) == 1
        assert beyond(20, 0.5) == 10

    def test_preferred_percentile_when_enough_samples_beyond(self):
        values = list(range(1, 1001))
        fraction, value, qualified = tail_percentile(values, 0.99)
        assert (fraction, value, qualified) == (0.99, 990.0, True)
        assert beyond(len(values), fraction) >= MIN_BEYOND

    def test_steps_down_until_ten_samples_beyond(self):
        # 100 samples: p99 and p95 leave 1 and 5 beyond; p90 leaves 10.
        fraction, value, qualified = tail_percentile(list(range(1, 101)), 0.99)
        assert (fraction, value, qualified) == (0.9, 90.0, True)

    def test_never_above_preferred(self):
        fraction, _, _ = tail_percentile(list(range(1, 10001)), 0.9)
        assert fraction == 0.9

    def test_too_few_samples_reports_max_unqualified(self):
        fraction, value, qualified = tail_percentile([3.0, 1.0, 2.0], 0.99)
        assert (fraction, value, qualified) == (1.0, 3.0, False)

    def test_nineteen_samples_fall_short_of_the_median(self):
        assert tail_percentile(list(range(19)), 0.5)[2] is False
        assert tail_percentile(list(range(20)), 0.5)[:2] == (0.5, 9.0)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail_percentile([], 0.9)


class TestPacedSource:
    def test_due_times_are_fixed_by_start_and_rate(self):
        assert due_times(5.0, 4.0, 4) == [5.0, 5.25, 5.5, 5.75]

    def test_due_times_ignore_progress(self):
        # item i is due at start + i / rate however late earlier items ran
        due = due_times(0.0, 31.25, 1000)
        assert due[0] == 0.0
        assert due[999] == pytest.approx(999 / 31.25)
        gaps = {round(b - a, 9) for a, b in zip(due, due[1:])}
        assert gaps == {round(1 / 31.25, 9)}

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            due_times(0.0, 0.0, 3)


def _span(sid, name, start, end, parent=0, lane=("p", "main")):
    return Span(sid, name, start, end, parent, 0, lane)


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
        assert covered([(0, 10), (5, 15), (20, 30)], 8, 25) == 12
        assert covered([], 0, 10) == 0

    def test_self_time_subtracts_same_lane_children(self):
        spans = [
            _span(1, "analyze", 0, 100),
            _span(2, "tag", 10, 30, parent=1),
            _span(3, "simplify", 30, 70, parent=1),
            _span(4, "lift", 40, 50, parent=3),
        ]
        selfs = self_times(spans)
        assert selfs == {1: 40, 2: 20, 3: 30, 4: 10}

    def test_children_on_other_lanes_are_concurrent_not_nested(self):
        spans = [
            _span(1, "scan", 0, 100),
            _span(2, "run_shard", 10, 90, parent=1, lane=("worker", "main")),
        ]
        assert self_times(spans)[1] == 100

    def test_lane_accounting_adds_up_to_wall(self):
        lane = ("p", "main")
        spans = [
            _span(1, "setup", 5, 25),
            _span(2, "schedule", 10, 15, parent=1),
            _span(3, "analyze", 30, 60),
            _span(4, "tag", 35, 45, parent=3),
            _span(5, "analyze", 70, 90),
            _span(6, "elsewhere", 0, 100, lane=("q", "worker")),
        ]
        account = lane_accounting(spans, lane, 0, 100)
        assert account["self"] == {"analyze": 40, "setup": 15, "tag": 10, "schedule": 5}
        assert account["other"] == 30
        assert sum(account["self"].values()) + account["other"] == account["wall"] == 100


def test_tracer_records_nested_spans_and_counts(tmp_path):
    tracer = Tracer(str(tmp_path))

    def leaf(x):
        return x

    def outer(x):
        return wrapped_leaf(x) + 1

    wrapped_leaf = tracer.wrap("leaf", leaf, lambda counts, result: counts.update(
        leaves=counts.get("leaves", 0) + 1))
    wrapped_outer = tracer.wrap("outer", outer)
    with tracer.span("bench.op"):
        assert wrapped_outer(1) == 2
        assert wrapped_outer(2) == 3
    spans, counts = load_spans([tracer.payload()])
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    (op,) = by_name["bench.op"]
    assert counts == {"leaves": 2}
    assert all(s.parent == op.id and s.op == op.id for s in by_name["outer"])
    outer_ids = {s.id for s in by_name["outer"]}
    assert all(s.parent in outer_ids for s in by_name["leaf"])
    account = lane_accounting(spans, op.lane, op.start, op.end)
    assert account["other"] == 0
    assert sum(account["self"].values()) == op.end - op.start


def test_tracer_skips_missing_targets(tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.install([
        ("perfbench.no_such_module", "", "f", "x", None, True),
        ("perfbench.stats", "", "no_such_function", "y", None, True),
    ])
    assert len(tracer.skipped) == 2


def _meter(readings):
    """A meter holding ``(stamp, rate as a share of the reference)``."""
    meter = HostMeter()
    meter.stamps = [stamp for stamp, _ in readings]
    meter.rates = [share * REFERENCE_RATE for _, share in readings]
    return meter


class TestHostScaling:
    def test_reading_records_a_rate_and_its_time(self):
        meter = HostMeter()
        meter.read(2)
        assert len(meter.rates) == len(meter.stamps) == 2
        assert all(rate > 0 for rate in meter.rates)
        assert meter.stamps == sorted(meter.stamps)
        assert meter.busy_s > 0

    def test_factor_is_the_mean_rate_over_the_reference(self):
        assert _meter([(0.0, 0.5), (1.0, 1.5)]).factor() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            HostMeter().factor()

    def test_local_factor_averages_the_readings_in_the_window(self):
        meter = _meter([(0.0, 1.0), (0.5, 0.5), (2.0, 2.0), (10.0, 0.8)])
        factors = meter.local_factors([0.2, 1.2, 2.5], window=1.0)
        assert list(factors) == pytest.approx([0.75, 1.25, 2.0])

    def test_local_factor_falls_back_to_the_nearest_reading(self):
        meter = _meter([(0.0, 1.0), (10.0, 0.8)])
        factors = meter.local_factors([-5.0, 3.0, 8.0, 20.0], window=1.0)
        assert list(factors) == pytest.approx([1.0, 1.0, 0.8, 0.8])


def _run(latencies, factors, rate, host_factor=None, paced=False):
    measured = {"timed_s": 10.0, "tx_per_s": rate, "peak_rss_mb": 50.0}
    if host_factor is not None:
        measured["host_factor"] = host_factor
    if paced:
        measured["paced"] = True
    return {"latencies": array("d", latencies), "factors": array("d", factors),
            "measured": measured}


class TestEndToEndScaling:
    def test_latencies_scale_by_their_own_factor_and_rates_by_the_run(self):
        run = _run([10.0] * 20 + [20.0] * 20, [1.0] * 20 + [0.5] * 20, 100.0, 0.8)
        metrics, _ = end_to_end("service", [run], [(2.0, 0.5), (4.0, 1.0)])
        assert metrics["latency_ms_p50"] == 10.0  # every scaled latency
        assert metrics["tx_per_s"] == pytest.approx(125.0)
        assert metrics["setup_s"] == pytest.approx(2.5)  # median of 1.0, 4.0
        raw, _ = end_to_end("service", [run], [(2.0, 0.5), (4.0, 1.0)], scaled=False)
        assert raw["latency_ms_p50"] == 10.0 and raw["latency_ms_tail"] == 20.0
        assert (raw["tx_per_s"], raw["setup_s"]) == (100.0, 3.0)

    def test_unread_host_and_paced_rate_stay_raw(self):
        unread = _run([5.0] * 30, [], 40.0)
        metrics, _ = end_to_end("scan", [unread], [(1.0, 1.0)])
        assert (metrics["latency_ms_p50"], metrics["tx_per_s"]) == (5.0, 40.0)
        paced = _run([5.0] * 30, [2.0] * 30, 500.0, 2.0, paced=True)
        metrics, _ = end_to_end("stream", [paced], [(1.0, 1.0)])
        assert (metrics["latency_ms_p50"], metrics["tx_per_s"]) == (10.0, 500.0)
