"""Self-tests for the benchmark's helpers."""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest

import tropdiv
import tropdiv.cli
from tropdiv import chainbn, independence, reduce

import run
import stats
from stats import SpeedProbe
from tracer import NullTracer, Tracer, instrumented, summarize
from workloads import WORKLOADS, Reduce


@pytest.mark.parametrize("n, pct", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (203, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    if pct is not None:
        assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [float(x) for x in range(10, 0, -1)]
    assert stats.percentile(values, 50) == 5.0
    assert stats.percentile(values, 90) == 9.0
    assert stats.percentile(values, 100) == 10.0
    assert stats.percentile([3.0], 99) == 3.0


def test_speed_probe_returns_result_and_excludes_its_own_samples():
    probe = SpeedProbe()
    out, wall, ref = probe.measure(lambda: sum(range(200_000)))
    assert out == sum(range(200_000))
    assert wall > 0 and ref > 0
    assert len(probe.samples) >= 2
    brackets_only = SpeedProbe(interval=None)
    brackets_only.measure(lambda: sum(range(200_000)))
    assert len(brackets_only.samples) == 2


def _span(sid, parent, name, start, end):
    return [sid, parent, 0, name, start, end]


def test_self_time_is_span_minus_children():
    spans = [
        _span(0, -1, "op", 0, 100),
        _span(1, 0, "reduce.rank", 10, 40),
        _span(2, 1, "reduce.rank", 15, 25),     # recursive: not busy twice
        _span(3, 2, "plfunc.add", 16, 20),
        _span(4, 0, "serialize.dumps", 50, 60),
    ]
    s = summarize(spans)
    ns = 1e-9
    assert s["self"]["op"] == pytest.approx(60 * ns)
    assert s["self"]["reduce.rank"] == pytest.approx((20 + 6) * ns)
    assert s["self"]["plfunc.add"] == pytest.approx(4 * ns)
    assert s["busy"]["reduce.rank"] == pytest.approx(30 * ns)
    assert s["calls"]["reduce.rank"] == 2
    assert s["layer_self"]["reduce"] == pytest.approx(26 * ns)
    assert s["uncovered"] == pytest.approx(60 * ns)
    assert s["op_wall"] == pytest.approx(100 * ns)


class TamperedReduce(Reduce):
    """Four ops per round; the second returns a wrong reduced divisor and
    the third raises."""

    def make_round(self):
        return super().make_round()[:4]

    def run(self, op):
        res, text = super().run(op)
        k = self.calls = getattr(self, "calls", 0) + 1
        if k == 2:
            res.reduced = res.reduced + tropdiv.Divisor({op[1]: 1})
        if k == 3:
            raise RuntimeError("injected")
        return res, text


def test_tampered_and_raising_ops_are_counted_not_fatal():
    wl = TamperedReduce(7, NullTracer())
    latencies, failures = [], []
    run.run_round(wl, NullTracer(), SpeedProbe(), latencies, [], failures)
    assert len(latencies) == 4
    assert len(failures) == 2
    assert "injected" in failures[1]


def test_instrumentation_records_nested_spans_and_restores():
    originals = (reduce.v_reduce, chainbn.find_dependence, tropdiv.v_reduce,
                 tropdiv.PLFunction.__add__)
    chain = tropdiv.default_generic_chain(2)
    tracer = Tracer()
    with instrumented(tracer, tropdiv):
        with tracer.span("op"):
            reduce.riemann_roch_check(chain.graph, tropdiv.canonical_divisor(chain.graph))
    assert (reduce.v_reduce, chainbn.find_dependence, tropdiv.v_reduce,
            tropdiv.PLFunction.__add__) == originals
    names = {sp[3] for sp in tracer.spans}
    assert {"op", "reduce.riemann_roch_check", "reduce.rank",
            "reduce.v_reduce_plain"} <= names
    s = summarize(tracer.spans)
    assert s["calls"]["reduce.riemann_roch_check"] == 1
    assert all(sp[5] >= sp[4] for sp in tracer.spans)
    assert tracer.counts["reduce.v_reduce_plain.steps"] >= 0


def test_manifest_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == run.PER_LAYER
    with open(os.path.join(HERE, "predictions.json")) as fh:
        predictions = json.load(fh)
    for p in predictions["per_layer"]:
        assert set(p["metrics"]) <= set(run.PER_LAYER), p
        assert set(p["moves"]) <= set(run.END_TO_END), p
        assert set(p["on"]) <= set(WORKLOADS), p
    assert set(predictions["workloads"]) == set(WORKLOADS)
