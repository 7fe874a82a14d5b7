"""In-memory spans around the benchmark's calls into each tropdiv module.

A span is ``[id, parent, op, name, start_ns, end_ns]``; ``parent`` is -1
for a root span and ``op`` is -1 outside any op (set-up).  During a traced
phase, ``instrumented`` swaps selected public functions and methods of the
library for wrappers that open a span around each call, and puts the
originals back afterwards.  The library's own files are never modified.
"""
from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

LAYERS = ("graph", "plfunc", "reduce", "independence", "chainbn",
          "serialize", "sampling", "cli")
OP = "op"


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    op = -1

    def span(self, _name):
        return nullcontext()

    def paused(self):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.enabled = True
        self.counts: dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, self.op, name, perf_counter_ns(), 0])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    @contextmanager
    def paused(self):
        """Calls made here (the benchmark's own checks) open no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


def summarize(spans) -> dict:
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts only spans with no ancestor of the same name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus the durations of its direct children; spans are strictly nested
    in one thread, so the children never overlap.
    """
    dur = [sp[5] - sp[4] for sp in spans]
    child = [0] * len(spans)
    for sp, d in zip(spans, dur):
        if sp[1] >= 0:
            child[sp[1]] += d
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for sp, d, c in zip(spans, dur, child):
        name = sp[3]
        calls[name] += 1
        self_s[name] += (d - c) / 1e9
        p = sp[1]
        while p >= 0 and spans[p][3] != name:
            p = spans[p][1]
        if p < 0:
            busy[name] += d / 1e9
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, s in self_s.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s
    return {"calls": dict(calls), "busy": dict(busy), "self": dict(self_s),
            "layer_self": layer_self,
            "op_wall": busy.get(OP, 0.0), "uncovered": self_s.get(OP, 0.0)}


def _wrap(tracer: Tracer, fn, name, after=None):
    """``name`` is a span name or a function of (args, kwargs) giving one;
    ``after(result)`` adds counts read from the call's result."""
    def wrapped(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        sid = tracer.begin(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if after is not None:
            after(result)
        return result
    return wrapped


def _targets(tracer: Tracer, td) -> list:
    """(owner, attribute, wrapper) for every instrumented call."""
    counts = tracer.counts

    def reduce_name(args, kwargs):
        witness = kwargs.get("track_witness", args[3] if len(args) > 3 else True)
        return "reduce.v_reduce_witness" if witness else "reduce.v_reduce_plain"

    def after_reduce(res):
        if res.witness is None:
            counts["reduce.v_reduce_plain.steps"] += res.steps
        else:
            counts["reduce.v_reduce_witness.steps"] += res.steps
            counts["plfunc.witness_breakpoints"] += sum(
                len(pts) for pts in res.witness.data.values())

    def after_dumps(text):
        counts["serialize.dumps.bytes"] += len(text)

    find = td.independence.find_dependence

    def find_dependence(funcs, max_candidates=200_000, report=None):
        # a report is supplied when the caller gives none, so that the
        # candidates the search tried can be counted
        if not tracer.enabled:
            return find(funcs, max_candidates, report)
        if report is None:
            report = td.independence.IndependenceReport()
        sid = tracer.begin("independence.find_dependence")
        try:
            cert = find(funcs, max_candidates, report)
        finally:
            tracer.end(sid)
        counts["independence.candidates"] += report.candidates_tried
        counts["independence.certificates"] += cert is not None
        return cert

    PL = td.plfunc.PLFunction
    sz = td.serialize
    plain = [
        (td.graph.ChainOfLoops, "__init__", "graph.chain_build", None),
        (td.reduce, "v_reduce", reduce_name, after_reduce),
        (td.reduce, "rank", "reduce.rank", None),
        (td.reduce, "riemann_roch_check", "reduce.riemann_roch_check", None),
        (td.reduce, "rank_subdivision_oracle", "reduce.rank_oracle", None),
        (PL, "divisor", "plfunc.divisor", None),
        (PL, "__add__", "plfunc.add", None),
        (td.plfunc, "min_combination", "plfunc.min_combination", None),
        (td.independence, "verify_dependence",
         "independence.verify_dependence", None),
        (td.chainbn, "build_Dj", "chainbn.build_pairs", None),
        (td.chainbn, "shape_profile", "chainbn.shape_profile", None),
        (td.chainbn, "gp_rho_zero_experiment", "chainbn.gp_experiment", None),
        (sz, "dumps", "serialize.dumps", after_dumps),
        (sz, "divisor_to_json", "serialize.to_json", None),
        (sz, "point_to_json", "serialize.to_json", None),
        (sz, "plfunction_to_json", "serialize.to_json", None),
        (sz, "chain_to_json", "serialize.to_json", None),
        (sz, "chain_from_json", "serialize.from_json", None),
        (td.cli, "main", "cli.gp0", None),
    ]
    out = [(owner, attr, _wrap(tracer, getattr(owner, attr), name, after))
           for owner, attr, name, after in plain]
    out.append((td.independence, "find_dependence", find_dependence))
    return out


@contextmanager
def instrumented(tracer: Tracer, td):
    """Route the library's public calls through span wrappers.

    A module-level function is replaced wherever a tropdiv module has bound
    it by name, so calls between library modules are traced too; a method
    is replaced on its class.
    """
    modules = [m for n, m in list(sys.modules.items())
               if n == "tropdiv" or n.startswith("tropdiv.")]
    undo = []
    try:
        for owner, attr, wrapper in _targets(tracer, td):
            original = getattr(owner, attr)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for o in owners:
                undo.append((o, attr, original))
                setattr(o, attr, wrapper)
        yield tracer
    finally:
        for o, attr, original in reversed(undo):
            setattr(o, attr, original)
