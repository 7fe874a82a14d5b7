"""The tropdiv benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 20 --trace 0

It imports the library from ``src/`` under the current directory, sets the
workload up from the seed several times, then runs it as one
single-threaded closed loop: the next op starts when the previous one has
returned and been checked.  It runs the whole rounds that fill about
``--seconds`` of op time at the reference machine speed (see stats.py).
The last line of standard output is the result as JSON; the line before
it holds the run's metadata.  With ``--trace 1`` half as many rounds run
on each of two copies of the workload, one untraced and one traced, and
the run reports the per-layer metrics and the tracing overhead instead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from statistics import median

from stats import SpeedProbe, percentile, samples_beyond, tail_percentile
from tracer import NullTracer, Tracer, instrumented, summarize

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
MAX_WALL = 1.6

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def _calls_busy(span):
    return {f"{span}.calls": "count", f"{span}.busy_s": "s"}


PER_LAYER = {
    **_calls_busy("reduce.v_reduce_witness"),
    "reduce.v_reduce_witness.steps": "count",
    **_calls_busy("reduce.v_reduce_plain"),
    "reduce.v_reduce_plain.steps": "count",
    **_calls_busy("reduce.riemann_roch_check"),
    **_calls_busy("reduce.rank_oracle"),
    **_calls_busy("plfunc.divisor"),
    "plfunc.witness_breakpoints": "count",
    **_calls_busy("plfunc.add"),
    **_calls_busy("plfunc.min_combination"),
    **_calls_busy("independence.find_dependence"),
    "independence.candidates": "count",
    "independence.full_checks": "count",
    "independence.useful_ratio": "ratio",
    **_calls_busy("independence.verify_dependence"),
    "independence.known_misses": "count",
    **_calls_busy("chainbn.build_pairs"),
    **_calls_busy("chainbn.shape_profile"),
    **_calls_busy("serialize.dumps"),
    "serialize.dumps.bytes": "bytes",
    **_calls_busy("cli.gp0"),
    **_calls_busy("graph.chain_build"),
    "sampling.inputs.busy_s": "s",
    **{f"{layer}.self_s": "s" for layer in
       ("graph", "plfunc", "reduce", "independence", "chainbn", "serialize",
        "sampling", "cli")},
    "trace.uncovered_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def load_library():
    """Import tropdiv from ./src, and nothing else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "tropdiv", "__init__.py")):
        sys.stderr.write("perfbench: src/tropdiv not found; run from the "
                         "repository root\n")
        sys.exit(2)
    sys.path.insert(0, src)
    import tropdiv
    import tropdiv.cli  # noqa: F401  (instrumented alongside the package)
    if not os.path.abspath(tropdiv.__file__).startswith(src + os.sep):
        sys.stderr.write(f"perfbench: imported {tropdiv.__file__}, not {src}\n")
        sys.exit(2)
    return tropdiv


def run_round(wl, tracer, speed, lat: list, raw: list, failures: list) -> None:
    """One round of ops, each timed, then checked with tracing paused.
    A failed op is recorded and the loop goes on."""
    for op in wl.next_round():
        tracer.op = len(lat)

        def attempt():
            with tracer.span("op"):
                try:
                    return wl.run(op), None
                except Exception:
                    return None, traceback.format_exc(limit=3)

        (out, err), wall, ref = speed.measure(attempt)
        lat.append(ref)
        raw.append(wall)
        with tracer.paused():
            try:
                ok = err is None and wl.check(op, out)
            except Exception:
                ok, err = False, traceback.format_exc(limit=3)
        if not ok:
            failures.append(err or f"wrong output on op {len(lat) - 1}")
    tracer.op = -1


def rounds_for(cls, seconds: float) -> int:
    """Whole rounds filling ``seconds`` of op time at the reference speed.
    The count depends on nothing measured, so every run of a seed does
    the same ops and counts repeat exactly.  Only on a machine far slower
    than the reference does an untraced run stop early, after the round
    that takes its loop past MAX_WALL * seconds of wall time."""
    return max(1, round(seconds / cls.round_s))


def end_to_end(cls, seed, seconds):
    null = NullTracer()
    speed = SpeedProbe()
    setups, setups_raw = [], []
    wl = None
    for _ in range(cls.setup_repeats):
        if wl is not None:
            wl.close()
        wl, wall, ref = speed.measure(lambda: cls(seed, null))
        setups.append(ref)
        setups_raw.append(wall)
    lat: list[float] = []
    raw: list[float] = []
    failures: list[str] = []
    rounds = rounds_for(cls, seconds)
    start = time.perf_counter()
    try:
        for done in range(1, rounds + 1):
            run_round(wl, null, speed, lat, raw, failures)
            if time.perf_counter() - start > MAX_WALL * seconds:
                break
        probe = wl.probe()
    finally:
        wl.close()

    n = len(lat)
    tail = tail_percentile(n) or 50.0

    def summary(setup, lat):
        return {"setup_s": median(setup),
                "ops_per_s": len(lat) / sum(lat),
                "op_p50_ms": 1e3 * median(lat),
                "op_tail_ms": 1e3 * percentile(lat, tail)}

    metrics = summary(setups, lat)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    meta = {"ops": n, "rounds": done, "rounds_planned": rounds,
            "latencies_ms": [1e3 * x for x in lat],
            "setups": len(setups), "wall_clock": summary(setups_raw, raw),
            "tail_pct": tail, "tail_samples_beyond": samples_beyond(n, tail),
            "failed_frac": len(failures) / n, **probe}
    return metrics, END_TO_END, n, failures, meta


def per_layer(cls, seed, seconds, td):
    # the same rounds run untraced and traced on two workloads built from
    # the same seed, alternating which goes first, so that drift in machine
    # speed falls on both sides of the tracing overhead
    rounds = max(1, rounds_for(cls, seconds) // 2)
    null = NullTracer()
    speed = SpeedProbe(interval=None)
    tracer = Tracer()
    plain = cls(seed, null)
    with instrumented(tracer, td):
        traced = cls(seed, tracer)
    lat0: list[float] = []
    lat1: list[float] = []
    raw: list[float] = []
    failures: list[str] = []
    try:
        for r in range(rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                if side == 0:
                    run_round(plain, null, speed, lat0, raw, failures)
                else:
                    with instrumented(tracer, td):
                        run_round(traced, tracer, speed, lat1, raw, failures)
        probe = plain.probe()
    finally:
        plain.close()
        traced.close()
    s = summarize(tracer.spans)
    spans = tracer.spans
    full_checks = sum(1 for sp in spans
                      if sp[3] == "independence.verify_dependence" and sp[1] >= 0
                      and spans[sp[1]][3] == "independence.find_dependence")
    found = tracer.counts.get("independence.certificates", 0)
    counts = {**tracer.counts, **probe,
              "independence.full_checks": full_checks,
              "independence.useful_ratio": found / full_checks if full_checks else 0.0,
              "trace.uncovered_frac": s["uncovered"] / s["op_wall"],
              "trace.overhead_frac": sum(lat1) / sum(lat0) - 1,
              "trace.spans": len(spans)}
    metrics = {}
    for name in PER_LAYER:
        head, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = s["calls"].get(head, 0)
        elif field == "busy_s":
            metrics[name] = s["busy"].get(head, 0.0)
        elif field == "self_s":
            metrics[name] = s["layer_self"][head]
        else:
            metrics[name] = counts.get(name, 0)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{cls.name}-spans.jsonl")
    tracer.write(spans_path)
    n = len(lat0) + len(lat1)
    meta = {"rounds": rounds, "ops_per_phase": len(lat1),
            "untraced_op_s": sum(lat0), "traced_op_s": sum(lat1),
            "wall_clock_op_s": sum(raw),
            "tracing_overhead_s": sum(lat1) - sum(lat0),
            "uncovered_op_s": s["uncovered"], "spans_file": spans_path,
            "failed_frac": len(failures) / n, **probe}
    return metrics, PER_LAYER, n, failures, meta


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    td = load_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    if args.trace:
        values, units, n, failures, meta = per_layer(cls, args.seed, args.seconds, td)
    else:
        values, units, n, failures, meta = end_to_end(cls, args.seed, args.seconds)
    meta = {"workload": cls.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "wall_s": time.perf_counter() - t0,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu": cpu_model(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": git_commit(),
            **meta, "failures": failures[:5]}
    result = {"correct": not failures, "attempted": n, "failed": len(failures),
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    os.makedirs(OUT_DIR, exist_ok=True)
    lat_ms = meta.pop("latencies_ms", None)
    with open(os.path.join(OUT_DIR, f"{cls.name}-trace{args.trace}.json"), "w") as fh:
        json.dump({"metadata": meta, "result": result, "latencies_ms": lat_ms},
                  fh, indent=1)
    print(json.dumps({"metadata": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
