"""Alternating A/B pairs of benchmark runs: a parent checkout against a change.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload rank --seed 1 --pairs 10

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each directory, one after the other, the parent first in
even pairs and the change first in odd ones; T is the ``run_seconds`` of the
change's ``BENCHMARK.json`` (20).  For each of its end-to-end metrics it
then prints the parent's median and quartiles, the change's median, their
ratio (change / parent) and the pairs the change won, ties counting for
neither.  It exits 1 as soon as a run reports ``"correct": false`` or gives
no result.  It writes nothing itself; the runs write their own
``perfbench/out/`` in each directory.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles


def summarize(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric in ``better`` (name -> "higher" or "lower") over
    runs given as {metric: value}, ``parent[i]`` paired with ``change[i]``:
    the parent's median and quartiles, the change's median, their ratio and
    the pairs the change won."""
    rows = []
    for name, way in better.items():
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        q1, _q2, q3 = quantiles(a, n=4, method="inclusive") if len(a) > 1 else a * 3
        sign = 1 if way == "higher" else -1
        rows.append({"metric": name, "better": way, "parent_median": median(a),
                     "parent_q1": q1, "parent_q3": q3, "change_median": median(b),
                     "ratio": median(b) / median(a),
                     "wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
                     "pairs": len(a)})
    return rows


def run_once(directory: str, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced run in ``directory``; exits 1 unless the
    run reports every op correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"ab_pairs: no result from {directory} (exit {done.returncode}):\n"
                 f"{done.stderr}")
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        sys.exit(f"ab_pairs: a run in {directory} was not correct: "
                 f"{result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       args.seed, seconds))
        print(f"pair {i + 1}: ops_per_s parent {runs['parent'][-1].get('ops_per_s')} "
              f"change {runs['change'][-1].get('ops_per_s')}", flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, {seconds:g} s runs")
    print(f"{'metric':<12} {'better':<7} {'parent median [q1, q3]':<32} "
          f"{'change median':<14} {'ratio':<8} wins")
    for r in summarize(runs["parent"], runs["change"], better):
        spread = f"{r['parent_median']:.5g} [{r['parent_q1']:.5g}, {r['parent_q3']:.5g}]"
        print(f"{r['metric']:<12} {r['better']:<7} {spread:<32} {r['change_median']:<14.5g} "
              f"{r['ratio']:<8.4f} {r['wins']}/{r['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
