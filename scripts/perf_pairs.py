#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload.

Each pair runs ``perfbench/run.py --trace 0`` once from each of two source
checkouts, one after the other, for the run length BENCHMARK.json sets;
even pairs run the parent first, odd pairs the change.  Every run's
end-to-end metrics are printed as it ends.  Then, per end-to-end metric,
each side's median and quartiles, the change's wins out of the pairs (ties
count for neither side) and whether a gain may be claimed: the change wins at
least nine tenths of the pairs, and the medians differ, in the better
direction, by more than the parent's quartile distance.

usage: python scripts/perf_pairs.py PARENT_SRC_ROOT CHANGE_SRC_ROOT
           --workload W --pairs N --seed S
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root, workload, seed, seconds):
    """The metrics dict of one untraced run from checkout ``root``, or None
    if the run failed (its reason is printed)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"  FAILED run in {root} (exit {proc.returncode}): "
              f"{(proc.stderr.strip() or proc.stdout.strip())[-500:]}")
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, statistics.median(values), q3


def summarize(metrics, pairs):
    """One line per end-to-end metric; ``pairs`` holds (parent, change) metric
    dicts of the pairs where both runs succeeded."""
    print(f"\n{len(pairs)} complete pairs")
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            print(f"  {name:<12} no samples")
            continue
        par, chg = [p for p, _ in both], [c for _, c in both]
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        gap = (pmed - cmed) if lower else (cmed - pmed)
        holds = wins >= math.ceil(0.9 * len(both)) and gap > pq3 - pq1
        print(f"  {name:<12} parent {pmed:.4f} [{pq1:.4f}, {pq3:.4f}]  "
              f"change {cmed:.4f} [{cq1:.4f}, {cq3:.4f}]  {spec['unit']}  "
              f"{(cmed / pmed - 1) * 100:+.1f}%  wins {wins}/{len(both)}  "
              f"gain claimable: {'yes' if holds else 'no'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent's source checkout")
    parser.add_argument("change", type=Path, help="root of the change's source checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    pairs = []
    for i in range(args.pairs):
        sides = {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side] = run_once(getattr(args, side), args.workload, args.seed, seconds)
            if sides[side] is not None:
                values = "  ".join(f"{k} {v:.4f}" for k, v in sorted(sides[side].items()))
                print(f"pair {i} {side:<6} {values}", flush=True)
        if None not in sides.values():
            pairs.append((sides["parent"], sides["change"]))
    summarize(bench["end_to_end"], pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
