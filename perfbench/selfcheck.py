#!/usr/bin/env python3
"""Self-check of the benchmark on a tiny config.

Usage (from the root of a source checkout): python3 perfbench/selfcheck.py

Runs a 16x16x6, two-coil version of fig5_desk through every recon method,
untraced twice and traced once, and checks that:

* every stage passes its output checks and reruns are byte-identical;
* every end-to-end and per-layer metric is produced by name, and the names
  and units match BENCHMARK.json;
* every trace wrapper found its target and was called at least once.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import trace_boot

TINY = run.Workload(
    "fig5_desk",
    ("zerofill", "ktlr", "proposed"),
    {
        "grid": {"p": 16, "q": 16, "t": 6},
        "coils": {"count": 2},
        "mask": {"kind": "uniform_random", "fraction": 0.5},
        "filter": {"n1": 9, "n2": 9, "nt": 2},
        "solver": {"outer_iters": 2, "cg_iters": 50},
        "ktlr": {"iters": 5},
    },
    2,
)


def main():
    if not (run.SRC / "exprec" / "cli.py").is_file():
        print(f"selfcheck: no exprec sources under {run.SRC}", file=sys.stderr)
        return 1
    run.WORKLOADS["selfcheck_tiny"] = TINY
    problems = []

    def expect(ok, message):
        print(("ok    " if ok else "FAIL  ") + message)
        if not ok:
            problems.append(message)

    runs = []
    for trace in (0, 0, 1):
        result, inputs = run.execute("selfcheck_tiny", 1, 1, trace, keep=True)
        runs.append((result, inputs))
        expect(result["correct"] and result["failed"] == 0, f"trace {trace}: all stages pass")

    first = [s["sha256"] for inp in runs[0][1] for s in inp.samples]
    second = [s["sha256"] for inp in runs[1][1] for s in inp.samples]
    expect(first and first == second, "reruns give byte-identical reconstructions")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    produced = {k: v["unit"] for k, v in runs[0][0]["metrics"].items()}
    expect(produced == e2e, f"trace 0 reports every end-to-end metric: {sorted(produced)}")
    produced = {k: v["unit"] for k, v in runs[2][0]["metrics"].items()}
    expect(produced == layer, f"trace 1 reports every per-layer metric ({len(produced)})")
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) - {"selfcheck_tiny"},
           "BENCHMARK.json workloads match run.py")

    per_input, *_ = run.trace_totals(runs[2][1])
    unresolved = set().union(*(t["unresolved"] for t in per_input))
    expect(not unresolved, f"every wrapper found its target {sorted(unresolved)}")
    called = {name for t in per_input for name, e in t["spans"].items() if e["calls"] > 0}
    idle = sorted(set(trace_boot.TARGETS) - called)
    expect(not idle, f"every wrapped layer was called {idle}")

    for _, inputs in runs:
        if inputs:
            shutil.rmtree(inputs[0].out.parent, ignore_errors=True)
    print("selfcheck: " + ("PASS" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
