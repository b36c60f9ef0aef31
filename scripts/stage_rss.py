#!/usr/bin/env python3
"""Peak RSS of `exprec recon`, from two source checkouts, run alternately.

Each side first runs ``simulate`` (unmeasured) into its own directory under
OUT, on the same config: a preset's JSON with each ``--set`` applied.  Then
``recon --method M`` runs RUNS times per side, alternating (even runs the
parent first), each as a child of this script.  The script imports only the
standard library, so a child's ``ru_maxrss`` (from ``os.wait4``) is the
recon's own high-water mark, not the larger one a child of a numpy-loaded
process inherits from the pages it shared before ``exec``.  Children run at
one BLAS thread.  Prints every run, then each side's median and range and the
sha256 of ``recon_M.ktar``.

usage: python scripts/stage_rss.py PARENT_SRC_ROOT CHANGE_SRC_ROOT --preset P
           [--method proposed] [--set solver.outer_iters=1 ...] [--out DIR]
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 3


def run_stage(root, argv, out):
    """(exit code, max RSS in MB) of ``exprec.cli`` ARGV run from checkout ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "exprec.cli", *argv,
            "--config", str(out / "config.json"), "--out", str(out)]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode not in (0, 2):
        sys.exit(f"{root}: {argv[3]} exited {proc.returncode}: {err.decode(errors='replace')}")
    return proc.returncode, usage.ru_maxrss / 1024.0


def config_doc(root, preset, settings):
    """The preset's JSON doc from checkout ``root`` with each
    ``section.key=value`` (value in JSON) replaced."""
    doc = json.loads((root / "src" / "exprec" / "presets" / f"{preset}.json").read_text())
    for item in settings:
        path, _, value = item.partition("=")
        *sections, key = path.split(".")
        target = doc
        for section in sections:
            target = target.setdefault(section, {})
        target[key] = json.loads(value)
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent's source checkout")
    parser.add_argument("change", type=Path, help="root of the change's source checkout")
    parser.add_argument("--preset", required=True)
    parser.add_argument("--method", default="proposed", choices=["proposed", "ktlr", "zerofill"])
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=JSON")
    parser.add_argument("--out", type=Path, default=Path("out/stage_rss"))
    args = parser.parse_args(argv)
    doc = config_doc(args.change, args.preset, args.set)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in sides.items():
        out = args.out.resolve() / side
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
        run_stage(root, ["simulate"], out)
    rss = {side: [] for side in sides}
    for i in range(RUNS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            code, mb = run_stage(sides[side], ["recon", "--method", args.method],
                                 args.out.resolve() / side)
            rss[side].append(mb)
            print(f"run {i} {side:<6} exit {code}  max RSS {mb:.2f} MB", flush=True)
    name = f"recon_{args.method}.ktar"
    for side, values in rss.items():
        digest = hashlib.sha256((args.out / side / name).read_bytes()).hexdigest()
        print(f"{side:<6} median {statistics.median(values):.2f} MB "
              f"[{min(values):.2f}, {max(values):.2f}] over {len(values)} runs  {name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
