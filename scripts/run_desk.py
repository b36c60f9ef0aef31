#!/usr/bin/env python3
"""Run one desk-scale preset end to end: simulate, reconstruct with all
three methods, fit T2 maps, evaluate and render.  Results land in
out/<preset>/.

usage: python scripts/run_desk.py fig5_desk|fig6_desk
"""

import sys
from pathlib import Path

from exprec.cli import main


def run(*argv):
    code = main([str(a) for a in argv])
    if code not in (0, 2):
        sys.exit(code)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    config = f"preset:{sys.argv[1]}"
    out = Path("out") / sys.argv[1]
    run("simulate", "--config", config, "--out", out)
    for method in ("zerofill", "ktlr", "proposed"):
        for stage in ("recon", "fit", "eval", "render"):
            run(stage, "--config", config, "--out", out, "--method", method)
    print(f"\nmetrics:\n{(out / 'metrics.csv').read_text()}")
