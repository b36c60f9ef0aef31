#!/usr/bin/env python3
"""Print the sha256 of every file the pipeline's simulate, recon and fit
stages write on two check configs, at one BLAS thread, so that a refactor can be
shown to leave every output byte-identical.

The check configs are presets with their seed and some solver keys replaced:
fig5_desk (one coil) with outer_iters 2, eps_decay 0.35 and seed 777, and
fig6_desk (4 coils) with outer_iters 1 and seed 12345.  Each runs simulate,
then recon and fit with all three methods, into OUT/<preset>; the hashes
cover every .ktar (t2_<method>.ktar included) and report_ktlr.csv there, and
report_proposed.csv with its wall-clock ``seconds`` column dropped, which pins
eps, objective, data and reg terms and CG iterations at every outer step.

usage: python scripts/check_hashes.py [OUT]   (OUT defaults to out/check_hashes)
"""

import hashlib
import json
import os
import sys
from importlib import resources
from pathlib import Path

CHECKS = {
    "fig5_desk": {"seed": 777, "solver": {"outer_iters": 2, "eps_decay": 0.35}},
    "fig6_desk": {"seed": 12345, "solver": {"outer_iters": 1}},
}
METHODS = ("zerofill", "ktlr", "proposed")


def check_config(preset, changes):
    """The preset's JSON doc with ``seed`` and the given ``solver`` keys replaced."""
    path = resources.files("exprec") / "presets" / f"{preset}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["seed"] = changes["seed"]
    doc["solver"].update(changes["solver"])
    return doc


def report_digest(path):
    """sha256 of a solver report CSV without its ``seconds`` column."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    col = rows[0].index("seconds")
    text = "".join(",".join(row[:col] + row[col + 1:]) + "\n" for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_check(preset, changes, out):
    from exprec.cli import main

    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(check_config(preset, changes), indent=2), encoding="utf-8")
    stages = [["simulate"]] + [[cmd, "--method", m] for cmd in ("recon", "fit") for m in METHODS]
    for stage in stages:
        code = main([stage[0], "--config", str(config), "--out", str(out), *stage[1:]])
        if code not in (0, 2):
            sys.exit(f"{preset}: {' '.join(stage)} exited {code}")
    for path in sorted(out.glob("*.ktar")) + [out / "report_ktlr.csv"]:
        print(f"{preset} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    print(f"{preset} report_proposed.csv-without-seconds "
          f"{report_digest(out / 'report_proposed.csv')}")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")  # before numpy loads
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    root = Path(sys.argv[1] if len(sys.argv) == 2 else "out/check_hashes")
    for preset, changes in CHECKS.items():
        run_check(preset, changes, root / preset)
