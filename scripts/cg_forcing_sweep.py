#!/usr/bin/env python3
"""Quality and CG work of the proposed reconstruction with and without the
forcing term of its inexact least-squares solves.

For each preset (fig5_desk, fig6_desk) and seed, the inputs are simulated
once by ``exprec simulate``; then ``irls_solve`` runs in-process on the full
preset twice, with ``solver.CG_FORCING`` set on the module to 0 (each CG
runs to ``cg_tol``) and to the shipped value, the order alternating by
seed.  Each run records SNR, T2 MAE (as ``exprec eval`` computes them), the
total CG iterations, the steps whose CG stopped on ``maxiter``, the range of
CG's starting residual over the steps, and ``irls_solve`` wall and CPU
seconds.  The JSON also names the git commit and the BLAS thread count.
About 10 minutes on 2 cores at one BLAS thread; not part of the tests.

usage: python scripts/cg_forcing_sweep.py [--seeds S ...] [--out PATH]
       (default: the preset seed, 1 and 4; BENCH_cg_forcing.json)
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("fig5_desk", "fig6_desk")


def git_state():
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "HEAD"), None if status is None else bool(status)


def simulate(cfg, out):
    """The measurements and the truth of ``cfg``, written and read back as the CLI does."""
    from exprec import ktar
    from exprec.cli import main
    from exprec.simulate import Measurements

    config = out / "config.json"
    config.write_text(json.dumps(cfg.doc), encoding="utf-8")
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    if code != 0:
        sys.exit(f"simulate exited {code}")
    arrays = {name: ktar.read_array(out / f"{name}.ktar")[1]
              for name in ("meas", "coils", "mask", "phantom", "truth_t2", "truth_amp")}
    meas = Measurements(b=arrays["meas"], mask=arrays["mask"] > 0.5,
                        maps=arrays["coils"].astype(complex))
    return meas, arrays


def reconstruct(cfg, meas, arrays):
    import numpy as np

    from exprec.core import dft2_forward, dft2_inverse
    from exprec.mapping import fit_t2, snr_db
    from exprec.solver import irls_solve

    wall, cpu = time.perf_counter(), time.process_time()
    vol, report = irls_solve(meas, cfg.filter_spec, cfg.solver_config)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    support = np.abs(arrays["truth_amp"][0]) > 0
    t2 = fit_t2(dft2_inverse(vol), cfg.echo_times, support=support)
    records = report.records
    r0 = [r.cg_r0_rel for r in records]
    return {
        "snr_db": snr_db(dft2_forward(arrays["phantom"]), vol),
        "t2_mae_ms": float(np.mean(np.abs(t2[support] - arrays["truth_t2"][0][support]))),
        "outer_steps": len(records),
        "cg_iters": sum(r.cg_iters for r in records),
        "cg_iters_per_step": [r.cg_iters for r in records],
        "maxiter_stops": sum(r.cg_stop == "maxiter" for r in records),
        "other_stops": sorted({r.cg_stop for r in records} - {"tol", "maxiter"}),
        "cg_r0_rel_first": r0[0],
        "cg_r0_rel_range": [min(r0), max(r0)],
        "irls_solve_s": wall,
        "irls_solve_cpu_s": cpu,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=None)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cg_forcing.json")
    args = parser.parse_args()
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")  # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    from exprec import solver
    from exprec.config import load_preset

    shipped = solver.CG_FORCING
    sha, dirty = git_state()
    result = {"git_sha": sha, "src_dirty": dirty,
              "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "cg_forcing": shipped, "runs": []}
    for preset in PRESETS:
        seeds = args.seeds or [load_preset(preset).seed, 1, 4]
        for i, seed in enumerate(seeds):
            cfg = load_preset(preset, seed=seed)
            with tempfile.TemporaryDirectory() as tmp:
                meas, arrays = simulate(cfg, Path(tmp))
            for forcing in ((0.0, shipped) if i % 2 == 0 else (shipped, 0.0)):
                solver.CG_FORCING = forcing
                run = {"preset": preset, "seed": seed, "forcing": forcing,
                       **reconstruct(cfg, meas, arrays)}
                result["runs"].append(run)
                print(f"{preset} seed {seed} forcing {forcing:g}: SNR {run['snr_db']:.4f} dB, "
                      f"T2 MAE {run['t2_mae_ms']:.3f} ms, CG {run['cg_iters']}, "
                      f"maxiter {run['maxiter_stops']}, {run['irls_solve_s']:.1f} s", flush=True)
    solver.CG_FORCING = shipped
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
