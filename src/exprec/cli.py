"""Command-line front end: generate, simulate, reconstruct, fit, evaluate
and render desk-scale experiments from JSON configs or built-in presets.

Exit codes: 0 success, 2 solver hit the iteration cap without meeting the
objective tolerance, 64 usage error, 65 bad or missing data, 70 internal
error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="exprec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config path or preset:<name>")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--threads", type=int, default=None, help="BLAS/FFT thread cap")
    method = argparse.ArgumentParser(add_help=False)
    method.add_argument(
        "--method", default="proposed", choices=["proposed", "ktlr", "zerofill"]
    )
    sub.add_parser("phantom", parents=[common], help="write phantom series and truth maps")
    sub.add_parser("mask", parents=[common], help="write the sampling mask")
    sub.add_parser("simulate", parents=[common], help="write phantom, coils, mask, measurements")
    sub.add_parser("recon", parents=[common, method], help="reconstruct the k-t volume")
    sub.add_parser("fit", parents=[common, method], help="fit T2 maps from a reconstruction")
    sub.add_parser("eval", parents=[common, method], help="append metrics for a reconstruction")
    sub.add_parser("render", parents=[common, method], help="render PGM images")
    sub.add_parser("presets", help="list built-in presets")
    return parser


def _setup_threads(requested):
    n = requested
    if n is None:
        env = os.environ.get("EXPREC_THREADS")
        if env:
            try:
                n = int(env)
            except ValueError:
                raise UsageError(f"EXPREC_THREADS={env!r} is not an integer")
    if n is not None:
        if n < 1:
            raise UsageError("--threads must be >= 1")
        for var in _THREAD_VARS:
            os.environ.setdefault(var, str(n))


class UsageError(ValueError):
    pass


def _load_config(args):
    from .config import ExperimentConfig, load_preset

    ref = args.config
    if ref.startswith("preset:"):
        return load_preset(ref[len("preset:") :], seed=args.seed)
    if not Path(ref).exists():
        raise FileNotFoundError(f"config file not found: {ref}")
    return ExperimentConfig.from_json(ref, seed=args.seed)


def _seeds(cfg):
    s = cfg.seed
    return {"phantom": s, "coils": s + 1, "mask": s + 2, "noise": s + 3}


def _write(outdir, name, data, cfg, dtype=None):
    from . import ktar

    outdir.mkdir(parents=True, exist_ok=True)
    ktar.write_array(outdir / name, data, dtype=dtype, meta={"config_hash": cfg.config_hash})


def _read(outdir, name):
    from . import ktar

    path = outdir / name
    if not path.exists():
        raise FileNotFoundError(f"missing input {path}; run the earlier pipeline stage first")
    return ktar.read_array(path)[1]


def _make_phantom(cfg):
    from .simulate import make_phantom

    return make_phantom(cfg.phantom_spec, seed=_seeds(cfg)["phantom"])


def _make_mask(cfg):
    from .simulate import make_mask

    doc = cfg.doc["mask"]
    return make_mask(cfg.grid, cfg.mask_kind, cfg.mask_param, _seeds(cfg)["mask"],
                     static=doc["static"], center_block=doc["center_block"])


def _write_phantom(cfg, outdir, ph):
    _write(outdir, "phantom.ktar", ph.series.data, cfg)
    _write(outdir, "truth_t2.ktar", ph.t2_maps, cfg)
    _write(outdir, "truth_amp.ktar", ph.amp_maps, cfg)


def cmd_phantom(cfg, outdir):
    _write_phantom(cfg, outdir, _make_phantom(cfg))
    return EXIT_OK


def cmd_mask(cfg, outdir):
    _write(outdir, "mask.ktar", _make_mask(cfg).mask.astype("<f4"), cfg)
    return EXIT_OK


def cmd_simulate(cfg, outdir):
    from .core import dft2_forward
    from .simulate import make_coils, simulate_measurements

    seeds = _seeds(cfg)
    ph = _make_phantom(cfg)
    coils = make_coils(cfg.grid, cfg.coil_count, seed=seeds["coils"])
    mask = _make_mask(cfg)
    noise = cfg.doc["noise"]
    meas = simulate_measurements(dft2_forward(ph.series), coils, mask, sigma=noise["sigma"],
                                 seed=seeds["noise"], relative=noise["relative"])
    _write_phantom(cfg, outdir, ph)
    _write(outdir, "coils.ktar", coils.maps, cfg)
    _write(outdir, "mask.ktar", mask.mask.astype("<f4"), cfg)
    _write(outdir, "meas.ktar", meas.b, cfg)
    return EXIT_OK


def _load_measurements(cfg, outdir):
    import numpy as np

    from .simulate import CoilSet, Measurements, SamplingMask

    b = _read(outdir, "meas.ktar")
    mask_arr = _read(outdir, "mask.ktar") > 0.5
    coils = CoilSet(_read(outdir, "coils.ktar").astype(np.complex128))
    mask = SamplingMask(
        mask=mask_arr,
        kind=cfg.mask_kind,
        param=cfg.mask_param,
        seed=_seeds(cfg)["mask"],
        static=cfg.doc["mask"]["static"],
    )
    return Measurements(
        b=b.astype(np.complex128), mask=mask, coils=coils, noise_sigma=cfg.doc["noise"]["sigma"]
    )


def cmd_recon(cfg, outdir, method):
    import numpy as np

    from .mapping import recon_ktlowrank, recon_zerofill
    from .solver import irls_solve

    meas = _load_measurements(cfg, outdir)
    status = EXIT_OK
    if method == "zerofill":
        vol = recon_zerofill(meas)
    elif method == "ktlr":
        kcfg = cfg.doc["ktlr"]
        zf = recon_zerofill(meas)
        p, q, t = cfg.grid.shape
        smax = float(np.linalg.svd(zf.data.reshape(p * q, t), compute_uv=False)[0])
        result = recon_ktlowrank(meas, mu=kcfg["mu_rel"] * smax, iters=kcfg["iters"])
        vol = result.volume
        trace = result.objective_trace
        lines = ["iter,objective"] + [f"{i + 1},{v!r}" for i, v in enumerate(trace)]
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report_ktlr.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        vol, report = irls_solve(meas, cfg.filter_spec, cfg.solver_config)
        outdir.mkdir(parents=True, exist_ok=True)
        report.to_csv(outdir / "report_proposed.csv")
        if not report.converged:
            status = EXIT_NOT_CONVERGED
    _write(outdir, f"recon_{method}.ktar", vol.data, cfg)
    return status


def _support_from_truth(outdir):
    import numpy as np

    amp = _read(outdir, "truth_amp.ktar")
    return np.abs(amp[0]) > 0


def cmd_fit(cfg, outdir, method):
    from .core import KtVolume, dft2_inverse
    from .mapping import fit_t2

    recon = _read(outdir, f"recon_{method}.ktar")
    series = dft2_inverse(KtVolume(cfg.grid, recon))
    t2map = fit_t2(series, cfg.echo_times, support=_support_from_truth(outdir))
    _write(outdir, f"t2_{method}.ktar", t2map.t2, cfg)
    return EXIT_OK


def cmd_eval(cfg, outdir, method):
    import numpy as np

    from .core import ImageSeries, dft2_forward
    from .mapping import nrmse, snr_db

    t0 = time.perf_counter()
    truth_series = _read(outdir, "phantom.ktar")
    recon = _read(outdir, f"recon_{method}.ktar")
    # compare in k-t space; the per-frame DFT is unitary so SNR and NRMSE
    # match the image-domain values, and the noiseless identity pipeline
    # stays exact to the bit
    truth_kt = dft2_forward(ImageSeries(cfg.grid, truth_series)).data
    t2_fit = _read(outdir, f"t2_{method}.ktar")
    t2_true = _read(outdir, "truth_t2.ktar")[0]
    support = _support_from_truth(outdir)
    snr = snr_db(truth_kt, recon)
    err = nrmse(truth_kt, recon)
    mae = float(np.mean(np.abs(t2_fit[support] - t2_true[support])))
    wall = time.perf_counter() - t0
    path = outdir / "metrics.csv"
    if not path.exists():
        path.write_text("label,snr_db,nrmse,t2_mae_ms,wall_seconds,config_hash\n", encoding="utf-8")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{method},{snr!r},{err!r},{mae!r},{wall!r},{cfg.config_hash}\n")
    print(f"{method}: snr_db={snr:.2f} nrmse={err:.4g} t2_mae_ms={mae:.4g}")
    return EXIT_OK


def cmd_render(cfg, outdir, method):
    import numpy as np

    from .core import KtVolume, dft2_inverse
    from .pgm import render_map

    recon = _read(outdir, f"recon_{method}.ktar")
    series = dft2_inverse(KtVolume(cfg.grid, recon)).data
    rdir = outdir / "renders"
    rdir.mkdir(parents=True, exist_ok=True)
    h = cfg.config_hash
    render_map(rdir / f"{method}_mag000.pgm", np.abs(series[:, :, 0]), f"{method} |frame 0|", h)
    t2_path = outdir / f"t2_{method}.ktar"
    if t2_path.exists():
        t2 = _read(outdir, f"t2_{method}.ktar")
        render_map(rdir / f"{method}_t2.pgm", t2, f"{method} T2 (ms)", h)
        truth = _read(outdir, "truth_t2.ktar")[0]
        support = _support_from_truth(outdir)
        err = np.where(support, np.abs(t2 - truth), 0.0)
        render_map(rdir / f"{method}_t2err.pgm", err, f"{method} |T2 error| (ms)", h)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "presets":
            from .config import available_presets

            for name in available_presets():
                print(name)
            return EXIT_OK
        _setup_threads(args.threads)
        cfg = _load_config(args)
        outdir = Path(args.out)
        if args.command == "phantom":
            return cmd_phantom(cfg, outdir)
        if args.command == "mask":
            return cmd_mask(cfg, outdir)
        if args.command == "simulate":
            return cmd_simulate(cfg, outdir)
        if args.command == "recon":
            return cmd_recon(cfg, outdir, args.method)
        if args.command == "fit":
            return cmd_fit(cfg, outdir, args.method)
        if args.command == "eval":
            return cmd_eval(cfg, outdir, args.method)
        if args.command == "render":
            return cmd_render(cfg, outdir, args.method)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"exprec: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError,) as exc:
        print(f"exprec: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001
        from .config import ConfigError
        from .ktar import KtarError

        if isinstance(exc, (ConfigError, KtarError)):
            print(f"exprec: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"exprec: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
