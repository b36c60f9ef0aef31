"""Command-line front end: generate, simulate, reconstruct, fit, evaluate
and render desk-scale experiments from JSON configs or built-in presets.

Exit codes: 0 success, 2 solver hit its outer iteration cap before it
converged at eps_min, 64 usage error, 65 bad or missing data, 70 internal
error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from pathlib import Path

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


class DataError(ValueError):
    """An input file off the run's config (shape or config hash), or not finite."""


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


def _load_config(args):
    from .config import ExperimentConfig, load_preset

    ref = args.config
    if ref.startswith("preset:"):
        return load_preset(ref[len("preset:") :], seed=args.seed)
    return ExperimentConfig.from_json(ref, seed=args.seed)


def _seeds(cfg):
    """Per-stage seeds: the config seed plus 0-3, wrapped to stay a u64."""
    names = ("phantom", "coils", "mask", "noise")
    return {name: (cfg.seed + i) % 2**64 for i, name in enumerate(names)}


def _overflows(scale, data):
    """Whether ``scale`` times the squared norm of ``data`` overflows float64."""
    import numpy as np

    return not np.isfinite(scale * np.vdot(data, data).real)  # main silences the warning


def _require_usable(path, data):
    """DataError naming ``path`` unless every value of ``data`` is finite and
    their squared norm times their count is finite too: recon squares them."""
    from .core import require_finite

    try:
        require_finite(str(path), data)
    except ValueError:
        raise DataError(f"{path} holds a non-finite value") from None
    if _overflows(data.size, data):  # the Gram's unnormalized DFT cross-powers reach this
        raise DataError(f"{path} holds values too large to square and sum")


def _write(outdir, name, data, cfg):
    """Write one pipeline array stamped with ``cfg.config_hash``; an array
    that ``_read`` would refuse is refused before its file is made."""
    from . import ktar

    _require_usable(outdir / name, data)
    outdir.mkdir(parents=True, exist_ok=True)
    ktar.write_array(outdir / name, data, meta={"config_hash": cfg.config_hash})


def _read(outdir, name, shape, cfg):
    """One pipeline array, which must fit ``shape`` (None on an axis of any
    length), be stamped with ``cfg.config_hash`` and pass ``_require_usable``."""
    from . import ktar

    path = outdir / name
    if not path.exists():
        raise FileNotFoundError(f"missing input {path}; run the earlier pipeline stage first")
    header, data = ktar.read_array(path)
    if data.ndim != len(shape) or any(w not in (None, n) for w, n in zip(shape, data.shape)):
        raise DataError(f"{path} has shape {data.shape}; the config's grid needs {shape}")
    stamp = header.meta.get("config_hash") if isinstance(header.meta, dict) else None
    if stamp != cfg.config_hash:
        raise DataError(
            f"{path} was written under config hash {stamp}, "
            f"but this run's config hash is {cfg.config_hash}"
        )
    _require_usable(path, data)
    return data


def _make_phantom(cfg):
    from .simulate import make_phantom

    return make_phantom(cfg.phantom_spec, seed=_seeds(cfg)["phantom"])


def _make_mask(cfg):
    from .config import ConfigError
    from .simulate import make_mask

    doc = cfg.doc["mask"]
    try:
        return make_mask(cfg.grid, cfg.mask_kind, cfg.mask_param, _seeds(cfg)["mask"],
                         static=doc["static"], center_block=doc["center_block"])
    except ValueError as exc:  # a mask the grid cannot hold
        raise ConfigError(f"invalid config: /mask: {exc}") from exc


def _write_phantom(cfg, outdir, ph):
    _write(outdir, "phantom.ktar", ph.series, cfg)
    _write(outdir, "truth_t2.ktar", ph.t2_maps, cfg)
    _write(outdir, "truth_amp.ktar", ph.amp_maps, cfg)


def cmd_phantom(cfg, outdir):
    _write_phantom(cfg, outdir, _make_phantom(cfg))
    return EXIT_OK


def cmd_mask(cfg, outdir):
    _write(outdir, "mask.ktar", _make_mask(cfg).astype("<f4"), cfg)
    return EXIT_OK


def cmd_simulate(cfg, outdir):
    from .core import dft2_forward
    from .simulate import make_coils, simulate_measurements

    seeds = _seeds(cfg)
    ph = _make_phantom(cfg)
    maps = make_coils(cfg.grid, cfg.coil_count, seed=seeds["coils"])
    mask = _make_mask(cfg)
    noise = cfg.doc["noise"]
    meas = simulate_measurements(dft2_forward(ph.series), maps, mask, sigma=noise["sigma"],
                                 seed=seeds["noise"], relative=noise["relative"])
    _write(outdir, "meas.ktar", meas.b, cfg)  # first: it is the array most likely refused
    _write_phantom(cfg, outdir, ph)
    _write(outdir, "coils.ktar", maps, cfg)
    _write(outdir, "mask.ktar", mask.astype("<f4"), cfg)
    return EXIT_OK


def _load_measurements(cfg, outdir):
    import numpy as np

    from .simulate import Measurements

    p, q, t = cfg.grid.shape
    b = _read(outdir, "meas.ktar", (None, p, q, t), cfg)
    maps = _read(outdir, "coils.ktar", (len(b), p, q), cfg).astype(np.complex128)
    mask = _read(outdir, "mask.ktar", (p, q, t), cfg) > 0.5
    return Measurements(b=b, mask=mask, maps=maps)


def cmd_recon(cfg, outdir, method):
    from .config import ConfigError
    from .fastops import GramSizeError
    from .mapping import recon_ktlowrank, recon_zerofill
    from .solver import irls_solve

    meas = _load_measurements(cfg, outdir)
    status = EXIT_OK
    if method == "zerofill":
        vol = recon_zerofill(meas)
    elif method == "ktlr":
        kcfg = cfg.doc["ktlr"]
        try:
            result = recon_ktlowrank(meas, kcfg["mu_rel"], iters=kcfg["iters"])
        except OverflowError as exc:
            raise ConfigError(f"invalid config: /ktlr/mu_rel: {exc}") from exc
        vol = result.volume
        trace = result.objective_trace
        lines = ["iter,objective"] + [f"{i + 1},{v!r}" for i, v in enumerate(trace)]
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report_ktlr.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        lam = cfg.solver_config.lam
        if _overflows(lam, meas.b):  # the data term 0.5 lam ||A x - b||^2
            raise ConfigError(f"invalid config: /solver/lam: {lam!r} times the squared "
                              f"norm of {outdir / 'meas.ktar'} overflows")
        try:
            vol, report = irls_solve(meas, cfg.filter_spec, cfg.solver_config)
        except GramSizeError as exc:
            raise ConfigError(f"invalid config: /filter: {exc}") from exc
        outdir.mkdir(parents=True, exist_ok=True)
        report.to_csv(outdir / "report_proposed.csv")
        _warn_cg_stops(report.records)
        if not report.converged:
            status = EXIT_NOT_CONVERGED
    _write(outdir, f"recon_{method}.ktar", vol, cfg)
    return status


def _warn_cg_stops(records):
    """One stderr line counting the outer steps whose CG stopped short of cg_tol."""
    missed = Counter(r.cg_stop for r in records if r.cg_stop != "tol")
    if missed:
        reasons = ", ".join(f"{stop} {n}" for stop, n in sorted(missed.items()))
        print(
            f"exprec: CG did not reach cg_tol in {sum(missed.values())} of "
            f"{len(records)} steps ({reasons})",
            file=sys.stderr,
        )


def _support_from_truth(cfg, outdir):
    import numpy as np

    amp = _read(outdir, "truth_amp.ktar", (None, cfg.grid.p, cfg.grid.q), cfg)
    return np.abs(amp[0]) > 0


def cmd_fit(cfg, outdir, method):
    from .config import ConfigError
    from .core import dft2_inverse
    from .mapping import fit_t2

    if cfg.phantom_spec.l > 1:
        raise ConfigError(f"invalid config: /phantom/l: {cfg.phantom_spec.l} exponentials "
                          "per pixel, but fit fits one")
    recon = _read(outdir, f"recon_{method}.ktar", cfg.grid.shape, cfg)
    t2 = fit_t2(dft2_inverse(recon), cfg.echo_times, support=_support_from_truth(cfg, outdir))
    _write(outdir, f"t2_{method}.ktar", t2, cfg)
    return EXIT_OK


def cmd_eval(cfg, outdir, method):
    import numpy as np

    from .core import dft2_forward
    from .mapping import nrmse, snr_db

    t0 = time.perf_counter()
    p, q, _ = cfg.grid.shape
    recon = _read(outdir, f"recon_{method}.ktar", cfg.grid.shape, cfg)
    truth_series = _read(outdir, "phantom.ktar", cfg.grid.shape, cfg)
    # compare in k-t space; the per-frame DFT is unitary so SNR and NRMSE
    # match the image-domain values, and the noiseless identity pipeline
    # stays exact to the bit
    truth_kt = dft2_forward(truth_series)
    mae = ""  # L > 1 exponentials per pixel: fit writes no T2 map to score
    if cfg.phantom_spec.l == 1:
        t2_fit = _read(outdir, f"t2_{method}.ktar", (p, q), cfg)
        t2_true = _read(outdir, "truth_t2.ktar", (None, p, q), cfg)[0]
        support = _support_from_truth(cfg, outdir)
        mae = float(np.mean(np.abs(t2_fit[support] - t2_true[support])))
    snr = snr_db(truth_kt, recon)
    err = nrmse(truth_kt, recon)
    wall = time.perf_counter() - t0
    path = outdir / "metrics.csv"
    if not path.exists():
        path.write_text("label,snr_db,nrmse,t2_mae_ms,wall_seconds,config_hash\n", encoding="utf-8")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{method},{snr!r},{err!r},{mae},{wall!r},{cfg.config_hash}\n")  # str is repr
    print(f"{method}: snr_db={snr:.2f} nrmse={err:.4g} "
          f"t2_mae_ms={'' if mae == '' else format(mae, '.4g')}")
    return EXIT_OK


def cmd_render(cfg, outdir, method):
    import numpy as np

    from .core import dft2_inverse
    from .pgm import render_map

    recon = _read(outdir, f"recon_{method}.ktar", cfg.grid.shape, cfg)
    series = dft2_inverse(recon)
    rdir = outdir / "renders"
    rdir.mkdir(parents=True, exist_ok=True)
    h = cfg.config_hash
    render_map(rdir / f"{method}_mag000.pgm", np.abs(series[:, :, 0]), f"{method} |frame 0|", h)
    t2_path = outdir / f"t2_{method}.ktar"
    if t2_path.exists():
        p, q, _ = cfg.grid.shape
        t2 = _read(outdir, f"t2_{method}.ktar", (p, q), cfg)
        render_map(rdir / f"{method}_t2.pgm", t2, f"{method} T2 (ms)", h)
        truth = _read(outdir, "truth_t2.ktar", (None, p, q), cfg)[0]
        support = _support_from_truth(cfg, outdir)
        err = np.where(support, np.abs(t2 - truth), 0.0)
        render_map(rdir / f"{method}_t2err.pgm", err, f"{method} |T2 error| (ms)", h)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "numpy" not in sys.modules:  # OpenBLAS reads these once, as numpy loads
        os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    import numpy as np
    try:
        with np.errstate(all="ignore"):  # _require_usable reports what would have warned
            if args.command == "presets":
                from .config import available_presets

                for name in available_presets():
                    print(name)
                return EXIT_OK
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
            return cmd_render(cfg, outdir, args.method)
    except Exception as exc:  # noqa: BLE001
        from .config import ConfigError
        from .ktar import KtarError

        if isinstance(exc, (FileNotFoundError, ConfigError, DataError, KtarError)):
            print(f"exprec: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"exprec: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
