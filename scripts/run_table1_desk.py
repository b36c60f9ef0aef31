#!/usr/bin/env python3
"""Desk-scale analogue of the filter-size study: sweep the temporal filter
length at fixed spatial support and report reconstruction SNR per length."""

import json
import sys
from pathlib import Path

from exprec import ktar, mapping
from exprec.cli import main
from exprec.config import load_preset
from exprec.core import dft2_inverse

OUT = Path("out/table1_desk")
TEMPORAL_LENGTHS = (1, 2, 4, 7)


def run(*argv):
    code = main([str(a) for a in argv])
    if code not in (0, 2):
        sys.exit(code)


if __name__ == "__main__":
    base = load_preset("table1_desk").doc
    results = []
    for nt in TEMPORAL_LENGTHS:
        doc = json.loads(json.dumps(base))
        doc["filter"]["nt"] = nt
        out = OUT / f"nt{nt}"
        out.mkdir(parents=True, exist_ok=True)
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(doc, indent=2))
        run("simulate", "--config", cfg_path, "--out", out)
        run("recon", "--config", cfg_path, "--out", out, "--method", "proposed")
        _, phantom = ktar.read_array(out / "phantom.ktar")
        _, recon = ktar.read_array(out / "recon_proposed.ktar")
        snr = mapping.snr_db(phantom, dft2_inverse(recon))
        results.append((nt, snr))
        print(f"filter 58x58x{nt}: {snr:.2f} dB")
    print("\ntemporal filter length vs SNR (dB):")
    for nt, snr in results:
        print(f"  58x58x{nt:<2d}  {snr:7.2f}")
