"""16-bit binary PGM (P5) rendering with deterministic windows.

Samples are big-endian unsigned 16-bit per the PGM specification.  The
window used for quantization is written to a sidecar text file so every
render is reproducible and self-describing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["write_pgm16", "render_map"]

MAXVAL = 65535


def write_pgm16(path, image, comment=None):
    """Write a 2-D real array as 16-bit P5 PGM, windowed to its [min, max].

    Returns the (lo, hi) window used.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"PGM needs a 2-D array, got shape {img.shape}")
    lo = float(img.min())
    hi = float(img.max())
    span = hi - lo
    if span <= 0:
        scaled = np.zeros_like(img)
    else:
        scaled = np.clip((img - lo) / span, 0.0, 1.0)
    words = np.floor(scaled * MAXVAL + 0.5).astype(">u2")
    header = ["P5"]
    if comment:
        header.append("# " + comment.replace("\n", " "))
    header.append(f"{img.shape[1]} {img.shape[0]}")
    header.append(str(MAXVAL))
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(words.tobytes(order="C"))
    return lo, hi


def render_map(path, image, label, config_hash=None):
    """Render plus sidecar ``<path>.txt`` recording the window and hash."""
    comment = f"config:{config_hash}" if config_hash else None
    lo, hi = write_pgm16(path, image, comment=comment)
    side = [f"label {label}", f"window_min {lo!r}", f"window_max {hi!r}"]
    if config_hash:
        side.append(f"config_hash {config_hash}")
    with open(str(path) + ".txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(side) + "\n")
