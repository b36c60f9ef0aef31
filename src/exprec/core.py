"""The sampling grid, the per-frame 2-D DFT pair and the finiteness check.

Conventions used throughout the package:

* arrays are row-major with spatial axes first: an image series or k-t
  volume is a plain complex array of shape ``(P, Q, T)`` (rows, cols,
  frames); its finiteness is checked where it enters or leaves the program
  (``cli`` reads and writes), not at every step in between;
* the spatial DFT is unitary (``norm="ortho"``) with the zero frequency
  at index ``(0, 0)``, no center shift;
* spatial indices are zero based and all circular index arithmetic is
  taken modulo ``(P, Q)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "dft2_forward",
    "dft2_inverse",
    "require_finite",
]


def require_finite(name, data):
    """Raise ValueError naming the first non-finite entry of ``data``."""
    finite = np.isfinite(data)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"{name} contains a non-finite value at index {idx}")


@dataclass(frozen=True)
class Grid:
    """Spatial/temporal sampling grid: P x Q pixels, T frames, dt ms apart."""

    p: int
    q: int
    t: int
    dt: float = 10.0

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"spatial extents must be >= 1, got {self.p}x{self.q}")
        if self.t < 2:
            raise ValueError(f"need at least 2 frames, got {self.t}")
        if not self.dt > 0:
            raise ValueError(f"frame spacing must be positive, got {self.dt}")

    @property
    def shape(self):
        return (self.p, self.q, self.t)

    def echo_times(self):
        """Echo times in ms; frame n is acquired at (n + 1) * dt."""
        return self.dt + self.dt * np.arange(self.t)


def dft2_forward(x):
    """Unitary per-frame 2-D DFT of a (P, Q, T) image series."""
    return np.fft.fft2(x, axes=(0, 1), norm="ortho")


def dft2_inverse(k):
    """Unitary per-frame 2-D inverse DFT of a (P, Q, T) k-t volume."""
    return np.fft.ifft2(k, axes=(0, 1), norm="ortho")
