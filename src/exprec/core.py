"""Core grid and array types plus the per-frame 2-D DFT pair.

Conventions used throughout the package:

* arrays are row-major with spatial axes first: an image series or k-t
  volume has shape ``(P, Q, T)`` (rows, cols, frames);
* the spatial DFT is unitary (``norm="ortho"``) with the zero frequency
  at index ``(0, 0)``, no center shift;
* spatial indices are zero based and all circular index arithmetic is
  taken modulo ``(P, Q)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "ImageSeries",
    "KtVolume",
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


def _checked_volume(grid, data, name):
    data = np.asarray(data, dtype=np.complex128)
    if data.shape != grid.shape:
        raise ValueError(f"{name} shape {data.shape} does not match grid {grid.shape}")
    require_finite(name, data)
    return data


@dataclass(frozen=True)
class ImageSeries:
    """Complex image series rho[r, n] on a Grid."""

    grid: Grid
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _checked_volume(self.grid, self.data, "ImageSeries.data"))


@dataclass(frozen=True)
class KtVolume:
    """Per-frame spatial Fourier coefficients rho_hat[k, n] on a Grid."""

    grid: Grid
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _checked_volume(self.grid, self.data, "KtVolume.data"))


def dft2_forward(x: ImageSeries) -> KtVolume:
    """Unitary per-frame 2-D DFT of an image series."""
    return KtVolume(x.grid, np.fft.fft2(x.data, axes=(0, 1), norm="ortho"))


def dft2_inverse(k: KtVolume) -> ImageSeries:
    """Unitary per-frame 2-D inverse DFT of a k-t volume."""
    return ImageSeries(k.grid, np.fft.ifft2(k.data, axes=(0, 1), norm="ortho"))
