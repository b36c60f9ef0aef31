"""Synthetic inverse-problem generation: exponential phantoms with smooth
parameter maps, coil sensitivities, sampling masks, measurement noise and the
sampling operator ``Sampling``, the one place that decides where it runs.

All randomness flows through numpy's counter-based Philox generator keyed
by explicit seeds, so every artifact is reproducible across platforms and
thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Grid

__all__ = [
    "PhantomSpec",
    "Phantom",
    "Measurements",
    "Sampling",
    "make_phantom",
    "series_from_maps",
    "make_coils",
    "make_mask",
    "forward",
    "adjoint",
    "add_noise",
    "simulate_measurements",
]

T2_MIN_MS = 1.0
T2_MAX_MS = 5000.0


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _round_half_up(x):
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class PhantomSpec:
    """Generation parameters for an exponential phantom.

    ``kind="bandlimited_exact"`` produces parameter maps that are exact
    trigonometric polynomials of spatial bandwidth <= ``bandwidth``, so the
    k-t annihilation holds with a filter of spatial support 2*bandwidth + 1
    per axis and temporal length L + 1.  ``kind="regions_smoothed"``
    produces piecewise-constant tissue-like T2 regions blurred by a
    Gaussian kernel (approximately bandlimited), for realistic runs.
    """

    grid: Grid
    l: int = 1
    kind: str = "regions_smoothed"
    bandwidth: int = 2
    t2_low: float = 40.0
    t2_high: float = 250.0
    amp_variation: float = 0.3

    def __post_init__(self):
        if self.kind not in ("regions_smoothed", "bandlimited_exact"):
            raise ValueError(f"unknown phantom kind {self.kind!r}")
        if self.l < 1:
            raise ValueError("need at least one exponential component")
        if self.bandwidth < 1:
            raise ValueError("bandwidth must be >= 1")
        if self.amp_variation < 0:
            raise ValueError(f"amp_variation must be >= 0, got {self.amp_variation}")
        if self.kind == "bandlimited_exact" and self.bandwidth < self.l:
            raise ValueError(
                "bandlimited_exact needs bandwidth >= L so products of the "
                "component maps stay inside the filter band"
            )
        if not (T2_MIN_MS < self.t2_low < self.t2_high < T2_MAX_MS):
            raise ValueError(
                f"T2 range ({self.t2_low}, {self.t2_high}) ms outside "
                f"({T2_MIN_MS}, {T2_MAX_MS})"
            )


@dataclass(frozen=True)
class Phantom:
    series: np.ndarray = field(repr=False)  # (P, Q, T) complex
    t2_maps: np.ndarray = field(repr=False)  # (L, P, Q) ms
    amp_maps: np.ndarray = field(repr=False)  # (L, P, Q) complex, 0 off the support


def series_from_maps(grid: Grid, amp_maps, t2_maps) -> np.ndarray:
    """Rebuild the (P, Q, T) series from parameter maps: rho[r, n] = sum_i a_i b_i^n."""
    amp = np.asarray(amp_maps, dtype=np.complex128)
    t2 = np.asarray(t2_maps, dtype=np.float64)
    beta = np.exp(-grid.dt / t2)
    n = np.arange(grid.t)
    data = np.zeros(grid.shape, dtype=np.complex128)
    for i in range(amp.shape[0]):
        data += amp[i][:, :, None] * beta[i][:, :, None] ** n
    return data


def _bandlimited_field(rng, grid, bandwidth):
    """Real field whose DFT support lies in [-bandwidth, bandwidth]^2, in [-1, 1]."""
    p, q = grid.p, grid.q
    coeffs = np.zeros((p, q), dtype=np.complex128)
    for u in range(-bandwidth, bandwidth + 1):
        for v in range(-bandwidth, bandwidth + 1):
            if (u, v) == (0, 0):
                continue
            c = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[u % p, v % q] += 0.5 * c
            coeffs[(-u) % p, (-v) % q] += 0.5 * np.conj(c)
    f = np.fft.ifft2(coeffs).real * (p * q) ** 0.5
    peak = np.abs(f).max()
    return f / peak if peak > 0 else f


def _smoothed(field, grid, bandwidth):
    """Low-pass the field with a Gaussian transfer of width ~bandwidth samples."""
    p, q = grid.p, grid.q
    kx = np.minimum(np.arange(p), p - np.arange(p))
    ky = np.minimum(np.arange(q), q - np.arange(q))
    r2 = (kx[:, None] ** 2 + ky[None, :] ** 2).astype(float)
    transfer = np.exp(-0.5 * r2 / float(bandwidth) ** 2)
    return np.fft.ifft2(np.fft.fft2(field) * transfer).real


def _head_support(grid):
    p, q = grid.p, grid.q
    x = (np.arange(p) - (p - 1) / 2.0) / (0.44 * p)
    y = (np.arange(q) - (q - 1) / 2.0) / (0.46 * q)
    return (x[:, None] ** 2 + y[None, :] ** 2) <= 1.0


def make_phantom(spec: PhantomSpec, seed: int = 0) -> Phantom:
    """Generate parameter maps and the exact exponential series they imply."""
    rng = _rng(seed)
    grid = spec.grid
    p, q = grid.p, grid.q
    t2_maps = np.empty((spec.l, p, q), dtype=np.float64)
    amp_maps = np.empty((spec.l, p, q), dtype=np.complex128)

    if spec.kind == "bandlimited_exact":
        comp_bw = max(1, spec.bandwidth // spec.l)
        beta_low = np.exp(-grid.dt / spec.t2_low)
        beta_high = np.exp(-grid.dt / spec.t2_high)
        for i in range(spec.l):
            f = _bandlimited_field(rng, grid, comp_bw)
            # distinct sub-ranges keep the component decays separated
            lo = beta_low + (beta_high - beta_low) * i / spec.l
            hi = beta_low + (beta_high - beta_low) * (i + 0.8) / spec.l
            beta = 0.5 * (hi + lo) + 0.5 * (hi - lo) * f
            t2_maps[i] = -grid.dt / np.log(beta)
            g = _bandlimited_field(rng, grid, comp_bw)
            amp_maps[i] = 1.0 + spec.amp_variation * g
    else:
        support = _head_support(grid)
        levels = np.linspace(spec.t2_low, spec.t2_high, 4)
        for i in range(spec.l):
            u = _smoothed(rng.standard_normal((p, q)), grid, max(2, spec.bandwidth))
            edges = np.quantile(u, [0.3, 0.6, 0.85])
            t2_pc = np.full((p, q), levels[0])
            for j, e in enumerate(edges):
                t2_pc[u > e] = levels[j + 1]
            t2 = _smoothed(t2_pc, grid, spec.bandwidth)
            t2_maps[i] = np.clip(t2, spec.t2_low * 0.8, spec.t2_high * 1.2)
            a = 1.0 + spec.amp_variation * _smoothed(
                rng.standard_normal((p, q)), grid, spec.bandwidth
            )
            amp_maps[i] = np.where(support, np.maximum(a, 0.15), 0.0)

    series = series_from_maps(grid, amp_maps, t2_maps)
    return Phantom(series=series, t2_maps=t2_maps, amp_maps=amp_maps)


def make_coils(grid: Grid, c: int, seed: int = 0) -> np.ndarray:
    """(C, P, Q) complex Gaussian-bump sensitivities, SOS normalized to 1 pointwise."""
    if c < 1:
        raise ValueError("need at least one coil")
    p, q = grid.p, grid.q
    if c == 1:
        return np.ones((1, p, q), dtype=np.complex128)
    rng = _rng(seed)
    x = np.arange(p)[:, None]
    y = np.arange(q)[None, :]
    width = 0.9 * max(p, q)
    maps = np.empty((c, p, q), dtype=np.complex128)
    for i in range(c):
        ang = 2.0 * np.pi * i / c
        cx = (p - 1) / 2.0 + 0.55 * (p / 2.0) * np.cos(ang)
        cy = (q - 1) / 2.0 + 0.55 * (q / 2.0) * np.sin(ang)
        bump = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width**2))
        phase = (
            rng.uniform(-np.pi, np.pi)
            + rng.uniform(-0.5, 0.5) * (x - p / 2.0) / p
            + rng.uniform(-0.5, 0.5) * (y - q / 2.0) / q
        )
        maps[i] = (0.25 + bump) * np.exp(1j * phase)
    sos = np.sqrt(np.sum(np.abs(maps) ** 2, axis=0))
    return maps / sos[None, :, :]


def _uniform_frame(rng, p, q, n):
    flat = rng.choice(p * q, size=n, replace=False)
    frame = np.zeros(p * q, dtype=bool)
    frame[flat] = True
    return frame.reshape(p, q)


def _vd_lattice_frame(rng, p, q, accel, center_block):
    # candidates: the 2x2 Cartesian lattice (4-fold); variable density on top
    lp, lq = p // 2, q // 2
    n_keep = _round_half_up(p * q / accel)
    if n_keep < 1 or n_keep > lp * lq:
        raise ValueError(f"acceleration {accel} infeasible on {p}x{q} with 2x2 lattice")
    lx = np.arange(lp)
    ly = np.arange(lq)
    sx = np.minimum(lx, lp - lx) / (lp / 2.0)
    sy = np.minimum(ly, lq - ly) / (lq / 2.0)
    r = np.sqrt(sx[:, None] ** 2 + sy[None, :] ** 2)
    weight = 1.0 / (1.0 + (r / 0.22) ** 4)
    half = center_block // 2
    cx = np.minimum(lx, lp - lx) < half
    cy = np.minimum(ly, lq - ly) < half
    center = cx[:, None] & cy[None, :]
    n_center = int(np.count_nonzero(center))
    if n_keep < n_center:
        raise ValueError(
            f"acceleration {accel} leaves {n_keep} samples, fewer than the "
            f"{n_center}-point fully sampled center block"
        )
    keep = center.copy()
    rest = ~center
    # weighted sampling without replacement via exponential sort keys
    u = rng.random((lp, lq))
    keys = np.where(rest, np.log(u) / weight, -np.inf)
    order = np.argsort(keys.ravel())[::-1]
    extra = order[: n_keep - n_center]
    keep.ravel()[extra] = True
    frame = np.zeros((p, q), dtype=bool)
    frame[::2, ::2] = keep
    return frame


def make_mask(
    grid: Grid,
    kind: str = "uniform_random",
    param: float = 0.3,
    seed: int = 0,
    static: bool = False,
    center_block: int = 8,
) -> np.ndarray:
    """Sampling mask generator: a (P, Q, T) bool array, True where sampled.

    ``uniform_random``: per frame, round-half-up(param * P * Q) points
    drawn without replacement (param is the sampling fraction).
    ``vd_cartesian``: 2x2 Cartesian lattice decimation of a polynomial
    variable-density pattern with a fully sampled center block; the exact
    per-frame sample count is P * Q / param rounded half-up (param is the
    total acceleration).
    """
    p, q, t = grid.shape
    rng = _rng(seed)
    if kind == "uniform_random":
        if not 0 < param <= 1:
            raise ValueError(f"sampling fraction must be in (0, 1], got {param}")
        n = _round_half_up(param * p * q)
        if n < 1:
            raise ValueError(f"fraction {param} yields zero samples per frame")
        frames = [_uniform_frame(rng, p, q, n) for _ in range(t)]
    elif kind == "vd_cartesian":
        if p % 2 or q % 2:
            raise ValueError(f"vd_cartesian needs an even grid for its 2x2 lattice, got {p}x{q}")
        if param < 4:
            raise ValueError("vd_cartesian needs acceleration >= 4 (2x2 lattice alone is 4)")
        frames = [_vd_lattice_frame(rng, p, q, param, center_block) for _ in range(t)]
    else:
        raise ValueError(f"unknown mask kind {kind!r}")
    if static:
        frames = [frames[0]] * t
    return np.stack(frames, axis=-1)


@dataclass(frozen=True)
class Measurements:
    """Sampled multichannel k-t data with its mask and coil maps."""

    b: np.ndarray = field(repr=False)  # (C, P, Q, T) complex, zero off-mask
    mask: np.ndarray = field(repr=False)  # (P, Q, T) bool
    maps: np.ndarray = field(repr=False)  # (C, P, Q) complex coil sensitivities

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.complex128)
        object.__setattr__(self, "b", b * self.mask[None, :, :, :])


class Sampling:
    """The sampling operator A of ``forward``, with the one-coil/lattice choice taken once.

    One uniform coil runs in k-space, where A is the mask.  Otherwise A acts on
    z = F^H x at the mask's k-space lattice: ``step`` (dx, dy) is the gcd of P
    and every sampled kx (dy likewise), as a P-point DFT at multiples of dx is
    the (P/dx)-point DFT of the signal folded dx times, over sqrt(dx) in ortho
    norm.  ``weight`` is mask[::dx, ::dy] / sqrt(dx dy) and ``coils`` one
    C x (dx dy) alias matrix per lattice pixel, (P/dx, Q/dy, C, dx dy).
    Samples are (P, Q, T) in k-space, else (P/dx, Q/dy, C, T).
    """

    def __init__(self, maps, mask):
        self.mask, self.kspace = mask, maps.shape[0] == 1 and bool(np.all(maps == 1.0))
        if self.kspace:
            self.step, self.weight, self.coils = (1, 1), None, None
            return
        p, q, _ = mask.shape  # reductions over the leading axes: any(axis=2) is slow
        sampled = (mask.reshape(p, -1).any(axis=1), mask.any(axis=0).any(axis=1))  # kx, ky
        dx, dy = self.step = tuple(int(np.gcd.reduce(np.flatnonzero(k), initial=n))
                                   for k, n in zip(sampled, (p, q)))
        self.weight = mask[::dx, ::dy] / np.sqrt(dx * dy)
        self.coils = maps.reshape(-1, dx, p // dx, dy, q // dy).transpose(2, 4, 0, 1, 3).reshape(
            p // dx, q // dy, -1, dx * dy)

    def gather(self, b):
        """The samples of (C, P, Q, T) data, a copy for ``adjoint`` to overwrite."""
        dx, dy = self.step
        view = b[0] if self.kspace else np.moveaxis(b[:, ::dx, ::dy], 0, 2)
        return view.astype(np.complex128, order="C")

    def scatter(self, samples):
        """(C, P, Q, T) data holding ``samples``, 0 off the lattice."""
        if self.kspace:
            return samples[None, :, :, :]
        b = np.zeros((samples.shape[2],) + self.mask.shape, dtype=np.complex128)
        b[:, :: self.step[0], :: self.step[1]] = np.moveaxis(samples, 2, 0)
        return b

    def to_domain(self, x):
        """A k-space volume on the domain of ``apply``: x itself, or a new F^H x."""
        return x if self.kspace else np.fft.ifft2(x, axes=(0, 1), norm="ortho")

    def to_kspace(self, z):
        """The inverse of ``to_domain``; overwrites z."""
        return z if self.kspace else np.fft.fft2(z, axes=(0, 1), norm="ortho", out=z)

    def apply(self, img):
        """A img as new samples: one matmul per lattice pixel folds and coil-weights
        its aliases, one fft2 takes all coils."""
        if self.kspace:
            return img * self.mask
        (dx, dy), (lp, lq, _, k) = self.step, self.coils.shape
        img = img.reshape(dx, lp, dy, lq, -1).transpose(1, 3, 0, 2, 4).reshape(lp, lq, k, -1)
        samples = self.coils @ img  # img names the tiled copy: a temporary argument can go first
        np.fft.fft2(samples, axes=(0, 1), norm="ortho", out=samples)
        samples *= self.weight[:, :, None, :]
        return samples

    def adjoint(self, samples):
        """A* samples, sum_c conj(S_c) F^H M d_c on the lattice; overwrites
        ``samples``.  One matmul per lattice pixel unfolds all coils' aliases."""
        if self.kspace:
            samples *= self.mask
            return samples
        (dx, dy), (lp, lq, _, t) = self.step, samples.shape
        samples *= self.weight[:, :, None, :]
        np.fft.ifftn(samples, axes=(0, 1), norm="ortho", out=samples)  # ifft2 ignores out=
        aliases = np.conj(self.coils).swapaxes(2, 3) @ samples
        del samples  # Python 3.11+ frees a temporary argument here, before the tiled copy
        return aliases.reshape(lp, lq, dx, dy, t).transpose(2, 0, 3, 1, 4).reshape(
            dx * lp, dy * lq, t)


def forward(rho_hat, maps, mask):
    """Forward operator: b_ct = mask_t * DFT2(S_c * IDFT2(rho_hat_t)); a plain
    mask multiply for one uniform coil, so full sampling is exact to the bit."""
    a = Sampling(maps, mask)
    return a.scatter(a.apply(a.to_domain(rho_hat)))


def adjoint(b, maps, mask):
    """Adjoint of ``forward``, a (P, Q, T) k-t volume; with C = 1 and a full
    mask this is the identity."""
    a = Sampling(maps, mask)
    return a.to_kspace(a.adjoint(a.gather(np.asarray(b))))


def add_noise(b, mask, sigma: float, seed: int = 0):
    """Add i.i.d. complex Gaussian noise (std sigma per real component) on
    sampled entries only; deterministic under the seed."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    b = np.asarray(b, dtype=np.complex128)
    if sigma == 0:
        return b.copy()
    rng = _rng(seed)
    noise = rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape)
    return b + sigma * noise * mask[None, :, :, :]


def simulate_measurements(
    rho_hat,
    maps,
    mask,
    sigma: float = 0.0,
    seed: int = 0,
    relative: bool = True,
) -> Measurements:
    """Sample the volume and add noise; relative sigma is scaled by the mean
    magnitude of the sampled data."""
    clean = forward(rho_hat, maps, mask)
    sigma_abs = float(sigma)
    if relative and sigma > 0:
        sampled = np.abs(clean[:, mask])
        sigma_abs = float(sigma * sampled.mean())
    noisy = add_noise(clean, mask, sigma_abs, seed=seed)
    return Measurements(b=noisy, mask=mask, maps=maps)
