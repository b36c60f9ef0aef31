"""FFT-based implicit implementations of the heavy kernels.

Everything here works on raw ``(P, Q, T)`` complex arrays (the data of a
KtVolume) and on filters stored frame-major as ``(Nt, N1, N2)``.  The
building blocks:

* ``hybrid_conv``: action of the hybrid lifted matrix on a filter, i.e.
  circular convolution along space and valid (linear) convolution along
  time, computed with per-frame FFTs and never forming the matrix;
* ``cross_corr``: full circular spatial cross-correlation of two frames,
  ``g_ab[kappa] = sum_s a[s + kappa] conj(b[s])``;
* ``assemble_gram``: the exact Gram ``R = T(x) T(x)*`` over the
  valid-shift rows (restriction picks full circular rows or the valid
  linear window), assembled from FFT masked correlations so no lifted
  matrix is formed;
* ``assemble_gram_circulant``: the circulant-approximate Gram in which
  the sum over the N1 x N2 spatial filter taps is extended to the whole
  (circular) grid.  Each temporal block pair then becomes a sum of Nt
  frame-pair cross-correlations sampled at spatial shift differences.
  This is the Gram of the spatially circularized lifting that also
  underlies ``NormalMultipliers``, and is what the IRLS solver uses;
* ``build_normal_multipliers`` / ``apply_block``: exact collapse of the
  filter-bank penalty ``sum_i ||correlate(h_i, x)||^2`` (full circular
  spatial lags, Nt temporal taps) into one T x T block per pixel, so in the
  image domain ``F^H x`` one application is a batched matmul with no FFT.
  ``apply_normal`` wraps it in the unitary DFT for k-space callers.

The exact and circulant Grams agree exactly when the spatial support
covers the whole grid; their relative gap is the modeling error of the
hybrid scheme and is reported (not bounded) by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lifting import FilterSpec

__all__ = [
    "GramMatrix",
    "GramSizeError",
    "NormalMultipliers",
    "hybrid_conv",
    "valid_conv",
    "cross_corr",
    "assemble_gram",
    "assemble_gram_circulant",
    "build_normal_multipliers",
    "multiplier_fields",
    "multiplier_fields_from_filters",
    "apply_block",
    "apply_normal",
    "penalty_value",
    "apply_filter_corr",
    "apply_filter_corr_adjoint",
    "penalty_apply_direct",
    "penalty_value_direct",
]

RESTRICTIONS = ("full_circular", "valid_linear")
GRAM_MAX_ROWS = 4096
_ROW_CHUNK = 256


class GramSizeError(ValueError):
    """Dense Gram would exceed the desk-scale row guard."""


def _as_volume(rho_hat):
    data = getattr(rho_hat, "data", rho_hat)
    return np.asarray(data, dtype=np.complex128)


def _check_filter(c, spec):
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != spec.support_shape:
        raise ValueError(f"filter shape {c.shape} does not match support {spec.support_shape}")
    return c


def hybrid_conv(rho_hat, c, spec: FilterSpec):
    """Hybrid convolution of the volume with a filter on the support.

    Returns the valid-shift samples as a ``(k, P, Q)`` array, equal to the
    explicit hybrid lifted matrix times ``vec(c)`` reshaped frame-major.
    """
    x = _as_volume(rho_hat)
    if x.shape != spec.grid.shape:
        raise ValueError(f"volume shape {x.shape} does not match grid {spec.grid.shape}")
    c = _check_filter(c, spec)
    p, q, t = spec.grid.shape
    nt, k = spec.nt, spec.k
    cpad = np.zeros((nt, p, q), dtype=np.complex128)
    cpad[:, : spec.n1, : spec.n2] = c
    fx = np.fft.fft2(x, axes=(0, 1))
    fc = np.fft.fft2(cpad, axes=(1, 2))
    # output frame tau sums tap lt times input frame tau + Nt - 1 - lt
    frames = np.arange(k)[:, None] + nt - 1 - np.arange(nt)[None, :]
    return np.fft.ifft2(np.einsum("pqkl,lpq->kpq", fx[:, :, frames], fc), axes=(1, 2))


def valid_conv(rho_hat, c, spec: FilterSpec):
    """Linear (valid) convolution samples, shape ``(k, M1, M2)``.

    Inside the valid window no spatial index wraps, so this is just the
    hybrid result restricted to that window.
    """
    full = hybrid_conv(rho_hat, c, spec)
    return full[:, spec.n1 - 1 :, spec.n2 - 1 :]


def cross_corr(rho_hat, a: int, b: int):
    """Circular spatial cross-correlation of frames a and b.

    ``g[kappa] = sum_s x_a[s + kappa] conj(x_b[s])`` over the full grid,
    computed with two FFTs and one inverse FFT.
    """
    x = _as_volume(rho_hat)
    t = x.shape[2]
    for name, idx in (("a", a), ("b", b)):
        if not 0 <= idx < t:
            raise IndexError(f"frame index {name}={idx} out of range [0, {t})")
    fa = np.fft.fft2(x[:, :, a])
    fb = np.fft.fft2(x[:, :, b])
    return np.fft.ifft2(fa * np.conj(fb))


@dataclass(frozen=True)
class GramMatrix:
    """Dense Gram over the valid-shift set, in k x k temporal partitions."""

    matrix: np.ndarray = field(repr=False)
    spec: FilterSpec
    restriction: str
    circulant: bool = False


def _row_positions(spec, restriction):
    if restriction not in RESTRICTIONS:
        raise ValueError(f"unknown restriction {restriction!r}")
    mode = "hybrid" if restriction == "full_circular" else "linear"
    _, nx, ny = spec.row_shape(mode)
    ox, oy = spec.spatial_offset(mode)
    fx = np.repeat(np.arange(ox, ox + nx), ny)
    fy = np.tile(np.arange(oy, oy + ny), nx)
    return fx, fy


def _needed_frame_pairs(spec):
    """Frame pairs (a, b) arising in the temporal block sums, row-major."""
    nt, k = spec.nt, spec.k
    return sorted({(a + s, b + s) for a in range(k) for b in range(k) for s in range(nt)})


def _guard_rows(spec, restriction):
    fx, _ = _row_positions(spec, restriction)
    total = spec.k * fx.size
    if total > GRAM_MAX_ROWS:
        raise GramSizeError(
            f"Gram would have {total} rows (> {GRAM_MAX_ROWS}); use restriction="
            f"'valid_linear' or a smaller grid"
        )
    return fx.size


def assemble_gram(rho_hat, spec: FilterSpec, restriction: str = "valid_linear") -> GramMatrix:
    """Exact Gram R = T(x) T(x)* assembled with FFT masked correlations.

    For each frame pair the spatial factor W_ab[m, m'] sums the products
    x_a[m - l] conj(x_b[m' - l]) over the N1 x N2 support taps; each row
    of W_ab is one circular convolution of a masked, reversed copy of
    frame a with conj(frame b).  Temporal block (tau, tau') of R sums
    W over the Nt temporal taps.  Matches the explicit lifted matrix
    product in the corresponding mode to roundoff.
    """
    x = _as_volume(rho_hat)
    if x.shape != spec.grid.shape:
        raise ValueError(f"volume shape {x.shape} does not match grid {spec.grid.shape}")
    nr = _guard_rows(spec, restriction)
    p, q, _ = spec.grid.shape
    nt, k = spec.nt, spec.k
    fx, fy = _row_positions(spec, restriction)
    mask = np.zeros((p, q))
    mask[: spec.n1, : spec.n2] = 1.0

    fb_conj = np.fft.fft2(np.conj(x), axes=(0, 1))
    flipped = {}  # per frame a: Fa[s] = x_a[-s mod grid]
    sub1 = (np.arange(spec.n1)[None, :, None] - fx[:, None, None]) % p
    sub2 = (np.arange(spec.n2)[None, None, :] - fy[:, None, None]) % q

    def w_block(a, b):
        fa = flipped.get(a)
        if fa is None:
            fa = np.roll(x[::-1, ::-1, a], (1, 1), axis=(0, 1))
            flipped[a] = fa
        w = np.empty((nr, nr), dtype=np.complex128)
        for lo in range(0, nr, _ROW_CHUNK):
            hi = min(lo + _ROW_CHUNK, nr)
            qrows = np.zeros((hi - lo, p, q), dtype=np.complex128)
            qrows[:, : spec.n1, : spec.n2] = fa[sub1[lo:hi], sub2[lo:hi]]
            rows = np.fft.ifft2(
                np.fft.fft2(qrows, axes=(1, 2)) * fb_conj[None, :, :, b], axes=(1, 2)
            )
            w[lo:hi] = rows[:, fx, fy]
        return w

    cache = {}
    for a, b in _needed_frame_pairs(spec):
        if (a, b) not in cache:
            if (b, a) in cache:
                cache[(a, b)] = cache[(b, a)].conj().T
            else:
                cache[(a, b)] = w_block(a, b)

    m = k * nr
    out = np.empty((m, m), dtype=np.complex128)
    for tau in range(k):
        for tau2 in range(k):
            blk = np.zeros((nr, nr), dtype=np.complex128)
            for lt in range(nt):
                blk += cache[(tau + nt - 1 - lt, tau2 + nt - 1 - lt)]
            out[tau * nr : (tau + 1) * nr, tau2 * nr : (tau2 + 1) * nr] = blk
    out = 0.5 * (out + out.conj().T)
    return GramMatrix(out, spec, restriction, circulant=False)


def assemble_gram_circulant(
    rho_hat, spec: FilterSpec, restriction: str = "valid_linear"
) -> GramMatrix:
    """Circulant-approximate Gram: spatial tap sums extended to the grid.

    Block (tau, tau') holds ``sum_lt g_(a,b)[m - m']`` with frame pair
    ``a = tau + Nt - 1 - lt``, ``b = tau' + Nt - 1 - lt`` and g the full
    circular cross-correlation, so each block is a sampled circulant.
    Exactly the Gram of the spatially circularized lifting; agrees with
    ``assemble_gram`` when N1 x N2 covers the whole grid.
    """
    x = _as_volume(rho_hat)
    if x.shape != spec.grid.shape:
        raise ValueError(f"volume shape {x.shape} does not match grid {spec.grid.shape}")
    nr = _guard_rows(spec, restriction)
    p, q, _ = spec.grid.shape
    nt, k = spec.nt, spec.k
    fx, fy = _row_positions(spec, restriction)
    flat = (((fx[:, None] - fx[None, :]) % p) * q + (fy[:, None] - fy[None, :]) % q).ravel()

    ff = np.fft.fft2(x, axes=(0, 1))
    ffc = np.conj(ff)
    cache = {}
    for a, b in _needed_frame_pairs(spec):
        cache[(a, b)] = np.fft.ifft2(ff[:, :, a] * ffc[:, :, b]).ravel()

    def block(tau, tau2):
        gs = cache[(tau + nt - 1, tau2 + nt - 1)].copy()
        for lt in range(1, nt):
            gs += cache[(tau + nt - 1 - lt, tau2 + nt - 1 - lt)]
        return gs.take(flat).reshape(nr, nr)

    # Hermitian part (B + B^H) / 2, one block pair at a time: no m x m temporary
    out = np.empty((k * nr, k * nr), dtype=np.complex128)
    for tau in range(k):
        for tau2 in range(tau, k):
            blk = 0.5 * (block(tau, tau2) + block(tau2, tau).conj().T)
            out[tau * nr : (tau + 1) * nr, tau2 * nr : (tau2 + 1) * nr] = blk
            out[tau2 * nr : (tau2 + 1) * nr, tau * nr : (tau + 1) * nr] = blk.conj().T
    return GramMatrix(out, spec, restriction, circulant=True)


# ---------------------------------------------------------------------------
# Collapsed normal operator for the least-squares step


@dataclass(frozen=True)
class NormalMultipliers:
    """Collapsed penalty in the image domain z = F^H x (F the unitary DFT):
    ``(N z)[r] = block[r] @ z[r]``, one Hermitian PSD T x T block per pixel,
    ``block[r, a + s, b + s] = sum_{s < Nt} fields[a, b, r]``."""

    block: np.ndarray = field(repr=False)  # (P, Q, T, T)
    spec: FilterSpec


def _filter_bank(weights):
    filters = np.asarray(weights.filters, dtype=np.complex128)
    if filters.ndim != 4:
        raise ValueError(f"filter bank must be (M, k, wP, wQ), got shape {filters.shape}")
    return filters


def multiplier_fields_from_filters(filters, spec: FilterSpec, offset=(0, 0)):
    """Literal multiplier fields, one DFT per filter slice (reference path)."""
    p, q = spec.grid.p, spec.grid.q
    m, k, wp, wq = filters.shape
    ox, oy = offset
    fields = np.zeros((k, k, p, q), dtype=np.complex128)
    for lo in range(0, m, 64):
        chunk = filters[lo : lo + 64]
        padded = np.zeros((chunk.shape[0], k, p, q), dtype=np.complex128)
        padded[:, :, ox : ox + wp, oy : oy + wq] = chunk
        hhat = np.fft.fft2(padded, axes=(2, 3))
        fields += np.einsum("mapq,mbpq->abpq", np.conj(hhat), hhat)
    return fields


def multiplier_fields(weights, spec: FilterSpec):
    """k x k fields ``sum_i conj(Hhat_i_tau) * Hhat_i_tau'`` via Gram profiles.

    ``Hhat_i_tau`` is the raw spatial DFT of filter i's slice tau padded to
    the grid.  With H the filter-bank Gram, ``fields[tau,tau'][kappa] =
    sum_{m,m'} H[(tau,m),(tau',m')] exp(-2 pi i kappa (m' - m))``: one
    scatter over spatial difference profiles plus one batched FFT,
    independent of the filter count.  Equals the literal per-filter formula.
    """
    filters = _filter_bank(weights)
    m, k, wp, wq = filters.shape
    if k != spec.k:
        raise ValueError(f"filters have {k} temporal slices, spec implies {spec.k}")
    p, q = spec.grid.p, spec.grid.q
    if wp > p or wq > q:
        raise ValueError(f"filter window {wp}x{wq} exceeds grid {p}x{q}")
    fields = np.zeros((k, k, p, q), dtype=np.complex128)
    fh = filters.reshape(m, k * wp * wq)
    s = wp * wq
    gram = (fh.conj().T @ fh).reshape(k, s, k, s).transpose(0, 2, 1, 3).ravel()
    m1, m2 = np.divmod(np.arange(s), wq)
    ex = (m1[None, :] - m1[:, None]) % p
    ey = (m2[None, :] - m2[:, None]) % q
    # one bin range of P*Q per temporal pair (tau, tau')
    flat = ((np.arange(k * k) * (p * q))[:, None] + (ex * q + ey).ravel()).ravel()
    emb = fields.reshape(-1)
    emb.real = np.bincount(flat, weights=gram.real, minlength=emb.size)
    emb.imag = np.bincount(flat, weights=gram.imag, minlength=emb.size)
    return np.fft.fft2(fields, axes=(2, 3), out=fields)


def build_normal_multipliers(weights, spec: FilterSpec) -> NormalMultipliers:
    """Scatter the multiplier fields into one T x T block per pixel."""
    fields = multiplier_fields(weights, spec).transpose(2, 3, 0, 1)
    k, t = spec.k, spec.grid.t
    block = np.zeros(spec.grid.shape + (t,), dtype=np.complex128)
    for s in range(spec.nt):
        block[:, :, s : s + k, s : s + k] += fields
    return NormalMultipliers(block, spec)


def apply_block(mult: NormalMultipliers, z):
    """Penalty normal operator on an image-domain volume: one matmul per pixel."""
    return np.matmul(mult.block, z[..., None])[..., 0]


def apply_normal(mult: NormalMultipliers, x):
    """sum_i A_i* A_i on a k-t volume: the k-space adapter F . block . F^H."""
    spec = mult.spec
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != spec.grid.shape:
        raise ValueError(f"volume shape {x.shape} does not match grid {spec.grid.shape}")
    z = apply_block(mult, np.fft.ifft2(x, axes=(0, 1), norm="ortho"))
    return np.fft.fft2(z, axes=(0, 1), norm="ortho", out=z)


def penalty_value(mult: NormalMultipliers, x):
    """Quadratic penalty 0.5 * sum_i ||A_i x||^2 via the collapsed operator."""
    x = np.asarray(x, dtype=np.complex128)
    return 0.5 * float(np.vdot(x, apply_normal(mult, x)).real)


# ---------------------------------------------------------------------------
# Direct (per-filter) penalty path, the reference for the collapse


def _pad_filter(h, spec, offset):
    k, wp, wq = h.shape
    p, q = spec.grid.p, spec.grid.q
    ox, oy = offset
    hp = np.zeros((k, p, q), dtype=np.complex128)
    hp[:, ox : ox + wp, oy : oy + wq] = h
    return hp


def apply_filter_corr(h, x, spec: FilterSpec, offset=(0, 0)):
    """Correlate one weight filter with the volume over circular lags.

    ``out[lt, l] = sum_{m, tau} h[tau, m] x[m - l, tau + Nt - 1 - lt]``
    for temporal taps lt in [0, Nt) and all spatial lags l.
    """
    nt, k = spec.nt, spec.k
    hp = _pad_filter(np.asarray(h, dtype=np.complex128), spec, offset)
    hhat = np.fft.fft2(hp, axes=(1, 2))
    xrev = np.conj(np.fft.fft2(np.conj(x), axes=(0, 1)))
    out = np.zeros((nt, spec.grid.p, spec.grid.q), dtype=np.complex128)
    for lt in range(nt):
        acc = np.zeros_like(out[0])
        for tau in range(k):
            acc += hhat[tau] * xrev[:, :, tau + nt - 1 - lt]
        out[lt] = np.fft.ifft2(acc)
    return out


def apply_filter_corr_adjoint(h, y, spec: FilterSpec, offset=(0, 0)):
    """Adjoint of ``apply_filter_corr`` for one filter."""
    nt, k = spec.nt, spec.k
    hp = _pad_filter(np.asarray(h, dtype=np.complex128), spec, offset)
    hhat_conj = np.fft.fft2(np.conj(hp), axes=(1, 2))
    yrev = np.conj(np.fft.fft2(np.conj(np.asarray(y, dtype=np.complex128)), axes=(1, 2)))
    out = np.zeros(spec.grid.shape, dtype=np.complex128)
    for lt in range(nt):
        part = yrev[lt]
        for tau in range(k):
            out[:, :, tau + nt - 1 - lt] += np.fft.ifft2(hhat_conj[tau] * part)
    return out


def penalty_apply_direct(weights, spec: FilterSpec, x):
    """Filter-by-filter sum_i A_i*(A_i x); slow reference for apply_normal."""
    filters = _filter_bank(weights)
    offset = getattr(weights, "spatial_offset", (0, 0))
    x = np.asarray(x, dtype=np.complex128)
    out = np.zeros_like(x)
    for h in filters:
        out += apply_filter_corr_adjoint(h, apply_filter_corr(h, x, spec, offset), spec, offset)
    return out


def penalty_value_direct(weights, spec: FilterSpec, x):
    filters = _filter_bank(weights)
    offset = getattr(weights, "spatial_offset", (0, 0))
    total = 0.0
    for h in filters:
        y = apply_filter_corr(h, np.asarray(x, dtype=np.complex128), spec, offset)
        total += float(np.vdot(y, y).real)
    return 0.5 * total
