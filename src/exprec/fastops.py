"""FFT-based implicit implementations of the heavy kernels.

Everything here works on raw ``(P, Q, T)`` complex arrays (the data of a
KtVolume) and on filters stored frame-major as ``(Nt, N1, N2)``.  The
building blocks:

* ``hybrid_conv``: action of the hybrid lifted matrix on a filter, i.e.
  circular convolution along space and valid (linear) convolution along
  time, computed with per-frame FFTs and never forming the matrix;
* ``assemble_gram``: the exact Gram ``R = T(x) T(x)*`` over the
  valid-shift rows (restriction picks full circular rows or the valid
  linear window), assembled from FFT masked correlations so no lifted
  matrix is formed;
* ``assemble_gram_circulant``: the circulant-approximate Gram over the
  valid linear window, in which the sum over the N1 x N2 spatial filter
  taps is extended to the whole (circular) grid.  Each temporal block is
  then one inverse FFT of a cross-power spectrum summed over Nt frames,
  sampled at the spatial shift differences.  This is the Gram of the
  spatially circularized lifting that also underlies the collapsed
  penalty below, and is what the IRLS solver uses;
* ``build_normal_multipliers`` / ``apply_block``: exact collapse of the
  weighted penalty ``Tr(T(x)* H T(x))`` of a Hermitian weight matrix H over
  the valid linear window (full circular spatial lags, Nt temporal taps)
  into one T x T block per pixel, so in the image domain ``F^H x`` one
  application is a batched matmul with no FFT.  ``apply_normal`` wraps it
  in the unitary DFT for k-space callers.

The dense references for these kernels (the lifted matrix, its adjoint and
the filter-bank penalty ``lifted_penalty``, whose bank ``A`` gives the
weight matrix ``H = A* A``) live in ``lifting``.

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
    "hybrid_conv",
    "assemble_gram",
    "assemble_gram_circulant",
    "build_normal_multipliers",
    "multiplier_fields",
    "apply_block",
    "apply_normal",
]

RESTRICTIONS = ("full_circular", "valid_linear")
GRAM_MAX_ROWS = 4096
_ROW_CHUNK = 256


class GramSizeError(ValueError):
    """Dense Gram would exceed the desk-scale row guard."""


def _as_volume(rho_hat, spec):
    """The volume's data as a complex array, checked against the spec's grid."""
    x = np.asarray(getattr(rho_hat, "data", rho_hat), dtype=np.complex128)
    if x.shape != spec.grid.shape:
        raise ValueError(f"volume shape {x.shape} does not match grid {spec.grid.shape}")
    return x


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
    x = _as_volume(rho_hat, spec)
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


@dataclass(frozen=True)
class GramMatrix:
    """Dense Gram over the valid-shift set, in k x k temporal partitions."""

    matrix: np.ndarray = field(repr=False)


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
            f"Gram would have {total} rows (> {GRAM_MAX_ROWS}); use a smaller grid, "
            f"or restriction='valid_linear' for the exact Gram"
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
    x = _as_volume(rho_hat, spec)
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
    return GramMatrix(out)


def assemble_gram_circulant(rho_hat, spec: FilterSpec) -> GramMatrix:
    """Circulant-approximate Gram: spatial tap sums extended to the grid.

    Block (tau, tau') holds ``g[m - m']`` on the valid linear window, where
    ``g = ifft2(sum_j X_(tau+j) conj(X_(tau'+j)))`` over j < Nt and X is the
    spatial DFT of the volume, so each block is a sampled circulant.  One
    cross-power, one ``ifft2`` and one gather per upper block; the lower
    blocks are their conjugate transposes, so the result is exactly
    Hermitian.  Exactly the Gram of the spatially circularized lifting;
    agrees with ``assemble_gram`` when N1 x N2 covers the whole grid.
    """
    x = _as_volume(rho_hat, spec)
    nr = _guard_rows(spec, "valid_linear")
    p, q, _ = spec.grid.shape
    k = spec.k
    fx, fy = _row_positions(spec, "valid_linear")
    flat = ((fx[:, None] - fx[None, :]) % p) * q + (fy[:, None] - fy[None, :]) % q
    # win[:, :, tau] holds the Nt spatial spectra X_tau .. X_(tau+Nt-1)
    win = np.lib.stride_tricks.sliding_window_view(np.fft.fft2(x, axes=(0, 1)), spec.nt, axis=2)
    out = np.empty((k * nr, k * nr), dtype=np.complex128)
    for tau in range(k):
        for tau2 in range(tau, k):
            cross = np.einsum("pqj,pqj->pq", win[:, :, tau], win[:, :, tau2].conj())
            blk = np.fft.ifft2(cross).take(flat)
            if tau == tau2:
                blk = 0.5 * (blk + blk.conj().T)
            out[tau * nr : (tau + 1) * nr, tau2 * nr : (tau2 + 1) * nr] = blk
            out[tau2 * nr : (tau2 + 1) * nr, tau * nr : (tau + 1) * nr] = blk.conj().T
    return GramMatrix(out)


# ---------------------------------------------------------------------------
# Collapsed normal operator for the least-squares step


def multiplier_fields(h, spec: FilterSpec):
    """k x k fields of the weight matrix ``h`` over the valid linear window.

    ``h`` is the Hermitian (k M1 M2)^2 weight matrix, rows and columns in
    C order over (tau, m) with m the spatial window position.  Then
    ``fields[tau,tau'][kappa] = sum_{m,m'} h[(tau,m),(tau',m')]
    exp(-2 pi i kappa (m' - m))``: one scatter of h, in its own order, over
    the spatial lags m' - m plus one batched FFT.  For a filter bank A
    (rows the filters) and ``h = A* A`` it equals the literal per-filter
    formula ``sum_i conj(Ahat_i_tau) * Ahat_i_tau'``.
    """
    k, p, q = spec.k, spec.grid.p, spec.grid.q
    _, wp, wq = spec.row_shape("linear")
    s = wp * wq
    if np.shape(h) != (k * s, k * s):
        raise ValueError(f"weight matrix must be {k * s} x {k * s}, got shape {np.shape(h)}")
    h = np.asarray(h, dtype=np.complex128).reshape(-1)
    m1, m2 = np.divmod(np.arange(s), wq)
    lag = ((m1[None, :] - m1[:, None]) % p) * q + (m2[None, :] - m2[:, None]) % q
    # h[(tau, m), (tau', m')] lands in bin range tau * k + tau' of P*Q bins each
    pair = (np.arange(k)[:, None] * k + np.arange(k)) * (p * q)
    flat = (pair[:, None, :, None] + lag[None, :, None, :]).ravel()
    fields = np.zeros((k, k, p, q), dtype=np.complex128)
    emb = fields.reshape(-1)
    emb.real = np.bincount(flat, weights=h.real, minlength=emb.size)
    emb.imag = np.bincount(flat, weights=h.imag, minlength=emb.size)
    return np.fft.fft2(fields, axes=(2, 3), out=fields)


def build_normal_multipliers(h, spec: FilterSpec):
    """The (P, Q, T, T) penalty block of the weight matrix ``h``.

    In the image domain z = F^H x (F the unitary DFT) the penalty normal
    operator is ``(N z)[r] = block[r] @ z[r]``, one Hermitian PSD T x T
    block per pixel, ``block[r, a + s, b + s] = sum_{s < Nt} fields[a, b, r]``.
    """
    fields = multiplier_fields(h, spec)
    k, t = spec.k, spec.grid.t
    block = np.zeros(spec.grid.shape + (t,), dtype=np.complex128)
    # add through the (T, T, P, Q) view of the block: each (P, Q) plane of
    # fields is read contiguously, and no transposed copy of fields is made
    planes = block.transpose(2, 3, 0, 1)
    for s in range(spec.nt):
        planes[s : s + k, s : s + k] += fields
    return block


def apply_block(block, z):
    """Penalty normal operator on an image-domain volume: one matmul per pixel."""
    return np.matmul(block, z[..., None])[..., 0]


def apply_normal(block, x):
    """Penalty normal operator on a k-t volume: the k-space adapter F . block . F^H."""
    if np.shape(x) != block.shape[:3]:
        raise ValueError(f"volume shape {np.shape(x)} does not match block {block.shape[:3]}")
    z = apply_block(block, np.fft.ifft2(x, axes=(0, 1), norm="ortho"))
    # numpy 2.4's ifft2 ignores out= (returns a new array, leaves out unwritten); fft2 honours it
    return np.fft.fft2(z, axes=(0, 1), norm="ortho", out=z)
