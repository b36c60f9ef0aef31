"""FFT-based implicit implementations of the heavy kernels.

Everything here works on raw ``(P, Q, T)`` complex arrays and is what the
IRLS solver runs.  Both kernels index the valid linear window through one
lag table, ``_lags`` (the circular spatial lags m - m' of its positions):
the Gram gathers through it, the penalty scatters through its transpose.

* ``assemble_gram_circulant``: the circulant-approximate Gram over the
  valid linear window, in which the sum over the N1 x N2 spatial filter
  taps is extended to the whole (circular) grid.  Each temporal block is
  then one inverse FFT of a cross-power spectrum summed over Nt frames,
  gathered at the lags.  This is the Gram of the spatially circularized
  lifting that also underlies the collapsed penalty below;
* ``eigh_overwrite``: the Gram's eigensolver, MRRR (LAPACK ``zheevr``)
  called through ctypes from the OpenBLAS numpy already loaded, in place on
  the Gram and with O(n) workspace; ``np.linalg.eigh`` where there is none;
* ``build_normal_multipliers`` / ``apply_block``: exact collapse of the
  weighted penalty ``Tr(T(x)* H T(x))`` of a Hermitian weight matrix H over
  the valid linear window (full circular spatial lags, Nt temporal taps)
  into one T x T block per pixel, so in the image domain ``F^H x`` one
  application is a batched matmul with no FFT.  The block is built one
  temporal row of H at a time (a (k, P, Q) buffer, never the k x k fields
  whole), summing each entry in the whole-fields order to the bit.
  ``apply_normal`` wraps it in the unitary DFT for k-space callers.

The dense references live in ``lifting``: the lifted matrix ``T`` and the
filter-bank penalty ``lifted_penalty``, whose bank ``A`` gives ``H = A* A``.
The exact-support Gram is ``T T*`` of the centred (``fftshift``) spectrum;
the circulant Gram equals it at full spatial support, and the tests bound
their gap, the hybrid modeling error: 1% at 16x16 and 0.4% at 32x32 on
smoothed phantoms (the zero-corner layout gives another matrix).
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np

from .lifting import FilterSpec

__all__ = [
    "GramMatrix",
    "GramSizeError",
    "assemble_gram_circulant",
    "eigh_overwrite",
    "build_normal_multipliers",
    "apply_block",
    "apply_normal",
]

GRAM_MAX_ROWS = 4096


class GramSizeError(ValueError):
    """Dense Gram would exceed the desk-scale row guard."""


@dataclass(frozen=True)
class GramMatrix:
    """Dense Gram over the valid-shift set, in k x k temporal partitions."""

    matrix: np.ndarray = field(repr=False)


def _lags(spec):
    """(S, S) flat (P, Q) grid index of the circular lag m - m'.

    m and m' run over the S = M1 M2 positions of the valid linear window in
    C order, so entry (i, j) is the lag from position j to position i.
    """
    p, q = spec.grid.p, spec.grid.q
    _, wp, wq = spec.row_shape("linear")
    m1, m2 = np.divmod(np.arange(wp * wq), wq)
    return ((m1[:, None] - m1[None, :]) % p) * q + (m2[:, None] - m2[None, :]) % q


def assemble_gram_circulant(x, spec: FilterSpec) -> GramMatrix:
    """Circulant-approximate Gram: spatial tap sums extended to the grid.

    Block (tau, tau') holds ``g[m - m']`` on the valid linear window, where
    ``g = ifft2(sum_j X_(tau+j) conj(X_(tau'+j)))`` over j < Nt and X is the
    spatial DFT of the volume ``x``, so each block is a sampled circulant.
    One cross-power, one ``ifft2`` and one gather through the lag table per
    upper block; the lower blocks are their conjugate transposes, so the
    result is exactly Hermitian.  Exactly the Gram of the spatially
    circularized lifting; equals the exact-support Gram ``T T*`` of the
    linear lifting when N1 x N2 covers the whole grid.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != spec.grid.shape:
        raise ValueError(f"volume shape {x.shape} does not match grid {spec.grid.shape}")
    if (rows := spec.n_rows("linear")) > GRAM_MAX_ROWS:
        raise GramSizeError(f"Gram would have {rows} rows (> {GRAM_MAX_ROWS}); "
                            f"use a wider filter or a smaller grid")
    k = spec.k
    lags = _lags(spec)
    nr = lags.shape[0]
    # win[:, :, tau] holds the Nt spatial spectra X_tau .. X_(tau+Nt-1)
    win = np.lib.stride_tricks.sliding_window_view(np.fft.fft2(x, axes=(0, 1)), spec.nt, axis=2)
    out = np.empty((k * nr, k * nr), dtype=np.complex128)
    for tau in range(k):
        for tau2 in range(tau, k):
            cross = np.einsum("pqj,pqj->pq", win[:, :, tau], win[:, :, tau2].conj())
            blk = np.fft.ifft2(cross).take(lags)
            if tau == tau2:
                blk = 0.5 * (blk + blk.conj().T)
            out[tau * nr : (tau + 1) * nr, tau2 * nr : (tau2 + 1) * nr] = blk
            out[tau2 * nr : (tau2 + 1) * nr, tau * nr : (tau + 1) * nr] = blk.conj().T
    return GramMatrix(out)


@functools.cache
def _zheevr():
    """LAPACKE ``zheevr`` (ILP64) of the OpenBLAS numpy's linalg loaded, or None.

    Looked up through the handle of numpy's own linalg extension, so the
    library is the one already in the process and nothing new is imported.
    """
    fn = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), "scipy_LAPACKE_zheevr64_", None)
    if fn is not None:
        i64, f64, ch, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_char, ctypes.c_void_p
        fn.restype = i64
        fn.argtypes = [ctypes.c_int, ch, ch, ch, i64, ptr, i64, f64, f64, i64, i64, f64,
                       ctypes.POINTER(i64), ptr, ptr, i64, ptr]
    return fn


def eigh_overwrite(a, vectors=True):
    """(ascending eigenvalues, eigenvectors as columns or None) of the
    C-contiguous Hermitian matrix ``a``, which it may overwrite.

    LAPACK's ``zheevr`` (MRRR) reads the C-order buffer as the column-major
    conj(a), so no copy is made and its eigenvectors come back conjugated.
    Raises ``LinAlgError`` when LAPACK fails, and on a non-finite ``a``
    (LAPACKE's NaN check).  Without the binding, ``np.linalg.eigh``.
    """
    fn = _zheevr()
    if fn is None:  # numpy built against another LAPACK
        return np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
    n = a.shape[0]
    if not (a.flags.c_contiguous and a.dtype == np.complex128 and a.shape == (n, n)):
        raise ValueError(f"need a square C-contiguous complex128 array, got {a.dtype} {a.shape}")
    w = np.empty(n)
    z = np.empty((n, n) if vectors else (1, 1), dtype=np.complex128, order="F")
    m = ctypes.c_int64()
    isuppz = np.empty(2 * n, dtype=np.int64)
    # 102: column-major
    info = fn(102, b"V" if vectors else b"N", b"A", b"L", n, a.ctypes.data, n,
              0.0, 0.0, 0, 0, 0.0, ctypes.byref(m), w.ctypes.data, z.ctypes.data,
              z.shape[0], isuppz.ctypes.data)
    if info != 0 or m.value != n:
        why = " (a non-finite entry)" if info == -6 else ""
        raise np.linalg.LinAlgError(f"zheevr returned info {info}{why}, {m.value} of {n} eigenpairs")
    return w, np.conjugate(z, out=z) if vectors else None


# ---------------------------------------------------------------------------
# Collapsed normal operator for the least-squares step


def build_normal_multipliers(h, spec: FilterSpec):
    """The (P, Q, T, T) penalty block of the weight matrix ``h``.

    ``h`` is the Hermitian (k S)^2 weight matrix, rows and columns in C
    order over (tau, m) with m the spatial window position.  Its k x k
    fields ``fields[tau,tau'][kappa] = sum_{m,m'} h[(tau,m),(tau',m')]
    exp(-2 pi i kappa (m' - m))`` equal, for a filter bank A (rows the
    filters) and ``h = A* A``, the literal per-filter formula
    ``sum_i conj(Ahat_i_tau) * Ahat_i_tau'``.  In the image domain z = F^H x
    (F the unitary DFT) the penalty normal operator is
    ``(N z)[r] = block[r] @ z[r]``, one Hermitian PSD T x T block per pixel,
    ``block[r, a + s, b + s] = sum_{s < Nt} fields[a, b, r]``.  Each row tau
    of fields is one scatter of h's rows through the transposed lag table
    and one FFT, added into the block and dropped; rows run from k - 1 down
    to 0, so each entry sums its planes in the order s = 0, 1, ...
    """
    k, p, q, t = spec.k, spec.grid.p, spec.grid.q, spec.grid.t
    n = spec.n_rows("linear")
    if np.shape(h) != (n, n):
        raise ValueError(f"weight matrix must be {n} x {n}, got shape {np.shape(h)}")
    h = np.asarray(h, dtype=np.complex128).reshape(k, -1)
    # row tau of h, in its own (m, tau', m') order, lands in bin range tau' at lag m' - m
    flat = (np.arange(k)[None, :, None] * (p * q) + _lags(spec).T[:, None, :]).ravel()
    row = np.empty((k, p, q), dtype=np.complex128)
    emb = row.reshape(-1)
    block = np.zeros(spec.grid.shape + (t,), dtype=np.complex128)
    # add through the (T, T, P, Q) view of the block: each (P, Q) plane of
    # the row is read contiguously, and no transposed copy is made
    planes = block.transpose(2, 3, 0, 1)
    for tau in range(k - 1, -1, -1):
        emb.real = np.bincount(flat, weights=h[tau].real, minlength=emb.size)
        emb.imag = np.bincount(flat, weights=h[tau].imag, minlength=emb.size)
        np.fft.fft2(row, axes=(1, 2), out=row)
        for s in range(spec.nt):
            planes[tau + s, s : s + k] += row
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
