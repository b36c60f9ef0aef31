"""Post-reconstruction parameter estimation, quality metrics and the
comparison baselines (zero-fill and Casorati k-t low rank)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simulate
from .simulate import Measurements, adjoint

__all__ = [
    "T2Map",
    "KtlrResult",
    "fit_t2",
    "snr_db",
    "nrmse",
    "recon_zerofill",
    "recon_ktlowrank",
    "T2_CLAMP_LOW",
    "T2_CLAMP_HIGH",
]

T2_CLAMP_LOW = 1.0
T2_CLAMP_HIGH = 5000.0


@dataclass(frozen=True)
class T2Map:
    """Mono-exponential fit result: t2/amp maps plus the fitted support."""

    t2: np.ndarray = field(repr=False)  # (P, Q) ms, 0 off support
    amp: np.ndarray = field(repr=False)  # (P, Q)
    support: np.ndarray = field(repr=False)  # (P, Q) bool, pixels actually fitted


def fit_t2(series, echo_times, support=None) -> T2Map:
    """Per-pixel weighted log-linear mono-exponential fit of a (P, Q, T) series.

    Solves least squares on log|rho| vs TE with weights |rho|^2, which is
    exact on noiseless mono-exponentials.  Pixels with a non-positive
    magnitude anywhere are dropped from the support; fits outside the
    (1, 5000) ms range are clamped.
    """
    te = np.asarray(echo_times, dtype=np.float64)
    if te.size < 2:
        raise ValueError("need at least 2 echo times")
    mag = np.abs(series)
    if te.size != mag.shape[2]:
        raise ValueError(f"{te.size} echo times for {mag.shape[2]} frames")
    if support is None:
        support = mag[:, :, 0] > 0
    support = np.asarray(support, dtype=bool)

    ok = support & (mag > 0).all(axis=2)

    logm = np.zeros_like(mag)
    np.log(mag, out=logm, where=mag > 0)
    w = mag**2
    # weighted straight-line fit per pixel: logm = a + s * te
    s0 = w.sum(axis=2)
    s1 = (w * te).sum(axis=2)
    s2 = (w * te**2).sum(axis=2)
    sy = (w * logm).sum(axis=2)
    sty = (w * te * logm).sum(axis=2)
    det = s0 * s2 - s1**2
    good = ok & (det > 0)
    det_safe = np.where(good, det, 1.0)
    slope = (s0 * sty - s1 * sy) / det_safe
    intercept = (s2 * sy - s1 * sty) / det_safe

    t2 = np.zeros(mag.shape[:2])
    amp = np.zeros_like(t2)
    decaying = good & (slope < 0)
    t2[decaying] = -1.0 / slope[decaying]
    t2[good & ~decaying] = T2_CLAMP_HIGH  # no decay measured
    low = good & (t2 < T2_CLAMP_LOW)
    high = decaying & (t2 > T2_CLAMP_HIGH)
    t2[low] = T2_CLAMP_LOW
    t2[high] = T2_CLAMP_HIGH
    amp[good] = np.exp(intercept[good])
    t2[~good] = 0.0
    return T2Map(t2=t2, amp=amp, support=good)


def _norms(ref, rec):
    ref = np.asarray(ref)
    rec = np.asarray(rec)
    if ref.shape != rec.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {rec.shape}")
    nref = float(np.linalg.norm(ref))
    if nref == 0:
        raise ValueError("reference has zero norm")
    return nref, float(np.linalg.norm(ref - rec))


def snr_db(ref, rec) -> float:
    """20 log10(||ref|| / ||ref - rec||); +inf when rec equals ref."""
    nref, nerr = _norms(ref, rec)
    if nerr == 0:
        return float("inf")
    return float(20.0 * np.log10(nref / nerr))


def nrmse(ref, rec) -> float:
    nref, nerr = _norms(ref, rec)
    return nerr / nref


def recon_zerofill(meas: Measurements) -> np.ndarray:
    """Adjoint (coil-combined, mask-respecting) reconstruction of b."""
    return adjoint(meas.b, meas.maps, meas.mask)


@dataclass(frozen=True)
class KtlrResult:
    volume: np.ndarray = field(repr=False)  # (P, Q, T) k-space
    objective_trace: tuple


def _svt(mat, thresh):
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    s = np.maximum(s - thresh, 0.0)
    return (u * s) @ vh, s


def recon_ktlowrank(meas: Measurements, mu: float, *, iters: int) -> KtlrResult:
    """Nuclear-norm k-t low rank baseline via proximal gradient (ISTA).

    Minimizes 0.5 ||A x - b||^2 + mu ||Casorati(x)||_* with unit step
    (||A|| <= 1 for SOS-normalized coils), soft-thresholding the PQ x T
    Casorati matrix each sweep.  That commutes with the unitary per-frame DFT
    F, so one uniform coil iterates on k-space x (A is the mask), and several
    coils on z = F^H x through ``simulate._lattice`` (b is 0 off it).
    """
    if mu < 0 or iters < 1:
        raise ValueError("need mu >= 0 and iters >= 1")
    p, q, t = meas.b.shape[1:]
    if single := simulate._uniform_single_coil(meas.maps):
        b, fwd, adj = meas.b[0], (lambda x: x * meas.mask), (lambda r: r * meas.mask)
    else:
        (dx, dy), _, _ = lattice = simulate._lattice(meas.mask, meas.maps)
        b = np.moveaxis(meas.b[:, ::dx, ::dy], 0, 2).copy()
        fwd = lambda z: simulate._coil_forward(z, lattice)  # noqa: E731
        adj = lambda r: simulate._image_adjoint(r, lattice)  # noqa: E731; overwrites r
    x = np.zeros((p, q, t), dtype=np.complex128)
    trace, prev = [], np.inf
    resid = fwd(x) - b  # A x - b; each sweep's objective residual is the next one's gradient's
    for _ in range(iters):
        xnew, sv = _svt((x - adj(resid)).reshape(p * q, t), mu)
        x = xnew.reshape(p, q, t)
        resid = fwd(x) - b
        obj = 0.5 * float(np.vdot(resid, resid).real) + mu * float(sv.sum())
        trace.append(obj)
        if obj > prev * (1 + 1e-8) and obj > prev + 1e-12:
            raise RuntimeError(f"k-t low rank objective increased: {prev} -> {obj}")
        prev = obj
    vol = x if single else np.fft.fft2(x, axes=(0, 1), norm="ortho", out=x)  # back to k-space
    return KtlrResult(volume=vol, objective_trace=tuple(trace))
