"""Post-reconstruction parameter estimation, quality metrics and the
comparison baselines (zero-fill and Casorati k-t low rank)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fastops
from .simulate import Measurements, adjoint  # noqa: F401  perfbench traces mapping.adjoint

__all__ = [
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


def fit_t2(series, echo_times, support=None) -> np.ndarray:
    """Per-pixel weighted log-linear mono-exponential fit of a (P, Q, T) series:
    the (P, Q) T2 map in ms, 0 off the fitted support.

    Solves least squares on log|rho| vs TE with weights |rho|^2, which is
    exact on noiseless mono-exponentials.  Pixels with a non-positive
    magnitude anywhere are dropped from the support; fits outside the
    (1, 5000) ms range are clamped, so ``t2 > 0`` is the fitted support.
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
    slope = (s0 * sty - s1 * sy) / np.where(good, det, 1.0)

    t2 = np.zeros(mag.shape[:2])
    decaying = good & (slope < 0)
    t2[decaying] = -1.0 / slope[decaying]
    t2[good & ~decaying] = T2_CLAMP_HIGH  # no decay measured
    low = good & (t2 < T2_CLAMP_LOW)
    high = decaying & (t2 > T2_CLAMP_HIGH)
    t2[low] = T2_CLAMP_LOW
    t2[high] = T2_CLAMP_HIGH
    t2[~good] = 0.0
    return t2


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
    return meas.sampling.to_kspace(meas.zerofill())


@dataclass(frozen=True)
class KtlrResult:
    volume: np.ndarray = field(repr=False)  # (P, Q, T) k-space
    objective_trace: tuple


def _svt(mat, thresh):
    """(mat V diag(sv / s) V*, sv = max(s - thresh, 0)), mat* mat = V diag(s^2) V*."""
    lam, v = fastops.eigh_overwrite(mat.conj().T @ mat)
    s = np.sqrt(np.maximum(lam, 0.0))
    sv = np.maximum(s - thresh, 0.0)
    return mat @ ((v * (sv / np.where(s > 0, s, 1.0))) @ v.conj().T), sv


def recon_ktlowrank(meas: Measurements, mu_rel: float, *, iters: int) -> KtlrResult:
    """Nuclear-norm k-t low rank baseline via proximal gradient (ISTA).

    Minimizes 0.5 ||A x - b||^2 + mu ||Casorati(x)||_*, mu = ``mu_rel`` smax
    (``OverflowError`` if not finite) for smax the top singular value of the
    first step, A* b (the zero-fill), with unit step (||A|| <= 1 for
    SOS-normalized coils).  Thresholding commutes with the unitary per-frame
    DFT F, so ISTA runs on the domain of ``meas.sampling``: k-space x for
    one uniform coil (A is the mask), else z = F^H x with b on the mask's lattice.

    Each sweep thresholds the Casorati matrix M through its T x T Gram
    M* M = V diag(s^2) V*, as M V diag(max(s - mu, 0) / s) V*: one T x T
    eigensolve, no PQ x T SVD.  An eigenvalue is off by about eps smax^2, so
    a sweep is accurate to about eps smax / (2 mu) relative: 3e-15 at
    mu = 0.02 smax, 6e-11 at 1e-6 smax.  mu above smax gives exact zeros.
    """
    if mu_rel < 0 or iters < 1:
        raise ValueError("need mu_rel >= 0 and iters >= 1")
    p, q, t = meas.mask.shape
    a, b = meas.sampling, meas.samples
    step = meas.zerofill().reshape(p * q, t)  # x - A*(A x - b) at x = 0
    lam, _ = fastops.eigh_overwrite(step.conj().T @ step, vectors=False)
    mu = mu_rel * float(np.sqrt(lam[-1]))
    if not np.isfinite(mu):
        raise OverflowError(f"{mu_rel!r} times the largest singular value of the zero-fill "
                            "recon overflows")
    trace, prev = [], np.inf
    for sweep in range(iters):
        if sweep:
            step = (x - a.adjoint(resid)).reshape(p * q, t)  # resid: the last sweep's A x - b
        xnew, sv = _svt(step, mu)
        x = xnew.reshape(p, q, t)
        resid = a.apply(x) - b
        obj = 0.5 * float(np.vdot(resid, resid).real) + mu * float(sv.sum())
        trace.append(obj)
        if obj > prev * (1 + 1e-8) and obj > prev + 1e-12:
            raise RuntimeError(f"k-t low rank objective increased: {prev} -> {obj}")
        prev = obj
    return KtlrResult(volume=a.to_kspace(x), objective_trace=tuple(trace))
