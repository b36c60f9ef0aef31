"""Schatten-p IRLS solver for structured low-rank k-t recovery.

Alternates a weight update (eigendecomposition of the valid-shift Gram
``U Lambda U*``, weight matrix ``H = U (Lambda + eps I)^(p/2 - 1) U*``) with
a weighted least-squares update solved matrix-free by conjugate gradients
on the normal equations; ``ls_update`` says how CG runs for one coil and
for several.  That solve is inexact: CG stops at ``CG_FORCING`` times its warm
start's residual (the majorizer's gradient) or at ``cg_tol`` of the right-hand
side, the larger.  MRRR (LAPACK ``zheevr``, bound from numpy's own OpenBLAS by
``fastops.eigh_overwrite``; ``np.linalg.eigh`` only where numpy has no such
LAPACK) eigendecomposes the Gram, eigenvalues alone after the last step.

The weights live on one valid-shift set, the valid linear window.  The
weight Gram, the smoothed objective and the quadratic penalty all refer
to the same spatially circularized lifting over it (circular along space,
linear along time).  That makes the reported smoothed objective provably
non-increasing at fixed eps: the weight step majorizes it, the CG step
never increases the majorizer from its warm start.  The exact-support
Gram, for tests only, is ``T T*`` of ``lifting.build_lifted`` on the
centred (``fftshift``) spectrum, within about 1% of the circulant one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fastops
from .core import require_finite
from .lifting import FilterSpec

__all__ = ["SolverConfig", "SolveReport", "IterRecord", "SolverError", "ls_update",
           "irls_solve", "cg_solve"]

EIG_CLAMP_REL = 1e-8
OBJ_STOP_REL = 1e-6
# irls_solve's CG forcing term (Eisenstat & Walker 1996); 1e-2 lost 0.045 dB on fig5_desk
CG_FORCING = 1e-3


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    p: float = 0.6
    lam: float = 1e6
    eps_decay: float = 0.25
    outer_iters: int = 30
    cg_iters: int = 200
    cg_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.p <= 2:
            raise ValueError(f"p must be in (0, 2], got {self.p}")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if not 0 < self.eps_decay < 1:
            raise ValueError("eps_decay must be in (0, 1)")
        if self.outer_iters < 1 or self.cg_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if not self.cg_tol > 0:
            raise ValueError("cg_tol must be positive")


def _weights_from_eig(eigvals, eigvecs, eps, p):
    """H = A A* with A = U (Lambda + eps I)^(p/4 - 1/2), Lambda clamped at 0."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    lam_max = float(eigvals[-1]) if eigvals.size else 0.0
    if eigvals.size and eigvals[0] < -EIG_CLAMP_REL * max(lam_max, 0.0):
        raise SolverError(
            f"Gram has negative eigenvalue {eigvals[0]:.3e} beyond the PSD repair "
            f"threshold ({-EIG_CLAMP_REL * lam_max:.3e}); upstream bug"
        )
    shifted = np.clip(eigvals, 0.0, None) + eps
    expo = p / 4.0 - 0.5
    if expo < 0 and np.any(shifted <= 0):
        raise SolverError("zero eigenvalue with eps = 0 makes the weight power singular")
    a = eigvecs * shifted**expo
    return a @ a.conj().T


def _gram_eig(rho_hat, spec, step=None, vectors=True):
    """(eigenvalues, eigenvectors or None) of the circulant Gram of ``rho_hat``,
    assembled for the call and handed to the eigensolver to overwrite.
    ``step`` is the outer step named in the error (0: the zero-filled start)."""
    try:
        return fastops.eigh_overwrite(fastops.assemble_gram_circulant(rho_hat, spec).matrix,
                                      vectors)
    except np.linalg.LinAlgError as exc:
        at = "" if step is None else f" at outer step {step}"
        raise SolverError(f"eigendecomposition of the Gram failed{at}: {exc}") from exc


@dataclass
class CgResult:
    x: np.ndarray
    iters: int
    rel_residual: float
    stop: str  # tol, maxiter, nonpositive_curvature or zero_rhs
    r0_rel: float  # ||rhs - op(x0)|| / ||rhs||, the warm start's relative residual


def cg_solve(op, rhs, x0=None, tol=1e-8, maxiter=200, inv_diag=1.0, forcing=0.0) -> CgResult:
    """Conjugate gradients for a Hermitian PSD operator on complex arrays.

    ``inv_diag`` is the Jacobi preconditioner, the elementwise inverse of the
    operator's diagonal, positive everywhere; the default 1.0 is the identity,
    bit for bit.  CG stops on the unpreconditioned relative residual ``||rhs -
    op(x)|| / ||rhs||``, which may rise on the way (CG lowers the error's
    A-norm), so no rise ends it.  The stop ``"tol"`` is at ``max(tol, forcing
    * r0_rel)``, r0_rel that ratio at x0: with ``forcing`` below 1, CG takes a
    step whenever r0_rel exceeds ``tol``.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return CgResult(np.zeros_like(rhs), 0, 0.0, "zero_rhs", 0.0)
    x = np.zeros_like(rhs) if x0 is None else x0.astype(np.complex128, copy=True)
    del x0  # a warm start made for this call is freed here, not held through CG
    r = rhs - op(x)
    del rhs  # a right-hand side made for this call is freed here, not held through CG
    pdir = inv_diag * r
    rz = float(np.vdot(r, pdir).real)
    res = float(np.vdot(r, r).real) ** 0.5
    r0_rel = res / rhs_norm
    tol = max(tol, forcing * r0_rel)
    it = 0
    stop = None
    while res / rhs_norm > tol and it < maxiter:
        ap = op(pdir)
        denom = float(np.vdot(pdir, ap).real)
        if denom <= 0:
            stop = "nonpositive_curvature"  # semidefinite direction; x is best
            break
        alpha = rz / denom
        x += alpha * pdir
        ap *= alpha
        r -= ap
        del ap  # freed before the next op(pdir) allocates its result
        res = float(np.vdot(r, r).real) ** 0.5
        z = inv_diag * r
        rz_new = float(np.vdot(r, z).real)
        pdir *= rz_new / rz
        pdir += z
        del z  # likewise
        rz = rz_new
        it += 1
    stop = stop or ("tol" if res / rhs_norm <= tol else "maxiter")
    return CgResult(x, it, res / rhs_norm, stop, r0_rel)


def _data_residual_sq(x, meas):
    """||A x - b||^2 for a k-space x, on the samples: no (C, P, Q, T) array."""
    a = meas.sampling
    resid = a.apply(a.to_domain(x))
    resid -= meas.samples
    return float(np.vdot(resid, resid).real)


def _jacobi_inverse(block, lam_mask):
    """Inverse diagonal of ``apply_normal(block, .) + lam_mask``; 1 where it is 0.

    F block F^H has the pixel mean of ``block[..., t, t]`` on its diagonal at
    every k-space point of frame t.  The diagonal is 0 only on an unsampled
    point under a zero weight matrix, where the PSD operator's row is 0 too.
    """
    diag = block.diagonal(axis1=2, axis2=3).real.mean(axis=(0, 1)) + lam_mask
    inv = np.ones_like(diag)
    np.divide(1.0, diag, out=inv, where=diag > 0)
    return inv


def _rhs(meas, lam):
    """lam A* b on the domain of ``meas.sampling``, checked finite.  Callers
    pass it inline to ``cg_solve``, which frees it after the first residual."""
    rhs = meas.zerofill()
    rhs *= lam
    require_finite("ls_update right-hand side lam * A* meas.b", rhs)
    return rhs


def ls_update(block, meas, lam: float, warm_start=None, cg_iters: int = 200,
              cg_tol: float = 1e-8, cg_forcing: float = 0.0):
    """Solve (N + lam A* A) x = lam A* b by warm-started CG, stopping at the relative
    residual ``max(cg_tol, cg_forcing * r0_rel)`` (``cg_solve``'s ``forcing``).

    N is the penalty normal operator of ``block``, the (P, Q, T, T) output of
    ``fastops.build_normal_multipliers`` over the valid linear window.  CG runs
    on the domain of the sampling operator ``meas.sampling``, whose ``adjoint(
    apply(.))`` is A* A for every coil count.  For one uniform coil that is
    k-space: N is ``apply_normal``, preconditioned by the exact diagonal.
    Otherwise it is z = F^H x (F unitary): N is a per-pixel matmul, unpreconditioned.
    Returns the ``CgResult``, its ``x`` in k-space; the quadratic objective
    there never exceeds its value at the warm start.
    """
    a = meas.sampling
    x0 = None if warm_start is None else np.asarray(warm_start, dtype=np.complex128)
    if x0 is not None:
        require_finite("ls_update warm_start", x0)
    penalty = fastops.apply_normal if a.kspace else fastops.apply_block
    inv_diag = _jacobi_inverse(block, lam * meas.mask) if a.kspace else 1.0

    def op(v):  # the data term first: its transient peaks before the penalty's result exists
        d = a.adjoint(a.apply(v))
        d *= lam
        d += penalty(block, v)
        return d

    # a warm start moved to the image domain is passed inline, so cg_solve frees it once copied
    result = cg_solve(op, _rhs(meas, lam), tol=cg_tol, maxiter=cg_iters, inv_diag=inv_diag,
                      x0=None if x0 is None else a.to_domain(x0), forcing=cg_forcing)
    result.x = a.to_kspace(result.x)
    return result


@dataclass(frozen=True)
class IterRecord:
    iter: int
    eps: float
    objective: float
    data_term: float
    reg_term: float
    cg_iters: int
    seconds: float
    # not serialized: the smoothed objective of the previous iterate at this
    # eps (for monotonicity checks) and how the least-squares CG began and ended
    objective_warm: float = float("nan")
    cg_r0_rel: float = float("nan")
    cg_rel_residual: float = float("nan")
    cg_stop: str = ""


@dataclass
class SolveReport:
    records: list
    converged: bool = False

    CSV_COLUMNS = ("iter", "eps", "objective", "data_term", "reg_term", "cg_iters", "seconds")

    def to_csv(self, path):
        lines = [",".join(self.CSV_COLUMNS)]
        for r in self.records:
            lines.append(",".join(repr(getattr(r, c)) for c in self.CSV_COLUMNS))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _smoothed_reg(eigvals, eps, p):
    lam = np.clip(eigvals, 0.0, None)
    return float(np.sum((lam + eps) ** (p / 2.0)) / p)


def irls_solve(meas, spec: FilterSpec, cfg: SolverConfig):
    """Run the alternating weight / least-squares iteration.

    Starts from the zero-filled volume (the adjoint of the data) and returns
    (x, SolveReport), x the (P, Q, T) k-space volume.  eps starts at
    lambda_max(R_0) / 100, with R_0 the Gram of that start, and decays by
    ``eps_decay`` per round down to ``eps_min = 1e-9 lambda_max(R_0)``.
    Converged once eps is at ``eps_min`` and one round changes the smoothed
    objective at that eps by at most ``OBJ_STOP_REL`` relative; else it
    stops, not converged, after ``outer_iters`` rounds.
    """
    if meas.mask.shape != spec.grid.shape:
        raise ValueError(f"measurements shape {meas.mask.shape} does not match grid "
                         f"{spec.grid.shape}")
    x = meas.sampling.to_kspace(meas.zerofill())
    eigvals, eigvecs = _gram_eig(x, spec, 0)
    lam_max0 = max(float(eigvals[-1]), 0.0)
    eps = lam_max0 / 100.0
    if eps <= 0:
        eps = 1.0  # degenerate all-zero start; any positive eps works
    eps_min = 1e-9 * lam_max0
    data_sq = _data_residual_sq(x, meas)

    records = []
    converged = False
    for n in range(1, cfg.outer_iters + 1):
        tic = time.perf_counter()
        warm_obj = _smoothed_reg(eigvals, eps, cfg.p) + 0.5 * cfg.lam * data_sq
        # eigvecs and h, (k S)^2 each, are freed before CG; the block before the next eigh
        h = _weights_from_eig(eigvals, eigvecs, eps, cfg.p)
        del eigvecs
        block = fastops.build_normal_multipliers(h, spec)
        del h
        cg = ls_update(block, meas, cfg.lam, warm_start=x, cg_iters=cfg.cg_iters,
                       cg_tol=cfg.cg_tol, cg_forcing=CG_FORCING)
        del block
        x = cg.x
        # the last step's Gram feeds only the objective: eigenvalues alone
        eigvals, eigvecs = _gram_eig(x, spec, n, vectors=n < cfg.outer_iters)
        data_sq = _data_residual_sq(x, meas)
        reg = _smoothed_reg(eigvals, eps, cfg.p)
        data_term = 0.5 * cfg.lam * data_sq
        objective = reg + data_term
        records.append(
            IterRecord(
                iter=n,
                eps=eps,
                objective=objective,
                data_term=data_term,
                reg_term=reg,
                cg_iters=cg.iters,
                seconds=time.perf_counter() - tic,
                objective_warm=warm_obj,
                cg_r0_rel=cg.r0_rel,
                cg_rel_residual=cg.rel_residual,
                cg_stop=cg.stop,
            )
        )
        if not np.isfinite(objective):
            raise SolverError(
                f"non-finite smoothed objective at outer iteration {n}; "
                f"trace: {[(r.iter, r.objective) for r in records]}"
            )
        settled = abs(objective - warm_obj) <= OBJ_STOP_REL * max(abs(warm_obj), 1e-300)
        if eps <= eps_min and settled:
            converged = True
            break
        eps = max(eps * cfg.eps_decay, eps_min)

    return x, SolveReport(records=records, converged=converged)
