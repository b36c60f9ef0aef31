"""Schatten-p IRLS solver for structured low-rank k-t recovery.

Alternates a weight update (eigendecomposition of the valid-shift Gram
``U Lambda U*``, weight matrix ``H = U (Lambda + eps I)^(p/2 - 1) U*``) with
a weighted least-squares update solved matrix-free by conjugate gradients
on the normal equations; ``ls_update`` says how CG runs for one coil and
for several.  The Gram is eigendecomposed by MRRR (LAPACK ``zheevr``, bound
from numpy's own OpenBLAS by ``fastops.eigh_overwrite``; ``np.linalg.eigh``
only where numpy has no such LAPACK), eigenvalues alone after the last step.

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

from . import fastops, simulate
from .core import require_finite
from .lifting import FilterSpec

__all__ = [
    "SolverConfig",
    "SolveReport",
    "IterRecord",
    "SolverError",
    "weight_update",
    "ls_update",
    "irls_solve",
    "cg_solve",
]

EIG_CLAMP_REL = 1e-8
OBJ_STOP_REL = 1e-6


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


def weight_update(rho_hat, spec: FilterSpec, p: float, eps: float):
    """Eigendecompose the circulant Gram and return the weight matrix H."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return _weights_from_eig(*_gram_eig(rho_hat, spec), eps, p)


@dataclass
class CgResult:
    x: np.ndarray
    iters: int
    rel_residual: float
    stop: str  # tol, maxiter, nonpositive_curvature or zero_rhs


def cg_solve(op, rhs, x0=None, tol=1e-8, maxiter=200, inv_diag=None) -> CgResult:
    """Conjugate gradients for a Hermitian PSD operator on complex arrays.

    ``inv_diag`` is an optional Jacobi preconditioner: the elementwise inverse
    of the operator's diagonal, positive everywhere.  Either way CG stops on
    the unpreconditioned relative residual ``||rhs - op(x)|| / ||rhs||``, which
    may rise on the way (CG lowers the error's A-norm), so no rise ends it.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return CgResult(np.zeros_like(rhs), 0, 0.0, "zero_rhs")
    x = np.zeros_like(rhs) if x0 is None else x0.astype(np.complex128, copy=True)
    del x0  # a warm start made for this call is freed here, not held through CG

    def precondition(r, rs):
        """(M^-1 r, r^H M^-1 r) for rs = r^H r; M = I without ``inv_diag``."""
        if inv_diag is None:
            return r, rs
        z = inv_diag * r
        return z, float(np.vdot(r, z).real)

    r = rhs - op(x)
    del rhs  # a right-hand side made for this call is freed here, not held through CG
    rs = float(np.vdot(r, r).real)
    z, rz = precondition(r, rs)
    pdir = z.copy()
    res = rs**0.5
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
        rs_new = float(np.vdot(r, r).real)
        res = rs_new**0.5
        z, rz_new = precondition(r, rs_new)
        pdir *= rz_new / rz
        pdir += z
        rz = rz_new
        it += 1
    stop = stop or ("tol" if res / rhs_norm <= tol else "maxiter")
    return CgResult(x, it, res / rhs_norm, stop)


def _data_residual_sq(x, meas):
    resid = simulate.forward(x, meas.maps, meas.mask) - meas.b
    return float(np.vdot(resid, resid).real)


def _data_normal(z, lattice):
    """sum_c conj(S_c) F^H M F (S_c z) on an image-domain volume; the coils'
    lattice samples take the mask weight twice in place, no copy beside them."""
    return simulate._image_adjoint(simulate._coil_forward(z, lattice), lattice)


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


def _rhs(meas, lam, lattice):
    """lam A* meas.b, checked finite: in k-space for one uniform coil (``lattice``
    None), else in the image domain at the lattice.  Callers pass it inline to
    ``cg_solve``, which frees it after the first residual."""
    if lattice is None:
        rhs = lam * (meas.b[0] * meas.mask)
    else:
        (dx, dy), _, _ = lattice
        # a copy for the adjoint to overwrite and free
        rhs = lam * simulate._image_adjoint(np.moveaxis(meas.b[:, ::dx, ::dy], 0, 2).copy(),
                                            lattice)
    require_finite("ls_update right-hand side lam * A* meas.b", rhs)
    return rhs


def ls_update(
    block,
    meas,
    lam: float,
    warm_start=None,
    cg_iters: int = 200,
    cg_tol: float = 1e-8,
):
    """Solve (N + lam A* A) x = lam A* b by warm-started CG.

    N is the penalty normal operator of ``block``, the (P, Q, T, T) output
    of ``fastops.build_normal_multipliers`` over the valid linear window.

    With one uniform coil A* A is the k-space mask M, so CG runs in k-space
    on ``apply_normal + lam M`` (one FFT pair per iteration), preconditioned
    by that operator's exact diagonal.  With several coils CG runs
    unpreconditioned on the unitary change of variables z = F^H x: the
    penalty is a per-pixel matmul, the data term one batched FFT pair over
    all coils at the size of the mask's k-space lattice (``simulate._lattice``,
    found once here).  Returns the ``CgResult``, its ``x`` in k-space; the
    quadratic objective there never exceeds its value at the warm start.
    """
    mask = meas.mask
    single = simulate._uniform_single_coil(meas.maps)
    lattice = None if single else simulate._lattice(mask, meas.maps)
    x0 = None
    if warm_start is not None:
        x0 = np.asarray(warm_start, dtype=np.complex128)
        require_finite("ls_update warm_start", x0)

    if single:
        lam_mask = lam * mask

        def op(x):
            d = fastops.apply_normal(block, x)
            d += lam_mask * x
            return d

        inv_diag = _jacobi_inverse(block, lam_mask)
        return cg_solve(op, _rhs(meas, lam, lattice), x0=x0, tol=cg_tol, maxiter=cg_iters,
                        inv_diag=inv_diag)

    def op(z):
        d = _data_normal(z, lattice)
        d *= lam
        d += fastops.apply_block(block, z)
        return d

    # the image-domain warm start is passed inline, so cg_solve frees it once copied
    result = cg_solve(op, _rhs(meas, lam, lattice), tol=cg_tol, maxiter=cg_iters,
                      x0=None if x0 is None else np.fft.ifft2(x0, axes=(0, 1), norm="ortho"))
    result.x = np.fft.fft2(result.x, axes=(0, 1), norm="ortho")
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
    # eps (for monotonicity checks) and how the least-squares CG ended
    objective_warm: float = float("nan")
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
    if meas.b.shape[1:] != spec.grid.shape:
        raise ValueError(f"measurements shape {meas.b.shape} does not match grid {spec.grid.shape}")
    x = simulate.adjoint(meas.b, meas.maps, meas.mask)
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
        cg = ls_update(block, meas, cfg.lam, warm_start=x,
                       cg_iters=cfg.cg_iters, cg_tol=cfg.cg_tol)
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
