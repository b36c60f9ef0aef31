"""Schatten-p IRLS solver for structured low-rank k-t recovery.

Alternates a weight update (eigendecomposition of the valid-shift Gram,
filters = rows of ``(Lambda + eps I)^(p/4 - 1/2) U*``) with a weighted
least-squares update solved matrix-free by conjugate gradients on the
normal equations.  CG runs on the image-domain variable ``z = F^H x``,
where the penalty is the per-pixel T x T block from fastops and the data
term ``sum_c conj(S_c) F^H M F S_c`` costs one FFT pair per coil.

Internal consistency note: the weight Gram, the smoothed objective and
the quadratic penalty all refer to the same spatially circularized
lifting (the hybrid scheme: circular along space, linear along time).
That makes the reported smoothed objective provably non-increasing at
fixed eps: the weight step majorizes it, the CG step never increases the
majorizer from its warm start.  The exact-support Gram remains available
through ``fastops.assemble_gram`` for diagnostics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import fastops, simulate
from .core import KtVolume, require_finite
from .lifting import FilterSpec

__all__ = [
    "SolverConfig",
    "WeightSet",
    "SolveReport",
    "IterRecord",
    "SolverError",
    "CgDivergenceError",
    "schatten_cost",
    "weight_update",
    "ls_update",
    "irls_solve",
    "cg_solve",
]

EIG_CLAMP_REL = 1e-8
OBJ_STOP_REL = 1e-6


class SolverError(RuntimeError):
    pass


class CgDivergenceError(SolverError):
    """Residual grew over 10 consecutive CG iterations; carries the iterate."""

    def __init__(self, message, iterate=None, residuals=None):
        super().__init__(message)
        self.iterate = iterate
        self.residuals = residuals


def schatten_cost(sv, p: float) -> float:
    """Schatten objective (1/p) * sum_i sigma_i^p from singular values."""
    sv = np.asarray(sv, dtype=np.float64)
    if not 0 < p <= 2:
        raise ValueError(f"p must be in (0, 2], got {p}")
    if sv.size and sv.min() < 0:
        raise ValueError(f"negative singular value {sv.min()}")
    return float(np.sum(sv**p) / p)


@dataclass(frozen=True)
class SolverConfig:
    p: float = 0.6
    lam: float = 1e6
    eps0: float | str = "auto"
    eps_decay: float = 0.25
    eps_min: float | str = "auto"
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
        if self.eps0 != "auto" and not self.eps0 > 0:
            raise ValueError("eps0 must be positive or 'auto'")
        if self.eps_min != "auto" and not self.eps_min >= 0:
            raise ValueError("eps_min must be >= 0 or 'auto'")
        if self.outer_iters < 1 or self.cg_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if not self.cg_tol > 0:
            raise ValueError("cg_tol must be positive")


@dataclass(frozen=True)
class WeightSet:
    """Filter bank h_i (rows of H^(1/2)) over the valid-shift set.

    ``filters`` has shape (M, k, wP, wQ) with the spatial window anchored
    at ``spatial_offset`` on the grid; ``eigenvalues`` are the Gram
    eigenvalues the bank was derived from (ascending).
    """

    filters: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    eps: float
    p: float
    spec: FilterSpec
    restriction: str
    spatial_offset: tuple

    @property
    def m(self):
        return self.filters.shape[0]

    def half_matrix(self):
        """H^(1/2) as an (M, |Gamma|) matrix (rows are the filters)."""
        return self.filters.reshape(self.m, -1)

    def weight_matrix(self):
        """H = (H^(1/2))* H^(1/2)."""
        hh = self.half_matrix()
        return hh.conj().T @ hh

    @classmethod
    def empty(cls, spec, restriction="valid_linear"):
        mode = "hybrid" if restriction == "full_circular" else "linear"
        _, wp, wq = spec.row_shape(mode)
        off = spec.spatial_offset(mode)
        return cls(
            filters=np.zeros((0, spec.k, wp, wq), dtype=np.complex128),
            eigenvalues=np.zeros(0),
            eps=0.0,
            p=1.0,
            spec=spec,
            restriction=restriction,
            spatial_offset=off,
        )


def _weights_from_eig(eigvals, eigvecs, eps, p, spec, restriction):
    lam_max = float(eigvals[-1]) if eigvals.size else 0.0
    lam = eigvals.copy()
    if lam.size and lam[0] < -EIG_CLAMP_REL * max(lam_max, 0.0):
        raise SolverError(
            f"Gram has negative eigenvalue {lam[0]:.3e} beyond the PSD repair "
            f"threshold ({-EIG_CLAMP_REL * lam_max:.3e}); upstream bug"
        )
    np.clip(lam, 0.0, None, out=lam)
    shifted = lam + eps
    expo = p / 4.0 - 0.5
    if expo < 0 and np.any(shifted <= 0):
        raise SolverError("zero eigenvalue with eps = 0 makes the weight power singular")
    coef = shifted**expo
    half = coef[:, None] * eigvecs.conj().T
    mode = "hybrid" if restriction == "full_circular" else "linear"
    _, wp, wq = spec.row_shape(mode)
    filters = half.reshape(half.shape[0], spec.k, wp, wq)
    return WeightSet(
        filters=filters,
        eigenvalues=lam,
        eps=float(eps),
        p=float(p),
        spec=spec,
        restriction=restriction,
        spatial_offset=spec.spatial_offset(mode),
    )


def _gram_eig(rho_hat, spec, restriction, gram):
    if gram == "circulant":
        r = fastops.assemble_gram_circulant(rho_hat, spec, restriction)
    elif gram == "exact":
        r = fastops.assemble_gram(rho_hat, spec, restriction)
    else:
        raise ValueError(f"unknown gram kind {gram!r}")
    try:
        eigvals, eigvecs = np.linalg.eigh(r.matrix)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigendecomposition of the Gram failed: {exc}") from exc
    return eigvals, eigvecs


def weight_update(
    rho_hat,
    spec: FilterSpec,
    p: float,
    eps: float,
    restriction: str = "valid_linear",
    gram: str = "circulant",
) -> WeightSet:
    """Eigendecompose the Gram and return the filter bank H^(1/2)."""
    if eps < 0:
        raise ValueError("eps must be >= 0")
    eigvals, eigvecs = _gram_eig(rho_hat, spec, restriction, gram)
    return _weights_from_eig(eigvals, eigvecs, eps, p, spec, restriction)


@dataclass
class CgResult:
    x: np.ndarray
    iters: int
    rel_residual: float
    stop: str  # tol, maxiter, nonpositive_curvature, stagnation or zero_rhs


def cg_solve(op, rhs, x0=None, tol=1e-8, maxiter=200) -> CgResult:
    """Conjugate gradients for a Hermitian PSD operator on complex arrays."""
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return CgResult(np.zeros_like(rhs), 0, 0.0, "zero_rhs")
    x = np.zeros_like(rhs) if x0 is None else x0.astype(np.complex128, copy=True)
    r = rhs - op(x)
    pdir = r.copy()
    rs = float(np.vdot(r, r).real)
    res = rs**0.5
    best = res
    bad_streak = 0
    history = [res]
    it = 0
    stop = None
    while res / rhs_norm > tol and it < maxiter:
        ap = op(pdir)
        denom = float(np.vdot(pdir, ap).real)
        if denom <= 0:
            stop = "nonpositive_curvature"  # semidefinite direction; x is best
            break
        alpha = rs / denom
        x += alpha * pdir
        r -= alpha * ap
        rs_new = float(np.vdot(r, r).real)
        prev = res
        res = rs_new**0.5
        history.append(res)
        # CG residual norms may oscillate near stagnation; a sustained climb
        # well above the best residual signals a broken (non-PSD) operator,
        # mild oscillation just means we are done improving
        bad_streak = bad_streak + 1 if res > prev else 0
        if bad_streak >= 10:
            if res > 10.0 * best:
                raise CgDivergenceError(
                    f"CG residual grew over {bad_streak} consecutive iterations "
                    f"(reached {res:.3e}, best {best:.3e})",
                    iterate=x,
                    residuals=history,
                )
            stop = "stagnation"
            break
        best = min(best, res)
        pdir = r + (rs_new / rs) * pdir
        rs = rs_new
        it += 1
    stop = stop or ("tol" if res / rhs_norm <= tol else "maxiter")
    return CgResult(x, it, res / rhs_norm, stop)


def _data_residual_sq(x, meas, grid):
    resid = simulate.forward(KtVolume(grid, x), meas.coils, meas.mask) - meas.b
    return float(np.vdot(resid, resid).real)


def _data_normal(z, maps, mask):
    """sum_c conj(S_c) F^H M F (S_c z); F^H M F z when ``maps`` is None."""
    if maps is None:
        d = np.fft.fft2(z, axes=(0, 1), norm="ortho")
        d *= mask
        return np.fft.ifft2(d, axes=(0, 1), norm="ortho")
    out = np.zeros_like(z)
    for s in maps:
        d = _data_normal(z * s[:, :, None], None, mask)
        d *= np.conj(s)[:, :, None]
        out += d
    return out


def ls_update(
    weights: WeightSet,
    meas,
    lam: float,
    warm_start=None,
    cg_iters: int = 200,
    cg_tol: float = 1e-8,
):
    """Solve (sum_i A_i* A_i + lam A* A) x = lam A* b by warm-started CG.

    CG runs on z = F^H x; the change of variables is unitary, so iterates
    and residual norms are those of the k-space solve.  Returns (KtVolume,
    CgResult) in k-space.  The quadratic objective at the result never
    exceeds its value at the warm start.
    """
    spec = weights.spec
    mult = fastops.build_normal_multipliers(weights, spec)
    mask = meas.mask.mask
    maps = None if simulate._uniform_single_coil(meas.coils) else meas.coils.maps

    rhs = lam * sum(
        np.conj(s)[:, :, None] * np.fft.ifft2(b * mask, axes=(0, 1), norm="ortho")
        for s, b in zip(meas.coils.maps, meas.b)
    )
    require_finite("ls_update right-hand side lam * A* meas.b", rhs)
    z0 = None
    if warm_start is not None:
        x0 = np.asarray(warm_start, dtype=np.complex128)
        require_finite("ls_update warm_start", x0)
        z0 = np.fft.ifft2(x0, axes=(0, 1), norm="ortho")

    def op(z):
        d = _data_normal(z, maps, mask)
        d *= lam
        d += fastops.apply_block(mult, z)
        return d

    result = cg_solve(op, rhs, x0=z0, tol=cg_tol, maxiter=cg_iters)
    result.x = np.fft.fft2(result.x, axes=(0, 1), norm="ortho")
    return KtVolume(spec.grid, result.x), result


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


def irls_solve(
    meas,
    spec: FilterSpec,
    cfg: SolverConfig,
    restriction: str = "valid_linear",
    init=None,
):
    """Run the alternating weight / least-squares iteration.

    Starts from the zero-filled volume (the adjoint of the data) unless an
    explicit ``init`` volume is given.  Returns (KtVolume, SolveReport) and
    stops when the relative change of the smoothed objective drops below
    1e-6 or after ``outer_iters`` rounds.
    """
    grid = spec.grid
    if meas.b.shape[1:] != grid.shape:
        raise ValueError(f"measurements shape {meas.b.shape} does not match grid {grid.shape}")
    if init is None:
        x = simulate.adjoint(meas.b, meas.coils, meas.mask, grid).data
    else:
        x = np.asarray(getattr(init, "data", init), dtype=np.complex128).copy()
        if x.shape != grid.shape:
            raise ValueError(f"init shape {x.shape} does not match grid {grid.shape}")
    eigvals, eigvecs = _gram_eig(x, spec, restriction, "circulant")
    lam_max0 = max(float(eigvals[-1]), 0.0)
    eps = lam_max0 / 100.0 if cfg.eps0 == "auto" else float(cfg.eps0)
    if eps <= 0:
        eps = 1.0  # degenerate all-zero start; any positive eps works
    eps_min = 1e-9 * lam_max0 if cfg.eps_min == "auto" else float(cfg.eps_min)
    data_sq = _data_residual_sq(x, meas, grid)

    records = []
    converged = False
    for n in range(1, cfg.outer_iters + 1):
        tic = time.perf_counter()
        warm_obj = _smoothed_reg(eigvals, eps, cfg.p) + 0.5 * cfg.lam * data_sq
        weights = _weights_from_eig(eigvals, eigvecs, eps, cfg.p, spec, restriction)
        vol, cg = ls_update(
            weights, meas, cfg.lam, warm_start=x, cg_iters=cfg.cg_iters, cg_tol=cfg.cg_tol
        )
        x = vol.data
        eigvals, eigvecs = _gram_eig(x, spec, restriction, "circulant")
        data_sq = _data_residual_sq(x, meas, grid)
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
        if abs(objective - warm_obj) <= OBJ_STOP_REL * max(abs(warm_obj), 1e-300):
            converged = True
            break
        eps = max(eps * cfg.eps_decay, eps_min)

    return KtVolume(grid, x), SolveReport(records=records, converged=converged)
