"""Reference (oracle-grade) lifting of a k-t volume into a multifold
Toeplitz matrix, together with its adjoint and rank diagnostics.

The lifted matrix ``T(x)`` has one row per output shift ``m`` and one
column per filter tap ``l`` with entry ``x[m - l]``; its product with a
vectorized FIR filter equals the 3-D convolution ``sum_l c[l] x[m - l]``
sampled on the valid-shift set.  Two shift semantics are supported:

* ``linear``: spatial differences stay in bounds, so rows run over the
  window ``[N1-1..P) x [N2-1..Q)`` (M1 x M2 positions per frame);
* ``hybrid``: spatial differences are taken modulo ``(P, Q)`` and rows
  run over the whole grid (circular along space, linear along time).

Rows are ordered frame-major, C order over ``(frame, x, y)`` with output
frames ``Nt-1 .. T-1``; columns are C order over ``(lt, lx, ly)`` with
the support anchored at the zero corner.  ``lifted_penalty`` applies a
weight filter bank A to the hybrid lifting with full-grid spatial support,
the dense form of the collapsed penalty of ``H = A* A`` in ``fastops``.
Everything here materializes dense matrices and is intended as ground
truth for ``fastops``, not for scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid

__all__ = [
    "FilterSpec",
    "AnnihilationCertificate",
    "LiftedSizeError",
    "build_lifted",
    "apply_lifted_adjoint",
    "lifted_penalty",
    "annihilation_certificate",
]

MODES = ("linear", "hybrid")
ORACLE_MAX_ENTRIES = 10**7


class LiftedSizeError(ValueError):
    """Explicit matrix would exceed the oracle size guard."""


@dataclass(frozen=True)
class FilterSpec:
    """Annihilation filter support: N1 x N2 spatial taps, Nt temporal taps."""

    n1: int
    n2: int
    nt: int
    grid: Grid

    def __post_init__(self):
        g = self.grid
        checks = [
            (1 <= self.nt, f"1 <= Nt violated: Nt={self.nt}"),
            (self.nt <= g.t, f"Nt <= T violated: {self.nt} > {g.t}"),
            (1 <= self.n1, f"1 <= N1 violated: N1={self.n1}"),
            (self.n1 <= g.p, f"N1 <= P violated: {self.n1} > {g.p}"),
            (1 <= self.n2, f"1 <= N2 violated: N2={self.n2}"),
            (self.n2 <= g.q, f"N2 <= Q violated: {self.n2} > {g.q}"),
        ]
        bad = [msg for ok, msg in checks if not ok]
        if bad:
            raise ValueError("inconsistent filter spec: " + "; ".join(bad))

    @property
    def k(self):
        """Number of valid output frames, T - Nt + 1."""
        return self.grid.t - self.nt + 1

    @property
    def m1(self):
        return self.grid.p - self.n1 + 1

    @property
    def m2(self):
        return self.grid.q - self.n2 + 1

    @property
    def support_shape(self):
        return (self.nt, self.n1, self.n2)

    @property
    def n_support(self):
        return self.nt * self.n1 * self.n2

    def row_shape(self, mode):
        """Valid-shift set shape (frames, rows, cols) for a lifting mode."""
        if mode == "hybrid":
            return (self.k, self.grid.p, self.grid.q)
        if mode == "linear":
            return (self.k, self.m1, self.m2)
        raise ValueError(f"unknown mode {mode!r}")

    def n_rows(self, mode):
        s = self.row_shape(mode)
        return s[0] * s[1] * s[2]

    def spatial_offset(self, mode):
        """Absolute grid index of the first spatial output position."""
        return (0, 0) if mode == "hybrid" else (self.n1 - 1, self.n2 - 1)

    def row_indices(self, mode):
        """Absolute (frame, x, y) indices of every row, each flattened C order."""
        nf, nx, ny = self.row_shape(mode)
        ox, oy = self.spatial_offset(mode)
        ft = np.repeat(np.arange(self.nt - 1, self.grid.t), nx * ny)
        fx = np.tile(np.repeat(np.arange(ox, ox + nx), ny), nf)
        fy = np.tile(np.arange(oy, oy + ny), nf * nx)
        return ft, fx, fy

    def support_indices(self):
        """(lt, lx, ly) indices of every column, flattened C order."""
        nt, n1, n2 = self.support_shape
        lt = np.repeat(np.arange(nt), n1 * n2)
        lx = np.tile(np.repeat(np.arange(n1), n2), nt)
        ly = np.tile(np.arange(n2), nt * n1)
        return lt, lx, ly


@dataclass(frozen=True)
class AnnihilationCertificate:
    sigma_min: float
    sigma_max: float
    nullity_est: int


def _gather_indices(spec, mode):
    """Index arrays (ix, iy, it) of shape (rows, cols) into the volume."""
    g = spec.grid
    ft, fx, fy = spec.row_indices(mode)
    lt, lx, ly = spec.support_indices()
    ix = fx[:, None] - lx[None, :]
    iy = fy[:, None] - ly[None, :]
    it = ft[:, None] - lt[None, :]
    if mode == "hybrid":
        ix %= g.p
        iy %= g.q
    return ix, iy, it


def build_lifted(rho_hat, spec: FilterSpec, mode: str = "linear") -> np.ndarray:
    """Materialize T(rho_hat) for the given shift semantics as a dense array."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if rho_hat.shape != spec.grid.shape:
        raise ValueError(f"volume shape {rho_hat.shape} does not match grid {spec.grid.shape}")
    m, n = spec.n_rows(mode), spec.n_support
    if m * n > ORACLE_MAX_ENTRIES:
        raise LiftedSizeError(
            f"explicit lifted matrix {m}x{n} exceeds the oracle guard "
            f"({ORACLE_MAX_ENTRIES} entries); use the fastops implicit operators"
        )
    ix, iy, it = _gather_indices(spec, mode)
    return rho_hat[ix, iy, it]


def apply_lifted_adjoint(y, spec: FilterSpec, mode: str = "linear") -> np.ndarray:
    """Adjoint of the lifting map: scatter Y[m, l] back onto index m - l.

    Satisfies <T(x), Y> = <x, apply_lifted_adjoint(Y)> for every volume x.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    y = np.asarray(y, dtype=np.complex128)
    expected = (spec.n_rows(mode), spec.n_support)
    if y.shape != expected:
        raise ValueError(f"Y shape {y.shape} does not match lifted shape {expected}")
    ix, iy, it = _gather_indices(spec, mode)
    out = np.zeros(spec.grid.shape, dtype=np.complex128)
    np.add.at(out, (ix, iy, it), y)
    return out


def lifted_penalty(rho_hat, filters, spec: FilterSpec, offset=(0, 0)):
    """Filter-bank penalty ``(sum_i A_i* A_i x, 0.5 sum_i ||A_i x||^2)``.

    ``filters`` is an ``(M, k, wP, wQ)`` bank whose windows sit at grid
    index ``offset``; ``A_i x`` correlates filter i with the volume over
    every circular spatial lag and the Nt temporal taps of ``spec``, i.e.
    row i of the zero-padded bank times the hybrid lifting with full-grid
    spatial support.  Returns the volume ``sum_i A_i* A_i x`` and the value.
    """
    g = spec.grid
    full = FilterSpec(g.p, g.q, spec.nt, g)
    filters = np.asarray(filters, dtype=np.complex128)
    m, k, wp, wq = filters.shape
    ox, oy = offset
    hpad = np.zeros((m, k, g.p, g.q), dtype=np.complex128)
    hpad[:, :, ox : ox + wp, oy : oy + wq] = filters
    hpad = hpad.reshape(m, -1)
    ht = hpad @ build_lifted(rho_hat, full, "hybrid")
    value = 0.5 * float(np.vdot(ht, ht).real)
    return apply_lifted_adjoint(hpad.conj().T @ ht, full, "hybrid"), value


def annihilation_certificate(
    rho_hat, spec: FilterSpec, mode: str = "linear", tol: float = 1e-8
) -> AnnihilationCertificate:
    """Full SVD of the explicit lifted matrix; counts sigma_i < tol * sigma_max."""
    sv = np.linalg.svd(build_lifted(rho_hat, spec, mode), compute_uv=False)
    smax = float(sv[0]) if sv.size else 0.0
    smin = float(sv[-1]) if sv.size else 0.0
    nullity = int(np.count_nonzero(sv < tol * smax)) if smax > 0 else int(sv.size)
    return AnnihilationCertificate(sigma_min=smin, sigma_max=smax, nullity_est=nullity)
