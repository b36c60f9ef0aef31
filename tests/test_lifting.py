import numpy as np
import pytest

from exprec.core import Grid, dft2_forward
from exprec.lifting import (
    FilterSpec,
    LiftedSizeError,
    annihilation_certificate,
    apply_lifted_adjoint,
    build_lifted,
)


def conv_oracle(x, c, spec, mode):
    """Direct triple-loop convolution sampled on the valid-shift set."""
    p, q, t = spec.grid.shape
    nf, nx, ny = spec.row_shape(mode)
    ox, oy = spec.spatial_offset(mode)
    out = np.zeros((nf, nx, ny), dtype=complex)
    for tau in range(nf):
        mt = tau + spec.nt - 1
        for ax in range(nx):
            for ay in range(ny):
                mx, my = ax + ox, ay + oy
                acc = 0.0 + 0.0j
                for lt in range(spec.nt):
                    for lx in range(spec.n1):
                        for ly in range(spec.n2):
                            if mode == "hybrid":
                                acc += c[lt, lx, ly] * x[(mx - lx) % p, (my - ly) % q, mt - lt]
                            else:
                                acc += c[lt, lx, ly] * x[mx - lx, my - ly, mt - lt]
                out[tau, ax, ay] = acc
    return out


def random_volume(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


def bandlimited_phantom():
    """rho[r, n] = beta(r)^n with beta = 0.5 + 0.2 cos(2 pi x / P) on 8x8, T=4."""
    g = Grid(8, 8, 4)
    x = np.arange(g.p)
    beta = 0.5 + 0.2 * np.cos(2 * np.pi * x / g.p)
    beta = np.tile(beta[:, None], (1, g.q))
    n = np.arange(g.t)
    return g, beta, dft2_forward(beta[:, :, None] ** n)


def annihilator_for(beta, g, n1):
    """Spatial DFT of the maps of h(r, z) = 1 - beta(r) z^{-1}, shifted into
    the corner-anchored n1 x 1 x 2 support."""
    c0 = np.fft.fft2(np.ones((g.p, g.q)), norm="ortho")
    c1 = -np.fft.fft2(beta, norm="ortho")
    # shift +1 along x so the {-1, 0, 1} band lands in rows {0, 1, 2}
    c0 = np.roll(c0, 1, axis=0)
    c1 = np.roll(c1, 1, axis=0)
    c = np.zeros((2, n1, 1), dtype=complex)
    c[0, :, 0] = c0[:n1, 0]
    c[1, :, 0] = c1[:n1, 0]
    # everything outside the support must be negligible for exactness
    outside = np.abs(c1).sum() - np.abs(c1[:n1, 0]).sum()
    assert outside < 1e-10
    return c


class TestBuildLifted:
    def test_dimensions_linear(self):
        g = Grid(4, 4, 3)
        spec = FilterSpec(2, 2, 2, g)
        lifted = build_lifted(random_volume(g), spec, "linear")
        assert lifted.shape == (3 * 3 * 2, 2 * 2 * 2)

    def test_dimensions_hybrid(self):
        g = Grid(4, 4, 3)
        spec = FilterSpec(2, 2, 2, g)
        lifted = build_lifted(random_volume(g), spec, "hybrid")
        assert lifted.shape == (4 * 4 * 2, 8)

    @pytest.mark.parametrize("mode", ["linear", "hybrid"])
    def test_matrix_action_is_convolution(self, mode):
        g = Grid(6, 5, 4)
        spec = FilterSpec(3, 2, 2, g)
        vol = random_volume(g, seed=11)
        rng = np.random.default_rng(12)
        c = rng.standard_normal(spec.support_shape) + 1j * rng.standard_normal(spec.support_shape)
        lifted = build_lifted(vol, spec, mode)
        got = lifted @ c.ravel()
        want = conv_oracle(vol, c, spec, mode).ravel()
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)

    def test_mono_exponential_annihilation(self):
        g = Grid(5, 5, 4)
        n = np.arange(g.t)
        kt = dft2_forward(np.broadcast_to(0.5**n, g.shape).copy())
        spec = FilterSpec(1, 1, 2, g)
        c = np.array([1.0, -0.5]).reshape(2, 1, 1)
        for mode in ("linear", "hybrid"):
            lifted = build_lifted(kt, spec, mode)
            resid = lifted @ c.ravel()
            assert np.abs(resid).max() < 1e-12 * np.abs(lifted).max()

    def test_linearity(self):
        g = Grid(4, 4, 3)
        spec = FilterSpec(2, 2, 2, g)
        u, v = random_volume(g, 1), random_volume(g, 2)
        a, b = 0.7 - 1.1j, 2.0 + 0.5j
        combo = a * u + b * v
        lhs = build_lifted(combo, spec, "hybrid")
        rhs = a * build_lifted(u, spec, "hybrid") + b * build_lifted(v, spec, "hybrid")
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_shift_structure(self):
        # translating the volume permutes the hybrid rows
        g = Grid(4, 4, 3)
        spec = FilterSpec(2, 2, 2, g)
        vol = random_volume(g, 5)
        shift = (1, 2)
        rolled = np.roll(vol, shift, axis=(0, 1))
        t_orig = build_lifted(vol, spec, "hybrid")
        t_roll = build_lifted(rolled, spec, "hybrid")
        k = spec.k
        a = t_orig.reshape(k, g.p, g.q, -1)
        b = t_roll.reshape(k, g.p, g.q, -1)
        assert np.abs(np.roll(a, shift, axis=(1, 2)) - b).max() < 1e-14

    def test_inconsistent_spec_lists_inequality(self):
        g = Grid(4, 4, 3)
        with pytest.raises(ValueError, match="N1 <= P"):
            FilterSpec(5, 2, 2, g)
        with pytest.raises(ValueError, match="Nt <= T"):
            FilterSpec(2, 2, 4, g)

    def test_shape_mismatch(self):
        spec = FilterSpec(2, 2, 2, Grid(4, 4, 2))
        with pytest.raises(ValueError, match=r"volume shape \(4, 4, 3\) does not match grid"):
            build_lifted(np.ones((4, 4, 3)), spec, "linear")

    def test_size_guard(self):
        g = Grid(64, 64, 12)
        spec = FilterSpec(40, 40, 6, g)
        with pytest.raises(LiftedSizeError, match="fastops"):
            build_lifted(random_volume(g), spec, "hybrid")


class TestAdjoint:
    def test_outer_product_scatters_single_entry(self):
        g = Grid(4, 4, 3)
        spec = FilterSpec(2, 2, 2, g)
        m_idx, l_idx = 7, 3
        y = np.zeros((spec.n_rows("hybrid"), spec.n_support), dtype=complex)
        y[m_idx, l_idx] = 1.0
        out = apply_lifted_adjoint(y, spec, "hybrid")
        ft, fx, fy = spec.row_indices("hybrid")
        lt, lx, ly = spec.support_indices()
        target = ((fx[m_idx] - lx[l_idx]) % g.p, (fy[m_idx] - ly[l_idx]) % g.q,
                  ft[m_idx] - lt[l_idx])
        assert out[target] == 1.0
        out[target] = 0.0
        assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize("mode", ["linear", "hybrid"])
    def test_adjoint_identity(self, mode):
        g = Grid(6, 6, 3)
        spec = FilterSpec(2, 2, 2, g)
        vol = random_volume(g, 7)
        rng = np.random.default_rng(8)
        shape = (spec.n_rows(mode), spec.n_support)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lifted = build_lifted(vol, spec, mode)
        lhs = np.sum(np.conj(y) * lifted)
        rhs = np.sum(np.conj(apply_lifted_adjoint(y, spec, mode)) * vol)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_zero(self):
        g = Grid(4, 4, 3)
        spec = FilterSpec(2, 2, 2, g)
        y = np.zeros((spec.n_rows("linear"), spec.n_support))
        assert np.abs(apply_lifted_adjoint(y, spec, "linear")).max() == 0.0

    def test_shape_mismatch(self):
        g = Grid(4, 4, 3)
        spec = FilterSpec(2, 2, 2, g)
        with pytest.raises(ValueError, match="shape"):
            apply_lifted_adjoint(np.zeros((3, 3)), spec, "linear")


class TestCertificate:
    def test_bandlimited_phantom_annihilated(self):
        g, beta, kt = bandlimited_phantom()
        spec = FilterSpec(3, 1, 2, g)
        c = annihilator_for(beta, g, 3)
        for mode in ("linear", "hybrid"):
            lifted = build_lifted(kt, spec, mode)
            resid = np.linalg.norm(lifted @ c.ravel())
            assert resid <= 1e-10 * np.linalg.norm(lifted) * np.linalg.norm(c)
            cert = annihilation_certificate(kt, spec, mode, tol=1e-8)
            assert cert.nullity_est >= 1
            assert cert.sigma_min <= 1e-8 * cert.sigma_max

    def test_oversized_support_nullity_grows(self):
        g, beta, kt = bandlimited_phantom()
        # minimal support 3x1x2 inside 5x3x3: (5-3+1)(3-1+1)(3-2+1) embeddings
        spec = FilterSpec(5, 3, 3, g)
        cert = annihilation_certificate(kt, spec, "hybrid", tol=1e-8)
        assert cert.nullity_est >= 3 * 3 * 2

    def test_random_volume_full_rank(self):
        g = Grid(6, 6, 3)
        spec = FilterSpec(2, 2, 2, g)
        cert = annihilation_certificate(random_volume(g, 9), spec, "linear", tol=1e-8)
        assert cert.nullity_est == 0
