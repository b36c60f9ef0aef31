import time
from types import SimpleNamespace

import numpy as np
import pytest

from exprec import fastops
from exprec.core import Grid, ImageSeries, KtVolume, dft2_forward
from exprec.lifting import FilterSpec, build_lifted


def random_volume(grid, seed=0):
    rng = np.random.default_rng(seed)
    return KtVolume(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def random_filter(spec, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(spec.support_shape) + 1j * rng.standard_normal(spec.support_shape)


class TestHybridConv:
    def test_identity_filter(self):
        g = Grid(5, 4, 4)
        spec = FilterSpec(2, 2, 2, g)
        vol = random_volume(g, 1)
        c = np.zeros(spec.support_shape, dtype=complex)
        c[0, 0, 0] = 1.0
        out = fastops.hybrid_conv(vol, c, spec)
        want = np.moveaxis(vol.data[:, :, spec.nt - 1 :], -1, 0)
        assert np.abs(out - want).max() < 1e-13

    def test_matches_explicit_matrix(self):
        g = Grid(8, 8, 4)
        spec = FilterSpec(3, 3, 2, g)
        vol = random_volume(g, 2)
        c = random_filter(spec, 3)
        lifted = build_lifted(vol, spec, "hybrid")
        got = fastops.hybrid_conv(vol, c, spec).ravel()
        want = lifted.matrix @ c.ravel()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_valid_conv_matches_linear_matrix(self):
        g = Grid(7, 6, 4)
        spec = FilterSpec(3, 2, 2, g)
        vol = random_volume(g, 4)
        c = random_filter(spec, 5)
        lifted = build_lifted(vol, spec, "linear")
        got = fastops.valid_conv(vol, c, spec).ravel()
        want = lifted.matrix @ c.ravel()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_mono_exponential_annihilated(self):
        g = Grid(6, 6, 5)
        beta = 0.7
        n = np.arange(g.t)
        series = ImageSeries(g, np.broadcast_to(beta**n, g.shape).copy())
        kt = dft2_forward(series)
        spec = FilterSpec(1, 1, 2, g)
        c = np.array([1.0, -beta]).reshape(2, 1, 1)
        out = fastops.hybrid_conv(kt, c, spec)
        assert np.abs(out).max() < 1e-12 * np.abs(kt.data).max()

    def test_shape_mismatch(self):
        g = Grid(5, 4, 4)
        spec = FilterSpec(2, 2, 2, g)
        with pytest.raises(ValueError, match="filter shape"):
            fastops.hybrid_conv(random_volume(g), np.zeros((2, 2)), spec)


class TestCrossCorr:
    def test_constant_image_autocorrelation(self):
        g = Grid(4, 4, 2)
        kt = dft2_forward(ImageSeries(g, np.ones(g.shape)))
        gcc = fastops.cross_corr(kt, 0, 0)
        assert gcc[0, 0] == pytest.approx(g.p * g.q)
        rest = gcc.copy()
        rest[0, 0] = 0
        assert np.abs(rest).max() < 1e-12

    def test_zero_lag_is_energy(self):
        g = Grid(6, 6, 3)
        vol = random_volume(g, 6)
        gcc = fastops.cross_corr(vol, 1, 1)
        energy = np.linalg.norm(vol.data[:, :, 1]) ** 2
        assert gcc[0, 0].real == pytest.approx(energy, rel=1e-12)
        assert abs(gcc[0, 0].imag) < 1e-10 * energy

    def test_matches_brute_force(self):
        g = Grid(6, 6, 3)
        vol = random_volume(g, 7)
        a, b = 0, 2
        got = fastops.cross_corr(vol, a, b)
        xa, xb = vol.data[:, :, a], vol.data[:, :, b]
        want = np.zeros((g.p, g.q), dtype=complex)
        for kx in range(g.p):
            for ky in range(g.q):
                acc = 0.0j
                for sx in range(g.p):
                    for sy in range(g.q):
                        acc += xa[(sx + kx) % g.p, (sy + ky) % g.q] * np.conj(xb[sx, sy])
                want[kx, ky] = acc
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_index_out_of_range(self):
        g = Grid(4, 4, 2)
        with pytest.raises(IndexError):
            fastops.cross_corr(random_volume(g), 0, 2)


class TestAssembleGram:
    @pytest.mark.parametrize("restriction,mode", [
        ("full_circular", "hybrid"), ("valid_linear", "linear"),
    ])
    def test_matches_explicit_gram(self, restriction, mode):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p, q = rng.integers(4, 9, size=2)
            t = int(rng.integers(3, 5))
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(1, 4))
            nt = int(rng.integers(1, min(3, t) + 1))
            g = Grid(int(p), int(q), t)
            spec = FilterSpec(min(n1, p), min(n2, q), nt, g)
            vol = random_volume(g, seed + 100)
            got = fastops.assemble_gram(vol, spec, restriction).matrix
            tm = build_lifted(vol, spec, mode).matrix
            want = tm @ tm.conj().T
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_circulant_gram_formula(self):
        # block (tau, tau') samples summed frame-pair cross-correlations at
        # spatial shift differences
        g = Grid(5, 6, 4)
        spec = FilterSpec(2, 3, 2, g)
        vol = random_volume(g, 42)
        got = fastops.assemble_gram_circulant(vol, spec, "full_circular").matrix
        nr = g.p * g.q
        fx = np.repeat(np.arange(g.p), g.q)
        fy = np.tile(np.arange(g.q), g.p)
        want = np.zeros_like(got)
        for tau in range(spec.k):
            for tau2 in range(spec.k):
                gs = np.zeros((g.p, g.q), dtype=complex)
                for lt in range(spec.nt):
                    gs += fastops.cross_corr(vol, tau + spec.nt - 1 - lt, tau2 + spec.nt - 1 - lt)
                blk = gs[(fx[:, None] - fx[None, :]) % g.p, (fy[:, None] - fy[None, :]) % g.q]
                want[tau * nr : (tau + 1) * nr, tau2 * nr : (tau2 + 1) * nr] = blk
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_circulant_equals_exact_at_full_support(self):
        g = Grid(5, 4, 3)
        spec = FilterSpec(g.p, g.q, 2, g)
        vol = random_volume(g, 8)
        exact = fastops.assemble_gram(vol, spec, "full_circular").matrix
        circ = fastops.assemble_gram_circulant(vol, spec, "full_circular").matrix
        assert np.abs(exact - circ).max() <= 1e-10 * np.abs(exact).max()

    def test_degenerate_single_temporal_partition(self):
        g = Grid(5, 5, 3)
        spec = FilterSpec(2, 2, g.t, g)  # Nt = T, so k = 1
        vol = random_volume(g, 9)
        got = fastops.assemble_gram(vol, spec, "valid_linear")
        assert spec.k == 1
        tm = build_lifted(vol, spec, "linear").matrix
        want = tm @ tm.conj().T
        assert np.abs(got.matrix - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("assemble", [
        fastops.assemble_gram, fastops.assemble_gram_circulant,
    ])
    def test_hermitian_psd_property(self, assemble):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            p, q = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            t = int(rng.integers(2, 5))
            g = Grid(p, q, t)
            spec = FilterSpec(
                int(rng.integers(1, p + 1)),
                int(rng.integers(1, q + 1)),
                int(rng.integers(1, t + 1)),
                g,
            )
            r = assemble(random_volume(g, seed), spec, "valid_linear").matrix
            herm = np.abs(r - r.conj().T).max()
            assert herm <= 1e-12 * max(np.abs(r).max(), 1e-300)
            ev = np.linalg.eigvalsh(r)
            assert ev[0] >= -1e-10 * max(ev[-1], 0.0)

    def test_determinism(self):
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        vol = random_volume(g, 10)
        a = fastops.assemble_gram(vol, spec, "valid_linear").matrix
        b = fastops.assemble_gram(vol, spec, "valid_linear").matrix
        assert np.array_equal(a, b)

    def test_size_guard(self):
        g = Grid(64, 64, 12)
        spec = FilterSpec(3, 3, 2, g)
        with pytest.raises(fastops.GramSizeError, match="valid_linear"):
            fastops.assemble_gram(random_volume(g), spec, "full_circular")

    def test_modeling_error_reported(self, capsys):
        # paper-like regime: spatial support within 10 percent of the grid;
        # the circulant approximation error is a documented diagnostic
        g = Grid(32, 32, 6)
        spec = FilterSpec(29, 29, 2, g)
        vol = random_volume(g, 11)
        exact = fastops.assemble_gram(vol, spec, "valid_linear").matrix
        circ = fastops.assemble_gram_circulant(vol, spec, "valid_linear").matrix
        rel = np.linalg.norm(circ - exact) / np.linalg.norm(exact)
        print(f"hybrid circulant Gram modeling error (rel Frobenius): {rel:.3e}")
        assert np.isfinite(rel)


def _one_hot_weights(spec, tau_hot, pos):
    filters = np.zeros((1, spec.k, spec.m1, spec.m2), dtype=complex)
    filters[0, tau_hot, pos[0], pos[1]] = 1.0
    return SimpleNamespace(filters=filters, spatial_offset=spec.spatial_offset("linear"))


class TestNormalMultipliers:
    def test_one_hot_filter_fields(self):
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        w = _one_hot_weights(spec, tau_hot=1, pos=(0, 1))
        fields = fastops.multiplier_fields(w, spec)
        assert np.allclose(fields[1, 1], 1.0, atol=1e-12)
        for a in range(spec.k):
            for b in range(spec.k):
                if (a, b) != (1, 1):
                    assert np.abs(fields[a, b]).max() < 1e-12

    def test_profile_route_matches_literal_formula(self):
        g = Grid(8, 7, 4)
        spec = FilterSpec(4, 3, 2, g)
        rng = np.random.default_rng(12)
        shape = (9, spec.k, spec.m1, spec.m2)
        w = SimpleNamespace(
            filters=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            spatial_offset=spec.spatial_offset("linear"),
        )
        fields = fastops.multiplier_fields(w, spec)
        ref = fastops.multiplier_fields_from_filters(w.filters, spec, w.spatial_offset)
        assert np.abs(fields - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_collapsed_matches_direct(self):
        g = Grid(8, 8, 4)
        spec = FilterSpec(3, 3, 2, g)
        rng = np.random.default_rng(13)
        shape = (6, spec.k, spec.m1, spec.m2)
        w = SimpleNamespace(
            filters=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            spatial_offset=spec.spatial_offset("linear"),
        )
        mult = fastops.build_normal_multipliers(w, spec)
        x = random_volume(g, 14).data
        got = fastops.apply_normal(mult, x)
        want = fastops.penalty_apply_direct(w, spec, x)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert abs(fastops.penalty_value(mult, x) - fastops.penalty_value_direct(w, spec, x)) \
            <= 1e-10 * abs(fastops.penalty_value_direct(w, spec, x))

    @pytest.mark.parametrize("nt", [1, 2, 5])
    def test_image_domain_block_matches_direct(self, nt):
        # Nt = 1, 2 and T cover k = T, a small k and k = 1
        g = Grid(7, 6, 5)
        spec = FilterSpec(3, 2, nt, g)
        rng = np.random.default_rng(30 + nt)
        shape = (4, spec.k, spec.m1, spec.m2)
        w = SimpleNamespace(
            filters=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            spatial_offset=spec.spatial_offset("linear"),
        )
        mult = fastops.build_normal_multipliers(w, spec)
        assert mult.block.shape == (g.p, g.q, g.t, g.t)
        assert np.abs(mult.block - np.conj(np.swapaxes(mult.block, 2, 3))).max() \
            <= 1e-12 * np.abs(mult.block).max()
        x = random_volume(g, 31).data
        z = np.fft.ifft2(x, axes=(0, 1), norm="ortho")
        got = np.fft.fft2(fastops.apply_block(mult, z), axes=(0, 1), norm="ortho")
        want = fastops.penalty_apply_direct(w, spec, x)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_adjoint_property(self):
        g = Grid(7, 6, 4)
        spec = FilterSpec(3, 2, 2, g)
        rng = np.random.default_rng(15)
        shape = (5, spec.k, spec.m1, spec.m2)
        w = SimpleNamespace(
            filters=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
            spatial_offset=spec.spatial_offset("linear"),
        )
        mult = fastops.build_normal_multipliers(w, spec)
        x = random_volume(g, 16).data
        y = random_volume(g, 17).data
        lhs = np.vdot(y, fastops.apply_normal(mult, x))
        rhs = np.vdot(fastops.apply_normal(mult, y), x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_empty_weights(self):
        g = Grid(6, 6, 3)
        spec = FilterSpec(2, 2, 2, g)
        w = SimpleNamespace(
            filters=np.zeros((0, spec.k, spec.m1, spec.m2), dtype=complex),
            spatial_offset=spec.spatial_offset("linear"),
        )
        mult = fastops.build_normal_multipliers(w, spec)
        x = random_volume(g, 18).data
        assert np.abs(fastops.apply_normal(mult, x)).max() == 0.0


@pytest.mark.slow
class TestComplexity:
    def test_circulant_assembly_scales_like_fft(self):
        """Doubling P, Q at fixed filter fraction should cost about 4x
        (FFT-dominated), far from the 16x of dense construction."""

        def timed(p, n1):
            g = Grid(p, p, 6)
            spec = FilterSpec(n1, n1, 2, g)
            vol = random_volume(g, 20)
            fastops.assemble_gram_circulant(vol, spec, "valid_linear")  # warm up
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                fastops.assemble_gram_circulant(vol, spec, "valid_linear")
                best = min(best, time.perf_counter() - t0)
            return best

        t_small = timed(64, 58)
        t_big = timed(128, 116)
        ratio = t_big / t_small
        print(f"circulant gram scaling 64->128: {ratio:.2f}x")
        assert ratio < 8.0
