import sys
import tracemalloc

import numpy as np
import pytest

from exprec.core import Grid, dft2_forward
from exprec.lifting import FilterSpec, annihilation_certificate, build_lifted
from exprec import simulate
from exprec.simulate import (
    PhantomSpec,
    Sampling,
    add_noise,
    adjoint,
    forward,
    make_coils,
    make_mask,
    make_phantom,
    series_from_maps,
    simulate_measurements,
)


class TestPhantom:
    def test_constant_maps_give_plain_exponential(self):
        g = Grid(6, 6, 4, dt=10.0)
        amp = np.ones((1, 6, 6), dtype=complex)
        t2 = np.full((1, 6, 6), 50.0)
        series = series_from_maps(g, amp, t2)
        n = np.arange(4)
        want = np.exp(-n / 5.0)
        assert np.allclose(series[2, 3, :], want, rtol=0, atol=1e-15)

    def test_rebuild_is_bit_exact(self):
        g = Grid(16, 16, 6)
        for kind in ("regions_smoothed", "bandlimited_exact"):
            ph = make_phantom(PhantomSpec(g, kind=kind, bandwidth=2), seed=3)
            rebuilt = series_from_maps(g, ph.amp_maps, ph.t2_maps)
            assert np.array_equal(rebuilt, ph.series)

    def test_bandlimited_certificate(self):
        g = Grid(12, 12, 5)
        ph = make_phantom(PhantomSpec(g, kind="bandlimited_exact", bandwidth=1), seed=7)
        kt = dft2_forward(ph.series)
        spec = FilterSpec(3, 3, 2, g)
        cert = annihilation_certificate(kt, spec, "hybrid", tol=1e-8)
        assert cert.nullity_est >= 1
        assert cert.sigma_min <= 1e-8 * cert.sigma_max

    def test_two_component_temporal_annihilator(self):
        # distinct uniform T2s: (1, -b1) conv (1, -b2) kills the series
        g = Grid(5, 5, 5, dt=10.0)
        amp = np.ones((2, 5, 5), dtype=complex)
        t2 = np.stack([np.full((5, 5), 30.0), np.full((5, 5), 200.0)])
        series = series_from_maps(g, amp, t2)
        kt = dft2_forward(series)
        b1, b2 = np.exp(-10.0 / 30.0), np.exp(-10.0 / 200.0)
        c = np.zeros((3, 1, 1), dtype=complex)
        c[0], c[1], c[2] = 1.0, -(b1 + b2), b1 * b2
        spec = FilterSpec(1, 1, 3, g)
        lifted = build_lifted(kt, spec, "hybrid")
        resid = lifted @ c.ravel()
        assert np.abs(resid).max() < 1e-10 * np.abs(kt).max()

    def test_determinism_and_seed_variation(self):
        g = Grid(8, 8, 4)
        spec = PhantomSpec(g, kind="regions_smoothed")
        a = make_phantom(spec, seed=1)
        b = make_phantom(spec, seed=1)
        c = make_phantom(spec, seed=2)
        assert np.array_equal(a.series, b.series)
        assert not np.array_equal(a.series, c.series)

    def test_t2_range_where_supported(self):
        g = Grid(16, 16, 4)
        ph = make_phantom(PhantomSpec(g, kind="regions_smoothed"), seed=5)
        t2_on = ph.t2_maps[0][np.abs(ph.amp_maps[0]) > 0]  # the support, as the CLI takes it
        assert (t2_on > 1.0).all() and (t2_on < 5000.0).all()

    def test_invalid_specs(self):
        g = Grid(8, 8, 4)
        with pytest.raises(ValueError, match="T2 range"):
            PhantomSpec(g, t2_low=0.5)
        with pytest.raises(ValueError, match="bandwidth"):
            PhantomSpec(g, kind="bandlimited_exact", l=3, bandwidth=2)
        with pytest.raises(ValueError, match="kind"):
            PhantomSpec(g, kind="cubist")


class TestCoils:
    def test_single_coil_is_unity(self):
        g = Grid(8, 8, 4)
        coils = make_coils(g, 1, seed=0)
        assert np.array_equal(coils, np.ones((1, 8, 8)))

    @pytest.mark.parametrize("c", [2, 4, 8])
    def test_sos_normalized(self, c):
        g = Grid(16, 16, 4)
        coils = make_coils(g, c, seed=4)
        sos = np.sum(np.abs(coils) ** 2, axis=0)
        assert np.abs(sos - 1.0).max() < 1e-10

    def test_smoothness(self):
        g = Grid(64, 64, 4)
        coils = make_coils(g, 4, seed=6)
        for m in np.abs(coils):
            gx = np.abs(np.diff(m, axis=0)).max()
            gy = np.abs(np.diff(m, axis=1)).max()
            assert max(gx, gy) < 0.2


class TestMasks:
    def test_uniform_fraction_count(self):
        g = Grid(64, 64, 3)
        mask = make_mask(g, "uniform_random", 0.3, seed=1)
        for t in range(g.t):
            assert mask[:, :, t].sum() == 1229  # round(0.3 * 4096)

    def test_full_fraction(self):
        g = Grid(8, 8, 3)
        mask = make_mask(g, "uniform_random", 1.0, seed=1)
        assert mask.all()

    def test_frames_differ_and_static_flag(self):
        g = Grid(16, 16, 4)
        varying = make_mask(g, "uniform_random", 0.4, seed=2)
        assert not np.array_equal(varying[:, :, 0], varying[:, :, 1])
        static = make_mask(g, "uniform_random", 0.4, seed=2, static=True)
        for t in range(1, g.t):
            assert np.array_equal(static[:, :, 0], static[:, :, t])

    def test_reproducible_and_seed_sensitive(self):
        g = Grid(16, 16, 3)
        a = make_mask(g, "uniform_random", 0.5, seed=3)
        b = make_mask(g, "uniform_random", 0.5, seed=3)
        c = make_mask(g, "uniform_random", 0.5, seed=4)
        assert np.array_equal(a, b)
        assert (a != c).sum() > 0

    def test_vd_cartesian_acceleration_and_center(self):
        g = Grid(128, 128, 2)
        mask = make_mask(g, "vd_cartesian", 12.0, seed=5, center_block=8)
        measured = mask.size / mask.sum()
        assert 11.4 <= measured <= 12.6
        frame = mask[:, :, 0]
        # lattice points only
        assert not frame[1::2, :].any() and not frame[:, 1::2].any()
        # center block fully sampled on the retained lattice
        lattice = frame[::2, ::2]
        lp = lattice.shape[0]
        idx = np.r_[lp - 4 : lp, 0:4]
        assert lattice[np.ix_(idx, idx)].all()

    def test_invalid_parameters(self):
        g = Grid(16, 16, 2)
        with pytest.raises(ValueError, match="fraction"):
            make_mask(g, "uniform_random", 0.0)
        with pytest.raises(ValueError):
            make_mask(g, "uniform_random", 1.5)
        with pytest.raises(ValueError, match="acceleration"):
            make_mask(g, "vd_cartesian", 2.0)
        with pytest.raises(ValueError, match="kind"):
            make_mask(g, "radial", 0.3)

    @pytest.mark.parametrize("p,q", [(63, 64), (64, 63)])
    def test_vd_cartesian_rejects_odd_grid(self, p, q):
        # the 2x2 lattice needs even P and Q, whatever the acceleration
        for accel in (4.0, 8.0):
            with pytest.raises(ValueError, match=f"even grid for its 2x2 lattice, got {p}x{q}"):
                make_mask(Grid(p, q, 4), "vd_cartesian", accel, seed=0)


def _literal_forward(x, maps, mask):
    """mask * fft2(S_c * ifft2(x)) per coil, with full-size FFTs."""
    img = np.fft.ifft2(x, axes=(0, 1), norm="ortho")
    return np.stack([mask * np.fft.fft2(s[:, :, None] * img, axes=(0, 1), norm="ortho")
                     for s in maps])


def _literal_adjoint(b, maps, mask):
    """fft2(sum_c conj(S_c) * ifft2(mask * b_c)), with full-size FFTs."""
    img = sum(np.conj(s)[:, :, None] * np.fft.ifft2(mask * bc, axes=(0, 1), norm="ortho")
              for s, bc in zip(maps, b))
    return np.fft.fft2(img, axes=(0, 1), norm="ortho")


def _anisotropic_mask(g, step_y, seed):
    """Random samples on every kx and on the ky multiples of step_y only."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(g.shape, dtype=bool)
    mask[:, ::step_y] = rng.random((g.p, g.q // step_y, g.t)) < 0.5
    return mask


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestLatticeOperator:
    """forward, adjoint and the CG data term run their FFTs at the size of
    the mask's k-space lattice; pin them to the full-size literal formula."""

    CASES = {
        "uniform_random": (Grid(8, 8, 3), (1, 1)),
        "vd_cartesian": (Grid(16, 16, 3), (2, 2)),
        "anisotropic": (Grid(8, 12, 3), (1, 4)),
    }

    def _mask(self, kind, g):
        if kind == "uniform_random":
            return make_mask(g, kind, 0.4, seed=2)
        if kind == "vd_cartesian":
            return make_mask(g, kind, 6.0, seed=2, center_block=4)
        return _anisotropic_mask(g, 4, seed=2)

    def _coils(self, c, g):
        if c == 1:  # one non-uniform coil still takes the lattice path
            rng = np.random.default_rng(4)
            return (0.5 + rng.random((1, g.p, g.q))) * np.exp(1j * rng.random((1, g.p, g.q)))
        return make_coils(g, c, seed=1)

    @pytest.mark.parametrize(
        "kind,c",
        [(k, 3) for k in sorted(CASES)] + [(k, 1) for k in sorted(CASES)],
        ids=sorted(CASES) + [f"{k}-one_coil" for k in sorted(CASES)],
    )
    def test_matches_literal_formula(self, kind, c):
        g, step = self.CASES[kind]
        mask = self._mask(kind, g)
        coils = self._coils(c, g)
        sampling = Sampling(coils, mask)
        assert not sampling.kspace and sampling.step == step
        rng = np.random.default_rng(5)
        x = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        y = rng.standard_normal((c, *g.shape)) + 1j * rng.standard_normal((c, *g.shape))
        fwd = _literal_forward(x, coils, mask)
        assert _rel(forward(x, coils, mask), fwd) <= 1e-13
        y_before = y.copy()
        assert _rel(adjoint(y, coils, mask), _literal_adjoint(y, coils, mask)) <= 1e-13
        assert np.array_equal(y, y_before)  # the in-place adjoint works on a copy
        # the data term acts on z = F^H x, the image-domain CG variable
        z = np.fft.ifft2(x, axes=(0, 1), norm="ortho")
        want = np.fft.ifft2(_literal_adjoint(fwd, coils, mask), axes=(0, 1), norm="ortho")
        assert _rel(sampling.adjoint(sampling.apply(z)), want) <= 1e-13

    def test_uniform_coil_runs_in_kspace(self):
        # one uniform coil takes the mask itself and builds no lattice
        g = Grid(8, 8, 3)
        mask = make_mask(g, "vd_cartesian", 6.0, seed=2, center_block=4)
        sampling = Sampling(make_coils(g, 1), mask)
        assert sampling.kspace and sampling.coils is None and sampling.weight is None
        rng = np.random.default_rng(6)
        x = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        assert sampling.to_domain(x) is x and sampling.to_kspace(x) is x
        assert np.array_equal(sampling.adjoint(sampling.apply(x)), x * mask)

    def test_gather_scatter_round_trip(self):
        g, _ = self.CASES["vd_cartesian"]
        mask = self._mask("vd_cartesian", g)
        coils = self._coils(3, g)
        sampling = Sampling(coils, mask)
        b = forward(np.ones(g.shape, dtype=complex), coils, mask)
        samples = sampling.gather(b)
        assert samples.shape == (g.p // 2, g.q // 2, 3, g.t)
        assert np.array_equal(sampling.scatter(samples), b)
        samples[...] = 0  # a copy: the data stays
        assert np.array_equal(sampling.scatter(sampling.gather(b)), b)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the caller's frame "
                        "keeps a temporary argument alive, so the adjoint cannot free it")
    def test_data_normal_transient_memory(self):
        """One data-term application holds at most 2.5 full-size volumes, the
        result included: the coils' lattice samples and their unfolded aliases,
        then the aliases and the tiled image, never a third volume beside them."""
        g = Grid(64, 64, 12)  # fig6_desk's grid, coils and lattice
        mask = make_mask(g, "vd_cartesian", 12.0, seed=2)
        coils = make_coils(g, 4, seed=1)
        sampling = Sampling(coils, mask)
        assert sampling.step == (2, 2)
        rng = np.random.default_rng(5)
        z = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        sampling.adjoint(sampling.apply(z))  # FFT plans are cached on the first call
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = sampling.adjoint(sampling.apply(z))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == g.shape
        assert peak <= 2.5 * z.nbytes


class TestForwardModel:
    def _setup(self, c=3, frac=0.4, seed=0, kind="uniform_random"):
        g = Grid(8, 8, 3)
        rng = np.random.default_rng(seed)
        kt = dft2_forward(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        coils = make_coils(g, c, seed=seed + 1)
        if kind == "vd_cartesian":
            mask = make_mask(g, kind, 6.0, seed=seed + 2, center_block=2)
        else:
            mask = make_mask(g, kind, frac, seed=seed + 2)
        return g, kt, coils, mask

    def test_identity_with_single_coil_full_mask(self):
        g, kt, _, _ = self._setup(c=1, frac=1.0)
        coils = make_coils(g, 1, seed=0)
        mask = make_mask(g, "uniform_random", 1.0, seed=0)
        b = forward(kt, coils, mask)
        assert np.abs(b[0] - kt).max() < 1e-12

    @pytest.mark.parametrize("kind", ["uniform_random", "vd_cartesian"])
    def test_adjoint_identity(self, kind):
        g, kt, coils, mask = self._setup(c=3, frac=0.4, kind=kind)
        rng = np.random.default_rng(9)
        y = rng.standard_normal((3, *g.shape)) + 1j * rng.standard_normal((3, *g.shape))
        ax = forward(kt, coils, mask)
        lhs = np.vdot(ax, y)
        rhs = np.vdot(kt, adjoint(y, coils, mask))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_normal_operator_is_mask_for_single_coil(self):
        g, kt, _, _ = self._setup(c=1, frac=0.5)
        coils = make_coils(g, 1, seed=0)
        mask = make_mask(g, "uniform_random", 0.5, seed=3)
        once = adjoint(forward(kt, coils, mask), coils, mask)
        assert np.abs(once - kt * mask).max() < 1e-12
        again = adjoint(forward(once, coils, mask), coils, mask)
        assert np.abs(again - once).max() < 1e-12  # projection is idempotent


class TestNoise:
    def test_sigma_zero_is_identity(self):
        g = Grid(8, 8, 3)
        mask = make_mask(g, "uniform_random", 0.5, seed=1)
        rng = np.random.default_rng(2)
        b = (rng.standard_normal((2, *g.shape)) + 1j * rng.standard_normal((2, *g.shape)))
        b = b * mask[None]
        assert np.array_equal(add_noise(b, mask, 0.0, seed=3), b)

    def test_empirical_std(self):
        g = Grid(128, 128, 13)  # > 1e5 sampled entries
        mask = make_mask(g, "uniform_random", 0.5, seed=4)
        b = np.zeros((1, *g.shape), dtype=complex)
        noisy = add_noise(b, mask, 2.0, seed=5)
        vals = noisy[0][mask]
        assert vals.size > 1e5
        assert abs(np.std(vals.real) - 2.0) < 0.04
        assert abs(np.std(vals.imag) - 2.0) < 0.04

    def test_unsampled_stay_zero(self):
        g = Grid(16, 16, 4)
        mask = make_mask(g, "uniform_random", 0.3, seed=6)
        b = np.ones((2, *g.shape), dtype=complex) * mask[None]
        noisy = add_noise(b, mask, 1.0, seed=7)
        assert np.abs(noisy[:, ~mask]).max() == 0.0

    def test_measurements_zero_off_mask(self):
        g = Grid(8, 8, 3)
        rng = np.random.default_rng(8)
        kt = dft2_forward(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        coils = make_coils(g, 2, seed=9)
        mask = make_mask(g, "uniform_random", 0.4, seed=10)
        meas = simulate_measurements(kt, coils, mask, sigma=0.05, seed=11)
        assert np.abs(meas.b[:, ~mask]).max() == 0.0
        # relative sigma scales with the mean sampled magnitude
        clean = simulate.forward(kt, coils, mask)
        noisy = add_noise(clean, mask, 0.05 * np.abs(clean[:, mask]).mean(), seed=11)
        assert np.array_equal(meas.b, noisy * mask[None])
