import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprec.core import Grid, dft2_forward
from exprec import mapping, simulate
from exprec.mapping import fit_t2, nrmse, recon_ktlowrank, recon_zerofill, snr_db


def mono_exp_series(grid, amp, t2):
    te = grid.echo_times()
    data = amp * np.exp(-te / t2)
    return np.broadcast_to(data, grid.shape).copy()


class TestFitT2:
    def test_exact_on_noiseless(self):
        g = Grid(4, 4, 12, dt=10.0)
        series = mono_exp_series(g, amp=2.0, t2=40.0)
        fit = fit_t2(series, g.echo_times())
        assert np.abs(fit.t2 - 40.0).max() < 1e-10
        assert np.abs(fit.amp - 2.0).max() < 1e-10
        assert fit.support.all()

    @pytest.mark.parametrize("t2", [5.0, 50.0, 400.0, 2000.0])
    def test_exact_across_range(self, t2):
        g = Grid(3, 3, 10, dt=12.0)
        series = mono_exp_series(g, amp=1.3, t2=t2)
        fit = fit_t2(series, g.echo_times())
        assert np.abs(fit.t2 - t2).max() <= 1e-10 * t2

    def test_constant_signal_clamped(self):
        g = Grid(3, 3, 8, dt=10.0)
        fit = fit_t2(np.ones(g.shape), g.echo_times())
        assert (fit.t2 == 5000.0).all()

    def test_zero_pixels_dropped(self):
        g = Grid(3, 3, 8, dt=10.0)
        data = np.broadcast_to(np.exp(-g.echo_times() / 50.0), g.shape).copy()
        data[0, 0, 3] = 0.0
        fit = fit_t2(data, g.echo_times())
        assert not fit.support[0, 0]
        assert fit.t2[0, 0] == 0.0

    def test_noisy_median_error(self):
        # 1e4 pixels, 1 percent complex noise at the first echo, T2 = 50 ms
        g = Grid(100, 100, 12, dt=10.0)
        te = g.echo_times()
        clean = np.exp(-te / 50.0)
        rng = np.random.default_rng(0)
        sigma = 0.01 * clean[0]
        noisy = clean[None, None, :] + sigma * (
            rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        )
        fit = fit_t2(noisy, te)
        err = np.abs(fit.t2[fit.support] - 50.0)
        assert np.median(err) < 2.0

    def test_input_validation(self):
        g = Grid(3, 3, 8)
        series = mono_exp_series(g, 1.0, 50.0)
        with pytest.raises(ValueError, match="echo times"):
            fit_t2(series, [10.0])


class TestMetrics:
    def test_one_percent_error_is_40db(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal((8, 8, 3)) + 1j * rng.standard_normal((8, 8, 3))
        rec = ref + ref / 100.0
        assert snr_db(ref, rec) == pytest.approx(40.0, abs=1e-9)

    def test_zero_reconstruction_is_0db(self):
        ref = np.ones((4, 4))
        assert snr_db(ref, np.zeros_like(ref)) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_reconstruction_is_inf(self):
        ref = np.ones((4, 4))
        assert snr_db(ref, ref.copy()) == float("inf")

    def test_nrmse_half(self):
        ref = np.full((5, 5), 2.0)
        assert nrmse(ref, ref / 2) == pytest.approx(0.5, abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_metric_consistency(self, seed):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        rec = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert snr_db(ref, rec) + 20.0 * np.log10(nrmse(ref, rec)) == pytest.approx(0.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            snr_db(np.ones((2, 2)), np.ones((3, 3)))


def make_measurements(grid, fraction=0.5, c=1, sigma=0.0, seed=0, kind="regions_smoothed"):
    ph = simulate.make_phantom(simulate.PhantomSpec(grid, kind=kind, bandwidth=2), seed=seed)
    kt = dft2_forward(ph.series)
    coils = simulate.make_coils(grid, c, seed=seed + 1)
    mask = simulate.make_mask(grid, "uniform_random", fraction, seed=seed + 2)
    meas = simulate.simulate_measurements(kt, coils, mask, sigma=sigma, seed=seed + 3)
    return ph, kt, meas


class TestZerofill:
    def test_full_mask_exact(self):
        g = Grid(8, 8, 3)
        _, kt, meas = make_measurements(g, fraction=1.0)
        rec = recon_zerofill(meas)
        assert np.abs(rec - kt).max() < 1e-12

    def test_half_mask_matches_masked_data(self):
        g = Grid(8, 8, 3)
        _, kt, meas = make_measurements(g, fraction=0.5)
        rec = recon_zerofill(meas)
        m = meas.mask
        scale = np.abs(kt).max()
        assert np.abs(rec[m] - kt[m]).max() < 1e-12 * scale
        assert np.abs(rec[~m]).max() == 0.0

    def test_equals_adjoint_bit_for_bit(self):
        g = Grid(8, 8, 4)
        _, _, meas = make_measurements(g, fraction=0.4, c=3, sigma=0.01)
        rec = recon_zerofill(meas)
        want = simulate.adjoint(meas.b, meas.maps, meas.mask)
        assert np.array_equal(rec, want)


class TestKtLowRank:
    def test_rank_one_series_recovered(self):
        g = Grid(8, 8, 6, dt=10.0)
        amp = np.ones((1, 8, 8), dtype=complex)
        t2 = np.full((1, 8, 8), 60.0)
        series = simulate.series_from_maps(g, amp, t2)
        kt = dft2_forward(series)
        coils = simulate.make_coils(g, 1, seed=0)
        mask = simulate.make_mask(g, "uniform_random", 1.0, seed=0)
        meas = simulate.simulate_measurements(kt, coils, mask)
        smax = float(np.linalg.svd(kt.reshape(-1, g.t), compute_uv=False)[0])
        res = recon_ktlowrank(meas, mu=1e-7 * smax, iters=30)
        sv = np.linalg.svd(res.volume.reshape(-1, g.t), compute_uv=False)
        assert np.count_nonzero(sv > 1e-12 * sv[0]) == 1
        assert np.linalg.norm(res.volume - kt) <= 1e-6 * np.linalg.norm(kt)

    def test_huge_mu_gives_zero(self):
        g = Grid(8, 8, 4)
        _, kt, meas = make_measurements(g, fraction=0.8)
        smax = float(np.linalg.svd(recon_zerofill(meas).reshape(-1, g.t),
                                   compute_uv=False)[0])
        res = recon_ktlowrank(meas, mu=1e6 * smax, iters=5)
        assert np.abs(res.volume).max() == 0.0

    def test_objective_non_increasing(self):
        g = Grid(12, 12, 5)
        _, _, meas = make_measurements(g, fraction=0.4, sigma=0.02, seed=7)
        res = recon_ktlowrank(meas, mu=0.05, iters=40)
        trace = np.array(res.objective_trace)
        assert (trace[1:] <= trace[:-1] * (1 + 1e-8) + 1e-12).all()

    def test_beats_zerofill_on_desk_phantom(self):
        g = Grid(16, 16, 8)
        ph, kt, meas = make_measurements(g, fraction=0.3, seed=11)
        zf = recon_zerofill(meas)
        smax = float(np.linalg.svd(zf.reshape(-1, g.t), compute_uv=False)[0])
        res = recon_ktlowrank(meas, mu=0.02 * smax, iters=120)
        err_zf = np.linalg.norm(zf - kt)
        err_lr = np.linalg.norm(res.volume - kt)
        assert err_lr < err_zf

    @pytest.mark.parametrize("iters", [1, 6])
    def test_one_forward_per_sweep(self, monkeypatch, iters):
        # the residual that scores sweep n is the gradient residual of sweep n + 1;
        # several coils apply the data term through the lattice operator
        g = Grid(8, 8, 4)
        _, _, meas = make_measurements(g, fraction=0.5, c=2, seed=3)
        calls = []
        real_forward = simulate._coil_forward

        def counting_forward(*args, **kwargs):
            calls.append(1)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(simulate, "_coil_forward", counting_forward)
        res = recon_ktlowrank(meas, mu=0.05, iters=iters)
        assert len(calls) == iters + 1
        assert len(res.objective_trace) == iters

    @staticmethod
    def reference_ktlr(meas, mu, iters):
        """ISTA in k-space through the public forward/adjoint pair."""
        p, q, t = meas.b.shape[1:]
        x = np.zeros((p, q, t), dtype=np.complex128)
        trace = []
        resid = simulate.forward(x, meas.maps, meas.mask) - meas.b
        for _ in range(iters):
            grad = simulate.adjoint(resid, meas.maps, meas.mask)
            u, sv, vh = np.linalg.svd((x - grad).reshape(p * q, t), full_matrices=False)
            sv = np.maximum(sv - mu, 0.0)
            x = ((u * sv) @ vh).reshape(p, q, t)
            resid = simulate.forward(x, meas.maps, meas.mask) - meas.b
            trace.append(0.5 * float(np.vdot(resid, resid).real) + mu * float(sv.sum()))
        return x, trace

    def test_single_coil_matches_kspace_reference_bitwise(self):
        g = Grid(12, 12, 5)
        _, _, meas = make_measurements(g, fraction=0.4, sigma=0.02, seed=5)
        x, trace = self.reference_ktlr(meas, 0.05, 25)
        res = recon_ktlowrank(meas, mu=0.05, iters=25)
        assert np.array_equal(res.volume, x)
        assert np.array_equal(res.objective_trace, trace)

    def test_multi_coil_matches_kspace_reference(self):
        # 3 coils on the 2x2 lattice of vd_cartesian: ISTA on z = F^H x
        g = Grid(16, 16, 6)
        ph = simulate.make_phantom(simulate.PhantomSpec(g, bandwidth=2), seed=4)
        maps = simulate.make_coils(g, 3, seed=5)
        mask = simulate.make_mask(g, "vd_cartesian", 5.0, seed=6, center_block=4)
        meas = simulate.simulate_measurements(dft2_forward(ph.series), maps, mask,
                                              sigma=0.01, seed=7)
        mu = 0.02 * float(np.linalg.svd(recon_zerofill(meas).reshape(-1, g.t),
                                        compute_uv=False)[0])
        x, trace = self.reference_ktlr(meas, mu, 30)
        res = recon_ktlowrank(meas, mu=mu, iters=30)
        assert np.linalg.norm(res.volume - x) <= 1e-12 * np.linalg.norm(x)
        assert np.allclose(res.objective_trace, trace, rtol=1e-12, atol=0)

    def test_invalid_args(self):
        g = Grid(8, 8, 3)
        _, _, meas = make_measurements(g)
        with pytest.raises(ValueError):
            recon_ktlowrank(meas, mu=-1.0, iters=10)
        with pytest.raises(ValueError):
            recon_ktlowrank(meas, mu=0.1, iters=0)
