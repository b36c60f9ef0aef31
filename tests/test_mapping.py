import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprec.core import Grid, dft2_forward
from exprec import fastops, mapping, simulate
from exprec.mapping import fit_t2, nrmse, recon_ktlowrank, recon_zerofill, snr_db


def mono_exp_series(grid, amp, t2):
    te = grid.echo_times()
    data = amp * np.exp(-te / t2)
    return np.broadcast_to(data, grid.shape).copy()


class TestFitT2:
    def test_exact_on_noiseless(self):
        g = Grid(4, 4, 12, dt=10.0)
        series = mono_exp_series(g, amp=2.0, t2=40.0)
        t2 = fit_t2(series, g.echo_times())
        assert np.abs(t2 - 40.0).max() < 1e-10

    @pytest.mark.parametrize("t2", [5.0, 50.0, 400.0, 2000.0])
    def test_exact_across_range(self, t2):
        g = Grid(3, 3, 10, dt=12.0)
        series = mono_exp_series(g, amp=1.3, t2=t2)
        fit = fit_t2(series, g.echo_times())
        assert np.abs(fit - t2).max() <= 1e-10 * t2

    def test_constant_signal_clamped(self):
        g = Grid(3, 3, 8, dt=10.0)
        assert (fit_t2(np.ones(g.shape), g.echo_times()) == 5000.0).all()

    def test_fast_decay_clamped_to_one_ms(self):
        # every fitted pixel is at least T2_CLAMP_LOW, so t2 > 0 marks the fitted support
        g = Grid(3, 3, 4, dt=1.0)
        assert (fit_t2(mono_exp_series(g, 1.0, 0.5), g.echo_times()) == 1.0).all()

    def test_zero_pixels_dropped(self):
        g = Grid(3, 3, 8, dt=10.0)
        data = np.broadcast_to(np.exp(-g.echo_times() / 50.0), g.shape).copy()
        data[0, 0, 3] = 0.0
        t2 = fit_t2(data, g.echo_times())
        assert t2[0, 0] == 0.0
        assert np.count_nonzero(t2 > 0) == 8

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
        t2 = fit_t2(noisy, te)
        err = np.abs(t2[t2 > 0] - 50.0)
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


def svd_svt(mat, thresh):
    """Singular value thresholding by the SVD: the reference for ``mapping._svt``."""
    u, sv, vh = np.linalg.svd(mat, full_matrices=False)
    sv = np.maximum(sv - thresh, 0.0)
    return (u * sv) @ vh, sv


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSvt:
    """``mapping._svt`` thresholds through the T x T Gram; the SVD is the oracle."""

    @staticmethod
    def low_rank_plus_noise(n, t, rank, noise, seed):
        rng = np.random.default_rng(seed)
        low = complex_normal(rng, (n, rank)) @ complex_normal(rng, (rank, t))
        return low + noise * complex_normal(rng, (n, t))

    @staticmethod
    def graded(n, t, seed):
        """Singular values 1 .. 1e-7, log-spaced: some sit near every threshold."""
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(complex_normal(rng, (n, t)))
        v, _ = np.linalg.qr(complex_normal(rng, (t, t)))
        return (u * np.logspace(0, -7, t)) @ v.conj().T

    @pytest.mark.parametrize("name, mat", [
        ("fig6_casorati", low_rank_plus_noise(4096, 12, 3, 0.05, seed=0)),
        ("rank_3", low_rank_plus_noise(300, 12, 3, 0.0, seed=1)),
        ("wide", low_rank_plus_noise(6, 10, 6, 0.0, seed=2)),
        ("graded", graded(200, 12, seed=7)),
    ])
    @pytest.mark.parametrize("mu_rel, tol", [(0.02, 1e-12), (0.3, 1e-12), (1e-6, 1e-10)])
    def test_matches_svd(self, name, mat, mu_rel, tol):
        smax = np.linalg.svd(mat, compute_uv=False)[0]
        want, want_sv = svd_svt(mat, mu_rel * smax)
        got, sv = mapping._svt(mat, mu_rel * smax)
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want), name
        # the Gram has T eigenvalues; beyond min(n, T) they are 0 after thresholding
        top = np.sort(sv)[::-1][:want_sv.size]
        assert np.abs(top - want_sv).max() <= tol * smax
        assert np.count_nonzero(np.sort(sv)[::-1][want_sv.size:]) == 0

    @pytest.mark.parametrize("name, mat", [
        ("fig6_casorati", low_rank_plus_noise(4096, 12, 3, 0.05, seed=3)),
        ("rank_3", low_rank_plus_noise(300, 12, 3, 0.0, seed=4)),
        ("wide", low_rank_plus_noise(6, 10, 6, 0.0, seed=5)),
    ])
    def test_zero_threshold_is_identity(self, name, mat):
        got, _ = mapping._svt(mat, 0.0)
        assert np.linalg.norm(got - mat) <= 1e-12 * np.linalg.norm(mat), name

    @pytest.mark.parametrize("factor", [1 + 1e-9, 2.0, 1e6])
    def test_threshold_above_smax_gives_exact_zeros(self, factor):
        mat = self.low_rank_plus_noise(500, 12, 3, 0.05, seed=6)
        smax = np.linalg.svd(mat, compute_uv=False)[0]
        got, sv = mapping._svt(mat, factor * smax)
        assert np.abs(got).max() == 0.0
        assert np.abs(sv).max() == 0.0


def svd_smax(mat):
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def gram_smax(mat):
    """The top singular value as ``recon_ktlowrank`` takes it, from the T x T Gram."""
    return float(np.sqrt(fastops.eigh_overwrite(mat.conj().T @ mat, vectors=False)[0][-1]))


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
        res = recon_ktlowrank(meas, 1e-7, iters=30)
        sv = np.linalg.svd(res.volume.reshape(-1, g.t), compute_uv=False)
        assert np.count_nonzero(sv > 1e-12 * sv[0]) == 1
        assert np.linalg.norm(res.volume - kt) <= 1e-6 * np.linalg.norm(kt)

    def test_huge_mu_gives_zero(self):
        g = Grid(8, 8, 4)
        _, kt, meas = make_measurements(g, fraction=0.8)
        res = recon_ktlowrank(meas, 1e6, iters=5)
        assert np.abs(res.volume).max() == 0.0

    def test_objective_non_increasing(self):
        g = Grid(12, 12, 5)
        _, _, meas = make_measurements(g, fraction=0.4, sigma=0.02, seed=7)
        res = recon_ktlowrank(meas, 0.005, iters=40)
        trace = np.array(res.objective_trace)
        assert (trace[1:] <= trace[:-1] * (1 + 1e-8) + 1e-12).all()

    def test_beats_zerofill_on_desk_phantom(self):
        g = Grid(16, 16, 8)
        ph, kt, meas = make_measurements(g, fraction=0.3, seed=11)
        res = recon_ktlowrank(meas, 0.02, iters=120)
        err_zf = np.linalg.norm(recon_zerofill(meas) - kt)
        err_lr = np.linalg.norm(res.volume - kt)
        assert err_lr < err_zf

    @pytest.mark.parametrize("iters", [1, 6])
    def test_one_forward_per_sweep(self, monkeypatch, iters):
        # the residual that scores sweep n is the gradient residual of sweep n + 1,
        # and the first step, from x = 0, is A* b; several coils apply the data
        # term through the lattice operator
        g = Grid(8, 8, 4)
        _, _, meas = make_measurements(g, fraction=0.5, c=2, seed=3)
        calls = []
        real_apply = simulate.Sampling.apply

        def counting_apply(*args, **kwargs):
            calls.append(1)
            return real_apply(*args, **kwargs)

        monkeypatch.setattr(simulate.Sampling, "apply", counting_apply)
        res = recon_ktlowrank(meas, 0.01, iters=iters)
        assert len(calls) == iters
        assert len(res.objective_trace) == iters

    @staticmethod
    def reference_ktlr(meas, mu_rel, iters, svt=svd_svt, smax=svd_smax):
        """ISTA in k-space through the public forward/adjoint pair; mu is
        ``mu_rel`` times ``smax`` of the first step."""
        p, q, t = meas.b.shape[1:]
        x = np.zeros((p, q, t), dtype=np.complex128)
        trace, mu = [], None
        resid = simulate.forward(x, meas.maps, meas.mask) - meas.b
        for _ in range(iters):
            step = (x - simulate.adjoint(resid, meas.maps, meas.mask)).reshape(p * q, t)
            mu = mu_rel * smax(step) if mu is None else mu
            xnew, sv = svt(step, mu)
            x = xnew.reshape(p, q, t)
            resid = simulate.forward(x, meas.maps, meas.mask) - meas.b
            trace.append(0.5 * float(np.vdot(resid, resid).real) + mu * float(sv.sum()))
        return x, trace

    def test_single_coil_matches_kspace_reference_bitwise(self):
        # the SVD reference is the oracle; the same loop thresholding with
        # mapping._svt and sizing mu from the Gram pins the k-space mask
        # arithmetic to the bit
        g = Grid(12, 12, 5)
        _, _, meas = make_measurements(g, fraction=0.4, sigma=0.02, seed=5)
        res = recon_ktlowrank(meas, 0.01, iters=25)
        x, trace = self.reference_ktlr(meas, 0.01, 25)
        assert np.linalg.norm(res.volume - x) <= 1e-12 * np.linalg.norm(x)
        assert np.allclose(res.objective_trace, trace, rtol=1e-12, atol=0)
        x, trace = self.reference_ktlr(meas, 0.01, 25, svt=mapping._svt, smax=gram_smax)
        assert np.array_equal(res.volume, x)
        assert np.array_equal(res.objective_trace, trace)

    def test_multi_coil_matches_kspace_reference(self):
        # 3 coils on the 2x2 lattice of vd_cartesian: ISTA on z = F^H x, whose
        # Casorati singular values are those of k-space
        g = Grid(16, 16, 6)
        ph = simulate.make_phantom(simulate.PhantomSpec(g, bandwidth=2), seed=4)
        maps = simulate.make_coils(g, 3, seed=5)
        mask = simulate.make_mask(g, "vd_cartesian", 5.0, seed=6, center_block=4)
        meas = simulate.simulate_measurements(dft2_forward(ph.series), maps, mask,
                                              sigma=0.01, seed=7)
        x, trace = self.reference_ktlr(meas, 0.02, 30)
        res = recon_ktlowrank(meas, 0.02, iters=30)
        assert np.linalg.norm(res.volume - x) <= 1e-12 * np.linalg.norm(x)
        assert np.allclose(res.objective_trace, trace, rtol=1e-12, atol=0)

    def test_mu_that_overflows_raises(self):
        g = Grid(8, 8, 3)
        _, _, meas = make_measurements(g)
        with pytest.raises(OverflowError, match="1e[+]308 times the largest singular value"):
            recon_ktlowrank(meas, 1e308, iters=1)

    def test_invalid_args(self):
        g = Grid(8, 8, 3)
        _, _, meas = make_measurements(g)
        with pytest.raises(ValueError):
            recon_ktlowrank(meas, -1.0, iters=10)
        with pytest.raises(ValueError):
            recon_ktlowrank(meas, 0.1, iters=0)
