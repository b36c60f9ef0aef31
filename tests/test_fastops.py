import time
import tracemalloc

import numpy as np
import pytest

from exprec import fastops, simulate
from exprec.core import Grid, ImageSeries, KtVolume, dft2_forward
from exprec.lifting import FilterSpec, build_lifted, lifted_penalty
from exprec.solver import SolverConfig, _weights_from_eig, irls_solve


def random_volume(grid, seed=0):
    rng = np.random.default_rng(seed)
    return KtVolume(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def dense_gram(vol, spec):
    """The exact-support Gram T T* of the explicit linear lifting."""
    tm = build_lifted(vol, spec, "linear")
    return tm @ tm.conj().T


class TestHybridConv:
    def test_mono_exponential_annihilated(self):
        # the paper's model: the hybrid convolution T(x) c of a
        # mono-exponential series with the temporal filter (1, -beta) is zero
        g = Grid(6, 6, 5)
        beta = 0.7
        n = np.arange(g.t)
        series = ImageSeries(g, np.broadcast_to(beta**n, g.shape).copy())
        kt = dft2_forward(series)
        spec = FilterSpec(1, 1, 2, g)
        c = np.array([1.0, -beta]).reshape(2, 1, 1)
        out = build_lifted(kt, spec, "hybrid") @ c.ravel()
        assert np.abs(out).max() < 1e-12 * np.abs(kt.data).max()


def random_gram_cases():
    """Five random (volume, spec) pairs, grids 4-8 x 4-8 x 3-4."""
    cases = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p, q = rng.integers(4, 9, size=2)
        t = int(rng.integers(3, 5))
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, 4))
        nt = int(rng.integers(1, min(3, t) + 1))
        g = Grid(int(p), int(q), t)
        cases.append((random_volume(g, seed + 100), FilterSpec(min(n1, p), min(n2, q), nt, g)))
    return cases


class TestAssembleGram:
    def test_circulant_gram_formula(self):
        # the circulant Gram is T T* of the hybrid lifting with full-grid
        # spatial support, restricted to the valid-shift rows
        for vol, spec in random_gram_cases():
            g = spec.grid
            tm = build_lifted(vol, FilterSpec(g.p, g.q, spec.nt, g), "hybrid")
            got = fastops.assemble_gram_circulant(vol.data, spec).matrix
            ft, fx, fy = spec.row_indices("linear")
            rows = tm[((ft - spec.nt + 1) * g.p + fx) * g.q + fy]
            want = rows @ rows.conj().T
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_circulant_equals_exact_at_full_support(self):
        # the valid linear window of a full-grid filter is one row per
        # temporal shift, so a longer series gives more blocks to compare
        g = Grid(5, 4, 6)
        spec = FilterSpec(g.p, g.q, 2, g)
        vol = random_volume(g, 8)
        exact = dense_gram(vol, spec)
        circ = fastops.assemble_gram_circulant(vol.data, spec).matrix
        assert np.abs(exact - circ).max() <= 1e-10 * np.abs(exact).max()

    def test_degenerate_single_temporal_partition(self):
        # Nt = T, so k = 1: one block, the circulant of the summed cross-power
        g = Grid(5, 5, 3)
        spec = FilterSpec(2, 2, g.t, g)
        vol = random_volume(g, 9)
        got = fastops.assemble_gram_circulant(vol.data, spec).matrix
        assert spec.k == 1
        tm = build_lifted(vol, FilterSpec(g.p, g.q, spec.nt, g), "hybrid")
        _, fx, fy = spec.row_indices("linear")
        rows = tm[fx * g.q + fy]
        want = rows @ rows.conj().T
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("assemble", [fastops.assemble_gram_circulant])
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
            r = assemble(random_volume(g, seed).data, spec).matrix
            assert np.array_equal(r, r.conj().T)
            ev = np.linalg.eigvalsh(r)
            assert ev[0] >= -1e-10 * max(ev[-1], 0.0)

    def test_determinism(self):
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        vol = random_volume(g, 10)
        a = fastops.assemble_gram_circulant(vol.data, spec).matrix
        b = fastops.assemble_gram_circulant(vol.data, spec).matrix
        assert np.array_equal(a, b)

    def test_size_guard(self):
        # 5 frames x 62 x 62 window positions = 19,220 rows
        g = Grid(64, 64, 12)
        spec = FilterSpec(3, 3, 2, g)
        with pytest.raises(fastops.GramSizeError, match="wider filter") as info:
            fastops.assemble_gram_circulant(random_volume(g).data, spec)
        assert "restriction" not in str(info.value)

    # (grid, spatial filter) -> the bound on the circulant Gram's relative
    # Frobenius gap to the exact-support Gram of the centred spectrum, per
    # phantom kind; measured over seeds 0-3: 2e-10..4.4e-9 and 0.0086..0.0100
    # at 16, 1.6e-16..2.2e-16 and 0.0038..0.0039 at 32
    MODELING_BOUNDS = {(16, 14): {"bandlimited_exact": 1e-7, "regions_smoothed": 0.015},
                       (32, 29): {"bandlimited_exact": 1e-12, "regions_smoothed": 0.006}}

    def test_modeling_error_reported(self):
        # the paper's Toeplitz lifting is of the centred spectrum (zero
        # frequency mid-grid); anchored at the (0, 0) corner the window edge
        # splits frequencies -1 and 0, which is another matrix (gap 2.8-4.3).
        # A circular shift is a phase ramp that cancels in the cross-power,
        # so the circulant Gram is the same for both layouts
        for (n, m), bounds in self.MODELING_BOUNDS.items():
            g = Grid(n, n, 6)
            spec = FilterSpec(m, m, 2, g)
            for kind, bound in bounds.items():
                for seed in (0, 1):
                    ph = simulate.make_phantom(simulate.PhantomSpec(g, kind=kind), seed=seed)
                    kt = dft2_forward(ph.series)
                    centred = np.fft.fftshift(kt.data, axes=(0, 1))
                    circ = fastops.assemble_gram_circulant(kt.data, spec).matrix
                    assert np.array_equal(
                        circ, fastops.assemble_gram_circulant(centred, spec).matrix)
                    exact = dense_gram(KtVolume(g, centred), spec)
                    rel = np.linalg.norm(circ - exact) / np.linalg.norm(exact)
                    assert rel <= bound, (n, kind, seed, rel)
                    corner = dense_gram(kt, spec)
                    assert np.linalg.norm(circ - corner) > 2 * np.linalg.norm(corner)


def _random_bank(spec, m, seed):
    """An (m, k, M1, M2) filter bank over the valid linear window."""
    rng = np.random.default_rng(seed)
    shape = (m, spec.k, spec.m1, spec.m2)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _weight_matrix(filters):
    """H = A* A for the bank A whose rows are the flattened filters."""
    a = filters.reshape(filters.shape[0], -1)
    return a.conj().T @ a


def _bank_penalty(vol, filters, spec):
    return lifted_penalty(vol, filters, spec, spec.spatial_offset("linear"))


class TestNormalMultipliers:
    def test_one_hot_filter_fields(self):
        # the one-hot filter at tau = 1 has the single field fields[1, 1] = 1,
        # which each of the Nt = 2 temporal taps adds on the block's diagonal
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        filters = np.zeros((1, spec.k, spec.m1, spec.m2), dtype=complex)
        filters[0, 1, 0, 1] = 1.0
        block = fastops.build_normal_multipliers(_weight_matrix(filters), spec)
        want = np.zeros((g.t, g.t))
        want[1, 1] = want[2, 2] = 1.0
        assert np.abs(block - want).max() < 1e-12

    def test_profile_route_matches_literal_formula(self):
        # at Nt = 1 the per-pixel block is the k x k field matrix itself;
        # a volume nonzero in frame t alone reads out block column t
        g = Grid(8, 7, 4)
        spec = FilterSpec(4, 3, 1, g)
        rng = np.random.default_rng(12)
        filters = _random_bank(spec, 9, 12)
        h = _weight_matrix(filters)
        block = fastops.build_normal_multipliers(h, spec)
        for t in range(g.t):
            x = np.zeros(g.shape, dtype=complex)
            x[:, :, t] = rng.standard_normal(g.shape[:2]) + 1j * rng.standard_normal(g.shape[:2])
            want = _bank_penalty(KtVolume(g, x), filters, spec)[0].data
            got = fastops.apply_normal(block, x)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_collapsed_matches_direct(self):
        g = Grid(8, 8, 4)
        spec = FilterSpec(3, 3, 2, g)
        filters = _random_bank(spec, 6, 13)
        block = fastops.build_normal_multipliers(_weight_matrix(filters), spec)
        vol = random_volume(g, 14)
        got = fastops.apply_normal(block, vol.data)
        want, value = _bank_penalty(vol, filters, spec)
        assert np.abs(got - want.data).max() <= 1e-10 * np.abs(want.data).max()
        penalty = 0.5 * np.vdot(vol.data, got).real
        assert abs(penalty - value) <= 1e-10 * abs(value)

    @pytest.mark.parametrize("nt", [1, 2, 5])
    def test_image_domain_block_matches_direct(self, nt):
        # Nt = 1, 2 and T cover k = T, a small k and k = 1
        g = Grid(7, 6, 5)
        spec = FilterSpec(3, 2, nt, g)
        filters = _random_bank(spec, 4, 30 + nt)
        block = fastops.build_normal_multipliers(_weight_matrix(filters), spec)
        assert block.shape == (g.p, g.q, g.t, g.t)
        assert np.abs(block - np.conj(np.swapaxes(block, 2, 3))).max() \
            <= 1e-12 * np.abs(block).max()
        vol = random_volume(g, 31)
        z = np.fft.ifft2(vol.data, axes=(0, 1), norm="ortho")
        got = np.fft.fft2(fastops.apply_block(block, z), axes=(0, 1), norm="ortho")
        want = _bank_penalty(vol, filters, spec)[0].data
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_adjoint_property(self):
        g = Grid(7, 6, 4)
        spec = FilterSpec(3, 2, 2, g)
        block = fastops.build_normal_multipliers(_weight_matrix(_random_bank(spec, 5, 15)), spec)
        x = random_volume(g, 16).data
        y = random_volume(g, 17).data
        lhs = np.vdot(y, fastops.apply_normal(block, x))
        rhs = np.vdot(fastops.apply_normal(block, y), x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_empty_weights(self):
        g = Grid(6, 6, 3)
        spec = FilterSpec(2, 2, 2, g)
        n = spec.n_rows("linear")
        block = fastops.build_normal_multipliers(np.zeros((n, n), dtype=complex), spec)
        x = random_volume(g, 18).data
        assert np.abs(fastops.apply_normal(block, x)).max() == 0.0

    @pytest.mark.parametrize("p,q,t,n1,n2,nt", [
        (7, 6, 6, 3, 2, 3),
        (6, 5, 8, 2, 2, 4),
        (8, 8, 12, 5, 5, 10),
    ], ids=["k4_nt3", "k5_nt4", "k3_nt10"])
    def test_row_build_equals_whole_fields_to_the_bit(self, p, q, t, n1, n2, nt):
        # the reference holds all k x k fields at once and adds plane s = 0, 1, ...
        # into the block; the row-by-row build must sum in that order, or the
        # recon outputs change in their last bits
        g = Grid(p, q, t)
        spec = FilterSpec(n1, n2, nt, g)
        k = spec.k
        assert k >= 3 and nt >= 3
        h = _weight_matrix(_random_bank(spec, 7, 40 + nt))
        pair = (np.arange(k)[:, None] * k + np.arange(k)) * (p * q)
        flat = (pair[:, None, :, None] + fastops._lags(spec).T.copy()[None, :, None, :]).ravel()
        fields = np.zeros((k, k, p, q), dtype=complex)
        emb = fields.reshape(-1)
        emb.real = np.bincount(flat, weights=h.real.ravel(), minlength=emb.size)
        emb.imag = np.bincount(flat, weights=h.imag.ravel(), minlength=emb.size)
        np.fft.fft2(fields, axes=(2, 3), out=fields)
        want = np.zeros(g.shape + (t,), dtype=complex)
        planes = want.transpose(2, 3, 0, 1)
        for s in range(nt):
            planes[s : s + k, s : s + k] += fields
        assert np.array_equal(fastops.build_normal_multipliers(h, spec), want)

    def test_build_peak_memory_near_the_block(self):
        # fig5_desk's shape: 539 rows, a 9.4 MB block; one temporal row of
        # fields (0.7 MB) is held at a time, never the whole (k, k, P, Q) array
        g = Grid(64, 64, 12)
        spec = FilterSpec(58, 58, 2, g)
        n = spec.n_rows("linear")
        rng = np.random.default_rng(41)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tracemalloc.start()
        try:
            block = fastops.build_normal_multipliers(h, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * block.nbytes, (peak, block.nbytes)

    @pytest.mark.parametrize("shape", ["square_short", "not_square", "flat"])
    def test_weight_matrix_shape_checked(self, shape):
        g = Grid(6, 6, 3)
        spec = FilterSpec(2, 2, 2, g)
        n = spec.n_rows("linear")  # k * M1 * M2 = 2 * 5 * 5
        h = {
            "square_short": np.eye(n - 1),
            "not_square": np.zeros((n, n + 1)),
            "flat": np.zeros(n * n),
        }[shape]
        with pytest.raises(ValueError, match=f"weight matrix must be {n} x {n}"):
            fastops.build_normal_multipliers(h, spec)


class TestEighOverwrite:
    @pytest.fixture(scope="class")
    def grams(self):
        """A 539-row Gram of fig5_desk's shape (64x64x12, 58x58x2 filter) on a
        smoothed phantom, and an 18-row one on a random volume."""
        g = Grid(64, 64, 12)
        ph = simulate.make_phantom(simulate.PhantomSpec(g, kind="regions_smoothed"), seed=5)
        fig5 = fastops.assemble_gram_circulant(dft2_forward(ph.series).data,
                                               FilterSpec(58, 58, 2, g))
        g = Grid(4, 4, 3)
        tiny = fastops.assemble_gram_circulant(random_volume(g, 7).data, FilterSpec(2, 2, 2, g))
        return [fig5.matrix, tiny.matrix]

    def test_eigenpairs(self, grams):
        for r in grams:
            n = r.shape[0]
            w, u = fastops.eigh_overwrite(r.copy())
            ref = np.linalg.eigvalsh(r)
            assert np.all(np.diff(w) >= 0)
            assert np.abs(w - ref).max() <= 1e-13 * ref[-1]
            assert np.linalg.norm(r @ u - u * w) <= 1e-13 * np.linalg.norm(r)
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
            w_only, none = fastops.eigh_overwrite(r.copy(), vectors=False)
            assert none is None
            assert np.abs(w_only - ref).max() <= 1e-13 * ref[-1]

    def test_fallback_gives_the_same_weights(self, grams, monkeypatch):
        ref = [_weights_from_eig(*fastops.eigh_overwrite(r.copy()), 1e-3 * np.abs(r).max(), 0.6)
               for r in grams]
        monkeypatch.setattr(fastops, "_zheevr", lambda: None)
        for r, h_ref in zip(grams, ref):
            h = _weights_from_eig(*fastops.eigh_overwrite(r.copy()), 1e-3 * np.abs(r).max(), 0.6)
            assert np.abs(h - h_ref).max() <= 1e-12 * np.abs(h_ref).max()
            w, none = fastops.eigh_overwrite(r.copy(), vectors=False)
            assert none is None and np.array_equal(w, np.linalg.eigvalsh(r))

    def test_fallback_runs_irls(self, monkeypatch):
        g = Grid(8, 8, 4)
        ph = simulate.make_phantom(simulate.PhantomSpec(g, kind="regions_smoothed"), seed=1)
        mask = simulate.make_mask(g, "uniform_random", 0.5, seed=2)
        meas = simulate.simulate_measurements(dft2_forward(ph.series),
                                              simulate.make_coils(g, 1, seed=3), mask)
        spec, cfg = FilterSpec(5, 5, 2, g), SolverConfig(outer_iters=3, cg_iters=50)
        vol, report = irls_solve(meas, spec, cfg)
        monkeypatch.setattr(fastops, "_zheevr", lambda: None)
        vol_fb, report_fb = irls_solve(meas, spec, cfg)
        assert np.abs(vol_fb.data - vol.data).max() <= 1e-9 * np.abs(vol.data).max()
        for a, b in zip(report.records, report_fb.records):
            assert abs(a.objective - b.objective) <= 1e-10 * abs(a.objective)

    def test_binding_resolves_on_scipy_openblas(self):
        # numpy's bundled OpenBLAS carries LAPACKE; the fallback must not run silently
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
        if lapack == "scipy-openblas":
            assert fastops._zheevr() is not None

    def test_no_copy_of_the_gram(self, grams):
        # LAPACK works in the Gram's own buffer: the eigenvectors are the
        # only (kS)^2 array allocated
        if fastops._zheevr() is None:
            pytest.skip("no LAPACKE zheevr in numpy's LAPACK")
        r = grams[0].copy()
        tracemalloc.start()
        try:
            fastops.eigh_overwrite(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * r.nbytes

    def test_rejects_a_layout_it_would_misread(self, grams):
        if fastops._zheevr() is None:
            pytest.skip("no LAPACKE zheevr in numpy's LAPACK")
        r = grams[1]
        for bad in (np.asfortranarray(r), r[:, :-1], r.astype(np.complex64)):
            with pytest.raises(ValueError, match="C-contiguous complex128"):
                fastops.eigh_overwrite(bad)


@pytest.mark.slow
class TestComplexity:
    def test_circulant_assembly_scales_like_fft(self):
        """Doubling P, Q at fixed filter fraction should cost about 4x
        (FFT-dominated), far from the 16x of dense construction."""

        cases = []
        for p, n1 in ((64, 58), (128, 116)):
            g = Grid(p, p, 6)
            cases.append((random_volume(g, 20), FilterSpec(n1, n1, 2, g)))
        # alternate the two sizes so both see the same process state, and
        # keep the best of several runs each (the first pair warms up)
        best = [np.inf, np.inf]
        for _ in range(6):
            for i, (vol, spec) in enumerate(cases):
                t0 = time.perf_counter()
                fastops.assemble_gram_circulant(vol.data, spec)
                best[i] = min(best[i], time.perf_counter() - t0)
        t_small, t_big = best
        ratio = t_big / t_small
        print(f"circulant gram scaling 64->128: {ratio:.2f}x")
        assert ratio < 8.0
