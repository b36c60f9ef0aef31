import numpy as np
import pytest

from exprec.core import Grid, KtVolume, dft2_forward
from exprec.lifting import FilterSpec, build_lifted
from exprec import fastops, simulate, solver
from exprec.solver import (
    CgDivergenceError,
    SolverConfig,
    SolverError,
    WeightSet,
    cg_solve,
    irls_solve,
    ls_update,
    schatten_cost,
    weight_update,
)


def random_volume(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


def make_problem(grid, n1=3, n2=3, nt=2, fraction=0.5, c=1, sigma=0.0, seed=0,
                 kind="bandlimited_exact", bandwidth=1, t2=(30.0, 120.0)):
    ph = simulate.make_phantom(
        simulate.PhantomSpec(grid, kind=kind, bandwidth=bandwidth, t2_low=t2[0], t2_high=t2[1]),
        seed=seed,
    )
    kt = dft2_forward(ph.series)
    coils = simulate.make_coils(grid, c, seed=seed + 1)
    mask = simulate.make_mask(grid, "uniform_random", fraction, seed=seed + 2)
    meas = simulate.simulate_measurements(kt, coils, mask, sigma=sigma, seed=seed + 3)
    return kt, meas, FilterSpec(n1, n2, nt, grid)


class TestSchattenCost:
    def test_p1_is_sum(self):
        assert schatten_cost([3.0, 4.0], 1.0) == pytest.approx(7.0)

    def test_p2_is_half_energy(self):
        assert schatten_cost([3.0, 4.0], 2.0) == pytest.approx(12.5)

    def test_p_half_closed_form(self):
        assert schatten_cost([3.0, 4.0], 0.5) == pytest.approx(2.0 * (np.sqrt(3.0) + 2.0))

    def test_negative_sv_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            schatten_cost([1.0, -0.1], 1.0)

    def test_p_range(self):
        with pytest.raises(ValueError):
            schatten_cost([1.0], 2.5)

    def test_gram_eigenvalue_route_matches_svd(self):
        # sigma_i^p = lam_i^{p/2}; exact zeros of the rank-deficient Gram are
        # thresholded on both routes since x^{p/2} amplifies roundoff at 0
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        vol = KtVolume(g, random_volume(g, 3))
        sv = np.linalg.svd(build_lifted(vol, spec, "linear").matrix, compute_uv=False)
        lam = np.linalg.eigvalsh(fastops.assemble_gram(vol, spec, "valid_linear").matrix)
        p = 0.7
        sv = sv[sv > 1e-6 * sv.max()]
        lam = lam[lam > 1e-12 * lam.max()]
        a = schatten_cost(sv, p)
        b = float(np.sum(lam ** (p / 2.0)) / p)
        assert abs(a - b) <= 1e-8 * abs(a)


class TestWeightMath:
    def test_four_times_identity(self):
        # R = 4I, eps = 0, p = 1: H = 0.5 I and H^(1/2) = I / sqrt(2)
        g = Grid(2, 1, 2)
        spec = FilterSpec(2, 1, 1, g)  # |Gamma| = 2 rows in valid_linear? keep shapes simple
        eigvals = np.array([4.0, 4.0])
        eigvecs = np.eye(2, dtype=complex)
        w = solver._weights_from_eig(eigvals, eigvecs, 0.0, 1.0, spec, "valid_linear")
        h = w.weight_matrix()
        assert np.allclose(h, 0.5 * np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(w.half_matrix()), np.eye(2) / np.sqrt(2.0), atol=1e-14)

    @pytest.mark.parametrize("p", [0.4, 1.0, 1.6])
    def test_identity_gram_fixed_point(self, p):
        g = Grid(2, 1, 2)
        spec = FilterSpec(2, 1, 1, g)
        w = solver._weights_from_eig(np.ones(2), np.eye(2, dtype=complex), 0.0, p, spec,
                                     "valid_linear")
        assert np.allclose(w.weight_matrix(), np.eye(2), atol=1e-14)

    def test_reconstruction_matches_dense_power(self):
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        x = random_volume(g, 5)
        p, eps = 0.6, 0.1
        w = weight_update(x, spec, p=p, eps=eps, gram="circulant")
        r = fastops.assemble_gram_circulant(x, spec, "valid_linear").matrix
        lam, u = np.linalg.eigh(r)
        want = (u * (np.clip(lam, 0, None) + eps) ** (p / 2.0 - 1.0)) @ u.conj().T
        got = w.weight_matrix()
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_exact_gram_option(self):
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        x = random_volume(g, 6)
        w = weight_update(x, spec, p=1.0, eps=0.2, gram="exact")
        r = fastops.assemble_gram(x, spec, "valid_linear").matrix
        lam, u = np.linalg.eigh(r)
        want = (u * (np.clip(lam, 0, None) + 0.2) ** (-0.5)) @ u.conj().T
        assert np.linalg.norm(w.weight_matrix() - want) <= 1e-8 * np.linalg.norm(want)

    def test_negative_eps_rejected(self):
        g = Grid(4, 4, 3)
        spec = FilterSpec(2, 2, 2, g)
        with pytest.raises(ValueError):
            weight_update(random_volume(g), spec, p=0.6, eps=-1.0)

    def test_eigen_identity_at_current_iterate(self):
        # sum_i ||A_i x||^2 == sum_j lam_j (lam_j + eps)^(p/2 - 1)
        g = Grid(8, 8, 4)
        spec = FilterSpec(3, 3, 2, g)
        x = random_volume(g, 7)
        p, eps = 0.6, 0.05
        w = weight_update(x, spec, p=p, eps=eps)
        mult = fastops.build_normal_multipliers(w, spec)
        lhs = 2.0 * fastops.penalty_value(mult, x)
        lam = w.eigenvalues
        rhs = float(np.sum(lam * (lam + eps) ** (p / 2.0 - 1.0)))
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_majorization_identity_explicit(self):
        # Tr(T* H T) == sum_i ||h_i T||^2 for the explicit lifted matrix
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        x = random_volume(g, 8)
        w = weight_update(x, spec, p=0.6, eps=0.1, gram="exact")
        t = build_lifted(KtVolume(g, x), spec, "linear").matrix
        h = w.weight_matrix()
        lhs = float(np.trace(t.conj().T @ h @ t).real)
        half = w.half_matrix()
        rhs = float(np.linalg.norm(half @ t) ** 2)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestCg:
    def test_diverges_on_broken_operator(self):
        # strongly non-normal operator: positive Hermitian part keeps CG
        # stepping while the residual climbs without bound
        rng = np.random.default_rng(9)
        n = 32
        skew = rng.standard_normal((n, n))
        skew = skew - skew.T
        m = np.eye(n) + 40.0 * skew
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        with pytest.raises(CgDivergenceError) as info:
            cg_solve(lambda v: m @ v, rhs, tol=1e-12, maxiter=500)
        assert info.value.iterate is not None
        assert len(info.value.residuals) > 10

    def test_solves_spd_system(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        m = a.conj().T @ a + 0.5 * np.eye(20)
        rhs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        res = cg_solve(lambda v: m @ v, rhs, tol=1e-12, maxiter=300)
        assert np.linalg.norm(m @ res.x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @staticmethod
    def _spd(n=20, seed=10):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return a.conj().T @ a + 0.5 * np.eye(n), rhs

    def test_stop_tol(self):
        m, rhs = self._spd()
        res = cg_solve(lambda v: m @ v, rhs, tol=1e-10, maxiter=300)
        assert res.stop == "tol"
        assert res.rel_residual <= 1e-10

    def test_stop_maxiter(self):
        m, rhs = self._spd()
        res = cg_solve(lambda v: m @ v, rhs, tol=1e-12, maxiter=3)
        assert res.stop == "maxiter"
        assert res.iters == 3
        assert res.rel_residual > 1e-12

    def test_stop_nonpositive_curvature(self):
        _, rhs = self._spd()
        res = cg_solve(lambda v: -v, rhs, tol=1e-12, maxiter=50)
        assert res.stop == "nonpositive_curvature"
        assert res.iters == 0

    def test_stop_stagnation(self):
        # rotation-like operator: the residual climbs mildly, never 10x its best
        m = np.array([[1.0, -1.0], [1.0, 1.0]])
        res = cg_solve(lambda v: m @ v, np.array([1.0 + 0j, 0.5]), tol=1e-12, maxiter=500)
        assert res.stop == "stagnation"
        assert res.iters < 500

    def test_stop_zero_rhs(self):
        m, rhs = self._spd()
        res = cg_solve(lambda v: m @ v, np.zeros_like(rhs), x0=rhs, tol=1e-12)
        assert res.stop == "zero_rhs"
        assert res.iters == 0
        assert not res.x.any()


class TestLsUpdate:
    def test_empty_weights_identity_operator(self):
        g = Grid(8, 8, 3)
        kt, meas, spec = make_problem(g, fraction=1.0, c=1)
        w = WeightSet.empty(spec)
        vol, _ = ls_update(w, meas, lam=3.0, cg_iters=50, cg_tol=1e-12)
        assert np.abs(vol.data - meas.b[0]).max() <= 1e-10 * np.abs(meas.b).max()

    def test_empty_weights_mask_operator(self):
        g = Grid(8, 8, 3)
        kt, meas, spec = make_problem(g, fraction=0.5, c=1)
        w = WeightSet.empty(spec)
        vol, _ = ls_update(w, meas, lam=2.0, cg_iters=50, cg_tol=1e-12)
        m = meas.mask.mask
        scale = np.abs(meas.b).max()
        assert np.abs(vol.data[m] - meas.b[0][m]).max() <= 1e-10 * scale
        assert np.abs(vol.data[~m]).max() <= 1e-10 * scale

    def test_cg_matches_dense_oracle(self):
        # one uniform coil and C = 3 coils: both data-term paths of the CG operator
        g = Grid(8, 8, 4)
        for c, seed in ((1, 4), (3, 7)):
            kt, meas, spec = make_problem(g, fraction=0.5, c=c, seed=seed)
            w = weight_update(kt.data, spec, p=0.6, eps=0.1)
            lam = 7.0
            mult = fastops.build_normal_multipliers(w, spec)

            def op(x):
                vol = KtVolume(g, x)
                ata = simulate.adjoint(
                    simulate.forward(vol, meas.coils, meas.mask), meas.coils, meas.mask, g
                ).data
                return fastops.apply_normal(mult, x) + lam * ata

            n = g.p * g.q * g.t
            dense = np.zeros((n, n), dtype=complex)
            for j in range(n):
                e = np.zeros(n, dtype=complex)
                e[j] = 1.0
                dense[:, j] = op(e.reshape(g.shape)).ravel()
            rhs = lam * simulate.adjoint(meas.b, meas.coils, meas.mask, g).data
            want = np.linalg.solve(dense, rhs.ravel()).reshape(g.shape)
            vol, cg = ls_update(w, meas, lam, cg_iters=3000, cg_tol=1e-13)
            assert cg.stop == "tol"
            assert np.linalg.norm(vol.data - want) <= 1e-8 * np.linalg.norm(want)

    def test_quadratic_never_worse_than_warm_start(self):
        g = Grid(8, 8, 4)
        for c in (1, 3):
            kt, meas, spec = make_problem(g, fraction=0.4, c=c, seed=5)
            w = weight_update(random_volume(g, 11), spec, p=0.6, eps=0.3)
            lam = 2.0
            mult = fastops.build_normal_multipliers(w, spec)

            def objective(x):
                vol = KtVolume(g, x)
                resid = simulate.forward(vol, meas.coils, meas.mask) - meas.b
                return fastops.penalty_value(mult, x) + 0.5 * lam * float(
                    np.vdot(resid, resid).real
                )

            warm = random_volume(g, 12)
            vol, _ = ls_update(w, meas, lam, warm_start=warm, cg_iters=40, cg_tol=1e-10)
            assert objective(vol.data) <= objective(warm) * (1 + 1e-10) + 1e-10

    def test_non_finite_inputs_named(self):
        g = Grid(8, 8, 4)
        kt, meas, spec = make_problem(g, fraction=0.5, c=3, seed=6)
        w = weight_update(kt.data, spec, p=0.6, eps=0.1)
        warm = kt.data.copy()
        warm[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="warm_start"):
            ls_update(w, meas, 2.0, warm_start=warm, cg_iters=5)
        b = meas.b.copy()
        b[2][meas.mask.mask] = np.nan
        bad = simulate.Measurements(b=b, mask=meas.mask, coils=meas.coils)
        with pytest.raises(ValueError, match="meas.b"):
            ls_update(w, bad, 2.0, warm_start=kt.data, cg_iters=5)


class TestGradient:
    def test_penalty_gradient_matches_finite_differences(self):
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        x = random_volume(g, 13)
        w = weight_update(random_volume(g, 14), spec, p=0.6, eps=0.2)
        mult = fastops.build_normal_multipliers(w, spec)

        def f(v):
            return fastops.penalty_value(mult, v)

        grad = fastops.apply_normal(mult, x)  # Wirtinger gradient: df = Re<grad, dx>
        rng = np.random.default_rng(15)
        h = 1e-6 * np.linalg.norm(x) / np.sqrt(x.size)
        for _ in range(20):
            idx = tuple(rng.integers(0, s) for s in x.shape)
            for delta in (h, 1j * h):
                xp = x.copy()
                xm = x.copy()
                xp[idx] += delta
                xm[idx] -= delta
                num = (f(xp) - f(xm)) / (2 * h)
                want = grad[idx] * np.conj(delta / h)
                assert abs(num - want.real) <= 1e-5 * max(abs(num), 1.0)


class TestIrls:
    def test_large_lambda_matches_data_after_one_iteration(self):
        g = Grid(8, 8, 4)
        kt, meas, spec = make_problem(g, fraction=1.0, c=1, seed=6)
        cfg = SolverConfig(p=0.6, lam=1e6, outer_iters=1, cg_iters=300, cg_tol=1e-12)
        vol, report = irls_solve(meas, spec, cfg)
        err = np.linalg.norm(vol.data - meas.b[0]) / np.linalg.norm(meas.b)
        assert err <= 1e-4
        assert len(report.records) == 1

    def test_objective_monotone_at_fixed_eps_over_seeds(self):
        g = Grid(8, 8, 4)
        for seed in range(10):
            kt, meas, spec = make_problem(g, fraction=0.5, seed=seed, kind="regions_smoothed")
            cfg = SolverConfig(p=0.6, lam=10.0, outer_iters=6, cg_iters=150, cg_tol=1e-10)
            _, report = irls_solve(meas, spec, cfg)
            for rec in report.records:
                assert rec.objective <= rec.objective_warm * (1 + 1e-6) + 1e-12

    @staticmethod
    def _bandlimited_instance():
        # deterministic identifiable instance: noiseless bandlimited L=1
        # phantom, 50 percent uniform mask, desk scale
        g = Grid(16, 16, 8)
        ph = simulate.make_phantom(
            simulate.PhantomSpec(
                g, kind="bandlimited_exact", bandwidth=1, t2_low=30.0, t2_high=120.0
            ),
            seed=5,
        )
        kt = dft2_forward(ph.series)
        coils = simulate.make_coils(g, 1, seed=1)
        mask = simulate.make_mask(g, "uniform_random", 0.5, seed=9)
        meas = simulate.simulate_measurements(kt, coils, mask, sigma=0.0)
        return g, kt, meas, FilterSpec(13, 13, 2, g)

    def test_truth_is_recoverable_fixed_point(self):
        # weights computed at the exact phantom drive a single least-squares
        # solve back to it: recovery error far below 1e-3
        g, kt, meas, spec = self._bandlimited_instance()
        lam_max = np.linalg.eigvalsh(
            fastops.assemble_gram_circulant(kt.data, spec, "valid_linear").matrix
        )[-1]
        w = weight_update(kt.data, spec, p=0.6, eps=1e-9 * lam_max)
        vol, _ = ls_update(w, meas, lam=1e6, cg_iters=3000, cg_tol=1e-13)
        err = np.linalg.norm(vol.data - kt.data) / np.linalg.norm(kt.data)
        assert err <= 1e-3

    def test_cold_start_substantially_beats_zero_fill(self):
        g, kt, meas, spec = self._bandlimited_instance()
        zf = simulate.adjoint(meas.b, meas.coils, meas.mask, g).data
        err_zf = np.linalg.norm(zf - kt.data) / np.linalg.norm(kt.data)
        cfg = SolverConfig(p=0.6, lam=1e6, eps_decay=0.9, outer_iters=60,
                           cg_iters=400, cg_tol=1e-9)
        vol, _ = irls_solve(meas, spec, cfg)
        err = np.linalg.norm(vol.data - kt.data) / np.linalg.norm(kt.data)
        assert err < 0.25 * err_zf

    def test_init_override(self):
        g, kt, meas, spec = self._bandlimited_instance()
        lam_max = np.linalg.eigvalsh(
            fastops.assemble_gram_circulant(kt.data, spec, "valid_linear").matrix
        )[-1]
        cfg = SolverConfig(p=0.6, lam=1e6, eps0=1e-9 * lam_max, eps_decay=0.5,
                           outer_iters=2, cg_iters=2000, cg_tol=1e-12)
        vol, _ = irls_solve(meas, spec, cfg, init=kt)
        err = np.linalg.norm(vol.data - kt.data) / np.linalg.norm(kt.data)
        assert err <= 1e-4  # the exact phantom is a fixed point at small eps

    def test_report_csv_schema(self, tmp_path):
        g = Grid(8, 8, 4)
        kt, meas, spec = make_problem(g, fraction=0.5, seed=8)
        cfg = SolverConfig(p=0.6, lam=10.0, outer_iters=3, cg_iters=50, cg_tol=1e-8)
        _, report = irls_solve(meas, spec, cfg)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,eps,objective,data_term,reg_term,cg_iters,seconds"
        assert len(lines) == len(report.records) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        rec = report.records[0]
        assert float(first[2]) == pytest.approx(rec.objective)
        assert abs(rec.objective - (rec.data_term + rec.reg_term)) <= 1e-9 * rec.objective

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(p=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lam=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(eps_decay=1.0)

    def test_shape_mismatch(self):
        g = Grid(8, 8, 4)
        kt, meas, spec = make_problem(g, fraction=0.5)
        other = FilterSpec(2, 2, 2, Grid(6, 6, 4))
        with pytest.raises(ValueError):
            irls_solve(meas, other, SolverConfig())
