import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from exprec.core import Grid, dft2_forward
from exprec.lifting import FilterSpec, build_lifted
from exprec import fastops, simulate, solver
from exprec.solver import (
    SolverConfig,
    SolverError,
    cg_solve,
    irls_solve,
    ls_update,
)


def weight_matrix(x, spec, p, eps):
    """The weight matrix H that irls_solve builds from the iterate ``x``."""
    return solver._weights_from_eig(*solver._gram_eig(x, spec), eps, p)


def random_volume(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


def make_problem(grid, n1=3, n2=3, nt=2, fraction=0.5, c=1, sigma=0.0, seed=0,
                 kind="bandlimited_exact", bandwidth=1, t2=(30.0, 120.0), acceleration=None):
    """A measured phantom; a uniform random mask of ``fraction``, or a
    ``vd_cartesian`` one (2x2 k-space lattice) when ``acceleration`` is given."""
    ph = simulate.make_phantom(
        simulate.PhantomSpec(grid, kind=kind, bandwidth=bandwidth, t2_low=t2[0], t2_high=t2[1]),
        seed=seed,
    )
    kt = dft2_forward(ph.series)
    coils = simulate.make_coils(grid, c, seed=seed + 1)
    if acceleration is None:
        mask = simulate.make_mask(grid, "uniform_random", fraction, seed=seed + 2)
    else:
        mask = simulate.make_mask(grid, "vd_cartesian", acceleration, seed=seed + 2,
                                  center_block=2)
    meas = simulate.simulate_measurements(kt, coils, mask, sigma=sigma, seed=seed + 3)
    return kt, meas, FilterSpec(n1, n2, nt, grid)


class TestSchattenCost:
    def test_gram_eigenvalue_route_matches_svd(self):
        # the solver's regularizer at eps = 0 is the Schatten cost
        # (1/p) sum_i sigma_i^p, and sigma_i^p = lam_i^{p/2}; exact zeros of
        # the rank-deficient Gram are thresholded on both routes since
        # x^{p/2} amplifies roundoff at 0
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        vol = random_volume(g, 3)
        tm = build_lifted(vol, spec, "linear")
        sv = np.linalg.svd(tm, compute_uv=False)
        lam = np.linalg.eigvalsh(tm @ tm.conj().T)
        p = 0.7
        sv = sv[sv > 1e-6 * sv.max()]
        lam = lam[lam > 1e-12 * lam.max()]
        a = float(np.sum(sv**p) / p)
        b = solver._smoothed_reg(lam, 0.0, p)
        assert abs(a - b) <= 1e-8 * abs(a)


class TestWeightMath:
    def test_four_times_identity(self):
        # R = 4I, eps = 0, p = 1: H = 0.5 I and H^(1/2) = I / sqrt(2)
        eigvals = np.array([4.0, 4.0])
        eigvecs = np.eye(2, dtype=complex)
        h = solver._weights_from_eig(eigvals, eigvecs, 0.0, 1.0)
        assert np.allclose(h, 0.5 * np.eye(2), atol=1e-14)
        half = eigvecs * eigvals ** (1.0 / 4.0 - 0.5)
        assert np.allclose(np.abs(half), np.eye(2) / np.sqrt(2.0), atol=1e-14)
        assert np.allclose(half @ half.conj().T, h, atol=1e-14)

    @pytest.mark.parametrize("p", [0.4, 1.0, 1.6])
    def test_identity_gram_fixed_point(self, p):
        h = solver._weights_from_eig(np.ones(2), np.eye(2, dtype=complex), 0.0, p)
        assert np.allclose(h, np.eye(2), atol=1e-14)

    def test_reconstruction_matches_dense_power(self):
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        x = random_volume(g, 5)
        p, eps = 0.6, 0.1
        got = weight_matrix(x, spec, p=p, eps=eps)
        r = fastops.assemble_gram_circulant(x, spec).matrix
        lam, u = np.linalg.eigh(r)
        want = (u * (np.clip(lam, 0, None) + eps) ** (p / 2.0 - 1.0)) @ u.conj().T
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_negative_eps_rejected(self):
        g = Grid(4, 4, 3)
        spec = FilterSpec(2, 2, 2, g)
        with pytest.raises(ValueError):
            weight_matrix(random_volume(g), spec, p=0.6, eps=-1.0)

    def test_eigen_identity_at_current_iterate(self):
        # sum_i ||A_i x||^2 == sum_j lam_j (lam_j + eps)^(p/2 - 1)
        g = Grid(8, 8, 4)
        spec = FilterSpec(3, 3, 2, g)
        x = random_volume(g, 7)
        p, eps = 0.6, 0.05
        h = weight_matrix(x, spec, p=p, eps=eps)
        block = fastops.build_normal_multipliers(h, spec)
        lhs = np.vdot(x, fastops.apply_normal(block, x)).real
        r = fastops.assemble_gram_circulant(x, spec).matrix
        lam = np.clip(np.linalg.eigvalsh(r), 0.0, None)
        rhs = float(np.sum(lam * (lam + eps) ** (p / 2.0 - 1.0)))
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_majorization_identity_explicit(self):
        # Tr(T* H T) == sum_i ||h_i T||^2 for the explicit lifted matrix
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        x = random_volume(g, 8)
        t = build_lifted(x, spec, "linear")
        lam, u = np.linalg.eigh(t @ t.conj().T)
        h = solver._weights_from_eig(lam, u, 0.1, 0.6)
        lhs = float(np.trace(t.conj().T @ h @ t).real)
        # H^(1/2) from the same eigenpairs: rows h_i = (lam_i + eps)^(p/4 - 1/2) u_i*
        half = ((np.clip(lam, 0.0, None) + 0.1) ** (0.6 / 4.0 - 0.5))[:, None] * u.conj().T
        rhs = float(np.linalg.norm(half @ t) ** 2)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestCg:
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

    @pytest.mark.parametrize("n,decades,seed", [(100, 6, 3), (400, 6, 20)])
    def test_residual_humps_run_to_tol(self, n, decades, seed):
        # on an ill-conditioned positive definite system CG's residual norm
        # climbs for many iterations at a time; CG must still reach tol
        d = np.logspace(0, decades, n)
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        want = rhs / d
        res = cg_solve(lambda v: d * v, rhs, tol=1e-10, maxiter=40 * n)
        assert res.stop == "tol"
        assert np.linalg.norm(res.x - want) <= 1e-9 * np.linalg.norm(want)

    def test_jacobi_preconditioner_on_badly_scaled_system(self):
        m, rhs = self._spd()
        scale = np.logspace(-3, 3, m.shape[0])
        m = scale[:, None] * m * scale[None, :]
        want = np.linalg.solve(m, rhs)
        plain = cg_solve(lambda v: m @ v, rhs, tol=1e-10, maxiter=5000)
        pre = cg_solve(lambda v: m @ v, rhs, tol=1e-10, maxiter=5000,
                       inv_diag=1.0 / np.diag(m).real)
        assert pre.stop == "tol"
        assert pre.rel_residual <= 1e-10
        assert np.linalg.norm(pre.x - want) <= 1e-8 * np.linalg.norm(want)
        assert pre.iters < plain.iters

    def test_warm_start_freed_once_copied(self):
        # a warm start made for the call (multi-coil CG's image-domain one)
        # must not stay alive through the iterations
        m, rhs = self._spd()
        refs, alive = [], []

        def warm():
            w = 0.5 * rhs
            refs.append(weakref.ref(w))
            return w

        def op(v):
            alive.append(refs[0]() is not None)
            return m @ v

        res = cg_solve(op, rhs, x0=warm(), tol=1e-10, maxiter=300)
        assert res.stop == "tol" and alive and not any(alive)

    def test_rhs_freed_after_first_residual(self):
        # a right-hand side made for the call is read for its norm and the
        # first residual only, and must not stay alive through the iterations
        m, rhs = self._spd()
        refs, alive = [], []

        def made():
            b = rhs.copy()
            refs.append(weakref.ref(b))
            return b

        def op(v):
            alive.append(refs[0]() is not None)
            return m @ v

        res = cg_solve(op, made(), tol=1e-10, maxiter=300)
        assert res.stop == "tol" and len(alive) > 1
        assert alive[0] and not any(alive[1:])

    @staticmethod
    def _cg_without_forcing(op, rhs, x0, tol, maxiter, inv_diag=None):
        """(x, iters, stop) of cg_solve's loop as it was before the forcing term."""
        def precondition(r, rs):
            if inv_diag is None:
                return r, rs
            z = inv_diag * r
            return z, float(np.vdot(r, z).real)

        rhs_norm = float(np.linalg.norm(rhs))
        x = np.zeros_like(rhs) if x0 is None else x0.astype(np.complex128, copy=True)
        r = rhs - op(x)
        rs = float(np.vdot(r, r).real)
        z, rz = precondition(r, rs)
        pdir, res, it = z.copy(), rs**0.5, 0
        while res / rhs_norm > tol and it < maxiter:
            ap = op(pdir)
            denom = float(np.vdot(pdir, ap).real)
            if denom <= 0:
                return x, it, "nonpositive_curvature"
            alpha = rz / denom
            x += alpha * pdir
            ap *= alpha
            r -= ap
            rs_new = float(np.vdot(r, r).real)
            res = rs_new**0.5
            z, rz_new = precondition(r, rs_new)
            pdir *= rz_new / rz
            pdir += z
            rz = rz_new
            it += 1
        return x, it, "tol" if res / rhs_norm <= tol else "maxiter"

    @pytest.mark.parametrize("jacobi", [False, True])
    def test_zero_forcing_is_the_exact_solve(self, jacobi):
        # forcing 0 leaves cg_solve's iterates untouched, bit for bit
        m, rhs = self._spd()
        inv_diag = 1.0 / np.diag(m).real if jacobi else None
        warm = 0.3 * rhs
        pre = {} if inv_diag is None else {"inv_diag": inv_diag}
        res = cg_solve(lambda v: m @ v, rhs, x0=warm, tol=1e-10, maxiter=300, forcing=0.0, **pre)
        x, iters, stop = self._cg_without_forcing(lambda v: m @ v, rhs, warm, 1e-10, 300,
                                                  inv_diag)
        assert (res.iters, res.stop) == (iters, stop) == (iters, "tol")
        assert res.x.tobytes() == x.tobytes()

    @pytest.mark.parametrize("eta", [1e-3, 1e-1])
    def test_forcing_stops_relative_to_warm_start(self, eta):
        m, rhs = self._spd()
        rng = np.random.default_rng(30)
        warm = np.linalg.solve(m, rhs) + 1e-3 * (rng.standard_normal(20)
                                                 + 1j * rng.standard_normal(20))
        r0_rel = np.linalg.norm(rhs - m @ warm) / np.linalg.norm(rhs)
        exact = cg_solve(lambda v: m @ v, rhs, x0=warm, tol=1e-12, maxiter=300)
        res = cg_solve(lambda v: m @ v, rhs, x0=warm, tol=1e-12, maxiter=300, forcing=eta)
        assert res.r0_rel == pytest.approx(r0_rel, rel=1e-10) and r0_rel > 1e-12
        assert exact.r0_rel == res.r0_rel
        assert res.stop == "tol" and 1 <= res.iters < exact.iters
        assert res.rel_residual <= max(1e-12, eta * res.r0_rel)
        # a warm start already within tol takes no step, whatever the forcing
        done = cg_solve(lambda v: m @ v, rhs, x0=exact.x, tol=1e-10, forcing=eta)
        assert done.r0_rel <= 1e-10 and (done.iters, done.stop) == (0, "tol")

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
        block = fastops.build_normal_multipliers(np.zeros((spec.n_rows("linear"),) * 2), spec)
        vol = ls_update(block, meas, lam=3.0, cg_iters=50, cg_tol=1e-12).x
        assert np.abs(vol - meas.b[0]).max() <= 1e-10 * np.abs(meas.b).max()

    def test_empty_weights_mask_operator(self):
        g = Grid(8, 8, 3)
        kt, meas, spec = make_problem(g, fraction=0.5, c=1)
        block = fastops.build_normal_multipliers(np.zeros((spec.n_rows("linear"),) * 2), spec)
        vol = ls_update(block, meas, lam=2.0, cg_iters=50, cg_tol=1e-12).x
        m = meas.mask
        scale = np.abs(meas.b).max()
        assert np.abs(vol[m] - meas.b[0][m]).max() <= 1e-10 * scale
        assert np.abs(vol[~m]).max() <= 1e-10 * scale

    def test_cg_matches_dense_oracle(self):
        # one uniform coil and C = 3 coils, the latter on a uniform random mask
        # and on a 2x2-lattice one: every data-term path of the CG operator.
        # The dense data term is the literal full-size FFT formula, not the
        # simulate operators the solver shares.
        g = Grid(8, 8, 4)

        def literal_adjoint(b, maps, mask):
            img = sum(np.conj(s)[:, :, None] * np.fft.ifft2(mask * bc, axes=(0, 1), norm="ortho")
                      for s, bc in zip(maps, b))
            return np.fft.fft2(img, axes=(0, 1), norm="ortho")

        def literal_normal(x, maps, mask):
            img = np.fft.ifft2(x, axes=(0, 1), norm="ortho")
            b = [np.fft.fft2(s[:, :, None] * img, axes=(0, 1), norm="ortho") for s in maps]
            return literal_adjoint(b, maps, mask)

        for c, seed, accel in ((1, 4, None), (3, 7, None), (3, 7, 6.0)):
            kt, meas, spec = make_problem(g, fraction=0.5, c=c, seed=seed, acceleration=accel)
            h = weight_matrix(kt, spec, p=0.6, eps=0.1)
            lam = 7.0
            block = fastops.build_normal_multipliers(h, spec)

            def op(x):
                ata = literal_normal(x, meas.maps, meas.mask)
                return fastops.apply_normal(block, x) + lam * ata

            n = g.p * g.q * g.t
            dense = np.zeros((n, n), dtype=complex)
            for j in range(n):
                e = np.zeros(n, dtype=complex)
                e[j] = 1.0
                dense[:, j] = op(e.reshape(g.shape)).ravel()
            rhs = lam * literal_adjoint(meas.b, meas.maps, meas.mask)
            want = np.linalg.solve(dense, rhs.ravel()).reshape(g.shape)
            cg = ls_update(block, meas, lam, cg_iters=3000, cg_tol=1e-13)
            assert cg.stop == "tol"
            assert np.linalg.norm(cg.x - want) <= 1e-8 * np.linalg.norm(want)

    def test_quadratic_never_worse_than_warm_start(self):
        g = Grid(8, 8, 4)
        for c in (1, 3):
            kt, meas, spec = make_problem(g, fraction=0.4, c=c, seed=5)
            h = weight_matrix(random_volume(g, 11), spec, p=0.6, eps=0.3)
            lam = 2.0
            block = fastops.build_normal_multipliers(h, spec)

            def objective(x):
                resid = simulate.forward(x, meas.maps, meas.mask) - meas.b
                penalty = 0.5 * np.vdot(x, fastops.apply_normal(block, x)).real
                return penalty + 0.5 * lam * float(np.vdot(resid, resid).real)

            warm = random_volume(g, 12)
            res = ls_update(block, meas, lam, warm_start=warm, cg_iters=40, cg_tol=1e-10)
            assert objective(res.x) <= objective(warm) * (1 + 1e-10) + 1e-10

    def test_single_coil_preconditioner_cuts_iterations(self):
        # the k-space Jacobi preconditioner against plain CG on the same operator
        g = Grid(8, 8, 4)
        kt, meas, spec = make_problem(g, fraction=0.3, c=1, seed=0)
        h = weight_matrix(kt, spec, p=0.6, eps=0.1)
        lam = 7.0
        block = fastops.build_normal_multipliers(h, spec)
        mask = meas.mask
        plain = cg_solve(
            lambda x: fastops.apply_normal(block, x) + lam * mask * x,
            lam * mask * meas.b[0],
            tol=1e-10,
            maxiter=3000,
        )
        cg = ls_update(block, meas, lam, cg_iters=3000, cg_tol=1e-10)
        assert plain.stop == "tol" and cg.stop == "tol"
        assert cg.rel_residual <= 1e-10
        assert cg.iters < plain.iters
        assert np.linalg.norm(cg.x - plain.x) <= 1e-8 * np.linalg.norm(plain.x)

    def _problem(self, c):
        g = Grid(8, 8, 4)
        kt, meas, spec = make_problem(g, fraction=0.4, c=c, seed=6,
                                      acceleration=None if c == 1 else 4.0)
        block = fastops.build_normal_multipliers(weight_matrix(kt, spec, p=0.6, eps=0.1), spec)
        lam, warm = 3.0, 0.5 * kt
        res = ls_update(block, meas, lam, warm_start=warm, cg_iters=300, cg_tol=1e-10,
                        cg_forcing=1e-3)
        return meas, block, lam, warm, res

    def test_one_coil_matches_fused_operator_bitwise(self):
        # one uniform coil: the data term adjoint(apply(v)) times lam gives the
        # bits of the fused lam * mask * v, under the same Jacobi preconditioner
        meas, block, lam, warm, res = self._problem(1)
        mask = meas.mask
        ref = cg_solve(lambda v: fastops.apply_normal(block, v) + (lam * mask) * v,
                       lam * meas.zerofill(), x0=warm, tol=1e-10, maxiter=300,
                       inv_diag=solver._jacobi_inverse(block, lam * mask), forcing=1e-3)
        assert (res.iters, res.stop) == (ref.iters, ref.stop) and res.iters > 0
        assert res.x.tobytes() == ref.x.tobytes()

    def test_multi_coil_matches_unpreconditioned_operator_bitwise(self):
        # 3 coils on a 2x2 lattice: image-domain CG with no preconditioner
        meas, block, lam, warm, res = self._problem(3)
        a = meas.sampling
        ref = cg_solve(lambda v: lam * a.adjoint(a.apply(v)) + fastops.apply_block(block, v),
                       lam * meas.zerofill(), x0=a.to_domain(warm), tol=1e-10, maxiter=300,
                       forcing=1e-3)
        assert (res.iters, res.stop) == (ref.iters, ref.stop) and res.iters > 0
        assert res.x.tobytes() == a.to_kspace(ref.x).tobytes()

    @pytest.mark.parametrize("c", [1, 3])
    def test_rhs_not_held_through_cg(self, c):
        # neither ls_update nor cg_solve keeps lam A* b once CG has its first residual
        g = Grid(8, 8, 4)
        kt, meas, spec = make_problem(g, fraction=0.5, c=c, seed=4,
                                      acceleration=None if c == 1 else 4.0)
        block = fastops.build_normal_multipliers(
            weight_matrix(kt, spec, p=0.6, eps=0.1), spec)
        make_rhs, apply_block = solver._rhs, fastops.apply_block
        refs, alive = [], []

        def made(*args):
            b = make_rhs(*args)
            refs.append(weakref.ref(b))
            return b

        def watched(block, z):  # the penalty term of every CG operator call
            alive.append(refs[0]() is not None)
            return apply_block(block, z)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_rhs", made)
            mp.setattr(fastops, "apply_block", watched)
            res = ls_update(block, meas, 2.0, warm_start=kt, cg_iters=20)
        assert res.iters > 0 and len(alive) == res.iters + 1
        assert alive[0] and not any(alive[1:])

    def test_non_finite_inputs_named(self):
        # one uniform coil (k-space CG) and C = 3 coils (image-domain CG)
        g = Grid(8, 8, 4)
        for c in (1, 3):
            kt, meas, spec = make_problem(g, fraction=0.5, c=c, seed=6)
            block = fastops.build_normal_multipliers(
                weight_matrix(kt, spec, p=0.6, eps=0.1), spec)
            warm = kt.copy()
            warm[1, 2, 3] = np.nan
            with pytest.raises(ValueError, match="warm_start"):
                ls_update(block, meas, 2.0, warm_start=warm, cg_iters=5)
            b = meas.b.copy()
            b[c - 1][meas.mask] = np.nan
            bad = simulate.Measurements(b=b, mask=meas.mask, maps=meas.maps)
            with pytest.raises(ValueError, match="meas.b"):
                ls_update(block, bad, 2.0, warm_start=kt, cg_iters=5)


    @pytest.mark.parametrize("c", [1, 3])
    def test_zero_forcing_is_the_exact_solve(self, c):
        # ls_update at cg_forcing 0 runs the CG loop as it was before the
        # forcing term, bit for bit: the same iterations and the same volume
        g = Grid(8, 8, 4)
        kt, meas, spec = make_problem(g, fraction=0.5, c=c, seed=4,
                                      acceleration=None if c == 1 else 4.0)
        block = fastops.build_normal_multipliers(weight_matrix(kt, spec, p=0.6, eps=0.1), spec)
        warm = 0.5 * kt

        def without_forcing(op, rhs, x0=None, tol=1e-8, maxiter=200, inv_diag=None,
                            forcing=0.0):
            assert forcing == 0.0
            x, iters, stop = TestCg._cg_without_forcing(op, rhs, x0, tol, maxiter, inv_diag)
            return solver.CgResult(x, iters, float("nan"), stop, float("nan"))

        res = ls_update(block, meas, 2.0, warm_start=warm, cg_iters=300, cg_tol=1e-10,
                        cg_forcing=0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "cg_solve", without_forcing)
            ref = ls_update(block, meas, 2.0, warm_start=warm, cg_iters=300, cg_tol=1e-10)
        assert (res.iters, res.stop) == (ref.iters, ref.stop) == (ref.iters, "tol")
        assert res.x.tobytes() == ref.x.tobytes()


class TestGradient:
    def test_penalty_gradient_matches_finite_differences(self):
        g = Grid(6, 6, 4)
        spec = FilterSpec(3, 3, 2, g)
        x = random_volume(g, 13)
        block = fastops.build_normal_multipliers(
            weight_matrix(random_volume(g, 14), spec, p=0.6, eps=0.2), spec
        )

        def f(v):
            return 0.5 * np.vdot(v, fastops.apply_normal(block, v)).real

        grad = fastops.apply_normal(block, x)  # Wirtinger gradient: df = Re<grad, dx>
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
        err = np.linalg.norm(vol - meas.b[0]) / np.linalg.norm(meas.b)
        assert err <= 1e-4
        assert len(report.records) == 1

    @pytest.mark.parametrize("c", [1, 3])
    def test_objective_monotone_at_fixed_eps_over_seeds(self, c):
        # three coils run the image-domain CG, on a 2x2-lattice mask
        g = Grid(8, 8, 4)
        accel = None if c == 1 else 4.0
        for seed in range(10):
            kt, meas, spec = make_problem(g, fraction=0.5, c=c, seed=seed,
                                          kind="regions_smoothed", acceleration=accel)
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
            fastops.assemble_gram_circulant(kt, spec).matrix
        )[-1]
        block = fastops.build_normal_multipliers(
            weight_matrix(kt, spec, p=0.6, eps=1e-9 * lam_max), spec)
        vol = ls_update(block, meas, lam=1e6, cg_iters=3000, cg_tol=1e-13).x
        err = np.linalg.norm(vol - kt) / np.linalg.norm(kt)
        assert err <= 1e-3

    def test_cold_start_substantially_beats_zero_fill(self):
        g, kt, meas, spec = self._bandlimited_instance()
        zf = simulate.adjoint(meas.b, meas.maps, meas.mask)
        err_zf = np.linalg.norm(zf - kt) / np.linalg.norm(kt)
        cfg = SolverConfig(p=0.6, lam=1e6, eps_decay=0.9, outer_iters=60,
                           cg_iters=400, cg_tol=1e-9)
        vol, _ = irls_solve(meas, spec, cfg)
        err = np.linalg.norm(vol - kt) / np.linalg.norm(kt)
        assert err < 0.25 * err_zf

    @pytest.mark.parametrize("c", [1, 3])
    def test_eigenvectors_and_weights_freed_before_cg(self, c):
        # a 320-row Gram: its eigenvectors and the weight matrix are 1.6 MB
        # each, against 0.15 MB for the penalty block and 25 kB per volume.
        # At CG's entry only the block and a few volumes may be live.
        g = Grid(16, 16, 6)
        kt, meas, spec = make_problem(g, n1=9, n2=9, nt=2, c=c, seed=3,
                                      acceleration=None if c == 1 else 4.0)
        n = spec.n_rows("linear")
        assert n >= 300
        live = []
        cg = solver.cg_solve

        def spy(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            return cg(*args, **kwargs)

        cfg = SolverConfig(p=0.6, lam=10.0, outer_iters=1, cg_iters=5, cg_tol=1e-8)
        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "cg_solve", spy)
                irls_solve(meas, spec, cfg)
        finally:
            tracemalloc.stop()
        block_bytes = g.p * g.q * g.t * g.t * 16
        assert len(live) == 1
        assert live[0] - block_bytes < 0.5 * n * n * 16, (live, block_bytes, n)

    @pytest.mark.parametrize("c", [1, 3])
    def test_last_step_takes_eigenvalues_only(self, c):
        # the Gram after the last CG feeds only the objective, so no
        # eigenvectors are computed there; the record matches a run that has them
        g = Grid(8, 8, 4)
        _, meas, spec = make_problem(g, fraction=0.5, c=c, seed=2, kind="regions_smoothed",
                                     acceleration=None if c == 1 else 4.0)
        cfg = SolverConfig(p=0.6, lam=10.0, outer_iters=3, cg_iters=100, cg_tol=1e-10)
        eig = fastops.eigh_overwrite
        asked = []

        def spy(a, vectors=True):
            asked.append(vectors)
            return eig(a, vectors)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fastops, "eigh_overwrite", spy)
            _, report = irls_solve(meas, spec, cfg)
            mp.setattr(fastops, "eigh_overwrite", lambda a, vectors=True: eig(a))
            _, full = irls_solve(meas, spec, cfg)
        assert asked == [True] * cfg.outer_iters + [False]
        last, ref = report.records[-1], full.records[-1]
        for name in ("objective", "reg_term"):
            got, want = getattr(last, name), getattr(ref, name)
            assert abs(got - want) <= 1e-12 * abs(want), name

    @pytest.mark.skipif(fastops._zheevr() is None, reason="no LAPACKE zheevr in numpy's LAPACK")
    def test_non_finite_gram_fails_at_once(self):
        # LAPACKE rejects a NaN Gram before decomposing it; np.linalg.eigh
        # returned NaNs and the failure surfaced later, in the objective
        g = Grid(8, 8, 4)
        x = random_volume(g, 21)
        x[3, 4, 1] = np.nan
        spec = FilterSpec(5, 5, 2, g)
        with pytest.raises(SolverError, match="Gram failed: .*non-finite"):
            weight_matrix(x, spec, p=0.6, eps=0.1)
        with pytest.raises(SolverError, match="Gram failed at outer step 4: .*non-finite"):
            solver._gram_eig(x, spec, 4)

    @pytest.mark.parametrize("c", [1, 3])
    def test_steps_stop_on_the_forcing_term(self, c):
        # each outer step's CG ends at CG_FORCING times its warm start's
        # residual, or at cg_tol if that is larger, and so takes fewer
        # iterations over the run than CG run to cg_tol
        g = Grid(8, 8, 4)
        _, meas, spec = make_problem(g, fraction=0.5, c=c, seed=2, kind="regions_smoothed",
                                     acceleration=None if c == 1 else 4.0)
        cfg = SolverConfig(p=0.6, lam=10.0, outer_iters=6, cg_iters=150, cg_tol=1e-10)
        _, report = irls_solve(meas, spec, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "CG_FORCING", 0.0)
            _, exact = irls_solve(meas, spec, cfg)
        for rec in report.records:
            assert rec.cg_stop == "tol"
            assert rec.cg_r0_rel > cfg.cg_tol and rec.cg_iters >= 1
            assert rec.cg_rel_residual <= max(cfg.cg_tol, solver.CG_FORCING * rec.cg_r0_rel)
        iters = [sum(r.cg_iters for r in rep.records) for rep in (report, exact)]
        assert iters[0] < iters[1], iters

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


class TestSamplesOnly:
    """A reconstruction holds the measurements as their lattice samples: with 4
    coils on a 2x2 lattice those fill a quarter of the (C, P, Q, T) grid, and
    no (C, P, Q, T) array is kept or built on the way."""

    def problem(self):
        g = Grid(32, 32, 6)
        kt, meas, spec = make_problem(g, c=4, acceleration=4.0, seed=3, n1=3, n2=3)
        assert meas.sampling.step == (2, 2)
        return g, kt, meas

    def test_measurements_keep_no_full_size_array(self):
        g, _, meas = self.problem()
        full = 4 * g.p * g.q * g.t
        assert meas.samples.size == full // 4
        assert [name for name, value in vars(meas).items()
                if np.size(value) == full] == []
        assert meas.b.shape == (4, *g.shape)  # derived on demand

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 the caller's frame "
                        "keeps a temporary argument alive, so apply cannot free it")
    def test_data_residual_holds_two_sample_volumes(self):
        # the image-domain volume and its tiled copy, then the tiled copy and
        # the samples; a (C, P, Q, T) residual alone would be four volumes
        g, kt, meas = self.problem()
        x = 1.1 * kt
        want = simulate.forward(x, meas.maps, meas.mask) - meas.b
        solver._data_residual_sq(x, meas)  # FFT plans are made on the first call
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = solver._data_residual_sq(x, meas)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * meas.samples.nbytes, peak / meas.samples.nbytes
        assert abs(got - np.vdot(want, want).real) <= 1e-12 * got
