"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The desk-scale
reconstruction criteria (4 and 5) drive the real CLI pipeline and take a
few minutes; everything else is seconds.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from exprec import fastops, ktar, mapping, simulate, solver
from exprec.cli import main as cli_main
from exprec.config import load_preset
from exprec.core import Grid, dft2_forward, dft2_inverse
from exprec.lifting import FilterSpec, annihilation_certificate, build_lifted, lifted_penalty


def run_cli(*argv):
    return cli_main([str(a) for a in argv])


def weight_matrix(x, spec, p, eps):
    """The weight matrix H that irls_solve builds from the iterate ``x``."""
    return solver._weights_from_eig(*solver._gram_eig(x, spec), eps, p)


def test_criterion_1_oracle_equivalence():
    """The kernels recon runs match the explicit lifted-matrix oracle on 50 instances."""
    rng = np.random.default_rng(17)
    t0 = time.perf_counter()
    worst_gram = 0.0
    worst_penalty = 0.0
    for case in range(50):
        p = int(rng.integers(3, 9))
        q = int(rng.integers(3, 9))
        t = int(rng.integers(2, 5))
        g = Grid(p, q, t)
        spec = FilterSpec(
            int(rng.integers(1, min(3, p) + 1)),
            int(rng.integers(1, min(3, q) + 1)),
            int(rng.integers(1, min(2, t) + 1)),
            g,
        )
        vol = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)

        # circulant Gram: T T* of the full-support hybrid lifting on the
        # valid linear rows
        t_full = build_lifted(vol, FilterSpec(p, q, spec.nt, g), "hybrid")
        ft, fx, fy = spec.row_indices("linear")
        rows = t_full[((ft - spec.nt + 1) * p + fx) * q + fy]
        ref = rows @ rows.conj().T
        gram = fastops.assemble_gram_circulant(vol, spec).matrix
        worst_gram = max(worst_gram, np.linalg.norm(gram - ref) / np.linalg.norm(ref))

        # collapsed penalty of H = A* A against the dense filter bank A
        shape = (3, spec.k, spec.m1, spec.m2)
        bank = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a = bank.reshape(shape[0], -1)
        block = fastops.build_normal_multipliers(a.conj().T @ a, spec)
        want = lifted_penalty(vol, bank, spec, spec.spatial_offset("linear"))[0]
        got = fastops.apply_normal(block, vol)
        worst_penalty = max(worst_penalty, np.linalg.norm(got - want) / np.linalg.norm(want))
    elapsed = time.perf_counter() - t0
    assert worst_gram <= 1e-10, f"assemble_gram_circulant mismatch {worst_gram:.2e}"
    assert worst_penalty <= 1e-10, f"collapsed penalty mismatch {worst_penalty:.2e}"
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"
    print(f"[PASS] criterion 1: oracle equivalence on 50 instances "
          f"(gram {worst_gram:.1e}, penalty {worst_penalty:.1e}, {elapsed:.1f} s)")


def test_criterion_2_annihilation_low_rank():
    """Exact bandlimited phantom is annihilated; nullity grows with support."""
    g = Grid(10, 10, 5)
    ph = simulate.make_phantom(
        simulate.PhantomSpec(g, l=1, kind="bandlimited_exact", bandwidth=1,
                             t2_low=30.0, t2_high=150.0),
        seed=21,
    )
    kt = dft2_forward(ph.series)
    # minimal support for bandwidth 1, L = 1: 3 x 3 spatial, 2 temporal
    tight = annihilation_certificate(kt, FilterSpec(3, 3, 2, g), "hybrid", tol=1e-8)
    ratio = tight.sigma_min / tight.sigma_max
    assert ratio <= 1e-8, f"sigma ratio {ratio:.2e}"
    assert tight.nullity_est >= 1

    big = annihilation_certificate(kt, FilterSpec(5, 5, 3, g), "hybrid", tol=1e-8)
    embeddings = (5 - 3 + 1) * (5 - 3 + 1) * (3 - 2 + 1)
    assert big.nullity_est >= embeddings, (big.nullity_est, embeddings)
    print(f"[PASS] criterion 2: annihilation (sigma ratio {ratio:.1e}), nullity "
          f"{tight.nullity_est} -> {big.nullity_est} >= {embeddings} under support growth")


@pytest.mark.parametrize("seed", [21, 3, 7])
def test_criterion_2_two_exponentials_need_temporal_length_3(seed):
    """L = 2 exponentials per pixel: a temporal filter of length L + 1 = 3
    annihilates the exact bandlimited phantom, and length 2 does not."""
    g = Grid(16, 16, 8)
    ph = simulate.make_phantom(
        simulate.PhantomSpec(g, l=2, kind="bandlimited_exact", bandwidth=2,
                             t2_low=30.0, t2_high=150.0),
        seed=seed,
    )
    kt = dft2_forward(ph.series)
    short = annihilation_certificate(kt, FilterSpec(5, 5, 2, g), "hybrid", tol=1e-8)
    assert short.nullity_est == 0
    assert short.sigma_min / short.sigma_max > 1e-5  # measured 1.1e-3 to 1.7e-3
    exact = annihilation_certificate(kt, FilterSpec(5, 5, 3, g), "hybrid", tol=1e-8)
    assert exact.nullity_est >= 1
    assert exact.sigma_min / exact.sigma_max <= 1e-12  # measured at most 2.7e-16


def test_criterion_3_irls_correctness():
    """Majorization identity, monotonicity, CG oracle, gradient check."""
    g = Grid(8, 8, 4)
    spec = FilterSpec(3, 3, 2, g)
    rng = np.random.default_rng(23)
    x = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)

    # (a) majorization identity Tr(T* H T) = sum_i ||h_i T||^2, with the
    # rows h_i of H^(1/2) formed here from the same eigenpairs as H
    t_lin = build_lifted(x, spec, "linear")
    lam_r, u_r = np.linalg.eigh(t_lin @ t_lin.conj().T)
    h = solver._weights_from_eig(lam_r, u_r, 0.1, 0.6)
    half = ((np.clip(lam_r, 0.0, None) + 0.1) ** (0.6 / 4.0 - 0.5))[:, None] * u_r.conj().T
    lhs = float(np.trace(t_lin.conj().T @ h @ t_lin).real)
    rhs = float(np.linalg.norm(half @ t_lin) ** 2)
    rel_a = abs(lhs - rhs) / abs(rhs)
    assert rel_a <= 1e-8

    # (b) smoothed objective non-increasing at fixed eps over 10 seeds
    for seed in range(10):
        ph = simulate.make_phantom(
            simulate.PhantomSpec(g, kind="regions_smoothed", bandwidth=2), seed=seed)
        kt = dft2_forward(ph.series)
        coils = simulate.make_coils(g, 1, seed=seed)
        mask = simulate.make_mask(g, "uniform_random", 0.5, seed=seed + 50)
        meas = simulate.simulate_measurements(kt, coils, mask, sigma=0.01, seed=seed)
        cfg = solver.SolverConfig(p=0.6, lam=10.0, outer_iters=5, cg_iters=150, cg_tol=1e-10)
        _, report = solver.irls_solve(meas, spec, cfg)
        for rec in report.records:
            assert rec.objective <= rec.objective_warm * (1 + 1e-6) + 1e-12

    # (c) CG matches the dense normal-equation oracle
    ph = simulate.make_phantom(simulate.PhantomSpec(g, kind="regions_smoothed"), seed=77)
    kt = dft2_forward(ph.series)
    coils = simulate.make_coils(g, 1, seed=78)
    mask = simulate.make_mask(g, "uniform_random", 0.5, seed=79)
    meas = simulate.simulate_measurements(kt, coils, mask)
    h2 = weight_matrix(kt, spec, p=0.6, eps=0.1)
    lam = 5.0
    block = fastops.build_normal_multipliers(h2, spec)

    def op(v):
        ata = simulate.adjoint(simulate.forward(v, coils, mask), coils, mask)
        return fastops.apply_normal(block, v) + lam * ata

    n = g.p * g.q * g.t
    dense = np.zeros((n, n), dtype=complex)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        dense[:, j] = op(e.reshape(g.shape)).ravel()
    rhs_vec = lam * simulate.adjoint(meas.b, coils, mask)
    direct = np.linalg.solve(dense, rhs_vec.ravel()).reshape(g.shape)
    vol_cg = solver.ls_update(block, meas, lam, cg_iters=4000, cg_tol=1e-13).x
    rel_c = np.linalg.norm(vol_cg - direct) / np.linalg.norm(direct)
    assert rel_c <= 1e-8

    # (d) finite-difference gradient check at 20 coordinates
    block_g = fastops.build_normal_multipliers(
        weight_matrix(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape),
                      spec, p=0.6, eps=0.2),
        spec,
    )
    grad = fastops.apply_normal(block_g, x)
    h = 1e-6 * np.linalg.norm(x) / np.sqrt(x.size)
    worst_d = 0.0
    for _ in range(20):
        idx = tuple(rng.integers(0, s) for s in x.shape)
        for delta in (h, 1j * h):
            xp, xm = x.copy(), x.copy()
            xp[idx] += delta
            xm[idx] -= delta
            fp = 0.5 * np.vdot(xp, fastops.apply_normal(block_g, xp)).real
            fm = 0.5 * np.vdot(xm, fastops.apply_normal(block_g, xm)).real
            num = (fp - fm) / (2 * h)
            want = (grad[idx] * np.conj(delta / h)).real
            worst_d = max(worst_d, abs(num - want) / max(abs(num), 1.0))
    assert worst_d <= 1e-5
    print(f"[PASS] criterion 3: IRLS correctness (majorization {rel_a:.1e}, "
          f"monotone over 10 seeds, CG vs dense {rel_c:.1e}, gradient {worst_d:.1e})")


@pytest.fixture(scope="module")
def fig5_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig5")
    t0 = time.perf_counter()
    assert run_cli("simulate", "--config", "preset:fig5_desk", "--out", out) == 0
    for method in ("zerofill", "ktlr", "proposed"):
        assert run_cli("recon", "--config", "preset:fig5_desk", "--out", out,
                       "--method", method) in (0, 2)
        assert run_cli("fit", "--config", "preset:fig5_desk", "--out", out,
                       "--method", method) == 0
        assert run_cli("eval", "--config", "preset:fig5_desk", "--out", out,
                       "--method", method) == 0
    elapsed = time.perf_counter() - t0
    rows = {}
    for line in (out / "metrics.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        rows[parts[0]] = {"snr_db": float(parts[1]), "nrmse": float(parts[2]),
                          "t2_mae_ms": float(parts[3])}
    return out, rows, elapsed


def test_criterion_4_fig5_desk_margins(fig5_pipeline):
    """Proposed beats zero-fill by >= 6 dB and the k-t low-rank baseline."""
    out, rows, elapsed = fig5_pipeline
    snr_p = rows["proposed"]["snr_db"]
    snr_z = rows["zerofill"]["snr_db"]
    snr_k = rows["ktlr"]["snr_db"]
    mae_p = rows["proposed"]["t2_mae_ms"]
    mae_k = rows["ktlr"]["t2_mae_ms"]
    assert snr_p >= snr_z + 6.0, f"proposed {snr_p:.2f} vs zerofill {snr_z:.2f}"
    assert snr_p >= snr_k, f"proposed {snr_p:.2f} vs ktlr {snr_k:.2f}"
    assert mae_p <= mae_k, f"T2 MAE proposed {mae_p:.1f} vs ktlr {mae_k:.1f}"
    assert elapsed <= 600.0, f"fig5 pipeline took {elapsed:.0f} s"
    print(f"[PASS] criterion 4: fig5 desk analogue (proposed {snr_p:.2f} dB, "
          f"zerofill {snr_z:.2f} dB, ktlr {snr_k:.2f} dB; T2 MAE {mae_p:.1f} vs "
          f"{mae_k:.1f} ms; {elapsed:.0f} s)")


def test_fig6_desk_multi_coil_margins(tmp_path):
    """Four coils, end to end: proposed beats ktlr by >= 6 dB, lower T2 MAE.

    fig6_desk shortened to 8 outer steps at eps decay 0.35.  Over the preset
    seed and seeds 1-7 the SNR margin over ktlr was 8.18-9.79 dB, and the
    proposed T2 MAE at most 0.49 of ktlr's; the preset seed runs here.
    """
    doc = load_preset("fig6_desk").doc
    doc["solver"].update(outer_iters=8, eps_decay=0.35)
    cfg_path = tmp_path / "fig6_short.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "fig6"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    for method in ("ktlr", "proposed"):
        assert run_cli("recon", "--config", cfg_path, "--out", out,
                       "--method", method) in (0, 2)
        for command in ("fit", "eval"):
            assert run_cli(command, "--config", cfg_path, "--out", out, "--method", method) == 0
    rows = {}
    for line in (out / "metrics.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        rows[parts[0]] = (float(parts[1]), float(parts[3]))
    (snr_k, mae_k), (snr_p, mae_p) = rows["ktlr"], rows["proposed"]
    assert snr_p >= snr_k + 6.0, f"proposed {snr_p:.2f} vs ktlr {snr_k:.2f} dB"
    assert mae_p < mae_k, f"T2 MAE proposed {mae_p:.2f} vs ktlr {mae_k:.2f} ms"
    print(f"[PASS] fig6 multi-coil: proposed {snr_p:.2f} dB vs ktlr {snr_k:.2f} dB; "
          f"T2 MAE {mae_p:.2f} vs {mae_k:.2f} ms")


def test_criterion_5_temporal_filter_trend(tmp_path):
    """Temporal filter length Nt >= 2 beats the Nt = 1 joint-sparsity filter."""
    base = load_preset("table1_desk").doc
    snrs = {}
    for nt in (1, 2, 4):
        doc = json.loads(json.dumps(base))
        doc["filter"]["nt"] = nt
        cfg_path = tmp_path / f"table1_nt{nt}.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / f"nt{nt}"
        assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
        assert run_cli("recon", "--config", cfg_path, "--out", out,
                       "--method", "proposed") in (0, 2)
        _, phantom = ktar.read_array(out / "phantom.ktar")
        _, recon = ktar.read_array(out / "recon_proposed.ktar")
        snrs[nt] = mapping.snr_db(phantom, dft2_inverse(recon))
    assert snrs[2] > snrs[1], snrs
    assert snrs[4] > snrs[1], snrs
    print(f"[PASS] criterion 5: temporal trend SNR(Nt=1) = {snrs[1]:.2f} dB < "
          f"SNR(Nt=2) = {snrs[2]:.2f} dB, SNR(Nt=4) = {snrs[4]:.2f} dB")


def test_criterion_6_noiseless_pipeline_exact(tmp_path):
    """Fully sampled noiseless pipeline reproduces ground-truth T2 maps."""
    doc = {
        "seed": 31,
        "grid": {"p": 16, "q": 16, "t": 8, "dt_ms": 10.0},
        "phantom": {"kind": "regions_smoothed", "l": 1, "bandwidth": 2,
                    "t2_low": 45.0, "t2_high": 200.0},
        "coils": {"count": 1},
        "mask": {"kind": "uniform_random", "fraction": 1.0},
        "noise": {"sigma": 0.0},
        "filter": {"n1": 13, "n2": 13, "nt": 2},
        "solver": {"outer_iters": 2, "cg_iters": 50},
    }
    cfg_path = tmp_path / "exact.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "exact"
    assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
    assert run_cli("recon", "--config", cfg_path, "--out", out, "--method", "zerofill") == 0
    assert run_cli("fit", "--config", cfg_path, "--out", out, "--method", "zerofill") == 0
    assert run_cli("eval", "--config", cfg_path, "--out", out, "--method", "zerofill") == 0
    _, t2_fit = ktar.read_array(out / "t2_zerofill.ktar")
    _, t2_true = ktar.read_array(out / "truth_t2.ktar")
    _, amp = ktar.read_array(out / "truth_amp.ktar")
    support = np.abs(amp[0]) > 0
    err = np.abs(t2_fit[support] - t2_true[0][support]).max()
    assert err <= 1e-8, f"T2 map error {err:.2e} ms"
    snr_field = (out / "metrics.csv").read_text().splitlines()[1].split(",")[1]
    assert snr_field == "inf"
    print(f"[PASS] criterion 6: noiseless full pipeline exact "
          f"(max T2 error {err:.1e} ms, snr_db sentinel '{snr_field}')")


def test_criterion_7_determinism(tmp_path):
    """Reruns with identical config and seed are byte-identical."""
    doc = {
        "seed": 41,
        "grid": {"p": 16, "q": 16, "t": 6, "dt_ms": 10.0},
        "phantom": {"kind": "regions_smoothed", "l": 1, "bandwidth": 2,
                    "t2_low": 45.0, "t2_high": 200.0},
        "coils": {"count": 2},
        "mask": {"kind": "uniform_random", "fraction": 0.5},
        "noise": {"sigma": 0.01},
        "filter": {"n1": 13, "n2": 13, "nt": 2},
        "solver": {"p": 0.6, "lam": 1000.0, "eps_decay": 0.8, "outer_iters": 6,
                   "cg_iters": 100, "cg_tol": 1e-08},
        "ktlr": {"mu_rel": 0.02, "iters": 30},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(doc))
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert run_cli("simulate", "--config", cfg_path, "--out", out) == 0
        for method in ("zerofill", "ktlr", "proposed"):
            assert run_cli("recon", "--config", cfg_path, "--out", out,
                           "--method", method) in (0, 2)
            assert run_cli("fit", "--config", cfg_path, "--out", out,
                           "--method", method) == 0
            assert run_cli("render", "--config", cfg_path, "--out", out,
                           "--method", method) == 0
    checked = 0
    for path in sorted(outs[0].rglob("*")):
        if path.suffix not in (".ktar", ".pgm"):
            continue
        twin = outs[1] / path.relative_to(outs[0])
        assert path.read_bytes() == twin.read_bytes(), f"{path.name} differs"
        checked += 1
    assert checked >= 12
    print(f"[PASS] criterion 7: determinism ({checked} KTAR/PGM files byte-identical)")
