import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import exprec
from exprec import ktar
from exprec.cli import main

TINY = {
    "seed": 11,
    "grid": {"p": 16, "q": 16, "t": 6, "dt_ms": 10.0},
    "phantom": {"kind": "regions_smoothed", "l": 1, "bandwidth": 2,
                "t2_low": 45.0, "t2_high": 200.0},
    "coils": {"count": 1},
    "mask": {"kind": "uniform_random", "fraction": 0.5},
    "noise": {"sigma": 0.0},
    "filter": {"n1": 13, "n2": 13, "nt": 2},
    "solver": {"p": 0.6, "lam": 1000.0, "eps_decay": 0.8, "outer_iters": 8,
               "cg_iters": 150, "cg_tol": 1e-08},
    "ktlr": {"mu_rel": 0.02, "iters": 40},
}


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestPipeline:
    def test_full_pipeline(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        assert run("simulate", "--config", tiny_config, "--out", out) == 0
        for name in ("phantom", "truth_t2", "truth_amp", "coils", "mask", "meas"):
            assert (out / f"{name}.ktar").exists()
        header, phantom = ktar.read_array(out / "phantom.ktar")
        assert header.shape == (16, 16, 6)
        assert "config_hash" in header.meta

        code = run("recon", "--config", tiny_config, "--out", out, "--method", "zerofill")
        assert code == 0
        assert run("recon", "--config", tiny_config, "--out", out, "--method", "ktlr") == 0
        assert (out / "report_ktlr.csv").exists()
        code = run("recon", "--config", tiny_config, "--out", out, "--method", "proposed")
        assert code in (0, 2)
        report = (out / "report_proposed.csv").read_text().splitlines()
        assert report[0] == "iter,eps,objective,data_term,reg_term,cg_iters,seconds"

        for method in ("zerofill", "ktlr", "proposed"):
            assert run("fit", "--config", tiny_config, "--out", out, "--method", method) == 0
            assert run("eval", "--config", tiny_config, "--out", out, "--method", method) == 0
            assert run("render", "--config", tiny_config, "--out", out, "--method", method) == 0
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "label,snr_db,nrmse,t2_mae_ms,wall_seconds,config_hash"
        assert len(metrics) == 4
        rows = {line.split(",")[0]: float(line.split(",")[1]) for line in metrics[1:]}
        assert rows["proposed"] > rows["zerofill"]

        render = out / "renders" / "proposed_t2.pgm"
        assert render.exists()
        blob = render.read_bytes()
        assert blob.startswith(b"P5\n")
        assert (out / "renders" / "proposed_t2.pgm.txt").read_text().startswith("label")

    def test_cg_stops_short_of_tol_are_reported(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TINY))
        cfg["solver"]["cg_iters"] = 1
        path = tmp_path / "short_cg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run("simulate", "--config", path, "--out", out) == 0
        capsys.readouterr()
        assert run("recon", "--config", path, "--out", out, "--method", "proposed") in (0, 2)
        steps = len((out / "report_proposed.csv").read_text().splitlines()) - 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"exprec: CG did not reach cg_tol in {steps} of {steps} steps "
                       f"(maxiter {steps})"]

    def test_loose_cg_tol_does_not_claim_convergence(self, tmp_path):
        # with cg_tol 1e-2 the warm start already meets it, so CG takes 0
        # iterations and the objective does not move; that is no convergence
        # while eps is still decaying
        cfg = json.loads(json.dumps(TINY))
        cfg["solver"]["cg_tol"] = 1e-2
        for coils in (1, 2):
            cfg["coils"]["count"] = coils
            path = tmp_path / f"loose_cg_{coils}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"out_{coils}"
            assert run("simulate", "--config", path, "--out", out) == 0
            assert run("recon", "--config", path, "--out", out, "--method", "proposed") == 2
            steps = len((out / "report_proposed.csv").read_text().splitlines()) - 1
            assert steps == cfg["solver"]["outer_iters"], coils

    def test_phantom_and_mask_commands(self, tmp_path, tiny_config):
        out = tmp_path / "o2"
        assert run("phantom", "--config", tiny_config, "--out", out) == 0
        assert (out / "truth_t2.ktar").exists()
        assert run("mask", "--config", tiny_config, "--out", out) == 0
        _, mask = ktar.read_array(out / "mask.ktar")
        assert mask.shape == (16, 16, 6)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_determinism_byte_identical(self, tmp_path, tiny_config):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert run("simulate", "--config", tiny_config, "--out", out) == 0
            assert run("recon", "--config", tiny_config, "--out", out,
                       "--method", "zerofill") == 0
            assert run("fit", "--config", tiny_config, "--out", out,
                       "--method", "zerofill") == 0
            assert run("render", "--config", tiny_config, "--out", out,
                       "--method", "zerofill") == 0
        for rel in ("phantom.ktar", "meas.ktar", "recon_zerofill.ktar",
                    "t2_zerofill.ktar", "renders/zerofill_mag000.pgm",
                    "renders/zerofill_t2.pgm"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_recon_byte_identical_across_blas_threads(self, tmp_path):
        # a 252-row Gram, which OpenBLAS decomposes differently at 1 and 2
        # threads; the CLI pins one thread before numpy loads
        doc = json.loads(json.dumps(TINY))
        doc["grid"].update(p=32, q=32, t=8)
        doc["coils"]["count"] = 2
        doc["filter"].update(n1=27, n2=27, nt=2)
        doc["solver"]["outer_iters"] = 3
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        assert run("simulate", "--config", config, "--out", tmp_path) == 0
        src = str(Path(exprec.__file__).parent.parent)
        hashes = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src,
                   "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
            argv = [sys.executable, "-m", "exprec.cli", "recon", "--config", str(config),
                    "--out", str(tmp_path)]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert proc.returncode == 2, proc.stderr
            hashes.append(hashlib.sha256((tmp_path / "recon_proposed.ktar").read_bytes()).digest())
        assert hashes[0] == hashes[1]

    def test_seed_changes_outputs(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run("simulate", "--config", tiny_config, "--out", out1) == 0
        assert run("simulate", "--config", tiny_config, "--out", out2, "--seed", "12") == 0
        assert (out1 / "meas.ktar").read_bytes() != (out2 / "meas.ktar").read_bytes()

    def test_preset_reference(self, tmp_path):
        out = tmp_path / "p"
        assert run("mask", "--config", "preset:fig5_desk", "--out", out) == 0
        _, mask = ktar.read_array(out / "mask.ktar")
        assert mask.shape == (64, 64, 12)
        assert int(mask[:, :, 0].sum()) == 1229  # round(0.3 * 64 * 64)


class TestErrors:
    def test_unknown_method_is_usage_error(self, tmp_path, tiny_config):
        with pytest.raises(SystemExit) as info:
            run("recon", "--config", tiny_config, "--out", tmp_path, "--method", "alpha")
        assert info.value.code == 64

    def test_unknown_command_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("transmogrify", "--config", "x", "--out", tmp_path)
        assert info.value.code == 64

    def test_threads_flag_is_usage_error(self, tmp_path, tiny_config):
        # the CLI pins BLAS to one thread before numpy loads; no flag sets it
        with pytest.raises(SystemExit) as info:
            run("recon", "--config", tiny_config, "--out", tmp_path, "--threads", "1")
        assert info.value.code == 64

    @pytest.mark.parametrize("kind", ["absent", "directory", "not_utf8"])
    def test_missing_config_file(self, tmp_path, kind, capsys):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"\xff\xfe{}")
        assert run("simulate", "--config", path, "--out", tmp_path / "o") == 65
        assert "internal error" not in capsys.readouterr().err

    def test_seed_range_is_u64(self, tmp_path, tiny_config, capsys):
        top = 2**64 - 1
        assert run("simulate", "--config", tiny_config, "--out", tmp_path / "a",
                   "--seed", top) == 0
        capsys.readouterr()
        assert run("simulate", "--config", tiny_config, "--out", tmp_path / "b",
                   "--seed", top + 1) == 65
        assert "/seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [None, 5], ids=["no_seed", "seed_5"])
    @pytest.mark.parametrize("text", ["[]", '"x"'], ids=["list", "string"])
    def test_non_object_config_is_data_error(self, tmp_path, text, seed, capsys):
        # the --seed override must not index into the doc before its type is checked
        path = tmp_path / "config.json"
        path.write_text(text)
        argv = ["simulate", "--config", path, "--out", tmp_path / "o"]
        assert run(*argv, *(["--seed", seed] if seed is not None else [])) == 65
        err = capsys.readouterr().err
        assert "is not of type 'object'" in err and "internal error" not in err

    @pytest.mark.parametrize("section,key,value", [
        ("solver", "outer_iters", 2.0),
        ("grid", "p", 16.0),
        ("ktlr", "iters", 3.0),
        (None, "seed", 11.0),
        ("coils", "count", 1.0),
    ], ids=["outer_iters", "grid_p", "ktlr_iters", "seed", "coil_count"])
    def test_integral_float_at_integer_key_is_data_error(self, tmp_path, section, key, value,
                                                          capsys):
        # 2.0 is a JSON number but no integer; accepted, it crashed range() or
        # hashed apart from 2
        bad = json.loads(json.dumps(TINY))
        (bad[section] if section else bad)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        pointer = f"/{section}/{key}" if section else f"/{key}"
        for command in ("phantom", "mask", "simulate", "recon", "fit", "eval", "render"):
            assert run(command, "--config", path, "--out", tmp_path / "o") == 65
            err = capsys.readouterr().err
            assert f"{pointer}: {value!r} is not of type 'integer'" in err, (command, err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("noise", "sigma", float("nan")),
        ("solver", "lam", float("inf")),
        ("ktlr", "mu_rel", float("nan")),
        ("mask", "acceleration", float("inf")),
        ("grid", "dt_ms", float("-inf")),
    ], ids=["sigma_nan", "lam_inf", "mu_rel_nan", "acceleration_inf", "dt_ms_minus_inf"])
    def test_non_finite_config_number_is_data_error(self, tmp_path, section, key, value,
                                                    capsys):
        # json reads NaN and Infinity, and range checks written as comparisons
        # let them through: accepted, they surfaced as exit 0 or 70
        bad = json.loads(json.dumps(TINY))
        if key == "acceleration":
            bad["mask"] = {"kind": "vd_cartesian", "acceleration": value}
        else:
            bad[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "o"
        for argv in (["simulate"], ["recon", "--method", "proposed"],
                     ["recon", "--method", "ktlr"], ["fit", "--method", "ktlr"]):
            assert run(*argv, "--config", path, "--out", out) == 65, argv
            err = capsys.readouterr().err
            assert f"/{section}/{key}: {value!r} is not finite" in err, (argv, err)
        assert not out.exists()

    @pytest.mark.parametrize("name,command", [
        ("meas.ktar", "recon"),
        ("coils.ktar", "recon"),
        ("recon_zerofill.ktar", "fit"),
    ], ids=["meas", "coils", "recon"])
    def test_non_finite_payload_is_data_error(self, tmp_path, tiny_config, name, command,
                                              capsys):
        out = tmp_path / "o"
        assert run("simulate", "--config", tiny_config, "--out", out) == 0
        assert run("recon", "--config", tiny_config, "--out", out, "--method", "zerofill") == 0
        header, data = ktar.read_array(out / name)
        data = data.copy()
        data.flat[5] = np.nan
        ktar.write_array(out / name, data, meta=header.meta)
        capsys.readouterr()
        methods = ("proposed", "ktlr", "zerofill") if command == "recon" else ("zerofill",)
        for method in methods:
            assert run(command, "--config", tiny_config, "--out", out, "--method", method) == 65
            err = capsys.readouterr().err
            assert f"{name} holds a non-finite value" in err, (method, err)
            assert "internal error" not in err

    def test_non_finite_output_is_data_error(self, tmp_path, capsys):
        # amp_variation 1e308 is a valid number whose phantom overflows the
        # spatial DFT: the arrays it yields are refused before their file is made
        bad = json.loads(json.dumps(TINY))
        bad["phantom"]["amp_variation"] = 1e308
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "o"
        assert run("simulate", "--config", path, "--out", out) == 65
        err = capsys.readouterr().err
        assert ".ktar holds a non-finite value" in err, err
        assert "internal error" not in err
        assert not (out / "meas.ktar").exists()

    def test_data_too_large_to_square_is_data_error(self, tmp_path, tiny_config, capsys):
        # finite samples that overflow once squared turned the recon's Gram
        # into a zheevr failure (exit 70).  Every recon method refuses them as
        # it reads them; simulate no longer writes them, so they are put in place
        out = tmp_path / "o"
        assert run("simulate", "--config", tiny_config, "--out", out) == 0
        header, b = ktar.read_array(out / "meas.ktar")
        ktar.write_array(out / "meas.ktar", b * 1e300, meta=header.meta)
        capsys.readouterr()
        for method in ("zerofill", "ktlr", "proposed"):
            assert run("recon", "--config", tiny_config, "--out", out, "--method", method) == 65
            err = capsys.readouterr().err
            assert "meas.ktar holds values too large to square and sum" in err, (method, err)
            assert not (out / f"recon_{method}.ktar").exists()

    def test_simulate_refuses_data_too_large_to_square(self, tmp_path, capsys):
        # sigma 1e300 is a valid absolute noise level whose finite samples
        # every recon refuses: simulate refuses them before meas.ktar is made
        bad = dict(TINY, noise={"sigma": 1e300, "relative": False})
        path = tmp_path / "loud.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "o"
        assert run("simulate", "--config", path, "--out", out) == 65
        err = capsys.readouterr().err
        assert "meas.ktar holds values too large to square and sum" in err, err
        assert not (out / "meas.ktar").exists()

    def test_mu_that_overflows_is_data_error(self, tmp_path, capsys):
        # mu = mu_rel * smax overflowed to inf: every singular value was
        # zeroed, the objective was inf * 0 and ktlr exited 0 with a NaN report
        bad = json.loads(json.dumps(TINY))
        bad["ktlr"]["mu_rel"] = 1e308
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "o"
        assert run("simulate", "--config", path, "--out", out) == 0
        capsys.readouterr()
        assert run("recon", "--config", path, "--out", out, "--method", "ktlr") == 65
        err = capsys.readouterr().err
        assert "/ktlr/mu_rel: 1e+308 times the largest singular value" in err, err
        assert not (out / "recon_ktlr.ktar").exists()
        assert not (out / "report_ktlr.csv").exists()

    def test_lam_that_overflows_the_data_term_is_data_error(self, tmp_path, capsys):
        # 0.5 lam ||A x - b||^2 must be a float: lam 1e308 made the CG
        # right-hand side infinite (exit 70); only proposed reads lam
        bad = json.loads(json.dumps(TINY))
        bad["solver"]["lam"] = 1e308
        path = tmp_path / "lam.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "o"
        assert run("simulate", "--config", path, "--out", out) == 0
        assert run("recon", "--config", path, "--out", out, "--method", "zerofill") == 0
        capsys.readouterr()
        assert run("recon", "--config", path, "--out", out, "--method", "proposed") == 65
        err = capsys.readouterr().err
        assert "/solver/lam: 1e+308 times the squared norm of" in err and "meas.ktar" in err, err
        assert not (out / "recon_proposed.ktar").exists()

    @pytest.mark.parametrize("changes", [
        {"grid": {"p": 12}, "filter": {"n1": 9}},
        {"grid": {"t": 8}},
    ], ids=["p_12", "t_8"])
    def test_inputs_off_the_config_grid_are_data_errors(self, tmp_path, changes, capsys):
        two = dict(TINY, coils={"count": 2})
        good = tmp_path / "good.json"
        good.write_text(json.dumps(two))
        other = json.loads(json.dumps(two))
        for section, values in changes.items():
            other[section].update(values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(other))
        out = tmp_path / "o"
        assert run("simulate", "--config", good, "--out", out) == 0
        assert run("recon", "--config", good, "--out", out, "--method", "zerofill") == 0
        capsys.readouterr()
        for method in ("zerofill", "ktlr", "proposed"):
            assert run("recon", "--config", bad, "--out", out, "--method", method) == 65
            assert "meas.ktar has shape (2, 16, 16, 6)" in capsys.readouterr().err
        assert run("fit", "--config", bad, "--out", out, "--method", "zerofill") == 65
        assert "recon_zerofill.ktar has shape (16, 16, 6)" in capsys.readouterr().err

    def test_truth_and_t2_off_the_config_grid_are_data_errors(self, tmp_path, capsys):
        other = json.loads(json.dumps(TINY))
        other["grid"]["p"], other["filter"]["n1"] = 12, 9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(other))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(TINY))
        out = tmp_path / "o"
        assert run("simulate", "--config", good, "--out", out) == 0
        assert run("recon", "--config", good, "--out", out, "--method", "zerofill") == 0
        assert run("fit", "--config", good, "--out", out, "--method", "zerofill") == 0
        t2_path = out / "t2_zerofill.ktar"
        t2_good = t2_path.read_bytes()
        header, t2 = ktar.read_array(t2_path)
        ktar.write_array(t2_path, t2[:12], meta=header.meta)
        capsys.readouterr()
        for command in ("eval", "render"):
            assert run(command, "--config", good, "--out", out, "--method", "zerofill") == 65
            assert "t2_zerofill.ktar has shape (12, 16)" in capsys.readouterr().err
        t2_path.write_bytes(t2_good)
        # a phantom of another grid overwrites the truth files of the run
        assert run("phantom", "--config", bad, "--out", out) == 0
        capsys.readouterr()
        for command, name in (("fit", "truth_amp"), ("eval", "phantom"),
                              ("render", "truth_t2")):
            assert run(command, "--config", good, "--out", out, "--method", "zerofill") == 65
            err = capsys.readouterr().err
            assert f"{name}.ktar has shape (" in err and "internal error" not in err

    def test_inputs_of_another_config_are_data_errors(self, tmp_path, tiny_config, capsys):
        # same grid, another seed: the config hashes of the inputs differ
        out = tmp_path / "o"
        assert run("simulate", "--config", tiny_config, "--out", out) == 0
        assert run("recon", "--config", tiny_config, "--out", out, "--method", "zerofill") == 0
        assert run("fit", "--config", tiny_config, "--out", out, "--method", "zerofill") == 0
        capsys.readouterr()
        for command in ("fit", "eval", "render"):
            assert run(command, "--config", tiny_config, "--out", out, "--seed", 12,
                       "--method", "zerofill") == 65
            assert "recon_zerofill.ktar was written under config hash" in capsys.readouterr().err
        # recon checks its inputs too, so a seed-12 recon needs a seed-12 simulation
        assert run("recon", "--config", tiny_config, "--out", out, "--seed", 12,
                   "--method", "zerofill") == 65
        assert "meas.ktar was written under config hash" in capsys.readouterr().err
        # a recon under seed 12 matches, but the T2 map of seed 11 does not
        assert run("simulate", "--config", tiny_config, "--out", out, "--seed", 12) == 0
        assert run("recon", "--config", tiny_config, "--out", out, "--seed", 12,
                   "--method", "zerofill") == 0
        capsys.readouterr()
        for command in ("eval", "render"):
            assert run(command, "--config", tiny_config, "--out", out, "--seed", 12,
                       "--method", "zerofill") == 65
            assert "t2_zerofill.ktar was written under config hash" in capsys.readouterr().err

    def test_simulated_input_of_another_config_is_data_error(self, tmp_path, tiny_config, capsys):
        # each input swapped alone for its seed-11 twin in an otherwise seed-12 run
        other, out = tmp_path / "s11", tmp_path / "s12"
        assert run("simulate", "--config", tiny_config, "--out", other) == 0
        assert run("simulate", "--config", tiny_config, "--out", out, "--seed", 12) == 0
        for command in ("recon", "fit"):
            assert run(command, "--config", tiny_config, "--out", out, "--seed", 12,
                       "--method", "zerofill") == 0
        capsys.readouterr()
        for name, command in [("meas.ktar", "recon"), ("coils.ktar", "recon"),
                              ("mask.ktar", "recon"), ("truth_amp.ktar", "fit"),
                              ("phantom.ktar", "eval"), ("truth_t2.ktar", "eval")]:
            kept = (out / name).read_bytes()
            (out / name).write_bytes((other / name).read_bytes())
            assert run(command, "--config", tiny_config, "--out", out, "--seed", 12,
                       "--method", "zerofill") == 65
            assert f"{name} was written under config hash" in capsys.readouterr().err
            (out / name).write_bytes(kept)

    @pytest.mark.parametrize("section,values", [
        ("mask", {"kind": "uniform_random", "fraction": 0.0}),
        ("mask", {"kind": "vd_cartesian", "acceleration": 2}),
        # eps runs from lambda_max(R_0) / 100 down to 1e-9 lambda_max(R_0)
        ("solver", {"eps0": 1e-3}),
        ("solver", {"eps_min": 0.0}),
        # each value below has the right type, and only the spec built from
        # its section checks its range; the error names that section
        ("solver", {"p": 3.0}),
        ("filter", {"n1": 80}),
        ("phantom", {"t2_low": 300.0, "t2_high": 100.0}),
        ("grid", {"t": 1}),
    ], ids=["zero_fraction", "vd_acceleration_2", "solver_eps0", "solver_eps_min",
            "solver_p_3", "filter_n1_80", "t2_low_above_high", "grid_t_1"])
    def test_invalid_config_schema(self, tmp_path, section, values, capsys):
        bad = json.loads(json.dumps(TINY))
        bad[section] = values if section == "mask" else {**bad[section], **values}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        for command in ("simulate", "recon"):
            assert run(command, "--config", path, "--out", tmp_path / "o") == 65
            assert f"invalid config: /{section}" in capsys.readouterr().err

    @pytest.mark.parametrize("mask", [
        {"kind": "vd_cartesian", "acceleration": 200},
        {"kind": "uniform_random", "fraction": 0.001},
    ], ids=["vd_fewer_than_center_block", "uniform_zero_samples"])
    def test_infeasible_mask_is_data_error(self, tmp_path, mask, capsys):
        # each passes the config checks; only make_mask sees that the grid cannot hold it
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(dict(TINY, mask=mask)))
        for command in ("mask", "simulate"):
            assert run(command, "--config", path, "--out", tmp_path / "o") == 65
        assert "internal error" not in capsys.readouterr().err

    def test_oversize_gram_is_data_error(self, tmp_path, capsys):
        # 5 frames x 30 x 30 window positions = 4,500 Gram rows, over the
        # 4,096-row guard; only proposed builds the Gram
        path = tmp_path / "big_gram.json"
        path.write_text(json.dumps(dict(TINY, grid={"p": 32, "q": 32, "t": 6, "dt_ms": 10.0},
                                        filter={"n1": 3, "n2": 3, "nt": 2})))
        out = tmp_path / "o"
        assert run("simulate", "--config", path, "--out", out) == 0
        assert run("recon", "--config", path, "--out", out, "--method", "ktlr") == 0
        capsys.readouterr()
        assert run("recon", "--config", path, "--out", out, "--method", "proposed") == 65
        err = capsys.readouterr().err
        assert "/filter" in err and "4500 rows" in err and "wider filter" in err
        assert "internal error" not in err and "restriction" not in err
        assert not (out / "recon_proposed.ktar").exists()

    def test_echo_start_key_is_rejected(self, tmp_path):
        # T2 comes from the slope of the log-linear fit, which the echo-time
        # origin does not change, so the config has no key for it
        bad = dict(TINY, echo_start_ms=10.0)
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(bad))
        assert run("simulate", "--config", path, "--out", tmp_path / "o") == 65

    def test_missing_inputs_for_recon(self, tmp_path, tiny_config):
        assert run("recon", "--config", tiny_config, "--out", tmp_path / "empty",
                   "--method", "zerofill") == 65

    def test_corrupt_ktar_is_data_error(self, tmp_path, tiny_config):
        out = tmp_path / "o"
        assert run("simulate", "--config", tiny_config, "--out", out) == 0
        (out / "meas.ktar").write_bytes(b"XXXX not a ktar file")
        assert run("recon", "--config", tiny_config, "--out", out,
                   "--method", "zerofill") == 65


class TestPgmContent:
    def test_constant_map_renders_uniform(self, tmp_path):
        from exprec.pgm import write_pgm16

        img = np.full((5, 7), 3.25)
        lo, hi = write_pgm16(tmp_path / "c.pgm", img)
        blob = (tmp_path / "c.pgm").read_bytes()
        head, _, rest = blob.partition(b"65535\n")
        words = np.frombuffer(rest, dtype=">u2")
        assert words.size == 35
        assert (words == words[0]).all()

    def test_two_exponentials_have_no_t2_score(self, tmp_path, capsys):
        # fit fits one exponential, so with L = 2 it refuses the config, and
        # eval scores the series alone: an empty T2 cell, never a NaN
        doc = json.loads(json.dumps(TINY))
        doc["phantom"]["l"] = 2
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("simulate", "--config", path, "--out", out) == 0
        assert run("recon", "--config", path, "--out", out, "--method", "zerofill") == 0
        capsys.readouterr()
        assert run("fit", "--config", path, "--out", out, "--method", "zerofill") == 65
        assert "invalid config: /phantom/l: 2 exponentials" in capsys.readouterr().err
        assert not (out / "t2_zerofill.ktar").exists()
        assert run("eval", "--config", path, "--out", out, "--method", "zerofill") == 0
        rows = list(csv.DictReader(io.StringIO((out / "metrics.csv").read_text())))
        assert [row["t2_mae_ms"] for row in rows] == [""]
        assert math.isfinite(float(rows[0]["snr_db"])) and math.isfinite(float(rows[0]["nrmse"]))
        assert run("render", "--config", path, "--out", out, "--method", "zerofill") == 0
        assert sorted(p.name for p in (out / "renders").glob("*.pgm")) == ["zerofill_mag000.pgm"]

    def test_window_quantization(self, tmp_path):
        from exprec.pgm import write_pgm16

        img = np.array([[0.0, 0.5, 1.0]])
        write_pgm16(tmp_path / "w.pgm", img)
        blob = (tmp_path / "w.pgm").read_bytes()
        words = np.frombuffer(blob.rpartition(b"65535\n")[2], dtype=">u2")
        assert list(words) == [0, 32768, 65535]


# the values a mutation may put at a key: each non-finite, boundary and
# extreme number, a string and a boolean (a wrong JSON type for every number key)
MUTATION_VALUES = [float("nan"), float("inf"), float("-inf"), 0, -1, 1e308, "1", True]
# keys whose effective value sets a size or an iteration count; a mutated
# config runs only if each stays at or below the tiny config's value
SIZE_KEYS = [("grid", "p"), ("grid", "q"), ("grid", "t"), ("coils", "count"),
             ("filter", "n1"), ("filter", "n2"), ("filter", "nt"), ("phantom", "l"),
             ("solver", "outer_iters"), ("solver", "cg_iters"), ("ktlr", "iters")]
STAGES = [["simulate"]] + [[cmd, "--method", m] for m in ("zerofill", "ktlr", "proposed")
                           for cmd in ("recon", "fit", "eval")]


def _filled_tiny():
    from exprec.config import ExperimentConfig

    return ExperimentConfig.from_doc(TINY).doc


def _single_mutations():
    """Every (op, key path, value): each pool value and a deletion at every key
    of the filled-in tiny config, sections included, and an extra key in the
    doc and in every section."""
    doc = _filled_tiny()
    paths = [(k,) for k in doc] + [(k, k2) for k, v in doc.items() if isinstance(v, dict)
                                   for k2 in v]
    sections = [()] + [(k,) for k, v in doc.items() if isinstance(v, dict)]
    return ([("set", path, v) for path in paths for v in MUTATION_VALUES]
            + [("delete", path, None) for path in paths]
            + [("extra", path, None) for path in sections])


def _mutated(mutations):
    doc = _filled_tiny()
    for op, path, value in mutations:
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        target = parent.get(path[-1]) if path and isinstance(parent, dict) else parent
        if op == "extra" and isinstance(target, dict):
            target["unexpected"] = 1
        elif op == "delete" and isinstance(parent, dict):
            parent.pop(path[-1], None)
        elif op == "set" and isinstance(parent, dict):
            parent[path[-1]] = value
    return doc


def _within_tiny(doc):
    """False if the doc loads and sets a size or iteration count above the tiny config's."""
    from exprec.config import ConfigError, ExperimentConfig

    try:
        cfg = ExperimentConfig.from_doc(doc)
    except ConfigError:
        return True  # refused before any stage runs
    tiny = _filled_tiny()
    return all(cfg.doc[s][k] <= tiny[s][k] for s, k in SIZE_KEYS)


def _files(out):
    return {p.name: p.read_bytes() for p in out.glob("*")} if out.is_dir() else {}


def _non_finite(path):
    """Whether the output file holds a NaN or an infinity: a .ktar payload,
    or a number in a CSV column other than config_hash."""
    if path.suffix == ".ktar":
        return not np.isfinite(ktar.read_array(path)[1]).all()
    for row in csv.DictReader(io.StringIO(path.read_text())):
        for key, cell in row.items():
            try:
                if key != "config_hash" and not math.isfinite(float(cell)):
                    return True
            except ValueError:
                continue
    return False


def _contract_breaches(doc):
    """Run every stage on ``doc``; each exit that is not 0, 2 or 65, each 65
    whose message names neither a JSON pointer nor a file, and each file that
    a stage exiting 0 or 2 wrote with a non-finite number in it."""
    breaches = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "config.json").write_text(json.dumps(doc))
        for stage in STAGES:
            before = _files(root / "o")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main([*stage, "--config", str(root / "config.json"),
                             "--out", str(root / "o")])
            message = err.getvalue().replace(str(root), "<dir>")
            named = "<dir>" in message or re.search(r"(^|\s)/\w+(/\w+)*:", message)
            if code not in (0, 2, 65) or (code == 65 and not named):
                breaches.append((" ".join(stage), code, message.strip()))
            if code in (0, 2):
                breaches += [(" ".join(stage), code, f"{name} holds a non-finite number")
                             for name, blob in _files(root / "o").items()
                             if before.get(name) != blob and _non_finite(root / "o" / name)]
            if code == 65 and stage == ["simulate"]:
                break
    return breaches


class TestExitCodeContract:
    """Whatever a config holds, simulate, recon (every method), fit and eval
    exit 0, 2 or 65 (bad data), never 70, and each 65 names a JSON pointer of
    the config or a file.  On 0 or 2, every file the stage wrote holds only
    finite numbers.  Sizes and iteration counts never exceed the tiny
    config's."""

    def test_every_single_mutation(self):
        breaches = [(m, b) for m in _single_mutations()
                    if _within_tiny(doc := _mutated([m])) for b in _contract_breaches(doc)]
        assert breaches == []

    def test_overflow_prints_only_the_exit_line(self, tmp_path):
        # a phantom that overflows the spatial DFT: numpy's floating-point
        # warnings stay off stderr, where the exit-65 message is the one line
        doc = json.loads(json.dumps(TINY))
        doc["phantom"]["amp_variation"] = 1e308
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": str(Path(exprec.__file__).parent.parent),
               "PYTHONWARNINGS": "default"}
        argv = [sys.executable, "-m", "exprec.cli", "simulate", "--config", str(config),
                "--out", str(tmp_path / "o")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 65
        assert re.fullmatch(r"exprec: \S+\.ktar holds a non-finite value\n", proc.stderr), \
            proc.stderr

    def test_mutation_pairs(self):
        pytest.importorskip("hypothesis")
        from hypothesis import assume, given, settings
        from hypothesis import strategies as st

        @settings(max_examples=1000, derandomize=True, deadline=None, database=None)
        @given(st.lists(st.sampled_from(_single_mutations()), min_size=2, max_size=2))
        def check(mutations):
            doc = _mutated(mutations)
            assume(_within_tiny(doc))
            assert _contract_breaches(doc) == []

        check()
