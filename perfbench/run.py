#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the exprec pipeline.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a preset run through ``exprec simulate -> recon -> fit ->
eval`` as child processes, one at a time: a closed loop with one client.
From ``--seed`` the benchmark derives a fixed list of inputs, each with its own
exprec seed (phantom, coils, mask and noise).  Every input is simulated,
reconstructed, fitted and evaluated; simulate is cheap and runs several
times so that its median rests on enough samples.  Work per input is fixed,
so medians compare between commits.  When a whole further pass
over the inputs still fits into ``--seconds`` it is run as well, which also
rechecks that reconstructions are byte-identical.

``--trace 0`` reports the end-to-end metrics of untraced runs.  ``--trace 1``
runs each recon stage untraced and then under ``trace_boot.py``, which wraps
the public functions of every layer, and reports per-layer metrics plus the
tracing overhead between the two.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` and ``failed`` count pipeline stages.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import trace_boot

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HASHES = WORK / "hashes.json"

# BLAS/OpenMP threads of every child (exprec does not honour --threads yet).
# One thread: on a 2-vCPU machine with host steal, two OpenBLAS threads made
# recon wall time swing by about 10% between identical runs, one by about 4%.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a run must end within 180 s; stages still running at this point are killed
DEADLINE_S = 165.0
SETUP_RUNS = 10  # simulate stages per run (cycling over the inputs), untraced
OK_CODES = (0, 2)  # 2: iteration cap reached, outputs still valid


@dataclass(frozen=True)
class Workload:
    preset: str
    methods: tuple  # recon methods in run order; the last one is the headline
    overrides: dict  # config sections merged over the preset
    inputs: int  # inputs per pass


# Recon work per input is cut to fit the run length.  The CG iterations an
# input needs vary between inputs by about 10% (fig5) and 13% (fig6), so
# medians rest on several inputs.  fig5 keeps the preset's filter, sampling
# and solver but decays eps by 0.35 instead of 0.85 per outer step: seven
# steps sweep the eps range of the preset's first 40 steps, with CG
# iterations per step rising from about 40 to about 190 as in its late
# phase, instead of covering only the first, CG-light steps.  fig6 needs
# about as many CG iterations in every step (121 and 134 in its first two),
# so it runs one step on more inputs: eight inputs of one step spread less
# between seeds than five of two.
WORKLOADS = {
    "fig5_single_coil": Workload(
        "fig5_desk", ("proposed",), {"solver": {"outer_iters": 7, "eps_decay": 0.35}}, 4
    ),
    "fig6_multi_coil": Workload("fig6_desk", ("proposed",), {"solver": {"outer_iters": 1}}, 8),
    "fig6_baselines": Workload("fig6_desk", ("zerofill", "ktlr"), {}, 6),
}

END_TO_END = {
    "setup_s": "s",
    "recon_s": "s",
    "recon_cpu_s": "s",
    "peak_rss_mb": "MB",
}


class StageFailed(Exception):
    pass


def source_digest():
    """SHA-256 over the program sources; identifies the commit under test."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy as np
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: str(THREADS) for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "EXPREC_THREADS"}
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def read_ktar(path):
    """Minimal KTAR v1 reader, independent of the program under test."""
    import numpy as np

    blob = Path(path).read_bytes()
    try:
        if not blob.startswith(b"KTAR1\n"):
            raise ValueError("bad magic")
        hlen = int.from_bytes(blob[6:10], "little")
        doc = json.loads(blob[10 : 10 + hlen].decode())
        dtype = {"c64": "<c8", "c128": "<c16", "f32": "<f4", "f64": "<f8"}[doc["dtype"]]
        data = np.frombuffer(blob[10 + hlen :], dtype=dtype).reshape(doc["shape"])
    except (ValueError, KeyError, TypeError) as exc:
        raise StageFailed(f"{Path(path).name}: unreadable KTAR: {exc}") from exc
    return doc.get("meta") or {}, data


def snr_db(ref, rec):
    import numpy as np

    return float(20.0 * np.log10(np.linalg.norm(ref) / np.linalg.norm(ref - rec)))


@dataclass
class Input:
    index: int
    seed: int
    out: Path
    config: Path
    shape: tuple  # (P, Q, T)
    doc: dict
    config_hash: str = ""
    samples: list = field(default_factory=list)  # one dict per recon pass
    stats: list = field(default_factory=list)  # (stage, trace file) when traced
    quality: dict = field(default_factory=dict)  # headline snr_db, t2_mae_ms


class Bench:
    def __init__(self, workload_name, seed, seconds, trace):
        self.name = workload_name
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.perf_counter()
        self.run_dir = WORK / "runs" / f"{workload_name}-s{seed}-t{trace}-{os.getpid()}"
        self.env = child_env()
        self.digest = source_digest()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.hashes = {}
        self.setup = []  # simulate wall times
        self.post = []  # fit + eval wall times of one round over the methods
        self.proc = None

    # -- inputs -------------------------------------------------------------
    def make_inputs(self, count):
        preset = SRC / "exprec" / "presets" / f"{self.workload.preset}.json"
        inputs = []
        for index in range(count):
            doc = json.loads(preset.read_text(encoding="utf-8"))
            for section, values in self.workload.overrides.items():
                doc[section] = {**doc.get(section, {}), **values}
            key = f"{self.workload.preset}:{self.seed}:{index}".encode()
            doc["seed"] = int.from_bytes(hashlib.sha256(key).digest()[:4], "little") >> 1
            out = self.run_dir / f"in{index}"
            out.mkdir(parents=True, exist_ok=True)
            config = out / "config.json"
            config.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            g = doc["grid"]
            inputs.append(Input(index, doc["seed"], out, config, (g["p"], g["q"], g["t"]), doc))
        for inp, digest in zip(inputs, self.config_hashes([inp.config for inp in inputs])):
            inp.config_hash = digest
        return inputs

    def config_hashes(self, configs):
        """Config hashes as exprec computes them, taken from the program itself."""
        code = (
            "import sys; from exprec.config import ExperimentConfig as C\n"
            "for path in sys.argv[1:]: print(C.from_json(path).config_hash)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, *map(str, configs)],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        digests = proc.stdout.split()
        if proc.returncode != 0 or len(digests) != len(configs):
            raise SystemExit(f"perfbench: cannot load exprec configs: {proc.stderr.strip()}")
        return digests

    # -- child processes ------------------------------------------------------
    def stage(self, inp, command, method=None, traced=False):
        """Run one exprec stage; returns (exit code, wall s, cpu s, max rss MB)."""
        args = [command, "--config", str(inp.config), "--out", str(inp.out)]
        if method is not None:
            args += ["--method", method]
        if traced:
            stats = inp.out / f"trace-{command}-{method or 'all'}.json"
            inp.stats.append((command, stats))
            argv = [sys.executable, str(HERE / "trace_boot.py"), str(stats), "--", *args]
        else:
            argv = [sys.executable, "-m", "exprec.cli", *args]
        self.attempted += 1
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        if remaining <= 0:
            raise StageFailed(f"{command}: run deadline reached before start")
        log = inp.out / f"{command}-{method or 'all'}.log"
        with open(log, "wb") as fh:
            launch = {trace_boot.LAUNCH_VAR: repr(time.monotonic())} if traced else {}
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env={**self.env, **launch}, stdout=fh, stderr=fh
            )
            timer = threading.Timer(remaining, self.proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        code, self.proc = self.proc.returncode, None
        if code not in OK_CODES:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            raise StageFailed(f"{command} {method or ''}: exit {code}: {tail[0]}")
        return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def check(self, inp, name, shape):
        import numpy as np

        path = inp.out / name
        if not path.is_file():
            raise StageFailed(f"{name}: missing")
        meta, data = read_ktar(path)
        if meta.get("config_hash") != inp.config_hash:
            raise StageFailed(f"{name}: config hash {meta.get('config_hash')} != {inp.config_hash}")
        if tuple(data.shape) != tuple(shape):
            raise StageFailed(f"{name}: shape {data.shape} != {shape}")
        if not np.isfinite(data).all():
            raise StageFailed(f"{name}: non-finite values")
        return data

    def same_as_before(self, inp, name, method):
        """Record the output's SHA-256; fail if an earlier run of the same
        sources, config and method wrote different bytes."""
        digest = hashlib.sha256((inp.out / name).read_bytes()).hexdigest()
        key = f"{self.digest}:{inp.config_hash}:{method}:threads={THREADS}"
        known = self.hashes.setdefault(key, digest)
        if known != digest:
            raise StageFailed(f"{name}: sha256 {digest[:16]} differs from earlier run {known[:16]}")
        return digest

    def guarded(self, fn, *args):
        """Run one checked step; a failure is counted and recorded."""
        try:
            return fn(*args)
        except StageFailed as exc:
            self.failed += 1
            self.failures.append(str(exc))
            return None

    # -- stages ---------------------------------------------------------------
    def simulate(self, inp, traced):
        _, wall, _, _ = self.stage(inp, "simulate", traced=traced)
        p, q, t = inp.shape
        coils = inp.doc["coils"]["count"]
        self.check(inp, "phantom.ktar", (p, q, t))
        self.check(inp, "truth_t2.ktar", (inp.doc["phantom"]["l"], p, q))
        self.check(inp, "coils.ktar", (coils, p, q))
        self.check(inp, "mask.ktar", (p, q, t))
        self.check(inp, "meas.ktar", (coils, p, q, t))
        self.same_as_before(inp, "meas.ktar", "simulate")
        self.setup.append(wall)
        return wall

    def recon(self, inp, method, traced=False):
        code, wall, cpu, rss = self.stage(inp, "recon", method, traced=traced)
        name = f"recon_{method}.ktar"
        self.check(inp, name, inp.shape)
        digest = self.same_as_before(inp, name, method)
        return {"code": code, "wall": wall, "cpu": cpu, "rss": rss, "sha256": digest}

    def reconstruct(self, inp):
        """Run every recon method of the workload on one input; returns its sample."""
        sample = {"recon_s": 0.0, "recon_cpu_s": 0.0, "peak_rss_mb": 0.0, "codes": {},
                  "sha256": {}, "report": ""}
        for method in self.workload.methods:
            r = self.recon(inp, method)
            sample["recon_s"] += r["wall"]
            sample["recon_cpu_s"] += r["cpu"]
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], r["rss"])
            sample["codes"][method] = r["code"]
            sample["sha256"][method] = r["sha256"]
            if self.trace:
                traced = self.recon(inp, method, traced=True)
                sample["traced_recon_s"] = sample.get("traced_recon_s", 0.0) + traced["wall"]
            if method == "proposed":
                sample["report"] = (inp.out / "report_proposed.csv").read_text(encoding="utf-8")
        inp.samples.append(sample)
        return sample

    def fit_eval(self, inp, method, traced):
        _, wall_fit, _, _ = self.stage(inp, "fit", method, traced=traced)
        self.check(inp, f"t2_{method}.ktar", inp.shape[:2])
        metrics = inp.out / "metrics.csv"
        metrics.unlink(missing_ok=True)
        _, wall_eval, _, _ = self.stage(inp, "eval", method, traced=traced)
        rows = list(csv.DictReader(metrics.open(encoding="utf-8"))) if metrics.is_file() else []
        if len(rows) != 1 or rows[0]["label"] != method:
            raise StageFailed(f"eval {method}: expected one metrics.csv row, found {len(rows)}")
        row = rows[0]
        if row["config_hash"] != inp.config_hash:
            raise StageFailed(f"eval {method}: config hash {row['config_hash']} mismatch")
        snr, mae = float(row["snr_db"]), float(row["t2_mae_ms"])
        if not (math.isfinite(snr) and math.isfinite(mae)):
            raise StageFailed(f"eval {method}: non-finite quality {snr} {mae}")
        return wall_fit + wall_eval, snr, mae

    def postprocess(self, inp, traced):
        """Fit and evaluate every method; the headline must beat zero-fill."""
        post = 0.0
        for method in self.workload.methods:
            wall, snr, mae = self.fit_eval(inp, method, traced)
            post += wall
        self.post.append(post)
        if not inp.quality:
            floor = self.zerofill_snr(inp)
            headline = self.workload.methods[-1]
            if not snr > floor:
                raise StageFailed(f"quality: {headline} snr {snr:.3f} dB <= zero-fill {floor:.3f} dB")
            inp.quality = {"snr_db": snr, "t2_mae_ms": mae, "zerofill_snr_db": floor}

    def zerofill_snr(self, inp):
        """SNR of the adjoint reconstruction, computed here as a quality floor."""
        import numpy as np

        _, truth = read_ktar(inp.out / "phantom.ktar")
        _, b = read_ktar(inp.out / "meas.ktar")
        _, mask = read_ktar(inp.out / "mask.ktar")
        _, coils = read_ktar(inp.out / "coils.ktar")
        imgs = np.fft.ifft2(b * (mask > 0.5)[None], axes=(1, 2), norm="ortho")
        combined = np.sum(np.conj(coils)[..., None] * imgs, axis=0)
        zf = np.fft.fft2(combined, axes=(0, 1), norm="ortho")
        return snr_db(np.fft.fft2(truth, axes=(0, 1), norm="ortho"), zf)

    # -- runs -----------------------------------------------------------------
    def run(self):
        inputs = self.make_inputs(self.workload.inputs)
        if self.trace:
            return self.run_traced(inputs)
        # simulate runs more often than there are inputs for a steadier setup_s
        for i in range(max(SETUP_RUNS, len(inputs))):
            self.guarded(self.simulate, inputs[i % len(inputs)], False)
        passes = 0
        measure_start = time.perf_counter()
        while not self.failed:
            t0 = time.perf_counter()
            for inp in inputs:
                if self.guarded(self.reconstruct, inp) is not None:
                    self.guarded(self.postprocess, inp, False)
            passes += 1
            spent = time.perf_counter() - t0
            # another whole pass only if it still fits into the run length
            if time.perf_counter() - measure_start + spent > self.seconds:
                break
            if time.perf_counter() - self.start + spent > DEADLINE_S - 15:
                break
        return inputs, passes

    def run_traced(self, inputs):
        """Trace every stage of the inputs that start within the run length;
        each recon also runs untraced, for the tracing overhead."""
        start = time.perf_counter()
        for inp in inputs:
            if (self.guarded(self.simulate, inp, True) is not None
                    and self.guarded(self.reconstruct, inp) is not None):
                self.guarded(self.postprocess, inp, True)
            if self.failed or time.perf_counter() - start > self.seconds:
                break
        return inputs, 1


# -- metrics --------------------------------------------------------------------


def summarize(name, values, unit):
    """Print median, quartiles and sample count; return the median."""
    if not values:
        print(f"  {name:<28} no samples")
        return None
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    print(f"  {name:<28} median {med!r:<22} q1 {q1!r} q3 {q3!r} n {len(values)} {unit}")
    return med


def end_to_end_metrics(inputs, bench):
    samples = [s for inp in inputs for s in inp.samples]
    values = {"setup_s": bench.setup}
    for key in ("recon_s", "recon_cpu_s", "peak_rss_mb"):
        values[key] = [s[key] for s in samples]
    print("end-to-end:")
    metrics = {}
    for key, unit in END_TO_END.items():
        med = summarize(key, values[key], unit)
        if med is not None:
            metrics[key] = {"value": med, "unit": unit}
    print("reported by --trace 1 only:")
    summarize("post_s", bench.post, "s")
    for key, unit in (("snr_db", "dB"), ("t2_mae_ms", "ms"), ("zerofill_snr_db", "dB")):
        summarize(key, [inp.quality[key] for inp in inputs if inp.quality], unit)
    return metrics


# per-layer metrics: name -> (unit, spans it needs, value from the per-input totals)
def _s(span):
    return lambda t: t["spans"].get(span, {}).get("total_s", 0.0)


def _self(span):
    return lambda t: t["spans"].get(span, {}).get("self_s", 0.0)


def _calls(span):
    return lambda t: t["spans"].get(span, {}).get("calls", 0)


def _ms(span):
    def per_call(t):
        entry = t["spans"].get(span, {})
        return 1000.0 * entry["total_s"] / entry["calls"] if entry.get("calls") else 0.0

    return per_call


GENERATE = ("simulate.make_phantom", "simulate.make_coils", "simulate.make_mask",
            "simulate.simulate_measurements")

PER_LAYER = {
    "fastops.apply_normal_s": ("s", ["fastops.apply_normal"], _s("fastops.apply_normal")),
    "fastops.apply_normal_calls": ("count", ["fastops.apply_normal"], _calls("fastops.apply_normal")),
    "fastops.apply_normal_ms": ("ms", ["fastops.apply_normal"], _ms("fastops.apply_normal")),
    "fastops.gram_s": ("s", ["fastops.gram"], _s("fastops.gram")),
    "fastops.gram_ms": ("ms", ["fastops.gram"], _ms("fastops.gram")),
    "fastops.gram_rows": ("count", ["fastops.gram"], lambda t: t["counters"]["fastops.gram_rows"]),
    "fastops.mult_s": ("s", ["fastops.mult"], _s("fastops.mult")),
    "fastops.mult_ms": ("ms", ["fastops.mult"], _ms("fastops.mult")),
    "solver.eigh_s": ("s", ["solver.eigh"], _s("solver.eigh")),
    "solver.eigh_calls": ("count", ["solver.eigh"], _calls("solver.eigh")),
    "solver.eigh_ms": ("ms", ["solver.eigh"], _ms("solver.eigh")),
    "simulate.forward_s": ("s", ["simulate.forward"], _s("simulate.forward")),
    "simulate.forward_calls": ("count", ["simulate.forward"], _calls("simulate.forward")),
    "simulate.forward_ms": ("ms", ["simulate.forward"], _ms("simulate.forward")),
    "simulate.adjoint_s": ("s", ["simulate.adjoint"], _s("simulate.adjoint")),
    "simulate.adjoint_calls": ("count", ["simulate.adjoint"], _calls("simulate.adjoint")),
    "simulate.adjoint_ms": ("ms", ["simulate.adjoint"], _ms("simulate.adjoint")),
    "solver.cg_s": ("s", ["solver.cg"], _s("solver.cg")),
    "solver.cg_self_s": ("s", ["solver.cg"], _self("solver.cg")),
    "solver.irls_self_s": ("s", ["solver.irls_solve"], _self("solver.irls_solve")),
    "core.validate_s": ("s", ["core.validate"], _s("core.validate")),
    "core.validate_calls": ("count", ["core.validate"], _calls("core.validate")),
    "solver.outer_iters": ("count", [], lambda t: len(t["report"])),
    "solver.cg_iters": ("count", [], lambda t: sum(t["report"])),
    "solver.cg_capped": ("count", [], lambda t: sum(n >= t["cg_cap"] for n in t["report"])),
    "solver.converged": ("count", [], lambda t: int(t["converged"])),
    "mapping.ktlr_s": ("s", ["mapping.ktlr"], _s("mapping.ktlr")),
    "mapping.svd_s": ("s", ["mapping.svd"], _s("mapping.svd")),
    "mapping.fit_t2_s": ("s", ["mapping.fit_t2"], _s("mapping.fit_t2")),
    "cli.import_s": ("s", [], _s("cli.import")),
    "config.load_s": ("s", ["config.load"], _s("config.load")),
    "simulate.generate_s": (
        "s", list(GENERATE), lambda t: sum(_s(span)(t) for span in GENERATE)
    ),
    "ktar.read_s": ("s", ["ktar.read"], _s("ktar.read")),
    "ktar.write_s": ("s", ["ktar.write"], _s("ktar.write")),
    "ktar.bytes_read": ("bytes", ["ktar.read"], lambda t: t["counters"]["ktar.bytes_read"]),
    "ktar.bytes_written": ("bytes", ["ktar.write"], lambda t: t["counters"]["ktar.bytes_written"]),
}
# spans whose own time is glue, not a named layer, for trace.coverage
UNCOVERED = ("cli.main", "cli.cmd_simulate", "cli.cmd_recon", "cli.cmd_fit", "cli.cmd_eval",
             "solver.irls_solve")
TRACE_METRICS = {
    "post_s": "s",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
    "snr_db": "dB",
    "t2_mae_ms": "ms",
    "fail_frac": "frac",
}


def _cg_per_step(report_text):
    return [int(row["cg_iters"]) for row in csv.DictReader(report_text.splitlines())]


def trace_totals(inputs):
    """Merge the traced stages of each input.

    Returns the per-input totals and the recon seconds covered by named
    layers, traced and untraced, summed over inputs.
    """
    per_input = []
    covered = traced = untraced = 0.0
    for inp in inputs:
        if not inp.samples or not inp.quality:
            continue
        sample = inp.samples[0]
        totals = {"spans": {}, "counters": {}, "absent": set(), "unresolved": set()}
        for stage, path in inp.stats:
            if not path.is_file():
                continue  # the stage failed before writing its trace
            doc = json.loads(path.read_text(encoding="utf-8"))
            for name, entry in doc["spans"].items():
                acc = totals["spans"].setdefault(name, dict.fromkeys(entry, 0))
                for key in acc:
                    acc[key] += entry[key]
            for name, value in doc["counters"].items():
                merge = max if name == "fastops.gram_rows" else (lambda a, b: a + b)
                totals["counters"][name] = merge(totals["counters"].get(name, 0), value)
            totals["absent"].update(doc["absent"])
            totals["unresolved"].update(doc["unresolved"])
            if stage == "recon":
                covered += sum(e["self_s"] for n, e in doc["spans"].items() if n not in UNCOVERED)
        totals["report"] = _cg_per_step(sample["report"])
        totals["cg_cap"] = inp.doc["solver"].get("cg_iters", 200)
        totals["converged"] = sample["codes"].get("proposed") == 0
        totals.update(inp.quality)
        traced += sample["traced_recon_s"]
        untraced += sample["recon_s"]
        per_input.append(totals)
    return per_input, covered, traced, untraced


def per_layer_metrics(inputs, bench):
    per_input, covered, traced, untraced = trace_totals(inputs)
    metrics, values, absent, unresolved = {}, {}, [], set()
    if per_input:
        absent_spans = set().union(*(t["absent"] for t in per_input))
        unresolved = set().union(*(t["unresolved"] for t in per_input))
        for name, (unit, needs, fn) in PER_LAYER.items():
            if any(span in absent_spans for span in needs):
                absent.append(name)
                continue
            metrics[name] = {"value": statistics.fmean(fn(t) for t in per_input), "unit": unit}
        values["post_s"] = statistics.median(bench.post)
        values["trace.coverage"] = covered / traced
        values["trace.overhead_frac"] = traced / untraced - 1.0
        for key in ("snr_db", "t2_mae_ms"):
            values[key] = statistics.fmean(t[key] for t in per_input)
    values["fail_frac"] = bench.failed / max(bench.attempted, 1)
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": TRACE_METRICS[name]}
    print("per-layer (per traced input):")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']!r} {m['unit']}")
    if unresolved:
        print("unresolved trace targets: " + ", ".join(sorted(unresolved)))
    if absent:
        print("absent metrics: " + ", ".join(absent))
    return metrics


# -- determinism record ---------------------------------------------------------


def load_hashes():
    try:
        return json.loads(HASHES.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def save_hashes(hashes):
    tmp = HASHES.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(hashes, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, HASHES)


def execute(workload, seed, seconds, trace, keep=False):
    """One benchmark run; returns (result object, inputs with their samples)."""
    WORK.mkdir(parents=True, exist_ok=True)
    print("env " + json.dumps(environment(), sort_keys=True))
    bench = Bench(workload, seed, seconds, trace)
    bench.hashes = load_hashes()
    try:
        inputs, passes = bench.run()
    finally:
        if bench.proc is not None and bench.proc.poll() is None:
            bench.proc.kill()
            bench.proc.wait()
    save_hashes(bench.hashes)
    for inp in inputs:
        for s in inp.samples:
            q = inp.quality
            print(
                f"input {inp.index} seed {inp.seed}: recon_s {s['recon_s']:.4f} "
                f"cg_iters {sum(_cg_per_step(s['report']))} snr_db {q.get('snr_db', math.nan):.3f} "
                f"zerofill_snr_db {q.get('zerofill_snr_db', math.nan):.3f} "
                f"sha256 {json.dumps(s['sha256'], sort_keys=True)}"
            )
    fail_frac = bench.failed / max(bench.attempted, 1)
    print(f"passes {passes} attempted {bench.attempted} failed {bench.failed} fail_frac {fail_frac!r}")
    for reason in bench.failures:
        print(f"FAILED: {reason}")
    if trace:
        metrics = per_layer_metrics(inputs, bench)
    else:
        metrics = end_to_end_metrics(inputs, bench)
    if not keep:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
    result = {
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }
    return result, inputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "exprec" / "cli.py").is_file():
        print(f"perfbench: no exprec sources under {SRC}", file=sys.stderr)
        return 1
    # on SIGTERM unwind through execute(), which stops the running stage
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result, _ = execute(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
