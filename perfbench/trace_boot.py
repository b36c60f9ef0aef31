"""Traced entry point for one exprec CLI stage.

Usage: python3 trace_boot.py STATS_JSON -- <exprec arguments>

Imports the exprec layers, wraps the public functions named in ``TARGETS``
with timing spans, runs ``exprec.cli.main`` and exits with its return code.
Spans stay in memory as per-name aggregates (calls, inclusive time, self
time = inclusive time minus the time of child spans); they are written to
STATS_JSON when the stage ends, together with the targets that could not be
found, so that a renamed or removed function shows as absent instead of as
a silent zero.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# set by the parent to its time.monotonic() just before it starts this process
LAUNCH_VAR = "PERFBENCH_LAUNCH"

# span name -> targets (module, dotted attribute).  A span is measured when
# at least one of its targets resolves; every unresolved target is reported.
TARGETS = {
    "cli.main": [("exprec.cli", "main")],
    "cli.cmd_simulate": [("exprec.cli", "cmd_simulate")],
    "cli.cmd_recon": [("exprec.cli", "cmd_recon")],
    "cli.cmd_fit": [("exprec.cli", "cmd_fit")],
    "cli.cmd_eval": [("exprec.cli", "cmd_eval")],
    "config.load": [("exprec.config", "ExperimentConfig.from_doc")],
    "ktar.read": [("exprec.ktar", "read_array")],
    "ktar.write": [("exprec.ktar", "write_array")],
    "core.validate": [("exprec.core", "require_finite")],
    "core.dft2_forward": [("exprec.core", "dft2_forward")],
    "core.dft2_inverse": [("exprec.core", "dft2_inverse")],
    "simulate.make_phantom": [("exprec.simulate", "make_phantom")],
    "simulate.make_coils": [("exprec.simulate", "make_coils")],
    "simulate.make_mask": [("exprec.simulate", "make_mask")],
    "simulate.simulate_measurements": [("exprec.simulate", "simulate_measurements")],
    "simulate.forward": [("exprec.simulate", "forward")],
    # mapping binds adjoint at import, so its copy is wrapped as well
    "simulate.adjoint": [("exprec.simulate", "adjoint"), ("exprec.mapping", "adjoint")],
    "fastops.apply_normal": [("exprec.fastops", "apply_normal")],
    "fastops.gram": [("exprec.fastops", "assemble_gram_circulant")],
    "fastops.mult": [("exprec.fastops", "build_normal_multipliers")],
    "solver.irls_solve": [("exprec.solver", "irls_solve")],
    "solver.ls_update": [("exprec.solver", "ls_update")],
    "solver.cg": [("exprec.solver", "cg_solve")],
    "solver.eigh": [("numpy.linalg", "eigh")],
    "mapping.zerofill": [("exprec.mapping", "recon_zerofill")],
    "mapping.ktlr": [("exprec.mapping", "recon_ktlowrank")],
    "mapping.svd": [("numpy.linalg", "svd")],
    "mapping.fit_t2": [("exprec.mapping", "fit_t2")],
    "mapping.snr_db": [("exprec.mapping", "snr_db")],
    "mapping.nrmse": [("exprec.mapping", "nrmse")],
}


class Tracer:
    """Aggregates nested spans: per name, calls, inclusive and self seconds."""

    def __init__(self):
        self.spans = {}
        self.counters = {"ktar.bytes_read": 0, "ktar.bytes_written": 0, "fastops.gram_rows": 0}
        self._stack = []

    def record(self, name, seconds, child_seconds=0.0):
        entry = self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += seconds
        entry["self_s"] += seconds - child_seconds
        if self._stack:
            self._stack[-1][0] += seconds

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.record(name, elapsed, children[0])
            if after is not None:
                after(self, args, result)
            return result

        return wrapper


def _count_read(tracer, args, result):
    tracer.counters["ktar.bytes_read"] += os.path.getsize(args[0])


def _count_written(tracer, args, result):
    tracer.counters["ktar.bytes_written"] += os.path.getsize(args[0])


def _count_gram_rows(tracer, args, result):
    rows = result.matrix.shape[0]
    tracer.counters["fastops.gram_rows"] = max(tracer.counters["fastops.gram_rows"], rows)


AFTER = {
    "ktar.read": _count_read,
    "ktar.write": _count_written,
    "fastops.gram": _count_gram_rows,
}


def _resolve(module_name, dotted):
    """Return (owner, attribute, raw descriptor) or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


def install(tracer):
    """Wrap every resolvable target.

    Returns (unresolved targets, absent spans): a span is absent when none of
    its targets resolved, and its metrics are then reported as absent.
    """
    unresolved, absent = [], []
    for name, targets in TARGETS.items():
        found_any = False
        for module_name, dotted in targets:
            found = _resolve(module_name, dotted)
            if found is None:
                unresolved.append(f"{name}={module_name}:{dotted}")
                continue
            found_any = True
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, AFTER.get(name)))
            else:
                wrapped = tracer.wrap(name, raw, AFTER.get(name))
            setattr(owner, attr, wrapped)
        if not found_any:
            absent.append(name)
    return unresolved, absent


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_boot.py STATS_JSON -- <exprec arguments>", file=sys.stderr)
        return 64
    stats_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    # the cli.import span starts when the parent launched this process, so
    # that it covers interpreter start-up as well as the imports
    launched = float(os.environ.get(LAUNCH_VAR, time.monotonic()))
    modules = sorted({module for targets in TARGETS.values() for module, _ in targets})
    for module in modules:
        try:
            importlib.import_module(module)
        except ImportError:
            pass  # reported as unresolved targets by install()
    tracer.record("cli.import", time.monotonic() - launched)
    unresolved, absent = install(tracer)
    status = 70
    try:
        import exprec.cli

        status = exprec.cli.main(cli_args)
    finally:
        doc = {
            "spans": tracer.spans,
            "counters": tracer.counters,
            "unresolved": unresolved,
            "absent": absent,
        }
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
