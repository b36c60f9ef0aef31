import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exprec
from exprec import fastops, simulate, solver
from exprec.core import Grid, dft2_forward
from exprec.lifting import FilterSpec

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["exprec"] + [f"exprec.{m.name}" for m in pkgutil.iter_modules(exprec.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from module import *`` and nothing else would notice
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_cli_help_loads_no_numpy():
    # the package exports load their modules on first use, so argument
    # parsing (and --help) never pays for importing numpy
    code = (
        "import sys\n"
        "import exprec.cli\n"
        "try:\n"
        "    exprec.cli.main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n"
    )
    src = str(Path(exprec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["numpy"]


def test_config_load_imports_no_jsonschema(tmp_path):
    # the config checks its keys, types and ranges itself
    from test_cli import TINY

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    code = (
        "import sys\n"
        "import exprec.cli\n"
        "assert exprec.cli.main(['mask', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "assert 'jsonschema' not in sys.modules\n"
    )
    src = str(Path(exprec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", code, str(path), str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "mask.ktar").exists()


def test_recon_imports_no_scipy(tmp_path):
    # the Gram's eigensolver is bound from numpy's own LAPACK; importing
    # scipy for it would add more memory than a recon's working set
    from test_cli import TINY

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({**TINY, "solver": {**TINY["solver"], "outer_iters": 2}}))
    code = (
        "import sys\n"
        "import exprec.cli\n"
        "argv = ['--config', sys.argv[1], '--out', sys.argv[2]]\n"
        "assert exprec.cli.main(['simulate'] + argv) == 0\n"
        "assert exprec.cli.main(['recon', '--method', 'proposed'] + argv) == 2\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = str(Path(exprec.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", code, str(path), str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "recon_proposed.ktar").exists()


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.stem)
def test_scripts_import(script):
    # a stale import in a script fails here; the __main__ block is not run
    spec = importlib.util.spec_from_file_location(f"scripts_{script.stem}", script)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_benchmark_trace_targets_resolve():
    # the benchmark's layer tracer finds its spans by module and attribute
    # name, so a rename under src/ would leave a span silently absent
    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace_boot.py"
    spec = importlib.util.spec_from_file_location("trace_boot", path)
    trace_boot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_boot)
    unresolved = [
        f"{name}={module}:{dotted}"
        for name, targets in trace_boot.TARGETS.items()
        for module, dotted in targets
        if trace_boot._resolve(module, dotted) is None
    ]
    assert unresolved == []


def test_fastops_functions_are_reached_by_recon(monkeypatch):
    # fastops holds the kernels recon runs and nothing else; the dense
    # references live with the oracle in lifting
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in fastops.__all__:
        fn = getattr(fastops, name)
        if inspect.isfunction(fn):
            calls[name] = 0
            monkeypatch.setattr(fastops, name, counting(name, fn))
    g = Grid(8, 8, 4)
    spec = FilterSpec(5, 5, 2, g)
    ph = simulate.make_phantom(simulate.PhantomSpec(g, kind="regions_smoothed"), seed=1)
    kt = dft2_forward(ph.series)
    mask = simulate.make_mask(g, "uniform_random", 0.5, seed=2)
    cfg = solver.SolverConfig(outer_iters=1, cg_iters=5)
    for coils in (1, 2):
        meas = simulate.simulate_measurements(kt, simulate.make_coils(g, coils, seed=3), mask)
        vol, _ = solver.irls_solve(meas, spec, cfg)
        assert np.all(np.isfinite(vol))
    assert sorted(n for n, count in calls.items() if count == 0) == []
