import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import exprec

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
