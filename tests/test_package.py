import importlib
import pkgutil

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
