import importlib

import pytest

import fpt

MODULES = ["forcefield", "oupcf", "hseries", "decay", "cumulants",
           "density", "oracle"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_reach_the_package(name):
    """Every public name of a module is importable from fpt itself."""
    module = importlib.import_module(f"fpt.{name}")
    missing = [n for n in module.__all__ if getattr(fpt, n, None) is not getattr(module, n)]
    assert not missing
