"""Public names: every export of the package and of its modules resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import spinnet

MODULES = ["spinnet", *(f"spinnet.{info.name}" for info in pkgutil.iter_modules(spinnet.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    # a deleted function must not linger as a stale export
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
