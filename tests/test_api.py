"""Public names and import graph: every export resolves, and start-up stays small."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import spinnet

MODULES = ["spinnet", *(f"spinnet.{info.name}" for info in pkgutil.iter_modules(spinnet.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    # a deleted function must not linger as a stale export
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_cli_import_leaves_out_scipy_optimize_and_integrate():
    # every command pays for what spinnet.cli imports; scipy is needed for linalg.expm only
    code = (
        "import sys, spinnet.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spinnet.__file__))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
