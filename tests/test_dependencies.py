"""The package depends on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmcsep

ROOT = Path(__file__).resolve().parent.parent

IMPORT_ALL = """
import pkgutil, sys
import cmcsep
for mod in pkgutil.iter_modules(cmcsep.__path__):
    if mod.name != "__main__":  # runs the CLI
        __import__(f"cmcsep.{mod.name}")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_module_imports_scipy():
    """Importing the package and every submodule in a fresh interpreter
    pulls in no scipy module, installed or not."""
    src = str(Path(cmcsep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
