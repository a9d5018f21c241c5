"""The package depends on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmcsep

ROOT = Path(__file__).resolve().parent.parent

# imports every submodule, then runs the verdict path, whose shared
# quantities import their modules on first use; argv[1] is a scratch file
IMPORT_ALL = """
import contextlib, io, pkgutil, sys
import numpy as np
import cmcsep
from cmcsep import cli, criteria, states
for mod in pkgutil.iter_modules(cmcsep.__path__):
    if mod.name != "__main__":  # runs the CLI
        __import__(f"cmcsep.{mod.name}")
for dims in ((2, 2), (3, 3)):
    rho = states.random_density(dims[0] * dims[1], rng=np.random.default_rng(0))
    criteria.run_all(rho, dims)
cli.write_statefile(sys.argv[1], states.werner_2q(0.5), (2, 2))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["detect", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_module_imports_scipy(tmp_path):
    """Importing the package and every submodule, running every criterion
    and running the detect command in a fresh interpreter pull in no scipy
    module, installed or not."""
    src = str(Path(cmcsep.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL,
                          str(tmp_path / "state.json")], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_declared_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
