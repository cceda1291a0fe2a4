"""Each module is the one import path of its names, and loads only the
layers below it.

Every module is imported alone in a fresh interpreter, so that no module an
earlier test loaded hides what an import pulls in.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import g2coflow

SRC = str(Path(g2coflow.__file__).resolve().parents[1])

# the package's modules each module loads, besides itself and the package
LAYERS = {
    "errors": set(),
    "profiles": {"errors"},
    "forms": {"errors", "profiles"},
    "torsion": {"errors", "profiles", "forms"},
    "coflow": {"errors", "profiles", "forms"},
    "soliton": {"errors", "profiles", "forms"},
    "verify": {"errors", "profiles", "forms", "torsion"},
    "cli": {"errors", "profiles", "forms", "torsion", "coflow", "soliton", "verify"},
}


def fresh(script):
    """stdout of `script` run by a new interpreter that finds this package."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.mark.parametrize("module", LAYERS)
def test_a_module_imports_alone_and_loads_only_its_layers(module):
    loaded = fresh(f"import sys, g2coflow.{module}\n"
                   "print(*(m for m in sys.modules if m.startswith('g2coflow.')))")
    assert set(loaded) == {f"g2coflow.{m}" for m in LAYERS[module] | {module}}


def test_the_package_defines_only_its_version():
    names = fresh("import g2coflow\n"
                  "print(*(n for n in vars(g2coflow) if not n.startswith('__')))")
    assert names == []
    assert isinstance(g2coflow.__version__, str) and g2coflow.__version__
