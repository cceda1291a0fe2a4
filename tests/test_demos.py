"""Each demo script runs to completion, and so does README's quick tour.

The demos run in a temporary working directory because some of them write
files into the current directory (02_cy_flow_decay.py writes its final
state to cy_flow_final.csv).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import g2coflow

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SRC = str(Path(g2coflow.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_the_readme_quick_tour_prints_an_eigenform_residual(capsys):
    # README's first python block: the sine-cone psi is a -16 eigenform
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"),
                      re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-12
