"""The quick demos run to completion against the current package.

Demos 03 and 05 train several cells each (minutes), so they are run by hand.
"""

import os
import subprocess
import sys

import pytest

import sgnn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(sgnn.__file__)))


@pytest.mark.parametrize("script", ["01_random_edge_graphs.py", "02_stochastic_filters.py",
                                    "04_theory_checks.py"])
def test_demo_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
