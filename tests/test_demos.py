"""Every demo runs from a source checkout and exits cleanly."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py"))


def test_demos_found():
    assert len(DEMOS) == 3, DEMOS


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_from_source(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
