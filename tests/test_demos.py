"""Every script in demos/ runs to completion against the package source.

The demos import the public API by name, so a rename or a changed
signature shows up here as a failed run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       cwd=tmp_path, env=env, timeout=600)
    assert r.returncode == 0, r.stderr
