"""Every script in demos/, the README's Python example and its manual
pipeline run to completion against the package source.

The demos import the public API by name, so a rename or a changed
signature shows up here as a failed run.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import promptmt

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_demos_exist():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       cwd=tmp_path, env=ENV, timeout=600)
    assert r.returncode == 0, r.stderr


def test_readme_example_prints_what_it_shows(tmp_path):
    """The README's Python block prints exactly the `# ` lines written
    under it, and every name the package exports resolves."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    shown = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    r = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                       cwd=tmp_path, env=ENV, timeout=60)
    assert r.returncode == 0, r.stderr
    assert shown and r.stdout.splitlines() == shown
    assert [name for name in promptmt.__all__ if not hasattr(promptmt, name)] == []


def test_readme_python_api_lists_the_exports():
    """The README's Python API paragraph names exactly the exported names,
    so a removed export cannot stay documented."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("### Python API", 1)[1].split("Everything else", 1)[0]
    documented = set(re.findall(r"`(\w+)`", paragraph)) - {"promptmt"}
    assert documented == set(promptmt.__all__)


def test_readme_shell_pipeline_runs(tmp_path):
    """The README's manual pipeline runs as written, each `promptmt` call
    made through `python -m promptmt.cli`, shows retrieved `[Sentence]`
    knowledge, and evaluates every test sentence."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", readme, re.S)
                if b.startswith("promptmt synth")]
    python = shlex.quote(sys.executable)
    script = re.sub(r"^promptmt ", f"{python} -m promptmt.cli ", block, flags=re.M)
    script = re.sub(r"^python3 ", f"{python} ", script, flags=re.M)
    r = subprocess.run(["bash", "-ec", script], capture_output=True, text=True,
                       cwd=tmp_path, env=ENV, timeout=600)
    assert r.returncode == 0, r.stderr
    n_test = len((tmp_path / "data" / "test.tgt").read_text(encoding="utf-8").splitlines())
    assert len((tmp_path / "hyp.txt").read_text(encoding="utf-8").splitlines()) == n_test
    assert "[Sentence]" in (tmp_path / "test.jsonl").read_text(encoding="utf-8")
    assert '"bleu"' in r.stdout
