"""Smoke tests: every script in demos/, and README's library quick start,
run to completion, and README's dotted names resolve."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layoutprior

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # A demo may write files into its working directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quick_start_runs(tmp_path):
    """README's library quick start runs and prints its two AP50 figures,
    so an export it uses cannot drift from the docs."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```",
                      readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert re.match(r"[0-9.]+ -> [0-9.]+\n", result.stdout), result.stdout


def test_readme_names_resolve():
    """Every `A.b` or `A.b(...)` in README.md whose A is a layoutprior
    export or submodule names an attribute that A has."""
    modules = {m.name for m in pkgutil.iter_modules(layoutprior.__path__)}
    checked, missing = 0, []
    for a, b in re.findall(r"`(\w+)\.(\w+)[`(]",
                           (ROOT / "README.md").read_text()):
        if a in modules:
            owner = importlib.import_module(f"layoutprior.{a}")
        elif hasattr(layoutprior, a):
            owner = getattr(layoutprior, a)
        else:
            continue
        checked += 1
        if not hasattr(owner, b):
            missing.append(f"{a}.{b}")
    assert checked and missing == []
