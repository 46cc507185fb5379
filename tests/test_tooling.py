"""The repo's pytest configuration, checked on a run of its own."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(n):
    assert n < 0
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    """With every warning an error, a failing @given test still reports
    its falsifying example rather than an internal error."""
    (tmp_path / "test_failing.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
