"""The repo's pytest configuration, checked on a run of its own, and
the settings of its property tests."""

import ast
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


def _call_name(node):
    """The name a decorator calls, as in `@given(...)` or
    `@hypothesis.settings(...)`; None for a decorator that is no call."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


# What every property test's @settings must say, as source text.
REQUIRED = {"derandomize": "True", "deadline": "None"}


def test_property_tests_are_deterministic():
    """Every @given test in tests/ carries @settings(derandomize=True,
    deadline=None), so a run draws the same examples as the last and no
    slow host fails it on time."""
    loose = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = {_call_name(d): d for d in node.decorator_list}
            if "given" not in calls:
                continue
            keywords = {k.arg: ast.unparse(k.value)
                        for k in getattr(calls.get("settings"), "keywords", ())}
            if not REQUIRED.items() <= keywords.items():
                loose.append(f"{path.name}:{node.lineno} {node.name}")
    assert loose == []
