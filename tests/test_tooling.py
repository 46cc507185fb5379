"""The repo's pytest configuration, checked on a run of its own, and
the settings of its property tests."""

import ast
import subprocess
import sys
from pathlib import Path

from conftest import LAYOUT_OBJECTS

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


def _decodes(node):
    """Whether `node` calls json.load or json.loads, by either name."""
    return isinstance(node, ast.Call) and (
        ast.unparse(node.func) in ("json.load", "json.loads")
        or getattr(node.func, "id", None) in ("load", "loads"))


def test_json_decoded_only_in_read_json():
    """Every JSON decode in src/ is core.read_json's, so every reader
    decodes with the cyclic GC paused, as read_json does."""
    calls = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "core.py":
            (read_json,) = [n for n in tree.body if isinstance(
                n, ast.FunctionDef) and n.name == "read_json"]
            allowed = {id(n) for n in ast.walk(read_json)}
        calls += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if _decodes(n) and id(n) not in allowed]
    assert calls == []
    assert any(_decodes(n) for n in ast.walk(read_json))


# Where src/ may name BBox, Component or LayoutDocument other than in an
# annotation, as (file, class, method): the two read-only views. Every
# fault check reads arrays, so these are the only places that would have
# to change for the classes to leave src/.
OBJECT_VIEWS = {("ingest.py", "Corpus", "layouts"),
                ("core.py", "ProposalBatch", "boxes")}


def test_layout_objects_built_only_in_views():
    """No src/ code builds a layout object outside the views that keep
    them for callers outside the library, nor hands the classes to a
    call such as map(); annotations may name them."""
    found, allowed = [], set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        skip = set()
        for node in ast.walk(tree):
            notes = [getattr(node, "returns", None),
                     getattr(node, "annotation", None)]
            skip |= {id(n) for a in notes if a for n in ast.walk(a)}
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for f in cls.body:
                if (path.name, cls.name, getattr(f, "name", None)) \
                        in OBJECT_VIEWS:
                    allowed.add((path.name, cls.name, f.name))
                    skip |= {id(n) for n in ast.walk(f)}
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if id(n) not in skip
                  and (getattr(n, "id", None) in LAYOUT_OBJECTS
                       or getattr(n, "attr", None) in LAYOUT_OBJECTS)]
    assert found == []
    assert allowed == OBJECT_VIEWS


def test_src_imports_are_used():
    """Every name that a src/layoutprior module imports is read in that
    module; __init__.py is exempt, as it re-exports what it imports."""
    unused = []
    for path in sorted((ROOT / "src" / "layoutprior").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {name}" for name in (
                    a.asname or a.name.split(".")[0] for a in node.names)
                    if name not in read]
    assert unused == []


def test_module_state_is_one_memo():
    """The only `global` statement under src/layoutprior is the one by
    which band_association keeps the last batch's association, so that
    shared mutable state cannot spread unnoticed."""
    found = []
    for path in sorted((ROOT / "src" / "layoutprior").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # The innermost function of each statement: ast.walk visits the
        # outer functions first.
        owner = {id(g): f.name for f in ast.walk(tree)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for g in ast.walk(f) if isinstance(g, ast.Global)}
        found += [(path.name, owner.get(id(n)), n.names)
                  for n in ast.walk(tree) if isinstance(n, ast.Global)]
    assert found == [("conditioning.py", "band_association",
                      ["_last_association"])]


# Calls that open a file, by the names src/ could call them.
OPENERS = {"open", "io.open", "gzip.open", "gzip.GzipFile", "GzipFile",
           "io.TextIOWrapper", "TextIOWrapper"}


def test_files_opened_only_in_open_text():
    """Every file src/layoutprior opens, it opens through core.open_text,
    so every file is read and written as UTF-8 text whatever the locale,
    and gzip-compressed where its path ends in .gz."""
    calls, allowed = [], set()
    for path in sorted((ROOT / "src" / "layoutprior").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "core.py":
            (open_text,) = [n for n in tree.body if isinstance(
                n, ast.FunctionDef) and n.name == "open_text"]
            allowed = {id(n) for n in ast.walk(open_text)}
        calls += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and id(n) not in allowed
                  and ast.unparse(n.func) in OPENERS]
    assert calls == []
    inside = {ast.unparse(n.func): n for n in ast.walk(open_text)
              if isinstance(n, ast.Call)}
    assert inside.keys() >= {"open", "io.TextIOWrapper", "gzip.GzipFile"}
    for name in ("open", "io.TextIOWrapper"):  # the two text layers
        keywords = {k.arg: ast.unparse(k.value) for k in inside[name].keywords}
        assert keywords.get("encoding") == "'utf-8'", name
