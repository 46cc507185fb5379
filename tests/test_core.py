import ast
import gzip
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import layoutprior
from layoutprior.core import (BBox, ClassVocabulary, Component, LayoutDocument,
                              ParseError, ProposalBatch, ShapeError, iou,
                              iou_matrix, load_matrix, matmul,
                              matrix_from_json, matrix_to_json, read_json,
                              row_softmax, write_text)

NAN, INF = float("nan"), float("inf")

coords = st.floats(min_value=0, max_value=1000, allow_nan=False)


def boxes():
    return st.tuples(coords, coords, coords, coords).map(
        lambda t: BBox(min(t[0], t[2]), min(t[1], t[3]),
                       max(t[0], t[2]), max(t[1], t[3])))


class TestBBox:
    def test_center_area(self):
        b = BBox(0, 0, 10, 20)
        assert b.center() == (5, 10)
        assert b.area() == 200

    def test_degenerate_allowed(self):
        assert BBox(5, 5, 5, 5).area() == 0

    def test_inverted_rejected(self):
        with pytest.raises(ParseError):
            BBox(10, 0, 0, 10)

    @pytest.mark.parametrize("box", [(0, NAN, 5, 5), (NAN, 0, NAN, 5),
                                     (0, 0, INF, 5), (-INF, 0, 5, 5)])
    def test_non_finite_rejected(self, box):
        with pytest.raises(ParseError, match="finite"):
            BBox(*box)


class TestNonFinite:
    @pytest.mark.parametrize("score", [NAN, INF, -INF])
    def test_score(self, score):
        with pytest.raises(ParseError, match="finite"):
            Component(BBox(0, 0, 1, 1), 0, score)

    @pytest.mark.parametrize("size", [(NAN, 10), (10, INF), (0, 10)])
    def test_canvas(self, size):
        with pytest.raises(ParseError, match="finite"):
            LayoutDocument("l", *size)

    @pytest.mark.parametrize("height", [NAN, INF, -1.0])
    def test_layout_height(self, height):
        with pytest.raises(ParseError, match="finite"):
            ProposalBatch((BBox(0, 0, 1, 1),), np.zeros((1, 2)), height)


class TestVocabulary:
    def test_basic(self):
        v = ClassVocabulary(("a", "b"))
        assert v.size == 2
        assert v.index("b") == 1

    @pytest.mark.parametrize("names", [(), ("a", "a"), ("a", ""), ("a", 1),
                                       ("a", ["b"])])
    def test_invalid(self, names):
        with pytest.raises(ParseError):
            ClassVocabulary(names)

    @pytest.mark.parametrize("name", ["c", "", ["a"]])
    def test_unknown_name(self, name):
        with pytest.raises(ParseError, match="unknown class name"):
            ClassVocabulary(("a", "b")).index(name)

    def test_equality_on_names_only(self):
        a, b = ClassVocabulary(("a", "b")), ClassVocabulary(["a", "b"])
        assert a == b and hash(a) == hash(b)
        assert a != ClassVocabulary(("b", "a"))
        assert repr(a) == "ClassVocabulary(names=('a', 'b'))"


class TestIou:
    def test_identity(self):
        assert iou(BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0

    def test_analytic_third(self):
        assert iou(BBox(0, 0, 2, 2), BBox(1, 0, 3, 2)) == pytest.approx(1 / 3)

    def test_zero_area_pair(self):
        assert iou(BBox(1, 1, 1, 1), BBox(1, 1, 1, 1)) == 0.0

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @given(boxes())
    def test_self_iou(self, a):
        expected = 1.0 if a.area() > 0 else 0.0
        assert iou(a, a) == expected

    @given(boxes(), boxes())
    def test_unit_interval(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0


    @given(st.lists(boxes(), max_size=5), st.lists(boxes(), max_size=5))
    def test_matrix_matches_scalar_formula(self, xs, ys):
        def scalar(a, b):
            ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
            iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
            inter = ix * iy
            union = a.area() + b.area() - inter
            return inter / union if union > 0.0 else 0.0

        def arr(bs):
            return np.array([(b.x1, b.y1, b.x2, b.y2) for b in bs]).reshape(-1, 4)

        m = iou_matrix(arr(xs), arr(ys))
        assert m.shape == (len(xs), len(ys))
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                assert m[i, j] == scalar(a, b)


class TestMatmul:
    def test_identity(self):
        m = np.arange(9, dtype=float).reshape(3, 3)
        assert np.array_equal(matmul(np.eye(3), m), m)

    def test_analytic(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_associativity(self, rng):
        a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
        assert np.allclose(matmul(matmul(a, b), c),
                           matmul(a, matmul(b, c)), atol=1e-9)

    def test_against_triple_loop(self, rng):
        for _ in range(5):
            r, k, c = rng.integers(1, 33, size=3)
            a = rng.standard_normal((r, k))
            b = rng.standard_normal((k, c))
            expected = np.zeros((r, c))
            for i in range(r):
                for j in range(c):
                    for l in range(k):
                        expected[i, j] += a[i, l] * b[l, j]
            assert np.allclose(matmul(a, b), expected, atol=1e-9)


class TestRowSoftmax:
    def test_symmetry(self):
        assert np.allclose(row_softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_no_overflow(self):
        out = row_softmax(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_analytic(self):
        out = row_softmax(np.array([[np.log(2.0), 0.0]]))
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_rows_sum_to_one_and_shift_invariant(self, rng):
        m = rng.standard_normal((6, 5)) * 10
        out = row_softmax(m)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        shifted = m.copy()
        shifted[2] += 123.456
        assert np.allclose(row_softmax(shifted), out, atol=1e-9)

    def test_not_2d(self):
        with pytest.raises(ShapeError, match=r"shape \(3,\)"):
            row_softmax(np.zeros(3))


class TestMtxJson:
    def test_round_trip(self, rng):
        m = rng.standard_normal((3, 4))
        obj = json.loads(json.dumps(matrix_to_json(m)))
        assert np.array_equal(matrix_from_json(obj), m)

    def test_schema(self):
        obj = matrix_to_json(np.ones((2, 2)))
        assert obj == {"rows": 2, "cols": 2, "data": [1.0] * 4}

    def test_bad_length(self):
        with pytest.raises(ParseError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]})

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [float("nan")]})

    def test_stores_2d_only(self):
        with pytest.raises(ShapeError, match=r"shape \(1, 1, 1\)"):
            matrix_to_json(np.zeros((1, 1, 1)))


class TestReadJson:
    def test_gzip_matrix(self, tmp_path):
        p = tmp_path / "m.json.gz"
        with gzip.open(p, "wt") as f:
            json.dump(matrix_to_json(np.eye(2)), f)
        assert np.array_equal(load_matrix(p), np.eye(2))

    @pytest.mark.parametrize("obj, message", [
        ({"cols": 1, "data": [1.0]}, "'rows'"),
        ({"rows": 1, "cols": 1, "data": 5}, "has no len"),
        ({"rows": INF, "cols": 1, "data": [1.0]}, "infinity"),
        ({"rows": 1, "cols": 1, "data": [NAN]}, "finite"),
        ({"rows": 2.9, "cols": 1, "data": [1.0, 2.0]},
         "rows must be an integer, got 2.9"),
        ({"rows": 1, "cols": True, "data": [1.0]},
         "cols must be an integer, got True"),
    ])
    def test_rejection_names_file(self, tmp_path, obj, message):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=message) as e:
            load_matrix(p)
        assert str(e.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("name, content", [
        ("m.json", b"{not json"),
        ("m.json", b"\xff\xfe"),
        # gzip headers carry the wall-clock mtime, so these need fixed ids
        pytest.param("m.json.gz", gzip.compress(b"[1, 2, 3]" * 50)[:30],
                     id="m.json.gz-truncated"),
        pytest.param("m.json.gz", gzip.compress(b"[1]")[:10] + b"\xff" * 12,
                     id="m.json.gz-corrupt"),
    ])
    def test_undecodable_names_file(self, tmp_path, name, content):
        p = tmp_path / name
        p.write_bytes(content)
        with pytest.raises(ParseError, match="invalid JSON") as e:
            read_json(p, lambda obj: obj)
        assert str(p) in str(e.value)

    def test_os_error_passes_through(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "missing.json", lambda obj: obj)


class TestWriteText:
    def test_streams_parts(self, tmp_path):
        p = tmp_path / "t.txt"
        write_text(p, (str(i) for i in range(3)))
        assert p.read_text() == "012"

    def test_gz_has_zero_timestamp(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a" / "t.txt.gz", tmp_path / "b" / "t.txt.gz"
        a.parent.mkdir()
        b.parent.mkdir()
        write_text(a, ["x" * 100])
        monkeypatch.setattr(time, "time", lambda: 2.0e9)
        write_text(b, ["x" * 100])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()[4:8] == b"\0\0\0\0"
        assert gzip.decompress(a.read_bytes()) == b"x" * 100


# What opens a file: the builtin, and any module's or object's `open` or
# `GzipFile` (gzip.open, gzip.GzipFile, io.open, Path.open).
def _opens_file(call: ast.Call) -> bool:
    f = call.func
    return ((isinstance(f, ast.Name) and f.id == "open")
            or (isinstance(f, ast.Attribute)
                and f.attr in ("open", "GzipFile")))


def test_only_open_text_opens_files():
    """core.open_text is the one place in the library that opens a file."""
    inside, outside = [], []
    for path in sorted(Path(layoutprior.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if (path.name == "core.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "open_text"):
                allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _opens_file(node):
                (inside if id(node) in allowed else outside).append(
                    f"{path.name}:{node.lineno}")
    assert outside == []
    assert len(inside) == 2  # a .gz path and a plain one
