import ast
import gc
import gzip
import json
import math
import re
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import layoutprior
from layoutprior.conditioning import (AssociationPolicy, NodeFeatures,
                                      band_association)
from layoutprior.core import (BBox, ClassVocabulary, Component, LayoutDocument,
                              LayoutPriorError, ParseError, ProposalBatch,
                              ShapeError,
                              box_areas, centres, check_boxes, iou_matrix,
                              load_matrix, matmul, matrix_from_json,
                              matrix_to_json, read_json, row_softmax,
                              same_bits, save_matrix, write_text)
from layoutprior.ingest import Corpus
from layoutprior.prior import BandConfig
from layoutprior.rescore import RescoreConfig

from conftest import assert_rewrite_stable, finite_matrices
from test_synth import block_spec

NAN, INF = float("nan"), float("inf")
BIG = 10 ** 400  # an int that compares below INF but no float can hold

coords = st.floats(min_value=0, max_value=1000, allow_nan=False)


def boxes():
    return st.tuples(coords, coords, coords, coords).map(
        lambda t: BBox(min(t[0], t[2]), min(t[1], t[3]),
                       max(t[0], t[2]), max(t[1], t[3])))


def rows(*bs):
    """The boxes `bs` as an (N, 4) array of x1, y1, x2, y2 rows."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in bs]).reshape(-1, 4)


def iou(a, b):
    """The IoU of two boxes, from iou_matrix."""
    return float(iou_matrix(rows(a), rows(b))[0, 0])


class TestBBox:
    def test_center_area(self):
        b = BBox(0, 0, 10, 20)
        # The association reads the centre y = 10, 0.25 of a height of 40:
        # band 0's centroid, 0.5 above band 1's.
        alpha = band_association(ProposalBatch(rows(b), np.zeros((1, 1)), 40.0),
                                 BandConfig(2), AssociationPolicy(sigma=0.3))
        far = np.exp(-0.5 * (0.5 / 0.3) ** 2)
        assert alpha[0] == pytest.approx([1 / (1 + far), far / (1 + far)])
        assert box_areas(rows(b)).tolist() == [200]

    def test_degenerate_allowed(self):
        assert box_areas(rows(BBox(5, 5, 5, 5))).tolist() == [0]

    def test_inverted_rejected(self):
        with pytest.raises(ParseError):
            BBox(10, 0, 0, 10)

    @pytest.mark.parametrize("box", [(0, NAN, 5, 5), (NAN, 0, NAN, 5),
                                     (0, 0, INF, 5), (-INF, 0, 5, 5)])
    def test_non_finite_rejected(self, box):
        with pytest.raises(ParseError, match="finite"):
            BBox(*box)


class TestProposalBatch:
    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 4, 1), (0,)])
    def test_coords_not_n_by_4(self, shape):
        with pytest.raises(ShapeError, match=re.escape(
                f"coords shape {shape} is not (N, 4)")):
            ProposalBatch(np.zeros(shape), np.zeros((2, 1)), 10.0)

    @pytest.mark.parametrize("after", [[], [(1, 0, 0, 1), (0, 0, INF, 1)]])
    @pytest.mark.parametrize("bad", [(5, 0, 1, 1), (0, 2, 1, 1),
                                     (0, NAN, 1, 1), (-INF, 0, 1, 1)])
    def test_first_bad_row_raises_its_bbox_text(self, bad, after):
        coords = [(0, 0, 1, 1), bad] + after
        with pytest.raises(ParseError) as want:
            BBox(*map(float, bad))
        with pytest.raises(ParseError) as got:
            ProposalBatch(coords, np.zeros((len(coords), 1)), 10.0)
        assert str(got.value) == str(want.value)

    def test_coords_read_only_copy_and_boxes_view(self):
        given = np.array([[0.0, 1.0, 2.0, 3.0], [-0.0, 5e-324, 0.0, 1e308]])
        batch = ProposalBatch(given, np.zeros((2, 1)), 10.0)
        given[0, 0] = 1.0
        coords = batch.coords
        assert coords.dtype == np.float64 and coords[0, 0] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            coords[0, 0] = 1.0
        assert batch.boxes == tuple(map(BBox, *coords.T.tolist()))
        assert batch.boxes is batch.boxes  # built once
        assert math.copysign(1.0, batch.boxes[1].x1) == -1.0


_coordinate = st.one_of(st.sampled_from([NAN, INF, -INF, 0.0, -0.0, 1.0]),
                        st.floats(-10.0, 10.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(*[_coordinate] * 4), max_size=6))
def test_check_boxes_raises_first_bbox_error(rows):
    """check_boxes raises what BBox raises for the first row it refuses,
    and nothing where BBox refuses none."""
    boxes = np.array(rows, dtype=np.float64).reshape(-1, 4)
    want = got = None
    for row in boxes.tolist():
        try:
            BBox(*row)
        except ParseError as e:
            want = str(e)
            break
    try:
        check_boxes(boxes)
    except ParseError as e:
        got = str(e)
    assert got == want


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
            ProposalBatch([(0, 0, 1, 1)], np.zeros((1, 2)), height)

    @pytest.mark.parametrize("build", [
        lambda: BBox(0, 0, BIG, 1), lambda: BBox(-BIG, 0, 1, 1),
        lambda: Component(BBox(0, 0, 1, 1), 0, BIG),
        lambda: LayoutDocument("l", BIG, 1.0),
        lambda: LayoutDocument("l", 1, BIG),
        lambda: ProposalBatch([(0, 0, 1, 1)], np.zeros((1, 2)), BIG),
        lambda: AssociationPolicy(mu=-BIG),
        lambda: AssociationPolicy(sigma=BIG),
        lambda: RescoreConfig(confidence=BIG),
        lambda: replace(block_spec(), canvas=(BIG, 640.0)),
    ])
    def test_int_past_float_range(self, build):
        with pytest.raises(ParseError, match="finite"):
            build()


def _corpus(**arrays) -> Corpus:
    """A one-box corpus, with `arrays` in place of any of its arrays."""
    base = dict(ids=("a",), widths=[10.0], heights=[10.0], index=[0],
                class_id=[0], score=[1.0], scored=[False],
                boxes=[[0.0, 0.0, 1.0, 1.0]])
    return Corpus(ClassVocabulary(("A",)), **{**base, **arrays})


HUGE = 10 ** 400  # an int past the float range


# The public constructors check values, not types (README, Concepts): a
# value that numpy's or Python's float read cannot take raises that
# read's own error, not a LayoutPriorError, and numpy reads a numeric
# string in a coordinate array as its number. Only the file readers
# enforce JSON numbers.
@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: _corpus(boxes=[[0, 0, HUGE, 1]]), OverflowError,
                 id="Corpus huge box"),
    pytest.param(lambda: ProposalBatch([(0, 0, HUGE, 1)], np.zeros((1, 2)),
                                       10.0), OverflowError,
                 id="ProposalBatch huge coordinate"),
    pytest.param(lambda: NodeFeatures([[HUGE]]), OverflowError,
                 id="NodeFeatures huge entry"),
    pytest.param(lambda: ProposalBatch([(0, 0, 1, 1)], np.zeros((1, 2)),
                                       "10"), TypeError,
                 id="ProposalBatch string height"),
    pytest.param(lambda: AssociationPolicy(sigma="0.3"), TypeError,
                 id="AssociationPolicy string sigma"),
    pytest.param(lambda: RescoreConfig(blend="0.5"), TypeError,
                 id="RescoreConfig string lambda"),
    pytest.param(lambda: _corpus(widths=["10"]), TypeError,
                 id="Corpus string width"),
    pytest.param(lambda: _corpus(heights=["10"]), TypeError,
                 id="Corpus string height"),
    pytest.param(lambda: NodeFeatures([[0.0, "x"]]), ValueError,
                 id="NodeFeatures non-numeric string"),
    pytest.param(lambda: ProposalBatch([(0, 0, "1", 1)], np.zeros((1, 2)),
                                       10.0), None,
                 id="ProposalBatch numeric string coordinate"),
])
def test_constructors_check_values_not_types(build, error):
    if error is None:
        assert build().coords.tolist() == [[0.0, 0.0, 1.0, 1.0]]
        return
    with pytest.raises(error) as e:
        build()
    assert not isinstance(e.value, LayoutPriorError)


class TestVocabulary:
    def test_basic(self):
        v = ClassVocabulary(("a", "b"))
        assert v.size == 2
        assert v.index("b") == 1

    @pytest.mark.parametrize("names", [(), ("a", "a"), ("a", ""), ("a", 1),
                                       ("a", ["b"]), "ab", {"a": 0, "b": 1}])
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

    @settings(derandomize=True, deadline=None)
    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == iou(b, a)

    @settings(derandomize=True, deadline=None)
    @given(boxes())
    def test_self_iou(self, a):
        expected = 1.0 if box_areas(rows(a))[0] > 0 else 0.0
        assert iou(a, a) == expected

    @settings(derandomize=True, deadline=None)
    @given(boxes(), boxes())
    def test_unit_interval(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0

    @settings(derandomize=True, deadline=None)
    @given(st.lists(boxes(), max_size=5), st.lists(boxes(), max_size=5))
    def test_matrix_matches_scalar_formula(self, xs, ys):
        def scalar(a, b):
            ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
            iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
            inter = ix * iy
            union = ((a.x2 - a.x1) * (a.y2 - a.y1)
                     + (b.x2 - b.x1) * (b.y2 - b.y1) - inter)
            return inter / union if union > 0.0 else 0.0

        m = iou_matrix(rows(*xs), rows(*ys))
        assert m.shape == (len(xs), len(ys))
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                assert m[i, j] == scalar(a, b)


def nans(*payloads):
    return np.array([0x7FF8 << 48 | p for p in payloads],
                    np.uint64).view(np.float64)


class TestSameBits:
    @pytest.mark.parametrize("a, b", [
        (np.array([0.0]), np.array([-0.0])),
        (nans(1), nans(2)),
        (np.array([300], np.int64), np.array([300.0])),
        (np.array([2**70], object), np.array([2**70], object)),
        (np.zeros((2, 3)), np.zeros((1, 3))),
        (np.zeros((2, 3)), np.zeros(3)),
    ], ids=["signed zeros", "NaN payloads", "int and float", "objects",
            "broadcast rows", "broadcast vector"])
    def test_refuses(self, a, b):
        assert not same_bits(a, b) and not same_bits(b, a)

    def test_accepts_equal_views(self):
        """Equal bits, NaN payloads included, in views of any strides."""
        a = np.arange(48.0).reshape(6, 8)
        a[0, 1] = nans(5)[0]
        b = a.copy()
        for view in (lambda m: m[::2, 1::3], lambda m: m.T):
            assert not view(a).flags.c_contiguous
            assert same_bits(view(a), view(b))
            assert same_bits(view(a), np.ascontiguousarray(view(b)))
        assert same_bits(a[:, ::2] > 9, b[:, ::2] > 9)
        wide = a[:, ::2] + 1j  # 16-byte words
        assert same_bits(wide, wide.copy()) and not same_bits(wide, wide + 1)


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

    @pytest.mark.parametrize("shape", [(2, 0), (0, 0)])
    def test_no_columns(self, shape):
        with pytest.raises(ShapeError, match=re.escape(
                f"at least one column, got shape {shape}")):
            row_softmax(np.zeros(shape))


def ys_as_boxes(lo, hi):
    """(N, 4) rows with y1 = lo and y2 = hi; x1 = x2 = 0."""
    zero = np.zeros(len(lo))
    return np.stack([zero, lo, zero, hi], axis=1)


class TestMidpoints:
    """The box centres of `centres`, over a height of 1.0, which divides
    exactly."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.lists(st.tuples(st.floats(-1e308, 1.7e308),
                              st.floats(-1e308, 1.7e308))))
    def test_sum_then_halve_where_finite(self, pairs):
        lo, hi = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = centres(ys_as_boxes(lo, hi), 1.0)
        for m, a, b in zip(got.tolist(), lo.tolist(), hi.tolist()):
            # Python floats overflow quietly; the halves are exact for
            # such large values.
            want = (a + b) / 2.0
            want = want if math.isfinite(want) else a / 2.0 + b / 2.0
            assert m == want
            assert math.isfinite(m) and min(a, b) <= m <= max(a, b)

    def test_past_float_range(self):
        top = 2.0 ** 1023
        got = centres(ys_as_boxes(np.array([top, -1.5 * top, 1.0]),
                                  np.array([1.5 * top, -1.5 * top, 2.0])), 1.0)
        assert got.tolist() == [1.25 * top, -1.5 * top, 1.5]

    def test_halves_only_where_the_sum_overflows(self):
        # Subnormal halves round to 0, so an entry that took lo / 2 + hi / 2
        # without need would read 0.0 where the sum gives 5e-324.
        top, tiny = 2.0 ** 1023, 5e-324
        coords = np.array([[0.0, top, 1.0, 1.5 * top],
                           [0.0, tiny, 1.0, tiny],
                           [0.0, -1.5 * top, 1.0, -top],
                           [0.0, 3.0, 1.0, 0.5]])
        before = coords.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = centres(coords, 1.0)  # whose y columns are strided
        assert got.tolist() == [1.25 * top, tiny, -1.25 * top, 1.75]
        assert coords.tobytes() == before.tobytes()
        assert not np.shares_memory(got, coords)

    @pytest.mark.parametrize("heights", [
        np.array([4, 2**62 + 1, 3]),  # int64, which rounds as a float
        np.array([4, 2**64 + 1, 3], dtype=object),  # an int past int64
        [4.0, 1e-300, 3.0]])
    def test_heights_read_as_float64(self, heights):
        """One height per row, of any dtype, divides as Python's float /
        int or float / float does; a quotient past the float range is
        +inf, with no warning."""
        boxes = ys_as_boxes(np.array([1.0, 5e9, 0.0]),
                            np.array([2.0, 5e9, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = centres(boxes, heights)
        want = [m / h for m, h in zip([1.5, 5e9, 1.5],
                                      np.asarray(heights).tolist())]
        assert got.dtype == np.float64 and got.tolist() == want


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

    @pytest.mark.parametrize("m", [
        np.array([[2.0 ** 60, -0.0, NAN, 1e300, 0.1]]),
        np.array([[2.0 ** 60, -0.0, 0.1]], dtype=np.float32),
        np.array([[2 ** 60, -2 ** 53 - 1, 3, 0]]),
        np.array([[True, False]]),
        np.array([[-2 ** 63, 2 ** 53, -2 ** 53, 7]]),
        np.array([[2 ** 53 + 1, -2 ** 53, 0]]),
        np.array([[-2 ** 53 - 1, 2 ** 53, 0]]),
        np.array([[2 ** 64 - 1, 2 ** 53, 0]], dtype=np.uint64),
        np.array([[2 ** 53, 5, 0]], dtype=np.uint64),
        np.array([[False, False, True]]),
    ], ids=["float64", "float32", "int64", "bool", "int64-min",
            "past-2**53", "past-minus-2**53", "uint64-max", "uint64",
            "bools"])
    def test_entries_as_json_numbers(self, m):
        """Floats as they are, ints as floats up to 2**53 and past it as
        the ints they are, which floats would round."""
        want = [float(v) if abs(v) <= 2**53 else v for v in m[0].tolist()]
        data = matrix_to_json(m)["data"]
        assert list(map(type, data)) == list(map(type, want))
        assert json.dumps(data) == json.dumps(want)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(finite_matrices())
def test_matrix_rewrite_keeps_bytes(m):
    assert_rewrite_stable(save_matrix, load_matrix, m)


def _raise(error):
    raise error


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
        # Each entry is a JSON number, not a string numpy would parse.
        ({"rows": 1, "cols": 2, "data": ["1.5", " 2 "]},
         "bad MTX-JSON data: entry must be a JSON number, got '1.5'"),
        ({"rows": 1, "cols": 2, "data": [1.5, " 2 "]},
         "bad MTX-JSON data: entry must be a JSON number, got ' 2 '"),
        ({"rows": 1, "cols": 1, "data": ["abc"]},
         "bad MTX-JSON data: could not convert string to float: 'abc'"),
        ({"rows": 1, "cols": 1, "data": [None]}, "bad MTX-JSON data: "),
        ({"rows": 1, "cols": 1, "data": [[1.0]]}, "bad MTX-JSON data: "),
    ])
    def test_rejection_names_file(self, tmp_path, obj, message):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=message) as e:
            load_matrix(p)
        assert str(e.value).startswith(f"{p}: ")

    def test_json_numbers_accepted(self, tmp_path):
        # Bools are JSON numbers here, as in corpora; an int past int64
        # is read by float().
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"rows": 2, "cols": 2,
                                 "data": [True, False, 2**70, -3]}))
        assert load_matrix(p).tolist() == [[1.0, 0.0], [2.0**70, -3.0]]

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

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text, parse, raised", [
        ("[1, [2]]", lambda obj: obj, None),
        ("[1, [2", lambda obj: obj, ParseError),
        ("[1, [2]]", lambda obj: obj["rows"], ParseError),
        ("[1, [2]]", lambda obj: _raise(MemoryError()), MemoryError),
    ], ids=["parsed", "invalid-json", "parse-error", "memory-error"])
    def test_leaves_gc_as_found(self, tmp_path, enabled, text, parse,
                                raised):
        """The collector is paused while `parse` runs, and afterwards is
        enabled or disabled as it was before the call."""
        p = tmp_path / "doc.json"
        p.write_text(text)
        paused = []

        def parse_paused(obj):
            paused.append(not gc.isenabled())
            return parse(obj)

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if raised is None:
                assert read_json(p, parse_paused) == [1, [2]]
            else:
                with pytest.raises(raised):
                    read_json(p, parse_paused)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert paused in ([], [True])


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


def _infinite(node: ast.expr) -> bool:
    """Whether the expression `node` is, with or without a sign, an
    infinity (INF, np.inf, math.inf, float("inf"), a literal past the
    float range) or sys.float_info.max."""
    if isinstance(node, ast.UnaryOp):
        return _infinite(node.operand)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float) and math.isinf(node.value)
    if isinstance(node, ast.Call):
        return (ast.unparse(node.func) == "float" and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).strip().lstrip("+-").lower()
                in ("inf", "infinity"))
    name = ast.unparse(node)
    return (isinstance(node, (ast.Name, ast.Attribute))
            and (name.split(".")[-1] in ("INF", "inf", "Inf", "infty")
                 or name.endswith("float_info.max")))


def test_no_comparison_with_infinity():
    """core.finite, and np.isfinite on arrays, are how the library tests
    that a number is finite. No comparison has an infinity or the largest
    float as an operand: an int past the float range passes such a test."""
    for text in ("INF", "-np.inf", "math.inf", 'float("-inf")', "1e999",
                 "sys.float_info.max"):
        assert _infinite(ast.parse(text, mode="eval").body), text
    found = []
    for path in sorted(Path(layoutprior.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(map(_infinite, [node.left, *node.comparators]))]
    assert found == []
