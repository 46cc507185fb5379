"""Domain types, geometry primitives, and the matrix exchange model.

All coordinates are pixels with a top-left origin and y increasing
downward. Matrices are 2-D float64 numpy arrays exchanged on disk as
MTX-JSON: ``{"rows": R, "cols": C, "data": [...]}`` in row-major order.
"""

from __future__ import annotations

import gc
import gzip
import io
import json
import math
import zlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np


class LayoutPriorError(Exception):
    """Base class for all library errors."""


class ParseError(LayoutPriorError):
    """Malformed or inconsistent input data."""


class ShapeError(LayoutPriorError):
    """Matrix dimension mismatch."""


# What parsing a malformed decoded JSON object raises.
PARSE_ERRORS = (KeyError, TypeError, ValueError, OverflowError, ParseError)


def parse_error(where, e: Exception) -> ParseError:
    """A ParseError for `e`, one of PARSE_ERRORS, that says where it arose."""
    reason = f"missing key {e}" if isinstance(e, KeyError) else e
    return ParseError(f"{where}: {reason}")


def finite(x) -> bool:
    """Whether the real number `x` is finite. An int past the float
    range is not, as no float64 array can hold it."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def json_int(value, name: str) -> int:
    """`value`, which must be a JSON integer: an int, not a bool or a
    float. int() reads it first, so that a string or an infinity fails
    with int()'s own error."""
    n = int(value)
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n


def json_number(value, name: str) -> float:
    """float(`value`), which must be a JSON number: an int, a float or a
    bool, not a string such as "1.5". float() reads it first, so that
    "abc" fails with float()'s own error."""
    x = float(value)
    if not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return x


def json_numbers(values: list, name: str, width: int = 0) -> np.ndarray:
    """`values`, JSON numbers or rows of `width` of them, as float64. What
    numpy does not read so, ints past int64 or faults, goes through
    json_number."""
    shape = (len(values), width) if width else (len(values),)
    try:
        a = np.array(values) if values else np.empty(shape)
        if a.dtype.kind in "biuf" and a.shape == shape:
            return a.astype(np.float64, copy=False)
    except (ValueError, OverflowError):  # ragged rows, or an int past float
        pass
    if not width:
        return np.array([json_number(v, name) for v in values])
    rows = [[json_number(v, name) for v in row] for row in values]
    for row in rows:
        if len(row) != width:
            raise ValueError(f"bbox must hold {width} numbers, got {len(row)}")
    return np.array(rows)


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, flagged read-only."""
    a.flags.writeable = False
    return a


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether `a` and `b` have one dtype, not object, one shape and the
    same bit patterns, compared as unsigned words without a copy: -0.0
    is not 0.0, NaNs compare by payload and 300 is not 300.0."""
    if a.dtype != b.dtype or a.dtype.hasobject or a.shape != b.shape:
        return False
    n = a.dtype.itemsize
    word = np.dtype(f"u{n}" if n in (1, 2, 4, 8) else (np.uint8, n))
    return not np.not_equal(a.view(word), b.view(word)).any()


def fields_equal(a, b):
    """An __eq__ for dataclasses with array fields: equal when `b` is of
    `a`'s class and every field is equal, compared by np.array_equal
    where either side is an array."""
    if b.__class__ is not a.__class__:
        return NotImplemented
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return all(np.array_equal(x, y)
               if isinstance(x, np.ndarray) or isinstance(y, np.ndarray)
               else x == y for x, y in pairs)


def open_text(path, mode: str = "rt"):
    """Open a UTF-8 text file, whatever the locale, gzip-compressed with a
    zero timestamp when the path ends in .gz. No other code in the
    library opens a file."""
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.GzipFile(path, mode[0] + "b", mtime=0),
                                encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_text(path, parts) -> None:
    """Write the strings of the iterable `parts` to `path`, in order."""
    with open_text(path, "wt") as f:
        f.writelines(parts)


def read_json(path, parse, stream=None):
    """parse(obj) of the JSON document in the file at `path`, whose text
    is read once. Where `stream` is given, stream(text) is tried first,
    and a result other than None is returned as it is. A `stream` returns
    None for any text that it would not read exactly as parse of the
    whole decoded document does, so that the whole-document read raises
    every error.

    Content that does not decode, or that `parse` rejects with one of
    PARSE_ERRORS, raises a ParseError naming the file. Any other OSError
    passes through.

    The stream, the decode and the parse run with the cyclic garbage
    collector paused. A decoded document holds one container per JSON
    object and array, tens of thousands for a corpus, and no reference
    cycle, so the collections that allocating them would start free
    nothing. On the way out the decoded document is released first;
    only then is the collector re-enabled, and only if it was enabled on
    entry. Were the document released after, an allocation in between
    would find the youngest generation tens of thousands of objects over
    its threshold and start a pass over the whole document.
    """
    enabled, obj = gc.isenabled(), None
    gc.disable()
    try:
        with open_text(path) as f:
            try:
                text = f.read()
                result = stream(text) if stream else None
                if result is None:  # the text goes before the parse
                    obj, text = json.loads(text), None
            # JSONDecodeError and UnicodeDecodeError are ValueErrors; a bad
            # .gz raises EOFError, zlib.error or BadGzipFile, and nesting
            # too deep for the decoder RecursionError.
            except (ValueError, EOFError, zlib.error, gzip.BadGzipFile,
                    RecursionError) as e:
                raise ParseError(f"{path}: invalid JSON: {e}") from None
        try:
            return parse(obj) if result is None else result
        except PARSE_ERRORS as e:
            raise parse_error(path, e) from None
    finally:
        obj = None  # the document goes before the collector resumes
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class ClassVocabulary:
    names: tuple

    def __post_init__(self):
        if not isinstance(self.names, (list, tuple)):  # a file's "classes"
            raise ParseError(f"classes must be a list, got {self.names!r}")
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(names) < 1:
            raise ParseError("vocabulary must contain at least one class")
        if any(not (isinstance(n, str) and n) for n in names):
            raise ParseError("vocabulary class names must be non-empty strings")
        if len(set(names)) != len(names):
            raise ParseError("vocabulary class names must be unique")
        # Not a dataclass field: equality and hashing stay on `names`.
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def id_of(self):
        """The id of a class name, looked up in C: unchecked, it raises
        KeyError for an unknown name and TypeError for an unhashable one,
        where `index` raises a ParseError."""
        return self._index.__getitem__

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ParseError(f"unknown class name: {name!r}") from None


@dataclass(frozen=True)
class BBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (all(map(finite, (self.x1, self.y1, self.x2, self.y2)))
                and self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ParseError(
                f"malformed box ({self.x1},{self.y1},{self.x2},{self.y2}): "
                "coordinates must be finite with x1 <= x2 and y1 <= y2"
            )


@dataclass(frozen=True)
class Component:
    bbox: BBox
    class_id: int
    score: Optional[float] = None

    def __post_init__(self):
        if self.score is not None and not finite(self.score):
            raise ParseError(f"non-finite score: {self.score}")


@dataclass(frozen=True)
class LayoutDocument:
    id: str
    width: float
    height: float
    components: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not (finite(self.width) and finite(self.height)
                and self.width > 0 and self.height > 0):
            raise ParseError(
                f"layout {self.id!r}: canvas size must be positive and finite")


@dataclass(frozen=True, eq=False)
class ProposalBatch:
    """N_r candidate boxes, as read-only (N_r, 4) float64 `coords` rows of
    x1, y1, x2, y2, with class logits and optional features."""

    coords: np.ndarray
    logits: np.ndarray
    layout_height: float
    features: Optional[np.ndarray] = None

    __eq__ = fields_equal  # and no hash, as the arrays have none

    def __post_init__(self):
        # A private copy, so that the `boxes` view cannot go stale.
        c = read_only(np.array(self.coords, dtype=np.float64))
        object.__setattr__(self, "coords", c)
        if c.ndim != 2 or c.shape[1] != 4:
            raise ShapeError(f"coords shape {c.shape} is not (N, 4)")
        if not (np.isfinite(c).all() and (c[:, :2] <= c[:, 2:]).all()):
            for row in c.tolist():  # the first bad row raises BBox's error
                BBox(*row)
        for name in ("logits",) + ("features",) * (self.features is not None):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != len(c):
                raise ShapeError(
                    f"{name} shape {m.shape} does not match {len(c)} boxes")
            object.__setattr__(self, name, m)
        if not (finite(self.layout_height) and self.layout_height > 0):
            raise ParseError("layout_height must be positive and finite")
        # A float, so that a 0-d array is not shared with the caller.
        object.__setattr__(self, "layout_height", float(self.layout_height))

    @cached_property
    def boxes(self) -> tuple:
        """The boxes as BBox objects, built on first use: a read-only view
        kept for callers outside the library."""
        return tuple(map(BBox, *self.coords.T.tolist()))


@np.errstate(over="ignore")  # a sum or quotient past the float range is inf
def centres(boxes: np.ndarray, heights) -> np.ndarray:
    """t = ((y1 + y2) / 2) / H of each x1, y1, x2, y2 row of finite
    `boxes`, the vertical centre as a fraction of the canvas height H:
    `heights`, one for every row or one per row, read as float64. Where
    y1 + y2 passes the float range, the centre is y1 / 2 + y2 / 2."""
    lo, hi = boxes[:, 1], boxes[:, 3]
    mid = (lo + hi) / 2.0
    past = np.isinf(mid)
    if past.any():
        mid[past] = lo[past] / 2.0 + hi[past] / 2.0
    return mid / np.asarray(heights, dtype=np.float64)


@np.errstate(over="ignore")  # an area past the float range is inf
def box_areas(boxes: np.ndarray) -> np.ndarray:
    """Areas of a (..., 4) array of x1, y1, x2, y2 rows."""
    return (boxes[..., 2] - boxes[..., 0]) * (boxes[..., 3] - boxes[..., 1])


@np.errstate(over="ignore", invalid="ignore")
def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (..., N, 4) and (..., M, 4) float box arrays as an
    (..., N, M) array, broadcasting the leading dimensions; 0 where the
    union has zero area or is inf - inf. Every cell is computed with the
    same operations whatever the leading shape."""
    a, b = a[..., :, None, :], b[..., None, :, :]
    ix = np.maximum(0.0, np.minimum(a[..., 2], b[..., 2])
                    - np.maximum(a[..., 0], b[..., 0]))
    iy = np.maximum(0.0, np.minimum(a[..., 3], b[..., 3])
                    - np.maximum(a[..., 1], b[..., 1]))
    inter = ix * iy
    union = box_areas(a) + box_areas(b) - inter
    positive = union > 0.0
    return np.where(positive, inter / np.where(positive, union, 1.0), 0.0)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return a @ b


def row_softmax(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or not m.shape[1]:
        raise ShapeError("row_softmax expects a 2-D matrix with at least one "
                         f"column, got shape {m.shape}")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def matrix_to_json(m: np.ndarray) -> dict:
    """MTX-JSON of `m`; ints past 2**53, which floats round, stay ints."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"MTX-JSON stores 2-D matrices only, got shape {m.shape}")
    if m.dtype.kind in "biu" and (
            not m.size or -2**53 <= m.min() and m.max() <= 2**53):
        m = m.astype(np.float64)  # which holds each of these ints exactly
    data = m.ravel().tolist()
    if not (m.dtype.kind == "f" and m.dtype.itemsize <= 8):  # Python floats
        data = [float(v) if abs(v) <= 2**53 else v for v in data]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows = json_int(obj["rows"], "rows")
        cols = json_int(obj["cols"], "cols")
        data = obj["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad MTX-JSON object: {e}") from None
    if len(data) != rows * cols:
        raise ParseError(
            f"MTX-JSON data length {len(data)} != rows*cols {rows * cols}"
        )
    try:
        m = json_numbers(data, "entry").reshape(rows, cols)
    except PARSE_ERRORS as e:
        raise ParseError(f"bad MTX-JSON data: {e}") from None
    if not np.all(np.isfinite(m)):
        raise ParseError("MTX-JSON entries must be finite")
    return m


def save_matrix(m: np.ndarray, path) -> None:
    """Write `m` as MTX-JSON. Non-finite entries, which `load_matrix`
    rejects, raise a ParseError before the file is opened."""
    obj = matrix_to_json(m)
    if not np.all(np.isfinite(obj["data"])):
        raise ParseError(f"{path}: not written: MTX-JSON entries must be "
                         "finite")
    write_text(path, [json.dumps(obj)])


def load_matrix(path) -> np.ndarray:
    return read_json(path, matrix_from_json)
