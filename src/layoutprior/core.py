"""Domain types, geometry primitives, and the matrix exchange model.

All coordinates are pixels with a top-left origin and y increasing
downward. Matrices are 2-D float64 numpy arrays exchanged on disk as
MTX-JSON: ``{"rows": R, "cols": C, "data": [...]}`` in row-major order.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import zlib
from dataclasses import dataclass, field, fields
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
    """Open a text file, gzip-compressed with a zero timestamp when the
    path ends in .gz. No other code in the library opens a file."""
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.GzipFile(path, mode[0] + "b", mtime=0))
    return open(path, mode)


def write_text(path, parts) -> None:
    """Write the strings of the iterable `parts` to `path`, in order."""
    with open_text(path, "wt") as f:
        f.writelines(parts)


def read_json(path, parse):
    """parse(obj) of the JSON document in the file at `path`.

    Content that does not decode, or that `parse` rejects with one of
    PARSE_ERRORS, raises a ParseError naming the file. Any other OSError
    passes through.
    """
    with open_text(path) as f:
        try:
            obj = json.load(f)
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; a bad
        # .gz raises EOFError, zlib.error or BadGzipFile.
        except (ValueError, EOFError, zlib.error, gzip.BadGzipFile) as e:
            raise ParseError(f"{path}: invalid JSON: {e}") from None
    try:
        return parse(obj)
    except PARSE_ERRORS as e:
        raise parse_error(path, e) from None


@dataclass(frozen=True)
class ClassVocabulary:
    names: tuple

    def __post_init__(self):
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
    """N_r candidate boxes with class logits and optional features."""

    boxes: tuple
    logits: np.ndarray
    layout_height: float
    features: Optional[np.ndarray] = None

    __eq__ = fields_equal  # and no hash, as the arrays have none

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        logits = np.asarray(self.logits, dtype=np.float64)
        object.__setattr__(self, "logits", logits)
        if logits.ndim != 2 or logits.shape[0] != len(self.boxes):
            raise ShapeError(
                f"logits shape {logits.shape} does not match {len(self.boxes)} boxes"
            )
        if self.features is not None:
            feats = np.asarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != len(self.boxes):
                raise ShapeError(
                    f"features shape {feats.shape} does not match "
                    f"{len(self.boxes)} boxes"
                )
            object.__setattr__(self, "features", feats)
        if not (finite(self.layout_height) and self.layout_height > 0):
            raise ParseError("layout_height must be positive and finite")


def midpoint(lo: float, hi: float) -> float:
    """(lo + hi) / 2 of two finite floats; where the sum passes the float
    range, lo / 2 + hi / 2, which does not."""
    mid = (lo + hi) / 2.0
    return lo / 2.0 + hi / 2.0 if math.isinf(mid) else mid


def midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """`midpoint` of each pair of entries of two float arrays."""
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return np.where(np.isinf(mid), lo / 2.0 + hi / 2.0, mid)


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
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [float(v) if abs(v) <= 2**53 else v
                     for v in m.ravel().tolist()]}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows = json_int(obj["rows"], "rows")
        cols = json_int(obj["cols"], "cols")
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as e:
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
