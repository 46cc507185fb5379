"""Corpora as arrays, and the native layout JSON that holds them.

Native corpus format::

    {"classes": ["..."],
     "layouts": [{"id": "...", "width": W, "height": H,
                  "components": [{"bbox": [x1,y1,x2,y2],
                                  "class": "name",
                                  "score": optional}]}]}

``.json.gz`` paths are handled transparently on both read and write.

A `Corpus` is its arrays, each one field: the layout ids and canvas sides,
and one row per component in layout order; corpora compare field by field.
Their shapes are checked: one row per component in every component
array, and an `index` of layout positions in non-decreasing order. Then
their values are checked, with the texts of the objects below, so that
no `Corpus` holds a box, score or side that the native format refuses.
`Corpus.layouts` is a read-only view of them as `LayoutDocument`
objects, kept for callers outside the library.
`save_native_labelings` writes corpora that label the same layouts, as
`synth`'s clean and noisy corpora do, in one pass that formats each
shared box once; `save_native` is its one-corpus case.
`load_native` reads the file's text once. Where the top-level object
holds "classes" and then "layouts" alone, as every file the library
writes does, it decodes the layout records a block at a time with the
stdlib decoder's own scanner and makes each block's arrays before it
decodes the next, so the decoded document never exists whole. Any
other document, and any fault (a syntax error, trailing data, a bad
vocabulary or record), takes the whole-document read of the same text:
json.loads, then the arrays in one pass, which raises every error. A
side, coordinate or score must be a JSON number (an int, float or bool,
not a string such as "1.5") and `components`, when present, a list. On
a fault the pass is run on one record at a time, and the error names
the first failing record: ``layout {i}: id {id!r}: reason``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import operator
import os
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .core import (PARSE_ERRORS, BBox, ClassVocabulary, Component,
                   LayoutDocument, ParseError, ShapeError, check_boxes,
                   fields_equal, finite, json_numbers, open_text,
                   parse_error, read_json, read_only, same_bits)


@dataclass(frozen=True, eq=False)
class Corpus:
    """A class vocabulary and the layouts labelled with it, as arrays.

    Per layout, in layout order: `ids` and the canvas `widths` and
    `heights`. Per component, in layout order: `index`, its layout's
    position; `class_id`; `score`, 1.0 where absent, and `scored`, which
    flags the scores present; and `boxes`, float64 (N, 4) rows of x1, y1,
    x2, y2. Every array is read-only and owns its data, as a view given
    is copied; corpora compare field by field.
    """

    vocabulary: ClassVocabulary
    ids: tuple
    widths: np.ndarray
    heights: np.ndarray
    index: np.ndarray
    class_id: np.ndarray
    score: np.ndarray
    scored: np.ndarray
    boxes: np.ndarray

    __eq__ = fields_equal

    def __hash__(self):
        return hash((self.vocabulary, self.ids))

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        for f in fields(self)[2:]:
            a = np.asarray(getattr(self, f.name),
                           np.float64 if f.name == "boxes" else None)
            if a.base is not None:  # a view, which its base could change
                a = a.copy()
            object.__setattr__(self, f.name, read_only(a))
        L, N, index = len(self.ids), self.index.size, self.index
        for name, shape in (("widths", (L,)), ("heights", (L,)),
                            ("index", (N,)), ("class_id", (N,)),
                            ("score", (N,)), ("scored", (N,)),
                            ("boxes", (N, 4))):
            if getattr(self, name).shape != shape:
                raise ShapeError(f"corpus {name} has shape "
                                 f"{getattr(self, name).shape}, not {shape}")
        if N and not (index.dtype.kind in "iu" and 0 <= index[0]
                      and index[-1] < L and (index[1:] >= index[:-1]).all()):
            raise ShapeError("corpus index must hold layout positions in "
                             f"[0, {L}), in non-decreasing order")
        ids = Counter(self.ids)
        if len(ids) != len(self.ids):
            dupes = sorted(i for i, n in ids.items() if n > 1)
            raise ParseError(f"duplicate layout ids in corpus: {dupes}")
        C = self.vocabulary.size
        bad = np.flatnonzero((self.class_id < 0) | (self.class_id >= C))
        if len(bad):
            k = bad[0]
            raise ParseError(f"layout {self.ids[self.index[k]]!r}: class "
                             f"id {self.class_id[k]} out of range for {C} "
                             "classes")
        _check_values(self.ids, self.widths, self.heights, self.score,
                      self.scored, self.boxes)

    @cached_property
    def offsets(self) -> list:
        """Where each layout's components start in the component arrays,
        and where the last one ends: len(ids) + 1 ints."""
        return np.searchsorted(self.index,
                               np.arange(len(self.ids) + 1)).tolist()

    @cached_property
    def layouts(self) -> tuple:
        """The layouts as LayoutDocument objects, built on first use: a
        read-only view kept for callers outside the library."""
        cuts = self.offsets
        scores = np.where(self.scored, self.score, None)
        boxes = map(BBox, *self.boxes.T.tolist())
        comps = list(map(Component, boxes, self.class_id.tolist(),
                         scores.tolist()))
        return tuple(LayoutDocument(i, w, h, comps[lo:hi]) for i, w, h, lo, hi
                     in zip(self.ids, self.widths.tolist(),
                            self.heights.tolist(), cuts, cuts[1:]))


def _finite(a: np.ndarray) -> np.ndarray:
    """np.isfinite(`a`), with core.finite judging an object column's
    entries, such as ints past int64."""
    return (np.fromiter(map(finite, a.tolist()), bool, a.size)
            if a.dtype.hasobject else np.isfinite(a))


def _check_values(ids, widths, heights, score, scored, boxes) -> None:
    """Raise the first value fault of a corpus's columns, in reading
    order: each component's box, then its present score; then each
    layout's canvas, which must be finite and positive."""
    bad = np.flatnonzero(np.logical_and(scored, ~_finite(score)))
    check_boxes(boxes[:bad[0] + 1] if len(bad) else boxes)
    if len(bad):
        raise ParseError(f"non-finite score: {score.item(bad[0])}")
    ok = _finite(widths) & _finite(heights) & (widths > 0) & (heights > 0)
    if not ok.all():
        raise ParseError(f"layout {ids[np.argmin(ok)]!r}: canvas size must "
                         "be positive and finite")


def _columns(records, vocab: ClassVocabulary) -> tuple:
    """The columns of the corpus of the native layout `records`, in the
    order of Corpus's fields after the vocabulary. It reads each field
    for every record or component before the next: id, width, height,
    components, class, bbox and score. Then _check_values raises the
    first value fault, before the boxes are clamped to their canvas."""
    ids = [str(lay["id"]) for lay in records]
    L = len(ids)
    widths = json_numbers([lay["width"] for lay in records], "width")
    heights = json_numbers([lay["height"] for lay in records], "height")
    comps = [lay.get("components", []) for lay in records]
    for c in comps:
        if type(c) is not list:
            raise ValueError(f"components must be a list, got {c!r}")
    layout = np.repeat(np.arange(L), np.fromiter(map(len, comps), np.int64, L))
    flat = list(itertools.chain.from_iterable(comps))
    N = len(flat)
    names = map(operator.itemgetter("class"), flat)
    try:
        cls = np.fromiter(map(vocab.id_of, names), np.int64, N)
    except (KeyError, TypeError):
        # Read again one at a time, so that the first fault raises its text.
        cls = np.fromiter((vocab.index(c["class"]) for c in flat), np.int64, N)
    boxes = json_numbers([c["bbox"] for c in flat], "bbox coordinate", 4)
    scores = [c.get("score") for c in flat]
    scored = np.fromiter((s is not None for s in scores), bool, N)
    score = np.ones(N)
    score[scored] = json_numbers([s for s in scores if s is not None],
                                 "score")
    _check_values(ids, widths, heights, score, scored, boxes)
    # The clamp to the canvas, in place: max(v, 0.0) keeps v, -0.0
    # included, unless 0.0 > v, and min(v, side) keeps v unless side < v.
    corners = boxes.reshape(N, 2, 2)  # (x1, y1) and (x2, y2)
    side = np.stack([widths, heights], axis=1)[layout][:, None, :]
    np.copyto(corners, 0.0, where=corners < 0.0)
    np.copyto(corners, side, where=corners > side)
    return ids, widths, heights, layout, cls, score, scored, boxes


def _corpus_from_obj(obj) -> Corpus:
    if not (isinstance(obj, dict) and isinstance(obj.get("classes"), list)
            and isinstance(obj.get("layouts"), list)):
        raise ParseError("needs a 'classes' and a 'layouts' list")
    vocab = ClassVocabulary(obj["classes"])
    try:
        return Corpus(vocab, *_columns(obj["layouts"], vocab))
    except PARSE_ERRORS as error:  # named by the first record failing alone
        for i, lay in enumerate(obj["layouts"]):
            try:
                _columns([lay], vocab)
            except PARSE_ERRORS as e:
                lid = lay.get("id") if isinstance(lay, dict) else None
                raise parse_error(f"layout {i}" if lid is None else
                                  f"layout {i}: id {lid!r}", e) from None
        raise error from None


# The stdlib decoder's own parts, so that each value decodes as
# json.loads decodes it.
_scan = json.JSONDecoder().scan_once
_space = json.decoder.WHITESPACE.match
_READ_LAYOUTS = 64  # layout records decoded per block, held at once


def _past(text: str, at: int, *tokens: str) -> int:
    """The first non-whitespace position in `text` past `tokens`, which
    must follow `at` in order, each after any JSON whitespace; a missing
    one raises StopIteration, as the scanner does on a bad value."""
    at = _space(text, at).end()
    for token in tokens:
        if not text.startswith(token, at):
            raise StopIteration
        at = _space(text, at + len(token)).end()
    return at


def _streamed(text: str):
    """The corpus of the native document `text`, whose layout records are
    decoded _READ_LAYOUTS at a time, each block dropped once `_columns`
    has made its arrays; None for a document that the whole-document
    read must take: one with a fault anywhere, or whose top level is not
    the library's shape, "classes" and then "layouts" alone."""
    try:
        classes, at = _scan(text, _past(text, 0, "{", '"classes"', ":"))
        vocab = ClassVocabulary(classes)
        at = _past(text, at, ",", '"layouts"', ":", "[")
        blocks, records, more = [], [], not text.startswith("]", at)
        while more:
            record, at = _scan(text, at)
            records.append(record)
            if len(records) == _READ_LAYOUTS:
                blocks.append(_columns(records, vocab))
                records = []
            # The comma is matched inline: a _past call per record cost
            # about 2 ms on a 1000-layout load.
            at = _space(text, at).end()
            more = text.startswith(",", at)
            if more:
                at = _space(text, at + 1).end()
        blocks.append(_columns(records, vocab))
        if _past(text, at, "]", "}") != len(text):
            return None
        cols = list(zip(*blocks))  # each field's parts, block by block
        starts = itertools.accumulate(map(len, cols[0]), initial=0)
        cols[3] = [part + s for part, s in zip(cols[3], starts)]  # index
        return Corpus(vocab, itertools.chain.from_iterable(cols[0]),
                      *map(np.concatenate, cols[1:]))
    except (StopIteration, RecursionError, *PARSE_ERRORS):
        return None


def load_native(path) -> Corpus:
    return read_json(path, _corpus_from_obj, _streamed)


def corpus_to_obj(corpus: Corpus) -> dict:
    names, cuts = corpus.vocabulary.names, corpus.offsets
    comps = [{"bbox": box, "class": names[c], **({"score": s} if has else {})}
             for box, c, s, has in zip(
                 corpus.boxes.tolist(), corpus.class_id.tolist(),
                 corpus.score.tolist(), corpus.scored.tolist())]
    return {"classes": list(names), "layouts": [
        {"id": i, "width": w, "height": h, "components": comps[a:b]}
        for i, w, h, a, b in zip(corpus.ids, corpus.widths.tolist(),
                                 corpus.heights.tolist(), cuts, cuts[1:])]}


# The native writer writes what json.dump(corpus_to_obj(c), f, indent=1,
# sort_keys=True) writes, from these templates for the depth each part
# sits at in the document. A number is formatted by %r: float.__repr__,
# json's float format, or an int's digits.
_str = json.encoder.encode_basestring_ascii
_BOX = ("    {\n     \"bbox\": [\n      %r,\n      %r,\n      %r,\n"
        "      %r\n     ],\n     \"class\": ")
_SCORE = ",\n     \"score\": %r"
_LAYOUT = ("  {\n   \"components\": %s,\n   \"height\": %r,\n"
           "   \"id\": %s,\n   \"width\": %r\n  }")
_WRITE_LAYOUTS = 8  # layouts per writer step, whose texts it holds at once


def _same_file(a, b) -> bool:
    """Whether the paths `a` and `b` name one file, existing or not."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _write_layouts(corpora: tuple, encoded: tuple, files: list):
    """Write the layouts' entries as json.dump writes them inside each
    corpus's document to that corpus's file, _WRITE_LAYOUTS layouts per
    step. `encoded[k]` holds the JSON strings of corpus k's class names.
    A step's shared boxes are formatted once, in one `%` over _BOX."""
    first = corpora[0]
    cuts = first.offsets
    counts = np.diff(cuts).tolist()
    for at in range(0, len(first.ids), _WRITE_LAYOUTS):
        rows = slice(at, at + _WRITE_LAYOUTS)
        a, b = cuts[at], cuts[min(at + _WRITE_LAYOUTS, len(first.ids))]
        boxes = ((_BOX + "\0") * (b - a)
                 % tuple(first.boxes[a:b].ravel().tolist())).split("\0")
        layouts = list(zip(map(_str, first.ids[rows]), counts[rows],
                           first.widths[rows].tolist(),
                           first.heights[rows].tolist()))
        for corpus, names, f in zip(corpora, encoded, files):
            tails = [names[c] for c in corpus.class_id[a:b].tolist()]
            scored = np.flatnonzero(corpus.scored[a:b])
            for k, s in zip(scored.tolist(), corpus.score[a + scored].tolist()):
                tails[k] += _SCORE % s
            comps = map(operator.add, boxes, tails)
            f.write(",\n" if at else "\n")
            f.write(",\n".join([_LAYOUT % (
                "[\n%s\n    }\n   ]" % "\n    },\n".join(
                    itertools.islice(comps, n)) if n else "[]", h, lid, w)
                for lid, n, w, h in layouts]))


def save_native_labelings(corpora, paths) -> None:
    """Write each of `corpora`, labelings of the same layouts, as native
    JSON to the path at its position in `paths`, in one pass over the
    layouts; each file's bytes are json.dump(corpus_to_obj(corpus), f,
    indent=1, sort_keys=True) and a newline.

    The corpora must share their ids, canvas sides, index and boxes, as
    equal values of one dtype, and each box's text is formatted once for
    all of them; a ShapeError is raised otherwise. A file named by more
    than one path ends up holding the last of its corpora, as writing
    them one after another would leave it.
    """
    corpora, paths = tuple(corpora), tuple(paths)
    if not corpora or len(corpora) != len(paths):
        raise ShapeError(f"{len(corpora)} corpora for {len(paths)} paths")
    first = corpora[0]
    for corpus in corpora[1:]:
        # Columns written as the same text: one array, or the same bits,
        # which an object column (ints past int64) never has.
        pairs = ((getattr(corpus, n), getattr(first, n))
                 for n in ("widths", "heights", "index", "boxes"))
        if corpus.ids != first.ids or not all(
                a is b or same_bits(a, b) for a, b in pairs):
            raise ShapeError("corpora written together must share their "
                             "ids, canvas sides, index and boxes")
    keep = [k for k, p in enumerate(paths)
            if not any(_same_file(p, q) for q in paths[k + 1:])]
    corpora = tuple(corpora[k] for k in keep)
    encoded = [tuple(map(_str, c.vocabulary.names)) for c in corpora]
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open_text(paths[k], "wt")) for k in keep]
        for f, names in zip(files, encoded):
            classes = ",\n".join("  " + n for n in names)
            f.write(f"{{\n \"classes\": [\n{classes}\n ],\n \"layouts\": [")
        _write_layouts(corpora, encoded, files)
        for f in files:
            f.write("\n ]\n}\n" if first.ids else "]\n}\n")


def save_native(corpus: Corpus, path) -> None:
    """Write `corpus` as native JSON, one layout at a time: the one-corpus
    case of save_native_labelings."""
    save_native_labelings((corpus,), (path,))

