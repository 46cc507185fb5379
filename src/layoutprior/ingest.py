"""Corpus loading and saving: native layout JSON and COCO-style imports.

Native corpus format::

    {"classes": ["..."],
     "layouts": [{"id": "...", "width": W, "height": H,
                  "components": [{"bbox": [x1,y1,x2,y2],
                                  "class": "name",
                                  "score": optional}]}]}

``.json.gz`` paths are handled transparently on both read and write.

A COCO document is translated into native records, its ``[x, y, w, h]``
boxes becoming ``[x1, y1, x2, y2]``, and parsed as a native file is.

``Corpus.columns`` is the corpus as flat arrays, one row per component
in layout order: layout index, class id, score (1.0 when missing) and an
(N, 4) box array; ``Corpus.ids`` and ``Corpus.heights`` hold the layout
ids and canvas heights. They are cached and read-only, and they are not
dataclass fields: equality and hashing stay those of the vocabulary and
the layouts, and ``replace`` ignores them.

``load_native`` builds them from the decoded JSON in one array pass and
builds the layout objects only when ``Corpus.layouts`` is first read.
A file that pass cannot take, because some value is not read by numpy
as a number or some record fails a check, goes through the per-record
parser instead, which gives the same corpus for any file both accept and
raises the error that names the record.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (PARSE_ERRORS, BBox, ClassVocabulary, Component,
                   LayoutDocument, ParseError, parse_error, read_json,
                   read_only, write_text)


@dataclass(frozen=True)
class Corpus:
    """A class vocabulary and the layouts labelled with it.

    `ids`, `heights` and `columns` are derived from `layouts` on first
    use. A corpus that `load_native` read holds them from the start, and
    its `layouts` are built from them on first use.
    """

    vocabulary: ClassVocabulary
    layouts: tuple

    @cached_property
    def ids(self) -> tuple:
        """The layout ids, in layout order."""
        return tuple(lay.id for lay in self.layouts)

    @cached_property
    def heights(self) -> np.ndarray:
        """Read-only float64 canvas heights, in layout order."""
        return read_only(np.array([lay.height for lay in self.layouts],
                                   dtype=np.float64))

    @cached_property
    def columns(self):
        """(layout, class_id, score, boxes) arrays; see the module
        docstring. A box row is x1, y1, x2, y2."""
        n = sum(len(lay.components) for lay in self.layouts)
        rows = ((i, c.class_id, 1.0 if c.score is None else c.score,
                 c.bbox.x1, c.bbox.y1, c.bbox.x2, c.bbox.y2)
                for i, lay in enumerate(self.layouts) for c in lay.components)
        cols = np.fromiter(itertools.chain.from_iterable(rows),
                           dtype=np.float64, count=7 * n).reshape(n, 7)
        return tuple(read_only(a) for a in (
            cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64),
            cols[:, 2], cols[:, 3:]))

    def __post_init__(self):
        object.__setattr__(self, "layouts", tuple(self.layouts))
        ids = Counter(l.id for l in self.layouts)
        if len(ids) != len(self.layouts):
            dupes = sorted(i for i, n in ids.items() if n > 1)
            raise ParseError(f"duplicate layout ids in corpus: {dupes}")
        C = self.vocabulary.size
        for layout in self.layouts:
            for comp in layout.components:
                if not (0 <= comp.class_id < C):
                    raise ParseError(
                        f"layout {layout.id!r}: class id {comp.class_id} "
                        f"out of range for {C} classes"
                    )

    @classmethod
    def _from_columns(cls, vocabulary, ids, widths, heights, columns,
                      scored) -> Corpus:
        """A corpus of checked arrays, whose `layouts` are built on first
        use; `scored` flags the components that have a score."""
        corpus = object.__new__(cls)
        vars(corpus).update(vocabulary=vocabulary, ids=ids, heights=heights,
                            columns=columns, _widths=widths, _scored=scored)
        return corpus

    def __getattr__(self, name):
        # Reached only for an attribute that is not set: the `layouts` of
        # a corpus made by _from_columns, until they are first built.
        if name != "layouts" or "_widths" not in vars(self):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        layout, cls, score, boxes = self.columns
        bounds = np.searchsorted(layout, np.arange(len(self.ids) + 1))
        scores = np.where(self._scored, score, None)
        comps = [Component(BBox(*b), c, s) for b, c, s in
                 zip(boxes.tolist(), cls.tolist(), scores.tolist())]
        layouts = tuple(
            LayoutDocument(i, w, h, comps[a:b]) for i, w, h, a, b in zip(
                self.ids, self._widths.tolist(), self.heights.tolist(),
                bounds[:-1].tolist(), bounds[1:].tolist()))
        object.__setattr__(self, "layouts", layouts)
        return layouts


def _layout_from_obj(lay, vocab: ClassVocabulary) -> LayoutDocument:
    lid = lay["id"]
    width, height = float(lay["width"]), float(lay["height"])
    comps = []
    for c in lay.get("components", []):
        class_id = vocab.index(c["class"])
        bbox = BBox(*(float(v) for v in c["bbox"])).clamped(width, height)
        score = c.get("score")
        comps.append(Component(bbox, class_id,
                               None if score is None else float(score)))
    return LayoutDocument(str(lid), width, height, tuple(comps))


def _parse_records(records, vocab: ClassVocabulary) -> Corpus:
    """The corpus of the native layout `records`, parsed one record at a
    time: the reference for _columns, and the parser whose errors name
    the record."""
    layouts = []
    for i, lay in enumerate(records):
        try:
            layouts.append(_layout_from_obj(lay, vocab))
        except PARSE_ERRORS as e:
            lid = lay.get("id") if isinstance(lay, dict) else None
            where = f"layout {i}" if lid is None else f"layout {i}: id {lid!r}"
            raise parse_error(where, e) from None
    return Corpus(vocab, tuple(layouts))


def _numbers(values, shape) -> np.ndarray:
    """`values` as a float64 array of `shape`; a ValueError unless numpy
    reads them as bool, integer or float numbers of that shape."""
    a = np.array(values) if len(values) else np.empty(shape)
    if a.dtype.kind not in "biuf" or a.shape != shape:
        raise ValueError(f"not {shape} numbers")
    return a.astype(np.float64, copy=False)


def _columns(records, vocab: ClassVocabulary) -> Corpus:
    """The corpus that _parse_records makes of `records`, built as arrays
    with no layout object. Raises one of PARSE_ERRORS, with no message
    meant for the user, wherever _parse_records would convert a value
    numpy does not read as a number or would reject a record."""
    ids = [str(lay["id"]) for lay in records]
    L = len(ids)
    widths = _numbers([lay["width"] for lay in records], (L,))
    heights = _numbers([lay["height"] for lay in records], (L,))
    comps = [lay.get("components", []) for lay in records]
    counts = np.fromiter(map(len, comps), np.int64, L)
    flat = list(itertools.chain.from_iterable(comps))
    N = len(flat)
    cls = np.fromiter((vocab.index(c["class"]) for c in flat), np.int64, N)
    boxes = _numbers([c["bbox"] for c in flat], (N, 4))
    scores = [c.get("score") for c in flat]
    scored = np.fromiter((s is not None for s in scores), bool, N)
    score = np.ones(N)
    score[scored] = _numbers([s for s in scores if s is not None],
                             (int(scored.sum()),))
    # The checks of BBox, Component, LayoutDocument and Corpus.
    x1, y1, x2, y2 = boxes.T
    if not (np.isfinite(boxes).all() and (x1 <= x2).all()
            and (y1 <= y2).all() and np.isfinite(score).all()
            and ((0.0 < widths) & (widths < np.inf)).all()
            and ((0.0 < heights) & (heights < np.inf)).all()
            and len(set(ids)) == L):
        raise ValueError("a record fails a check")
    # BBox.clamped, in place: max(v, 0.0) keeps v, -0.0 included, unless
    # 0.0 > v, and min(v, side) keeps v unless side < v.
    layout = np.repeat(np.arange(L), counts)
    corners = boxes.reshape(N, 2, 2)  # (x1, y1) and (x2, y2)
    side = np.stack([widths, heights], axis=1)[layout][:, None, :]
    np.copyto(corners, 0.0, where=corners < 0.0)
    np.copyto(corners, side, where=corners > side)
    columns = tuple(read_only(a) for a in (layout, cls, score, boxes))
    return Corpus._from_columns(vocab, tuple(ids), read_only(widths),
                                read_only(heights), columns, scored)


def _corpus_from_obj(obj) -> Corpus:
    if not (isinstance(obj, dict) and isinstance(obj.get("classes"), list)
            and isinstance(obj.get("layouts"), list)):
        raise ParseError("needs a 'classes' and a 'layouts' list")
    vocab = ClassVocabulary(tuple(obj["classes"]))
    try:
        return _columns(obj["layouts"], vocab)
    except PARSE_ERRORS:
        # The per-record parser converts what numpy does not read, such
        # as a numeric string, and raises the error that names a record.
        return _parse_records(obj["layouts"], vocab)


def load_native(path) -> Corpus:
    return read_json(path, _corpus_from_obj)


def _layout_to_obj(lay: LayoutDocument, names: tuple) -> dict:
    comps = []
    for c in lay.components:
        entry = {
            "bbox": [c.bbox.x1, c.bbox.y1, c.bbox.x2, c.bbox.y2],
            "class": names[c.class_id],
        }
        if c.score is not None:
            entry["score"] = c.score
        comps.append(entry)
    return {"id": lay.id, "width": lay.width, "height": lay.height,
            "components": comps}


def corpus_to_obj(corpus: Corpus) -> dict:
    names = corpus.vocabulary.names
    return {"classes": list(names),
            "layouts": [_layout_to_obj(lay, names) for lay in corpus.layouts]}


# `save_native` writes what json.dump(corpus_to_obj(c), f, indent=1,
# sort_keys=True) writes, from these templates for the depth each part
# sits at in the document.
_str = json.encoder.encode_basestring_ascii
_float = float.__repr__  # json's float format; TypeError for a non-float
_COMPONENT = ("    {\n     \"bbox\": [\n      %s,\n      %s,\n      %s,\n"
              "      %s\n     ],\n     \"class\": %s%s\n    }")
_SCORE = ",\n     \"score\": "
_LAYOUT = ("  {\n   \"components\": %s,\n   \"height\": %s,\n"
           "   \"id\": %s,\n   \"width\": %s\n  }")


def _layout_json(lay: LayoutDocument, names: tuple, encoded: tuple) -> str:
    """The layout's entry as json.dump writes it inside the document;
    `encoded` holds the JSON strings of the class `names`.

    Float numbers and a string id take the templates; any other value,
    such as an int canvas side, sends the layout through json.dumps,
    indented to its depth (its output holds no raw newline but the ones
    indent writes).
    """
    try:
        comps = ",\n".join([
            _COMPONENT % (_float(c.bbox.x1), _float(c.bbox.y1),
                          _float(c.bbox.x2), _float(c.bbox.y2),
                          encoded[c.class_id],
                          "" if c.score is None else _SCORE + _float(c.score))
            for c in lay.components])
        return _LAYOUT % (f"[\n{comps}\n   ]" if comps else "[]",
                          _float(lay.height), _str(lay.id), _float(lay.width))
    except TypeError:
        text = json.dumps(_layout_to_obj(lay, names), indent=1, sort_keys=True)
        return "  " + text.replace("\n", "\n  ")


def save_native(corpus: Corpus, path) -> None:
    """Write `corpus` as native JSON, one layout at a time; the bytes are
    json.dump(corpus_to_obj(corpus), f, indent=1, sort_keys=True) and a
    newline."""
    names = corpus.vocabulary.names
    encoded = tuple(_str(n) for n in names)
    classes = ",\n".join("  " + n for n in encoded)
    layouts = ((",\n" if i else "\n") + _layout_json(lay, names, encoded)
               for i, lay in enumerate(corpus.layouts))
    write_text(path, itertools.chain(
        [f"{{\n \"classes\": [\n{classes}\n ],\n \"layouts\": ["], layouts,
        ["\n ]\n}\n" if corpus.layouts else "]\n}\n"]))


def load_coco(path) -> Corpus:
    """Load a COCO-style detection file holding 'images', 'annotations'
    and 'categories'."""
    return read_json(path, _coco_from_obj)


def _coco_id(value, name: str) -> int:
    """The COCO id `value`: an int, a string that int() reads, or a float
    equal to its int(). A bool or a fractional float, which int() would
    truncate, raises a ValueError naming the field."""
    n = int(value)
    if isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n


def _coco_from_obj(obj) -> Corpus:
    """The COCO document `obj` as native records, for _corpus_from_obj."""
    try:
        images = obj["images"]
        annotations = obj["annotations"]
        categories = obj["categories"]
    except (KeyError, TypeError):
        raise ParseError(
            "COCO input must provide 'images', 'annotations', 'categories'"
        ) from None

    cat_ids = [_coco_id(c["id"], "category id") for c in categories]
    cats = sorted(zip(cat_ids, categories), key=lambda ic: ic[0])
    classes = [c["name"] for _, c in cats]
    ClassVocabulary(classes)  # checked before any annotation is resolved
    class_of = {i: c["name"] for i, c in cats}
    # A later image with the same id replaces an earlier one.
    layouts = {_coco_id(im["id"], "image id"): {**im, "components": []}
               for im in images}

    for ann in annotations:
        iid = _coco_id(ann["image_id"], "image_id")
        if iid not in layouts:
            raise ParseError(f"annotation references unknown image_id {iid}")
        cid = _coco_id(ann["category_id"], "category_id")
        if cid not in class_of:
            raise ParseError(f"annotation references unknown category_id {cid}")
        x, y, w, h = (float(v) for v in ann["bbox"])
        if w < 0 or h < 0:
            raise ParseError(
                f"annotation on image {iid} has negative width or height"
            )
        layouts[iid]["components"].append({
            "bbox": [x, y, x + w, y + h], "class": class_of[cid],
            "score": ann.get("score")})

    layouts = [layouts[i] for i in sorted(layouts)]
    return _corpus_from_obj({"classes": classes, "layouts": layouts})
