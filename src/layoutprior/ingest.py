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
(N, 4) box array. It is built on first use, cached and read-only, and it
is not a dataclass field: equality, hashing and ``replace`` ignore it.
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
                   write_text)


@dataclass(frozen=True)
class Corpus:
    vocabulary: ClassVocabulary
    layouts: tuple
    source: str = ""

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
        out = (cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64),
               cols[:, 2], cols[:, 3:])
        for a in out:
            a.flags.writeable = False
        return out

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


def _corpus_from_obj(obj, source: str) -> Corpus:
    if not (isinstance(obj, dict) and isinstance(obj.get("classes"), list)
            and isinstance(obj.get("layouts"), list)):
        raise ParseError("needs a 'classes' and a 'layouts' list")
    vocab = ClassVocabulary(tuple(obj["classes"]))
    layouts = []
    for i, lay in enumerate(obj["layouts"]):
        try:
            layouts.append(_layout_from_obj(lay, vocab))
        except PARSE_ERRORS as e:
            raise parse_error(f"layout {i}", e) from None
    return Corpus(vocab, tuple(layouts), source=source)


def load_native(path) -> Corpus:
    return read_json(path, lambda obj: _corpus_from_obj(obj, str(path)))


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


def load_coco(images_path, annotations_path=None) -> Corpus:
    """Load COCO-style detection JSON.

    Accepts either a single file holding images/annotations/categories or
    separate image and annotation files (the annotation file then supplies
    'annotations' and optionally 'categories').
    """
    source = str(images_path)
    if annotations_path is None:
        return read_json(images_path, lambda obj: _coco_from_obj(obj, source))

    def merged(obj, ann_obj):
        obj = dict(obj) if isinstance(obj, dict) else {}
        if isinstance(ann_obj, dict):
            obj["annotations"] = ann_obj.get("annotations", ann_obj)
            if "categories" in ann_obj:
                obj["categories"] = ann_obj["categories"]
        else:
            obj["annotations"] = ann_obj
        return _coco_from_obj(obj, source)

    # Read inside the annotation file's read, so that an error names both.
    return read_json(annotations_path, lambda ann_obj: read_json(
        images_path, lambda obj: merged(obj, ann_obj)))


def _coco_from_obj(obj, source: str) -> Corpus:
    """The COCO document `obj` as native records, for _corpus_from_obj."""
    try:
        images = obj["images"]
        annotations = obj["annotations"]
        categories = obj["categories"]
    except (KeyError, TypeError):
        raise ParseError(
            "COCO input must provide 'images', 'annotations', 'categories'"
        ) from None

    cats = sorted(categories, key=lambda c: int(c["id"]))
    classes = [c["name"] for c in cats]
    ClassVocabulary(classes)  # checked before any annotation is resolved
    class_of = {int(c["id"]): c["name"] for c in cats}
    # A later image with the same id replaces an earlier one.
    layouts = {int(im["id"]): {**im, "components": []} for im in images}

    for ann in annotations:
        iid = int(ann["image_id"])
        if iid not in layouts:
            raise ParseError(f"annotation references unknown image_id {iid}")
        cid = int(ann["category_id"])
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
    return _corpus_from_obj({"classes": classes, "layouts": layouts}, source)
