"""Corpus loading and saving: native layout JSON and COCO-style imports.

Native corpus format::

    {"classes": ["..."],
     "layouts": [{"id": "...", "width": W, "height": H,
                  "components": [{"bbox": [x1,y1,x2,y2],
                                  "class": "name",
                                  "score": optional}]}]}

``.json.gz`` paths are handled transparently on both read and write.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass

from .core import BBox, ClassVocabulary, Component, LayoutDocument, ParseError


@dataclass(frozen=True)
class Corpus:
    vocabulary: ClassVocabulary
    layouts: tuple
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "layouts", tuple(self.layouts))
        ids = [l.id for l in self.layouts]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ParseError(f"duplicate layout ids in corpus: {dupes}")
        C = self.vocabulary.size
        for layout in self.layouts:
            for comp in layout.components:
                if not (0 <= comp.class_id < C):
                    raise ParseError(
                        f"layout {layout.id!r}: class id {comp.class_id} "
                        f"out of range for {C} classes"
                    )


def _open(path, mode="rt"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


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


def _load_json(path):
    with _open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise ParseError(f"{path}: invalid JSON: {e}") from None


def load_native(path) -> Corpus:
    obj = _load_json(path)
    if not (isinstance(obj, dict) and isinstance(obj.get("classes"), list)
            and isinstance(obj.get("layouts"), list)):
        raise ParseError(f"{path}: needs a 'classes' and a 'layouts' list")
    try:
        vocab = ClassVocabulary(tuple(obj["classes"]))
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None

    layouts = []
    for i, lay in enumerate(obj["layouts"]):
        try:
            layouts.append(_layout_from_obj(lay, vocab))
        except KeyError as e:
            raise ParseError(f"{path}: layout {i}: missing key {e}") from None
        except (TypeError, ValueError, OverflowError, ParseError) as e:
            raise ParseError(f"{path}: layout {i}: {e}") from None
    return Corpus(vocab, tuple(layouts), source=str(path))


def corpus_to_obj(corpus: Corpus) -> dict:
    layouts = []
    for lay in corpus.layouts:
        comps = []
        for c in lay.components:
            entry = {
                "bbox": [c.bbox.x1, c.bbox.y1, c.bbox.x2, c.bbox.y2],
                "class": corpus.vocabulary.names[c.class_id],
            }
            if c.score is not None:
                entry["score"] = c.score
            comps.append(entry)
        layouts.append({"id": lay.id, "width": lay.width, "height": lay.height,
                        "components": comps})
    return {"classes": list(corpus.vocabulary.names), "layouts": layouts}


def save_native(corpus: Corpus, path) -> None:
    with _open(path, "wt") as f:
        json.dump(corpus_to_obj(corpus), f, indent=1, sort_keys=True)
        f.write("\n")


def load_coco(images_path, annotations_path=None) -> Corpus:
    """Load COCO-style detection JSON.

    Accepts either a single file holding images/annotations/categories or
    separate image and annotation files (the annotation file then supplies
    'annotations' and optionally 'categories').
    """
    obj = _load_json(images_path)
    where = str(images_path)
    if annotations_path is not None:
        ann_obj = _load_json(annotations_path)
        where += f" + {annotations_path}"
        obj = dict(obj) if isinstance(obj, dict) else {}
        if isinstance(ann_obj, dict):
            obj["annotations"] = ann_obj.get("annotations", ann_obj)
            if "categories" in ann_obj:
                obj["categories"] = ann_obj["categories"]
        else:
            obj["annotations"] = ann_obj
    try:
        return _coco_from_obj(obj, source=str(images_path))
    except KeyError as e:
        raise ParseError(f"{where}: missing key {e}") from None
    except (TypeError, ValueError, OverflowError, ParseError) as e:
        raise ParseError(f"{where}: {e}") from None


def _coco_from_obj(obj, source: str) -> Corpus:
    try:
        images = obj["images"]
        annotations = obj["annotations"]
        categories = obj["categories"]
    except (KeyError, TypeError):
        raise ParseError(
            "COCO input must provide 'images', 'annotations', 'categories'"
        ) from None

    cats = sorted(categories, key=lambda c: int(c["id"]))
    vocab = ClassVocabulary(tuple(c["name"] for c in cats))
    cat_to_idx = {int(c["id"]): i for i, c in enumerate(cats)}

    img_info = {}
    for im in images:
        img_info[int(im["id"])] = (str(im["id"]), float(im["width"]),
                                   float(im["height"]))
    comps = {iid: [] for iid in img_info}

    for ann in annotations:
        iid = int(ann["image_id"])
        if iid not in img_info:
            raise ParseError(f"annotation references unknown image_id {iid}")
        cid = int(ann["category_id"])
        if cid not in cat_to_idx:
            raise ParseError(f"annotation references unknown category_id {cid}")
        x, y, w, h = (float(v) for v in ann["bbox"])
        if w < 0 or h < 0:
            raise ParseError(
                f"annotation on image {iid} has negative width or height"
            )
        _, W, H = img_info[iid]
        bbox = BBox(x, y, x + w, y + h).clamped(W, H)
        score = ann.get("score")
        comps[iid].append(Component(bbox, cat_to_idx[cid],
                                    None if score is None else float(score)))

    layouts = []
    for iid in sorted(img_info):
        name, W, H = img_info[iid]
        layouts.append(LayoutDocument(name, W, H, tuple(comps[iid])))
    return Corpus(vocab, tuple(layouts), source=source)
