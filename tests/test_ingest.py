import gzip
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from layoutprior import (BBox, ClassVocabulary, Component, Corpus,
                         LayoutDocument, load_coco, load_native, save_native)
from layoutprior.core import ParseError
from layoutprior.ingest import corpus_to_obj
from layoutprior.synth import generate

from conftest import FIXTURES
from test_synth import block_spec

NATIVE = {
    "classes": ["Toolbar", "Text", "Icon"],
    "layouts": [
        {"id": "a", "width": 100, "height": 200, "components": [
            {"bbox": [0, 0, 50, 20], "class": "Toolbar"},
            {"bbox": [10, 30, 90, 60], "class": "Text", "score": 0.875},
        ]},
    ],
}


def write(tmp_path, obj, name="corpus.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def test_load_empty(tmp_path):
    p = write(tmp_path, {"classes": ["A"], "layouts": []})
    corpus = load_native(p)
    assert corpus.layouts == ()


def test_round_trip(tmp_path):
    corpus = load_native(write(tmp_path, NATIVE))
    out = tmp_path / "out.json"
    save_native(corpus, out)
    again = load_native(out)
    assert again.vocabulary == corpus.vocabulary
    assert again.layouts == corpus.layouts


def test_round_trip_preserves_scores(tmp_path):
    corpus = load_native(write(tmp_path, NATIVE))
    out = tmp_path / "out.json"
    save_native(corpus, out)
    again = load_native(out)
    assert again.layouts[0].components[1].score == 0.875


def test_byte_stable_save(tmp_path):
    corpus = load_native(write(tmp_path, NATIVE))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_native(corpus, a)
    save_native(corpus, b)
    assert a.read_bytes() == b.read_bytes()


def test_unknown_class_rejected(tmp_path):
    bad = json.loads(json.dumps(NATIVE))
    bad["layouts"][0]["components"][0]["class"] = "Tulbar"
    with pytest.raises(ParseError, match="Tulbar"):
        load_native(write(tmp_path, bad))


def test_malformed_box_rejected(tmp_path):
    bad = json.loads(json.dumps(NATIVE))
    bad["layouts"][0]["components"][0]["bbox"] = [50, 0, 0, 20]
    with pytest.raises(ParseError, match="malformed box"):
        load_native(write(tmp_path, bad))


@pytest.mark.parametrize("obj", [
    {"classes": "AB", "layouts": []},   # a string is not a class list
    {"classes": ["A"]},
    {"classes": ["A"], "layouts": {}},
    [],
])
def test_malformed_top_level_rejected(tmp_path, obj):
    with pytest.raises(ParseError, match="'classes' and a 'layouts' list"):
        load_native(write(tmp_path, obj))


def test_unhashable_class_name_rejected(tmp_path):
    with pytest.raises(ParseError, match="class names"):
        load_native(write(tmp_path, {"classes": [["A"]], "layouts": []}))


@pytest.mark.parametrize("key,value", [
    ("width", "wide"),
    ("components", 5),
    ("components", [{"bbox": [0, 0, 5], "class": "Text"}]),
    ("components", [{"bbox": [0, 0, 5, 5], "class": "Text", "score": "x"}]),
    ("components", [{"bbox": [0, 0, 5, 5]}]),
])
def test_malformed_layout_names_index(tmp_path, key, value):
    bad = json.loads(json.dumps(NATIVE))
    bad["layouts"].append(dict(bad["layouts"][0], id="b", **{key: value}))
    with pytest.raises(ParseError, match="layout 1: "):
        load_native(write(tmp_path, bad))


def test_malformed_layout_names_id(tmp_path):
    bad = json.loads(json.dumps(NATIVE))
    bad["layouts"].append(dict(bad["layouts"][0], id="screen-42",
                               width="abc"))
    p = write(tmp_path, bad)
    message = (f"{p}: layout 1: id 'screen-42': could not convert string to "
               "float: 'abc'")
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        load_native(p)


def test_class_id_out_of_range_rejected():
    lay = LayoutDocument("x", 10, 10, (Component(BBox(0, 0, 1, 1), 1),))
    with pytest.raises(ParseError, match=r"'x': class id 1 out of range "
                                         "for 1 classes"):
        Corpus(ClassVocabulary(("A",)), (lay,))


def test_missing_file():
    with pytest.raises(OSError):
        load_native("/nonexistent/corpus.json")


def test_clamping(tmp_path):
    obj = {"classes": ["A"], "layouts": [
        {"id": "x", "width": 100, "height": 100, "components": [
            {"bbox": [-10, -5, 150, 120], "class": "A"}]}]}
    corpus = load_native(write(tmp_path, obj))
    box = corpus.layouts[0].components[0].bbox
    assert (box.x1, box.y1, box.x2, box.y2) == (0, 0, 100, 100)


def test_gzip_transparent(tmp_path):
    p = tmp_path / "corpus.json.gz"
    with gzip.open(p, "wt") as f:
        json.dump(NATIVE, f)
    corpus = load_native(p)
    out = tmp_path / "out.json.gz"
    save_native(corpus, out)
    assert load_native(out).layouts == corpus.layouts


def test_columns(tmp_path):
    corpus = load_native(write(tmp_path, NATIVE))
    twin = load_native(write(tmp_path, NATIVE))
    layout, cls, score, boxes = corpus.columns
    assert layout.tolist() == [0, 0] and cls.tolist() == [0, 1]
    assert score.tolist() == [1.0, 0.875]
    assert boxes.tolist() == [[0, 0, 50, 20], [10, 30, 90, 60]]
    assert corpus.columns is corpus.columns
    assert not any(a.flags.writeable for a in corpus.columns)
    # Not a field: equality, hashing and replace do not see it.
    assert corpus == twin and hash(corpus) == hash(twin)
    empty = replace(corpus, layouts=())
    assert [a.shape for a in empty.columns] == [(0,), (0,), (0,), (0, 4)]


def dumped(corpus) -> str:
    """What save_native wrote before it wrote from templates."""
    return json.dumps(corpus_to_obj(corpus), indent=1, sort_keys=True) + "\n"


def _odd_corpus():
    """Class names and ids that need escaping, with and without scores,
    an empty layout, and library-built numbers that are not plain floats."""
    names = ("plain", 'quo"te', "back\\slash", "ctl\x00\x1f\n\t\x7f",
             "na\u00efve \u2713", "\U0001f600")
    vocab = ClassVocabulary(names)
    comps = tuple(Component(BBox(1.5, 2.25, 3.0, 4.125), i,
                            None if i % 2 else 0.1 * i)
                  for i in range(len(names)))
    return Corpus(vocab, (
        LayoutDocument('id "q" \\ \u00e9\n', 360.0, 640.0, comps),
        LayoutDocument("empty", 10.0, 20.0, ()),
        # int coordinates, int canvas, an int score and a float subclass
        LayoutDocument("ints", 100, 200, (
            Component(BBox(0, 1, 50, 60), 1, 1),
            Component(BBox(np.float64(0.5), 1.0, 2, 3), 3),
            Component(BBox(0.0, 0.0, 1.0, 1.0), 5, np.float64(0.25)))),
        LayoutDocument("\u00e9 plain", 1e-300, 1.7976931348623157e308, (
            Component(BBox(-0.0, 5e-324, 1e-300, 1e16), 2, -0.0),)),
    ))


def byte_cases():
    vocab = ClassVocabulary(("A", "B"))
    yield "eval-dets", load_native(f"{FIXTURES}/eval_dets.json")
    yield "eval-gts", load_native(f"{FIXTURES}/eval_gts.json")
    clean, noisy = generate(block_spec(noise=0.3, seed=5), 15)
    yield "synth-clean", clean
    yield "synth-noisy", noisy
    yield "empty-corpus", Corpus(vocab, ())
    yield "no-components", Corpus(vocab, (LayoutDocument("x", 1.0, 2.0),))
    yield "odd", _odd_corpus()
    yield "native", Corpus(ClassVocabulary(("Toolbar", "Text", "Icon")), (
        LayoutDocument("a", 100, 200, (
            Component(BBox(0, 0, 50, 20), 0),
            Component(BBox(10, 30, 90, 60), 1, 0.875))),))


@pytest.mark.parametrize("name,corpus", list(byte_cases()))
@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_save_native_bytes(tmp_path, name, corpus, suffix):
    p = tmp_path / f"{name}{suffix}"
    save_native(corpus, p)
    if suffix.endswith(".gz"):
        with gzip.open(p, "rt") as f:
            text = f.read()
    else:
        text = p.read_text()
    assert text == dumped(corpus)
    again = load_native(p)
    assert again.vocabulary == corpus.vocabulary
    assert again.layouts == corpus.layouts


def test_save_native_int_id(tmp_path):
    corpus = Corpus(ClassVocabulary(("A",)), (
        LayoutDocument(7, 10.0, 10.0, (Component(BBox(0.0, 0, 1, 1), 0),)),))
    p = tmp_path / "c.json"
    save_native(corpus, p)
    assert p.read_text() == dumped(corpus)
    assert load_native(p).layouts[0].id == "7"


def test_save_native_unencodable_number(tmp_path):
    # json has no encoding for a numpy integer; neither path invents one.
    corpus = Corpus(ClassVocabulary(("A",)), (
        LayoutDocument("x", 10.0, 10.0,
                       (Component(BBox(0.0, 0.0, 1.0, 1.0), 0,
                                  np.float32(0.5)),)),))
    with pytest.raises(TypeError):
        dumped(corpus)
    with pytest.raises(TypeError):
        save_native(corpus, tmp_path / "c.json")


COCO = {
    "images": [{"id": 1, "width": 100, "height": 100},
               {"id": 2, "width": 200, "height": 300}],
    "annotations": [
        {"image_id": 1, "category_id": 3, "bbox": [10, 20, 30, 40]},
        {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]},
        {"image_id": 2, "category_id": 1, "bbox": [1, 2, 3, 4]},
    ],
    "categories": [{"id": 3, "name": "big"}, {"id": 1, "name": "small"}],
}


def test_coco_bbox_conversion(tmp_path):
    corpus = load_coco(write(tmp_path, COCO, "coco.json"))
    lay = {l.id: l for l in corpus.layouts}["1"]
    big = corpus.vocabulary.index("big")
    box = next(c.bbox for c in lay.components if c.class_id == big)
    assert (box.x1, box.y1, box.x2, box.y2) == (10, 20, 40, 60)


def test_coco_category_order(tmp_path):
    corpus = load_coco(write(tmp_path, COCO, "coco.json"))
    assert corpus.vocabulary.names == ("small", "big")


def test_coco_counts(tmp_path):
    corpus = load_coco(write(tmp_path, COCO, "coco.json"))
    assert len(corpus.layouts) == 2
    assert sum(len(l.components) for l in corpus.layouts) == 3


def test_coco_unknown_image(tmp_path):
    bad = json.loads(json.dumps(COCO))
    bad["annotations"][0]["image_id"] = 99
    with pytest.raises(ParseError, match="image_id"):
        load_coco(write(tmp_path, bad, "coco.json"))


def test_coco_unknown_category(tmp_path):
    bad = json.loads(json.dumps(COCO))
    bad["annotations"][1]["category_id"] = 2
    p = write(tmp_path, bad, "coco.json")
    with pytest.raises(ParseError, match="unknown category_id 2") as e:
        load_coco(p)
    assert str(p) in str(e.value)


def test_coco_malformed_image_names_id(tmp_path):
    bad = {**COCO, "annotations": [],
           "images": [{"id": 3, "width": "abc", "height": 5},
                      COCO["images"][0]]}
    p = write(tmp_path, bad, "coco.json")
    message = f"{p}: layout 1: id 3: could not convert string to float: 'abc'"
    with pytest.raises(ParseError, match=re.escape(message) + "$"):
        load_coco(p)


def test_coco_negative_size(tmp_path):
    bad = json.loads(json.dumps(COCO))
    bad["annotations"][0]["bbox"] = [10, 20, -1, 40]
    with pytest.raises(ParseError, match="negative"):
        load_coco(write(tmp_path, bad, "coco.json"))


def _coco_without(path):
    bad = json.loads(json.dumps(COCO))
    obj = bad
    for key in path[:-1]:
        obj = obj[key]
    del obj[path[-1]]
    return bad


@pytest.mark.parametrize("bad,match", [
    (_coco_without(["images", 0, "id"]), "missing key 'id'"),
    (_coco_without(["images", 1, "width"]), "missing key 'width'"),
    (_coco_without(["annotations", 0, "bbox"]), "missing key 'bbox'"),
    (_coco_without(["categories", 0, "name"]), "missing key 'name'"),
    ({**COCO, "images": [{"id": "x", "width": 1, "height": 1}]},
     "invalid literal"),
    ({**COCO, "images": 5}, "not iterable"),
    ({**COCO, "images": [{"id": 1e400, "width": 1, "height": 1}]},
     "infinity"),
    ({**COCO, "annotations": [{"image_id": 1, "category_id": 1,
                               "bbox": [0, 0, 1]}]}, "not enough values"),
    ({**COCO, "categories": [{"id": 1, "name": 7}]}, "strings"),
    ({"images": []}, "must provide"),
])
def test_coco_malformed_records_name_file(tmp_path, bad, match):
    p = write(tmp_path, bad, "coco.json")
    with pytest.raises(ParseError, match=match) as e:
        load_coco(p)
    assert str(p) in str(e.value)


@pytest.mark.parametrize("text", ["{not json", "\xff\xfe"])
def test_coco_invalid_json(tmp_path, text):
    p = tmp_path / "coco.json"
    p.write_bytes(text.encode("latin-1"))
    with pytest.raises(ParseError, match="invalid JSON") as e:
        load_coco(p)
    assert str(p) in str(e.value)


def test_coco_native_round_trip(tmp_path):
    corpus = load_coco(write(tmp_path, COCO, "coco.json"))
    out = tmp_path / "native.json"
    save_native(corpus, out)
    again = load_native(out)
    assert corpus_to_obj(again) == corpus_to_obj(corpus)


def parent_coco_from_obj(obj):
    """The former COCO parser, which built the objects itself: the oracle
    for load_coco."""
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
    return Corpus(vocab, tuple(layouts))


def random_coco(rng):
    """A COCO document with unsorted and repeated image and category ids
    (an id given as an int, a string or a float), scores present, absent,
    None or zero, and boxes of zero size or reaching past the canvas."""
    def some_id(i):
        return [i, str(i), float(i)][int(rng.integers(3))]

    cat_ids = [int(i) for i in rng.choice(40, int(rng.integers(1, 6)),
                                          replace=False) - 5]
    if rng.random() < 0.2:
        cat_ids.append(cat_ids[0])  # a repeated id: the later one is used
    categories = [{"id": some_id(c), "name": f"k{k}"}
                  for k, c in enumerate(cat_ids)]
    images = []
    for _ in range(int(rng.integers(0, 7))):
        width = float(rng.uniform(1, 400))
        images.append({"id": some_id(int(rng.integers(-2, 6))),
                       "width": round(width) if rng.random() < 0.5 else width,
                       "height": float(rng.uniform(1, 800))})
    annotations = []
    for _ in range(int(rng.integers(0, 16)) if images else 0):
        im = images[int(rng.integers(len(images)))]
        W, H = float(im["width"]), im["height"]
        w, h = (0.0 if rng.random() < 0.15 else float(rng.uniform(0, 1.5 * s))
                for s in (W, H))
        cid = cat_ids[int(rng.integers(len(cat_ids)))]
        ann = {"image_id": some_id(int(float(im["id"]))),
               "category_id": some_id(cid),
               "bbox": [float(rng.uniform(-20, W + 20)),
                        float(rng.uniform(-20, H + 20)), w, h]}
        kind = int(rng.integers(5))
        if kind:
            ann["score"] = [None, 0.0, -0.0, float(rng.random())][kind - 1]
        annotations.append(ann)
    return {"images": images, "annotations": annotations,
            "categories": categories}


def test_coco_matches_former_parser(tmp_path):
    docs = [COCO] + [random_coco(np.random.default_rng(seed))
                     for seed in range(200)]
    for i, doc in enumerate(docs):
        expected = parent_coco_from_obj(json.loads(json.dumps(doc)))
        corpus = load_coco(write(tmp_path, doc, f"one{i}.json"))
        assert corpus_to_obj(corpus) == corpus_to_obj(expected)


def test_duplicate_layout_ids_listed_once_sorted():
    with pytest.raises(ParseError, match=r"corpus: \['a', 'b'\]$"):
        Corpus(ClassVocabulary(("A",)),
               tuple(LayoutDocument(i, 1, 1, ()) for i in "babcaa"))


def test_duplicate_layout_ids_rejected():
    from layoutprior import ClassVocabulary, LayoutDocument
    with pytest.raises(ParseError, match="duplicate"):
        Corpus(ClassVocabulary(("A",)),
               (LayoutDocument("x", 1, 1, ()), LayoutDocument("x", 1, 1, ())))
