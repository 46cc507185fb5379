import gc
import gzip
import json
import re
import tempfile
import tracemalloc
from dataclasses import fields, replace
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from layoutprior import (BandConfig, BBox, ClassVocabulary, Component,
                         Corpus, LayoutDocument, accumulate, build_prior,
                         evaluate, load_native, save_native)
from layoutprior.core import (PARSE_ERRORS, ParseError, ShapeError, centres,
                              open_text, parse_error, read_json, write_text)
from layoutprior.ingest import (_READ_LAYOUTS, _WRITE_LAYOUTS,
                                _corpus_from_obj, _streamed, corpus_to_obj,
                                save_native_labelings)
from layoutprior.synth import generate

from conftest import FIXTURES, corpus_from_layouts
from test_synth import block_spec, workload_spec

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


def assert_rejected(tmp_path, obj, message):
    """load_native on a file of `obj`, and the per-record parser on its
    records, raise `message`, load_native's naming the file."""
    p = write(tmp_path, obj)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{p}: {message}')}$"):
        load_native(p)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_records(obj["layouts"], ClassVocabulary(tuple(obj["classes"])))


# What the contract rejects, in the last of many layouts: the error names
# that layout by its position and id.
@pytest.mark.parametrize("field,value,reason", [
    ("width", "10", "width must be a JSON number, got '10'"),
    ("height", " 7 ", "height must be a JSON number, got ' 7 '"),
    ("bbox", ["1.5", 0, 2, 3],
     "bbox coordinate must be a JSON number, got '1.5'"),
    ("bbox", [0, 0, "1e3", 3],
     "bbox coordinate must be a JSON number, got '1e3'"),
    ("bbox", "1234", "bbox coordinate must be a JSON number, got '1'"),
    ("bbox", [0, 0, 5], "bbox must hold 4 numbers, got 3"),
    ("bbox", [0, 0, "abc", 3], "could not convert string to float: 'abc'"),
    ("score", "0.5", "score must be a JSON number, got '0.5'"),
    ("score", "1_0", "score must be a JSON number, got '1_0'"),
    ("components", "", "components must be a list, got ''"),
    ("components", {}, "components must be a list, got {}"),
])
def test_contract_fault_in_last_layout_names_it(tmp_path, field, value,
                                                reason):
    obj = corpus_to_obj(generate(block_spec(seed=5), 300)[0])
    last = obj["layouts"][-1]
    target = last if field in ("width", "height", "components") \
        else last["components"][-1]
    target[field] = value
    assert_rejected(tmp_path, obj, f"layout 299: id {last['id']!r}: {reason}")


# A record's first fault: its values are read field by field, each for
# every component, and then checked as its objects check them,
# component by component and the canvas last.
@pytest.mark.parametrize("layout,reason", [
    ({"components": [{"bbox": ["x", 0, 1, 1], "class": "Text"},
                     {"bbox": [0, 0, 1, 1], "class": "Z"}]},
     "unknown class name: 'Z'"),
    ({"components": [{"bbox": [0, 0, 1, 1], "class": "Text", "score": "s"},
                     {"bbox": [0, 0, 1, None], "class": "Text"}]},
     "float() argument must be a string or a real number, not 'NoneType'"),
    ({"components": [{"bbox": [5, 0, 1, 1], "class": "Text"},
                     {"bbox": [0, 0, 1, 1], "class": "Text", "score": "1"}]},
     "score must be a JSON number, got '1'"),
    ({"components": [{"bbox": [0, 0, 1, 1], "class": "Text", "score": nan},
                     {"bbox": [5, 0, 1, 1], "class": "Text"}]},
     "non-finite score: nan"),
    ({"width": 0, "components": [{"bbox": [5, 0, 1, 1], "class": "Text"}]},
     "malformed box (5.0,0.0,1.0,1.0): coordinates must be finite with "
     "x1 <= x2 and y1 <= y2"),
    ({"width": 0}, "layout 'b': canvas size must be positive and finite"),
    ({"components": [{"bbox": [0, 0, 1, 1], "class": ["Text"]},
                     {"bbox": [0, 0, 1, 1]}]},
     "unknown class name: ['Text']"),
])
def test_first_fault_in_reading_order(tmp_path, layout, reason):
    bad = json.loads(json.dumps(NATIVE))
    bad["layouts"].append({**bad["layouts"][0], "id": "b", **layout})
    assert_rejected(tmp_path, bad, f"layout 1: id 'b': {reason}")


def test_load_starts_no_collection(tmp_path):
    """load_native decodes and parses with the cyclic GC paused, and
    releases the decoded document before it resumes: no collection starts,
    and the youngest generation's count ends where it began."""
    corpus = generate(workload_spec(7), 200)[0]
    assert corpus.index.size >= 2000
    p = tmp_path / "corpus.json"
    save_native(corpus, p)
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    before = gc.get_count()[0]
    gc.callbacks.append(note)
    try:
        loaded = load_native(p)
        after = gc.get_count()[0]
    finally:
        gc.callbacks.remove(note)
        if not enabled:
            gc.disable()
    assert loaded == corpus
    assert starts == []
    assert abs(after - before) < 300


def test_class_id_out_of_range_rejected():
    lay = LayoutDocument("x", 10, 10, (Component(BBox(0, 0, 1, 1), 1),))
    with pytest.raises(ParseError, match=r"'x': class id 1 out of range "
                                         "for 1 classes"):
        corpus_from_layouts(ClassVocabulary(("A",)), (lay,))


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


def _arrays(corpus):
    """The array fields of `corpus`, in field order."""
    return [getattr(corpus, f.name) for f in fields(Corpus)[2:]]


def test_columns(tmp_path):
    corpus = load_native(write(tmp_path, NATIVE))
    twin = load_native(write(tmp_path, NATIVE))
    assert [a.tolist() for a in _arrays(corpus)] == [
        [100], [200], [0, 0], [0, 1], [1.0, 0.875], [False, True],
        [[0, 0, 50, 20], [10, 30, 90, 60]]]
    assert not any(a.flags.writeable for a in _arrays(corpus))
    assert corpus == twin and hash(corpus) == hash(twin)
    assert corpus != replace(twin, score=np.array([1.0, 0.5]))
    empty = corpus_from_layouts(corpus.vocabulary, ())
    assert [a.shape for a in _arrays(empty)] == [(0,)] * 6 + [(0, 4)]


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
    return corpus_from_layouts(vocab, (
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
    yield "empty-corpus", corpus_from_layouts(vocab, ())
    yield "no-components", corpus_from_layouts(
        vocab, (LayoutDocument("x", 1.0, 2.0),))
    yield "odd", _odd_corpus()
    yield "native", corpus_from_layouts(
        ClassVocabulary(("Toolbar", "Text", "Icon")), (
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
    corpus = corpus_from_layouts(ClassVocabulary(("A",)), (
        LayoutDocument(7, 10.0, 10.0, (Component(BBox(0.0, 0, 1, 1), 0),)),))
    p = tmp_path / "c.json"
    save_native(corpus, p)
    assert p.read_text() == dumped(corpus)
    assert load_native(p).layouts[0].id == "7"


def test_save_native_normalizes_numbers(tmp_path):
    # A corpus built from objects holds str ids and float64 coordinates
    # and scores: an int id is written as a string, an int coordinate or
    # score as a float and a float32 score as its float64 value, as the
    # loader reads them back. Canvas sides that are all ints stay ints.
    corpus = corpus_from_layouts(ClassVocabulary(("A",)), (
        LayoutDocument(7, 10, 20, (
            Component(BBox(0, 0.0, 1.0, 1), 0, np.float32(0.1)),
            Component(BBox(0.0, 2, 3.0, 4.0), 0, 1))),))
    p = tmp_path / "c.json"
    save_native(corpus, p)
    assert p.read_text() == dumped(corpus)
    lay = json.loads(p.read_text())["layouts"][0]
    assert lay["id"] == "7"
    assert [type(lay["width"]), type(lay["height"])] == [int, int]
    comps = lay["components"]
    assert [c["bbox"] for c in comps] == [[0, 0, 1, 1], [0, 2, 3, 4]]
    assert [c["score"] for c in comps] == [0.10000000149011612, 1.0]
    assert all(type(v) is float
               for c in comps for v in [*c["bbox"], c["score"]])
    assert load_native(p) == corpus


def test_duplicate_layout_ids_listed_once_sorted():
    with pytest.raises(ParseError, match=r"corpus: \['a', 'b'\]$"):
        corpus_from_layouts(ClassVocabulary(("A",)),
               tuple(LayoutDocument(i, 1, 1, ()) for i in "babcaa"))


def test_duplicate_layout_ids_rejected():
    from layoutprior import ClassVocabulary, LayoutDocument
    with pytest.raises(ParseError, match="duplicate"):
        corpus_from_layouts(ClassVocabulary(("A",)),
               (LayoutDocument("x", 1, 1, ()), LayoutDocument("x", 1, 1, ())))


def _two_components(**arrays):
    """The arrays of a two-layout corpus of two components, with `arrays`
    in place of any of them."""
    base = dict(ids=("a", "b"), widths=[10.0, 10.0], heights=[10.0, 10.0],
                index=[0, 1], class_id=[0, 0], score=[1.0, 1.0],
                scored=[False, False], boxes=[[0.0, 0.0, 1.0, 1.0]] * 2)
    return {**base, **arrays}


@pytest.mark.parametrize("arrays, match", [
    # offsets would put both components under the first layout
    (dict(index=[1, 0]), "non-decreasing"),
    # and here would give the one layout no component
    (dict(ids=("a",), widths=[10.0], heights=[10.0], index=[5],
          class_id=[0], score=[1.0], scored=[False],
          boxes=[[0.0, 0.0, 1.0, 1.0]]), r"\[0, 1\)"),
    (dict(index=[-1, 0]), "non-decreasing"),
    (dict(index=[0.0, 1.0]), "non-decreasing"),
    (dict(index=[0, 0, 1]), "class_id has shape"),
    (dict(class_id=[0]), "class_id has shape"),
    (dict(score=[1.0]), "score has shape"),
    (dict(scored=[False] * 3), "scored has shape"),
    (dict(boxes=[[0.0, 0.0, 1.0, 1.0]]), r"boxes has shape \(1, 4\)"),
    (dict(boxes=[[0.0, 0.0, 1.0]] * 2), r"boxes has shape \(2, 3\)"),
    (dict(boxes=[0.0] * 8), r"not \(2, 4\)"),
    (dict(widths=[10.0]), "widths has shape"),
    (dict(heights=[[10.0, 10.0]]), "heights has shape"),
    (dict(index=0), r"index has shape \(\)"),
])
def test_corpus_rejects_misshapen_arrays(arrays, match):
    vocab = ClassVocabulary(("A",))
    with pytest.raises(ShapeError, match=match):
        Corpus(vocab, **_two_components(**arrays))
    Corpus(vocab, **_two_components())


BOX_TEXT = "coordinates must be finite with x1 <= x2 and y1 <= y2"
CANVAS_TEXT = "layout 'x': canvas size must be positive and finite"


def test_corpus_holds_boxes_as_float64():
    """Boxes are read as float64, so a y1 + y2 that int64 would wrap
    keeps its centre: 0.625 of a canvas of height 2**63 - 1, in band 6
    of ten."""
    box = [0, 2**62, 1, 2**62 + 2**61]
    corpus = Corpus(ClassVocabulary(("A",)), ("x",), [1], [2**63 - 1],
                    [0, 0], [0, 0], [1.0, 1.0], [False, False],
                    np.array([box, box], dtype=np.int64))
    assert corpus.boxes.dtype == np.float64
    assert corpus.heights.dtype == np.int64
    assert centres(corpus.boxes, corpus.heights[corpus.index]).tolist() \
        == [0.625, 0.625]
    counts = accumulate(corpus, BandConfig(10))
    assert counts[6].tolist() == [[4]] and counts.sum() == 4


@pytest.mark.parametrize("box, text", [
    ([0, nan, 1, 2], "(0.0,nan,1.0,2.0)"), ([5, 0, 1, 1], "(5.0,0.0,1.0,1.0)")])
def test_corpus_refuses_malformed_box(box, text):
    """A box beside a finite one that the prior would count in no band,
    or that is unordered, is refused when the corpus is built."""
    arrays = _two_components(boxes=[[0.0, 0.0, 1.0, 1.0], box])
    with pytest.raises(ParseError) as e:
        Corpus(ClassVocabulary(("A",)), **arrays)
    assert str(e.value) == f"malformed box {text}: {BOX_TEXT}"


def test_corpus_keeps_no_view(tmp_path):
    """An array given as a view is copied, so a later write through its
    base cannot put a box the check refuses into the corpus, nor into
    the file that save_native writes of it. An array that owns its data
    is kept."""
    base = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0]])
    arrays = _two_components(boxes=base[:])
    corpus = Corpus(ClassVocabulary(("A",)), **arrays)
    base[1] = [5, 0, 1, 1]
    assert corpus.boxes.tolist() == [[0.0, 0.0, 1.0, 1.0],
                                     [0.0, 0.0, 2.0, 2.0]]
    save_native(corpus, tmp_path / "c.json")
    assert load_native(tmp_path / "c.json") == corpus
    owned = np.zeros(2)
    assert Corpus(ClassVocabulary(("A",)),
                  **_two_components(score=owned)).score is owned


# What a value fault may put in a column; 2**63, an int past int64 that a
# float holds, is none.
_fault = st.sampled_from([nan, inf, -inf, 0.0, -0.0, -1.0, 2**63, 10**400])


@st.composite
def _value_faults(draw):
    """The arrays of a well-formed corpus of up to three layouts, into
    which one to three faults are put: a _fault value in place of a side, a
    score or a box coordinate (an infinity for an int there), or a box
    whose corners are swapped. A column holding an int is an object
    column, as numpy holds ints past int64."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    L, N = len(sizes), sum(sizes)
    cols = {name: draw(st.lists(st.floats(0.5, 10.0), min_size=n, max_size=n))
            for name, n in (("widths", L), ("heights", L), ("score", N))}
    boxes = list(map(_ordered, draw(st.lists(st.tuples(
        *[st.floats(0.0, 10.0)] * 4), min_size=N, max_size=N))))
    for where, k, value in draw(st.lists(st.tuples(st.sampled_from(
            ["widths", "heights", "score", "box", "swap"]),
            st.integers(0, 11), _fault), min_size=1, max_size=3)):
        if where == "box" and N:
            boxes[k % N][k % 4] = value if type(value) is float else inf
        elif where == "swap" and N:
            box = boxes[k % N]
            box[k % 2], box[k % 2 + 2] = box[k % 2 + 2], box[k % 2]
        elif where in cols and cols[where]:
            cols[where][k % len(cols[where])] = value
    cols = {name: np.array(col, dtype=object if int in map(type, col)
                           else np.float64) for name, col in cols.items()}
    scored = draw(st.lists(st.booleans(), min_size=N, max_size=N))
    return dict(ids=tuple(f"l{i}" for i in range(L)),
                index=np.repeat(np.arange(L), sizes),
                class_id=np.zeros(N, dtype=np.int64),
                scored=np.array(scored, dtype=bool),
                boxes=np.array(boxes, dtype=np.float64).reshape(N, 4), **cols)


def _object_error(ids, widths, heights, index, class_id, score, scored,
                  boxes):
    """The text of what the layout objects raise, built as Corpus.layouts
    builds them: every component in order, then every canvas; None where
    they raise nothing."""
    try:
        [Component(BBox(*b), c, s if has else None) for b, c, s, has in zip(
            boxes.tolist(), class_id.tolist(), score.tolist(),
            scored.tolist())]
        for lid, w, h in zip(ids, widths.tolist(), heights.tolist()):
            LayoutDocument(lid, w, h)
    except ParseError as e:
        return str(e)
    return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_value_faults())
def test_corpus_refuses_what_layout_objects_refuse(arrays):
    """A Corpus refuses the first value that its layout objects would
    refuse, with their text, and builds them where they refuse none."""
    want = _object_error(**arrays)
    try:
        corpus = Corpus(ClassVocabulary(("A",)), **arrays)
    except ParseError as e:
        assert str(e) == want
    else:
        assert want is None
        assert len(corpus.layouts) == len(arrays["ids"])


def clamped(box: BBox, width: float, height: float) -> BBox:
    """`box` clamped to a width x height canvas."""
    return BBox(min(max(box.x1, 0.0), width), min(max(box.y1, 0.0), height),
                min(max(box.x2, 0.0), width), min(max(box.y2, 0.0), height))


def _number(value, name):
    """float(value), which must be a JSON number: an int, float or bool."""
    x = float(value)
    if not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return x


def _layout_from_obj(lay, vocab):
    """The record `lay` as a LayoutDocument. Its id, width, height and
    components are read in turn, then each field of every component:
    class, bbox and score. Then the objects check the values, component
    by component and the canvas last."""
    lid = lay["id"]
    width = _number(lay["width"], "width")
    height = _number(lay["height"], "height")
    comps = lay.get("components", [])
    if not isinstance(comps, list):
        raise ValueError(f"components must be a list, got {comps!r}")
    classes = [vocab.index(c["class"]) for c in comps]
    bboxes = [c["bbox"] for c in comps]
    boxes = [[_number(v, "bbox coordinate") for v in box] for box in bboxes]
    for box in boxes:
        if len(box) != 4:
            raise ValueError(f"bbox must hold 4 numbers, got {len(box)}")
    scores = [c.get("score") for c in comps]
    scores = [None if s is None else _number(s, "score") for s in scores]
    checked = LayoutDocument(str(lid), width, height, [
        Component(BBox(*box), k, s)
        for box, k, s in zip(boxes, classes, scores)])
    return replace(checked, components=[
        replace(c, bbox=clamped(c.bbox, width, height))
        for c in checked.components])


def parse_records(records, vocab):
    """The corpus of the native layout `records`, parsed one record at a
    time, and within it one field at a time: the oracle for load_native,
    whose errors name the first faulty record and give its first fault."""
    layouts = []
    for i, lay in enumerate(records):
        try:
            layouts.append(_layout_from_obj(lay, vocab))
        except PARSE_ERRORS as e:
            lid = lay.get("id") if isinstance(lay, dict) else None
            where = f"layout {i}" if lid is None else f"layout {i}: id {lid!r}"
            raise parse_error(where, e) from None
    return corpus_from_layouts(vocab, layouts)


# The loader against the per-record parser: the same corpus, bit for bit,
# or the same error text.

# Numbers the contract accepts: signed zeros, subnormals, values past any
# canvas, and bools.
_plain = st.one_of(
    st.floats(-50.0, 400.0), st.integers(-50, 400), st.booleans(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308,
                     2.2250738585072014e-308, 1.7976931348623157e308]))
# Ints that numpy reads as int64, uint64 or float64, or as objects.
_big = st.sampled_from([2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1,
                        2**64, 2**64 + 1, -2**63, -2**63 - 1])
# Values that break the contract, numeric strings among them, or that
# fail one of the parser's checks.
_odd = st.one_of(
    st.sampled_from(["1.5", "-0.0", " 7 ", "1_0", "1e3", "inf", "nan", "x",
                     "", None, [], [1.0], {}]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(2**1023, 2**1030))
_sides = st.one_of(st.floats(1.0, 500.0), st.integers(1, 500),
                   st.sampled_from([True, 5e-324, 1e308]))


def _ordered(xs_ys):
    """A box of two x and two y values, each pair in order."""
    xa, xb, ya, yb = xs_ys
    return [min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb)]


def _layouts(numbers, boxes=st.nothing(), scores=st.nothing(),
             sides=st.nothing(), ids=st.text("abc", max_size=2),
             components=st.nothing()):
    """Layout records: ordered boxes of `numbers`, scores that are absent,
    None, 1.0 or `numbers`, sides from _sides, and each strategy given
    added to the choices of its field. `components` that are not a list,
    such as "" or {}, break the contract: _any_records draws them."""
    comp = st.fixed_dictionaries(
        {"bbox": st.one_of(st.tuples(numbers, numbers, numbers,
                                     numbers).map(_ordered), boxes),
         "class": st.sampled_from(["A", "B", "C"])},
        optional={"score": st.one_of(st.none(), st.just(1.0), numbers,
                                     scores)})
    return st.fixed_dictionaries(
        {"id": ids, "width": st.one_of(_sides, sides),
         "height": st.one_of(_sides, sides)},
        optional={"components": st.one_of(st.lists(comp, max_size=4),
                                          components)})


def _valid_records(numbers):
    return st.lists(_layouts(numbers), max_size=3,
                    unique_by=lambda lay: lay["id"])


# A value that fails one check of the parser, by the field
# of _faulty_records' layout or component it replaces.
_FAULTS = {
    "bbox": [[5, 0, 1, 1], [0, 5, 1, 1], [0, 0, inf, 1], [nan, 0, 1, 1],
             [-inf, 0, 1, 1]],
    "score": [nan, inf, -inf],
    "class": ["Z", ["A"]],
    "width": [0, -1.0, inf, nan],
    "height": [0, -0.0, inf, nan],
}


@st.composite
def _faulty_records(draw):
    """Valid records and, at any position, a layout that fails one check:
    it holds a faulty value, or a later layout has the same id."""
    records = draw(_valid_records(_plain))
    comp = {"bbox": [1, 2, 3, 4], "class": "A", "score": 0.5}
    lay = {"id": "f", "width": 10.0, "height": 10.0, "components": [comp]}
    key = draw(st.sampled_from(["id", *_FAULTS]))
    if key == "id":
        records.append(dict(lay))
    else:
        target = lay if key in ("width", "height") else comp
        target[key] = draw(st.sampled_from(_FAULTS[key]))
    records.insert(draw(st.integers(0, len(records))), lay)
    return records


# Records of any kind: odd values in every field, repeated ids, missing
# ids and records that are not objects.
_any_record = st.one_of(
    _layouts(st.one_of(_plain, _big),
             boxes=st.one_of(st.lists(st.one_of(_plain, _odd), min_size=4,
                                      max_size=4),
                             st.lists(_plain, min_size=3, max_size=5),
                             st.sampled_from(["1234", None, {
                                 "1": 0, "2": 0, "3": 1, "4": 1}])),
             scores=_odd, sides=st.one_of(_plain, _big, _odd),
             ids=st.sampled_from(["a", "b", 1, "1", 2.5]),
             components=st.sampled_from(["", {}, None, "ab", {"k": 1}])),
    st.fixed_dictionaries({"width": _sides, "height": _sides}),
    st.sampled_from([["a"], "a", None, 3]))
_any_records = st.lists(_any_record, max_size=3)


def _load(records, vocab):
    """The corpus load_native makes of a file holding `records`."""
    return _corpus_from_obj({"classes": list(vocab.names),
                             "layouts": records})


def _outcome(parse, records, vocab):
    """What `parse` makes of `records`: every array and number of the
    corpus exactly, or the error text."""
    try:
        corpus = parse(records, vocab)
    except PARSE_ERRORS as e:
        return "error", str(parse_error("f", e))
    return ("corpus", dumped(corpus), corpus.ids,
            [(f.name, a.dtype, a.shape, a.tobytes())
             for f, a in zip(fields(Corpus)[2:], _arrays(corpus))])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(_valid_records(_plain),
                 _valid_records(st.one_of(_plain, _plain, _big)),
                 _faulty_records(), _any_records))
@example([{"id": "z", "width": 10, "height": 10, "components": [
    {"bbox": [-0.0, -0.0, 20.0, 5e-324], "class": "A"}]}])
@example([{"id": "e", "width": 10, "height": 10, "components": ""},
          {"id": "f", "width": 10, "height": 10, "components": {}}])
@example([{"id": "s", "width": "10", "height": 10, "components": [
    {"bbox": ["1.5", True, 2, 3], "class": "B", "score": "0.5"}]}])
@example([{"id": "n", "width": 2**64, "height": 2**63, "components": [
    {"bbox": [2**63 + 1, 0, 2**64 + 1, 1], "class": "C", "score": 1.0},
    {"bbox": [0, 0, 1, 1], "class": "C"}]}])
def test_columnar_loader_matches_record_parser(records):
    vocab = ClassVocabulary(("A", "B", "C"))
    assert _outcome(_load, records, vocab) == _outcome(parse_records,
                                                       records, vocab)


def test_columnar_loader_builds_no_layouts(tmp_path):
    corpus = load_native(write(tmp_path, NATIVE))
    # The prior and the evaluation read the arrays alone.
    build_prior(corpus, BandConfig(2))
    evaluate(corpus, corpus)
    assert "layouts" not in vars(corpus)
    assert corpus.ids == ("a",) and corpus.heights.tolist() == [200.0]
    assert not corpus.heights.flags.writeable
    assert corpus.layouts == parse_records(NATIVE["layouts"],
                                           corpus.vocabulary).layouts
    assert corpus.layouts is corpus.layouts
    with pytest.raises(AttributeError, match="'Corpus' object has no "
                                             "attribute 'layout'"):
        corpus.layout


# Round-trip laws of native files, over corpora built from objects: ids
# and class names with escapes and non-ASCII text, empty layouts,
# zero-area boxes, signed zeros, subnormals, values up to 1e308, absent
# scores, and canvas sides that are floats or ints.

_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fé '
                                          '\U0001f600'), st.characters()),
                max_size=4)
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300,
                     0.1, 1.0, 1e308]),
    st.floats(0.0, 1e308))
_float_sides = st.one_of(st.floats(5e-324, 1.7976931348623157e308),
                         st.sampled_from([5e-324, 1.0, 1e308]))
# Ints that float64 holds exactly, which the loader reads back equal.
_exact_sides = st.one_of(_float_sides, st.integers(1, 2**53))
# Ints past int64 and past float64's exact range too.
_int_sides = st.one_of(_exact_sides,
                       st.sampled_from([2**63 - 1, 2**63, 2**64 + 1, 10**30]))


@st.composite
def _corpora(draw, sides):
    """A corpus built from layout objects, whose canvas sides come from
    `sides` and whose boxes lie on the canvas."""
    names = draw(st.lists(_text.filter(bool), min_size=1, max_size=4,
                          unique=True))
    layouts = []
    for lid in draw(st.lists(_text, max_size=4, unique=True)):
        w, h = draw(sides), draw(sides)
        comps = []
        for _ in range(draw(st.integers(0, 3))):
            xa, xb = (min(draw(_values), w) for _ in "ab")
            ya, yb = (min(draw(_values), h) for _ in "ab")
            score = draw(st.one_of(st.none(), _values,
                                   st.sampled_from([-0.0, -5e-324, -1e308])))
            comps.append(Component(
                BBox(min(xa, xb), min(ya, yb), max(xa, xb), max(ya, yb)),
                draw(st.integers(0, len(names) - 1)), score))
        layouts.append(LayoutDocument(lid, w, h, comps))
    return corpus_from_layouts(ClassVocabulary(tuple(names)), layouts)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_corpora(_exact_sides))
def test_load_inverts_save(corpus):
    with tempfile.TemporaryDirectory() as d:
        for name in ("c.json", "c.json.gz"):
            save_native(corpus, f"{d}/{name}")
            assert load_native(f"{d}/{name}") == corpus


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_corpora(_int_sides))
def test_from_layouts_inverts_layouts(corpus):
    again = corpus_from_layouts(corpus.vocabulary, corpus.layouts)
    assert again == corpus and hash(again) == hash(corpus)
    assert [a.dtype for a in (again.widths, again.heights)] == [
        a.dtype for a in (corpus.widths, corpus.heights)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_corpora(_float_sides))
def test_save_rewrites_loaded_file_bytes(corpus):
    # A file that holds an int canvas side reads back as a float and is
    # rewritten as one (300 as 300.0); any other file the library wrote
    # is rewritten byte for byte. The gzip header holds the base name.
    with tempfile.TemporaryDirectory() as d:
        for name in ("c.json", "c.json.gz"):
            first, second = Path(d, "1", name), Path(d, "2", name)
            first.parent.mkdir(exist_ok=True)
            second.parent.mkdir(exist_ok=True)
            save_native(corpus, first)
            save_native(load_native(first), second)
            assert second.read_bytes() == first.read_bytes()


def test_int_canvas_past_int64():
    # The canvas column keeps ints past int64 as Python ints; the prior
    # and the evaluation read them as a loaded corpus's float sides.
    spec = replace(block_spec(noise=0.3, seed=5), canvas=(640, 10**30))
    clean, noisy = generate(spec, 5)
    assert clean.widths.dtype == np.int64 and clean.heights.dtype == object
    again = corpus_from_layouts(clean.vocabulary, clean.layouts)
    assert again == clean and again.heights.dtype == object
    with tempfile.TemporaryDirectory() as d:
        save_native(clean, f"{d}/c.json")
        text = Path(d, "c.json").read_text()
        loaded = load_native(f"{d}/c.json")
    assert '"height": 1000000000000000000000000000000,' in text
    assert '"width": 640\n' in text
    cfg = BandConfig(2)
    assert np.array_equal(build_prior(clean, cfg, keep_raw=True).raw_counts,
                          build_prior(loaded, cfg, keep_raw=True).raw_counts)
    assert (evaluate(noisy, clean).to_dict()
            == evaluate(noisy, loaded).to_dict())


# The writer of corpora that share their layouts and boxes, against the
# json.dump oracle, file by file.

@st.composite
def _relabelled(draw, sides):
    """A corpus from _corpora and a twin that shares its ids, canvas
    sides, index and boxes, with class names, class ids and scores of its
    own, some present and some absent."""
    corpus = draw(_corpora(sides))
    names = draw(st.lists(_text.filter(bool), min_size=1, max_size=4,
                          unique=True))
    N = len(corpus.index)
    scores = draw(st.lists(st.one_of(st.none(), _values), min_size=N,
                           max_size=N))
    twin = replace(
        corpus, vocabulary=ClassVocabulary(tuple(names)),
        class_id=draw(st.lists(st.integers(0, len(names) - 1), min_size=N,
                               max_size=N).map(np.array)).astype(np.int64),
        score=np.array([1.0 if s is None else s for s in scores]),
        scored=np.array([s is not None for s in scores], dtype=bool))
    return corpus, twin


def _read(path) -> str:
    with (gzip.open(path, "rt") if str(path).endswith(".gz")
          else open(path)) as f:
        return f.read()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_relabelled(_float_sides))
def test_labelings_writer_matches_dump(pair):
    with tempfile.TemporaryDirectory() as d:
        for suffix in (".json", ".json.gz"):
            paths = [f"{d}/a{suffix}", f"{d}/b{suffix}"]
            save_native_labelings(pair, paths)
            assert [_read(p) for p in paths] == [dumped(c) for c in pair]
        # The twin first, and one file of each kind.
        paths = [f"{d}/b.json.gz", f"{d}/a.json"]
        save_native_labelings(pair[::-1], paths)
        assert [_read(p) for p in paths] == [dumped(c) for c in pair[::-1]]


def _edge_pair(n, empty=()):
    """Two labelings of n layouts on int canvas sides, with 1-3 boxes in
    each layout but those at `empty`, and -0.0 among the coordinates. The
    second has classes of its own and scores on some boxes, -0.0 one."""
    rng = np.random.Generator(np.random.PCG64(n))
    counts = rng.integers(1, 4, n)
    counts[list(empty)] = 0
    N = int(counts.sum())
    corners = np.sort(rng.random((N, 2, 2)) * 300, axis=1)  # x1 <= x2 ...
    boxes = corners.reshape(N, 4)
    boxes[::4, :2] = -0.0
    clean = Corpus(ClassVocabulary(("A", 'q"t', "C")), [f"l{i}" for i in
                   range(n)], np.full(n, 360), 600 + np.arange(n),
                   np.repeat(np.arange(n), counts), rng.integers(0, 3, N),
                   np.ones(N), np.zeros(N, dtype=bool), boxes)
    scored = rng.random(N) < 0.5
    score = np.where(scored, rng.random(N), 1.0)
    score[np.flatnonzero(scored)[:1]] = -0.0
    noisy = replace(clean, vocabulary=ClassVocabulary(("x", "y")),
                    class_id=rng.integers(0, 2, N), score=score,
                    scored=scored)
    return clean, noisy


B = _WRITE_LAYOUTS
WRITER_EDGES = {
    **{f"n{n}": (n, ()) for n in (B - 1, B, B + 1, 2 * B + 1)},
    # Layouts with no boxes first and last in a step of the writer.
    "empty-at-edges": (2 * B + 1, (0, B - 1, B, 2 * B - 1, 2 * B)),
    "no-boxes": (B + 1, range(B + 1)),
}


@pytest.mark.parametrize("name", list(WRITER_EDGES))
def test_labelings_writer_at_step_edges(tmp_path, name):
    pair = _edge_pair(*WRITER_EDGES[name])
    paths = (tmp_path / "clean.json", tmp_path / "noisy.json")
    save_native_labelings(pair, paths)
    assert [p.read_text() for p in paths] == [dumped(c) for c in pair]
    # The cases hold what they are meant to.
    text = paths[1].read_text()
    assert '"width": 360\n' in text
    if pair[1].index.size:
        assert "-0.0," in text and '"score": -0.0' in text
        assert 0 < pair[1].scored.sum() < pair[1].index.size


def test_labelings_writer_needs_shared_layouts(tmp_path):
    spec = replace(block_spec(noise=0.3, seed=5), canvas=(360, 640))
    clean, noisy = generate(spec, 4)
    paths = [tmp_path / "c.json", tmp_path / "n.json"]
    # Equal arrays that are not the same object are shared too.
    copied = replace(noisy, boxes=noisy.boxes.copy(), index=noisy.index + 0)
    save_native_labelings((clean, copied), paths)
    assert [p.read_text() for p in paths] == [dumped(clean), dumped(noisy)]
    # -0.0 and 0.0, or 360 and 360.0, are equal values of other text.
    zero, minus = clean.boxes.copy(), clean.boxes.copy()
    zero[0, 0], minus[0, 0] = 0.0, -0.0
    clean, noisy = replace(clean, boxes=zero), replace(noisy, boxes=zero)
    for other in (replace(noisy, ids=noisy.ids[::-1]),
                  replace(noisy, boxes=minus),
                  replace(noisy, boxes=zero + 1.0),
                  replace(noisy, widths=noisy.widths.astype(np.float64)),
                  replace(noisy, heights=noisy.heights + 1),
                  replace(noisy, index=np.zeros_like(noisy.index))):
        with pytest.raises(ShapeError, match="must share"):
            save_native_labelings((clean, other), paths)
    with pytest.raises(ShapeError, match="2 corpora for 1 paths"):
        save_native_labelings((clean, noisy), paths[:1])
    with pytest.raises(ShapeError, match="0 corpora for 0 paths"):
        save_native_labelings((), ())


def test_labelings_writer_same_file_holds_last(tmp_path):
    clean, noisy = generate(block_spec(noise=0.3, seed=5), 4)
    p = tmp_path / "x.json"
    save_native_labelings((clean, noisy), (p, tmp_path / "." / "x.json"))
    assert p.read_text() == dumped(noisy)
    save_native_labelings((noisy, clean), (p, p))
    assert p.read_text() == dumped(clean)


def one_box_corpus(width=10.0, height=10.0, score=0.5, scored=True,
                   box=(0.0, 0.0, 1.0, 1.0)):
    return Corpus(ClassVocabulary(["a"]), ["x"], [width], [height], [0], [0],
                  [score], [scored], [box])


@pytest.mark.parametrize("field, reason", [
    ({"box": (0.0, 0.0, inf, 1.0)}, f"malformed box (0.0,0.0,inf,1.0): "
                                    f"{BOX_TEXT}"),
    ({"box": (nan, 0.0, 1.0, 1.0)}, f"malformed box (nan,0.0,1.0,1.0): "
                                    f"{BOX_TEXT}"),
    ({"score": nan}, "non-finite score: nan"),
    ({"score": -inf}, "non-finite score: -inf"),
    ({"width": inf}, CANVAS_TEXT), ({"height": nan}, CANVAS_TEXT),
    ({"height": 10 ** 400}, CANVAS_TEXT)],
    ids=["box-inf", "box-nan", "score-nan", "score-inf", "width-inf",
         "height-nan", "height-past-float"])
def test_labelings_writer_refuses_non_finite(field, reason):
    """%r would write a bare inf or nan, which is not JSON, so the writer
    is never handed one: a Corpus refuses such a number when it is
    built, with the text the loader gives for it."""
    with pytest.raises(ParseError) as e:
        one_box_corpus(**field)
    assert str(e.value) == reason


def test_native_writer_skips_absent_score(tmp_path):
    """An absent score is not written, so a NaN held in its place is no
    fault."""
    corpus = one_box_corpus(score=nan, scored=False)
    p = tmp_path / "c.json"
    save_native(corpus, p)
    assert p.read_text() == dumped(corpus)
    assert not load_native(p).scored.any()


# The traced peak of writing the `synth` workload's two corpora while
# each box's text was still formatted for the whole corpus before the
# first layout was written: 3.08 MB. Writing one layout at a time, as
# two save_native calls did, peaked at 0.067 MB (Python 3.11, numpy 2.4).
# Formatting 8 layouts per step, each corpus's text written before the
# next corpus's is made, peaks at 0.119 MB (118,863 bytes; same versions).
PEAK_BOUND = 250_000


def test_labelings_writer_peak_memory_on_synth_workload(tmp_path):
    pair = generate(workload_spec(1001), 400)
    paths = (tmp_path / "clean.json", tmp_path / "noisy.json")
    save_native_labelings(pair, paths)  # first-call allocations
    tracemalloc.start()
    try:
        save_native_labelings(pair, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUND


def _whole(path):
    """The whole-document read of a native file: json.loads, then
    _corpus_from_obj."""
    return read_json(path, _corpus_from_obj)


# Traced peaks of load_native on a 1000-layout corpus of the benchmark's
# spec (Python 3.11, numpy 2.4): the whole-document read, 12.3 MB, of
# which the decoded document is 8.6 MB; the streamed read in blocks of
# 16 to 64 records, 6.5 MB, the peak of reading the file's text, when
# its bytes and their string are both held.
def test_streamed_read_peak_memory_on_prior_workload(tmp_path):
    p = tmp_path / "corpus.json"
    save_native(generate(workload_spec(1001), 1000)[0], p)
    peaks = []
    for load in (load_native, _whole):
        load(p)  # first-call allocations
        tracemalloc.start()
        try:
            load(p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    streamed, whole = peaks
    assert streamed < whole * 2 / 3


# The streamed read against the whole-document read, json.loads and then
# _corpus_from_obj, on documents about the block size: their records
# repeat a few drawn layouts, 0, 1, B - 1, B, B + 1 or 2B + 1 of them.
_B = _READ_LAYOUTS
_SEPARATORS = [(",", ":"), (", ", ": "), (" ,\n", " :\t"), ("\r\n,", ":\r\n")]


@st.composite
def _documents(draw):
    """A native document's text, and whether it is regular: of the
    library's shape, an object of "classes" and then "layouts" alone. It
    may hold an odd record, a bad vocabulary, extra or repeated keys,
    keys in any order, any JSON whitespace, a top level that is an array,
    a cut or trailing data."""
    pool = draw(st.lists(_layouts(st.one_of(_plain, _big)), min_size=1,
                         max_size=3))
    n = draw(st.sampled_from([2 * _B + 1, _B + 1, _B, _B - 1, 1, 0]))
    records = [{**pool[k % len(pool)], "id": f"{k}"} for k in range(n)]
    if draw(st.integers(0, 3)) == 0:
        records.insert(draw(st.integers(0, n)), draw(_any_record))
    vocabularies = [["A", "B", "C"], ["C", "B", "A"], ["A", "B", "C", "D"]]
    classes = draw(st.one_of(st.sampled_from(vocabularies), st.sampled_from(
        vocabularies + [["A", "A"], [], "ABC", None])))
    members = [("classes", classes), ("layouts", records)] + draw(st.lists(
        st.tuples(st.sampled_from(["extra", "id", "classes", "layouts"]),
                  st.sampled_from([None, 3, ["A"], {"layouts": []}])),
        max_size=2))
    if draw(st.integers(0, 2)) == 0:
        members = draw(st.permutations(members))
    keys = [k for k, _ in members]
    regular = keys == ["classes", "layouts"]
    item, key = draw(st.sampled_from(_SEPARATORS))
    indent = draw(st.sampled_from([None, 0, 1, "\t"]))
    body = item.join(json.dumps(k) + key + json.dumps(
        v, indent=indent, separators=(item, key)) for k, v in members)
    space = st.sampled_from(["", " ", "\n", "\t\r\n "])
    text = draw(space) + "{" + draw(space) + body + draw(space) + "}"
    if draw(st.integers(0, 3)) == 0:
        regular = False
        k = draw(st.integers(0, len(text) - 1))
        text = draw(st.sampled_from([
            json.dumps(records), text + draw(st.sampled_from(
                ["x", "{}", "]", "}", ","])), text[:k],
            text[:k] + draw(st.sampled_from("{}[],:")) + text[k + 1:]]))
    return text + draw(space), regular


def _loaded(load, path):
    """Each field of the corpus that load(path) returns, with its dtype,
    or the text of the ParseError it raises."""
    try:
        corpus = load(path)
    except ParseError as e:
        return "error", str(e)
    return ("corpus", corpus.vocabulary, corpus.ids,
            [(a.dtype, a.shape, a.tobytes()) for a in _arrays(corpus)])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_documents())
@example(('{"classes": ["A"], "layouts": [{"id": "a", "width": 1, '
          '"height": 1}}}', False))
def test_streamed_read_matches_whole_document_read(document):
    """load_native gives the whole-document read's corpus or error text,
    on documents json.dumps writes and on save_native's rewrite of
    those that load. The streamed read takes every document of the
    library's shape that loads, and no other."""
    text, regular = document
    with tempfile.TemporaryDirectory() as d:
        p = Path(d, "c.json")
        p.write_text(text)
        whole = _loaded(_whole, p)
        assert _loaded(load_native, p) == whole
        assert (_streamed(text) is not None) == (
            regular and whole[0] == "corpus")
        if whole[0] == "corpus":
            save_native(_whole(p), p)
            assert _loaded(load_native, p) == _loaded(_whole, p) == whole
            assert _streamed(p.read_text()) is not None


@pytest.mark.parametrize("n, form", [
    (0, ".json"), (0, ".json.gz"), (_B + 1, ".json"), (_B + 1, ".json.gz"),
    (_B + 1, "json.dumps")])
@pytest.mark.parametrize("change", [
    None, "extra key", "layouts first", "escaped key"])
def test_streamed_read_takes_the_library_shape_alone(tmp_path, n, form,
                                                     change):
    """_streamed reads what save_native writes, plain and .gz, and a
    one-line json.dumps of it: "classes" and then "layouts" alone. It
    returns None for any other top level, which load_native then reads
    whole to the same corpus."""
    corpus = generate(block_spec(seed=7), n)[0]
    p = tmp_path / ("c.json" if form == "json.dumps" else "c" + form)
    if form == "json.dumps":
        text = json.dumps(corpus_to_obj(corpus))
    else:
        save_native(corpus, p)
        with open_text(p) as f:
            text = f.read()
    if change == "extra key":
        text = text.rstrip()[:-1] + ', "extra": 1}'
    elif change == "layouts first":
        obj = json.loads(text)
        text = json.dumps({"layouts": obj["layouts"],
                           "classes": obj["classes"]})
    elif change == "escaped key":
        text = text.replace('"classes"', '"cl\\u0061sses"', 1)
    assert (_streamed(text) == corpus) if change is None \
        else (_streamed(text) is None)
    write_text(p, [text])
    assert load_native(p) == corpus


def _two_blocks():
    """A library-written corpus of two blocks and some, as an object."""
    return corpus_to_obj(generate(block_spec(seed=5), 2 * _B + 9)[0])


def test_streamed_fault_in_second_block_named_by_global_index(tmp_path):
    obj = _two_blocks()
    bad = obj["layouts"][_B + 4]
    bad["width"] = "10"
    assert_rejected(tmp_path, obj, f"layout {_B + 4}: id {bad['id']!r}: "
                                   "width must be a JSON number, got '10'")


@pytest.mark.parametrize("where", ["record", "end"])
def test_syntax_error_after_bad_record_is_invalid_json(tmp_path, where):
    """A syntax error anywhere in the file is reported, not a bad record
    that comes before it."""
    obj = _two_blocks()
    obj["layouts"][1]["width"] = "10"
    obj["layouts"][_B + 3]["id"] = "mark"
    text = json.dumps(obj)
    p = tmp_path / "c.json"
    p.write_text(text.replace('"mark"', '"mark" x') if where == "record"
                 else text[:-1])
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: invalid "
                                         "JSON: "):
        load_native(p)
