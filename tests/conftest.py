import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from layoutprior import (BBox, ClassVocabulary, Component, Corpus,
                         GeneratorSpec, LayoutDocument, NodeFeatures)

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


def _sides(values) -> np.ndarray:
    """A canvas column: ints as numpy reads them (int64, or objects past
    its range) when every side is an int, float64 otherwise."""
    ints = all(type(v) is int for v in values)
    return np.array(values, dtype=None if ints else np.float64)


def corpus_from_layouts(vocabulary: ClassVocabulary, layouts) -> Corpus:
    """The corpus of the LayoutDocument objects `layouts`. Ids go
    through str(); coordinates and scores become float64, and so do
    the canvas sides unless every side of a column is an int."""
    layouts = tuple(layouts)
    n = sum(len(lay.components) for lay in layouts)
    rows = ((i, c.class_id, 1.0 if c.score is None else c.score,
             c.score is not None, c.bbox.x1, c.bbox.y1, c.bbox.x2,
             c.bbox.y2)
            for i, lay in enumerate(layouts) for c in lay.components)
    cols = np.fromiter(itertools.chain.from_iterable(rows),
                       dtype=np.float64, count=8 * n).reshape(n, 8)
    return Corpus(vocabulary, tuple(str(lay.id) for lay in layouts),
                  _sides([lay.width for lay in layouts]),
                  _sides([lay.height for lay in layouts]),
                  cols[:, 0].astype(np.int64), cols[:, 1].astype(np.int64),
                  cols[:, 2], cols[:, 3].astype(bool), cols[:, 4:])


def spec_to_obj(spec: GeneratorSpec) -> dict:
    return {
        "classes": list(spec.vocabulary.names),
        "planted_graphs": spec.planted_graphs.tolist(),
        "class_marginals": spec.class_marginals.tolist(),
        "boxes_per_band": list(spec.boxes_per_band),
        "canvas": list(spec.canvas),
        "box_size_frac": list(spec.box_size_frac),
        "noise": spec.noise,
        "seed": spec.seed,
    }


def make_layout(lid, boxes, class_ids, height=100.0, width=100.0, scores=None):
    comps = []
    for i, (box, cid) in enumerate(zip(boxes, class_ids)):
        score = None if scores is None else scores[i]
        comps.append(Component(BBox(*box), cid, score))
    return LayoutDocument(lid, width, height, tuple(comps))


def random_corpus(rng, n_layouts=5, max_boxes=20, n_classes=4, height=100.0):
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(n_classes)))
    layouts = []
    for li in range(n_layouts):
        n = int(rng.integers(0, max_boxes + 1))
        comps = []
        for _ in range(n):
            y = rng.uniform(0, height)
            x = rng.uniform(0, 100)
            h = rng.uniform(1, 20)
            w = rng.uniform(1, 20)
            box = BBox(x, y, min(x + w, 100.0), min(y + h, height))
            comps.append(Component(box, int(rng.integers(n_classes))))
        layouts.append(LayoutDocument(f"l{li}", 100.0, height, tuple(comps)))
    return corpus_from_layouts(vocab, tuple(layouts))


def random_node_features(C: int, K: int, seed: int) -> NodeFeatures:
    rng = np.random.Generator(np.random.PCG64(seed))
    return NodeFeatures(rng.standard_normal((C, K)))


def random_embed(K: int, d_prime: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((K, d_prime))


# Finite float64 entries, with -0.0 and subnormals drawn often.
ENTRIES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]))


def finite_matrices(rows=st.integers(0, 4), cols=st.integers(0, 4)):
    """Finite float64 matrices of `rows` x `cols`, each an int strategy."""
    return st.tuples(rows, cols).flatmap(lambda rc: st.lists(
        ENTRIES, min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]).map(
            lambda data: np.array(data, dtype=np.float64).reshape(rc)))


def assert_rewrite_stable(save, load, value):
    """save(load(p), p) leaves the bytes that save(value, p) wrote, for a
    plain and a .gz path p."""
    with tempfile.TemporaryDirectory() as d:
        for name in ("f.json", "f.json.gz"):
            p = Path(d, name)
            save(value, p)
            written = p.read_bytes()
            save(load(p), p)
            assert p.read_bytes() == written, name


LAYOUT_OBJECTS = ("BBox", "Component", "LayoutDocument")


def refuse_layout_objects(monkeypatch):
    """Make BBox, Component and LayoutDocument raise when called, under
    each name that a layoutprior module binds them to, core's included."""
    def refuse(*args, **kwargs):
        raise AssertionError("a layout object was built")

    for module in [m for n, m in sys.modules.items()
                   if n.split(".")[0] == "layoutprior"]:
        for name in LAYOUT_OBJECTS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(1234))


@pytest.fixture
def three_box_corpus():
    """Hand-trace fixture: A and B share band 0, C is alone in band 1."""
    vocab = ClassVocabulary(("A", "B", "C"))
    layout = make_layout("l1", [(0, 5, 10, 15), (0, 15, 10, 25),
                                (0, 75, 10, 85)], [0, 1, 2])
    return corpus_from_layouts(vocab, (layout,))
