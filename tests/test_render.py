import re
import xml.etree.ElementTree as ET

import numpy as np

from layoutprior import BBox, ClassVocabulary, Component, LayoutDocument
from layoutprior.prior import BandConfig, CoOccurrenceGraphSet, graphs_to_dot
from layoutprior.render import render_layout_svg

from conftest import corpus_from_layouts

NAMES = ("b&<c>", 'q"x', "back\\slash", "plain")


def test_svg_escapes_class_names():
    vocab = ClassVocabulary(NAMES)
    comps = tuple(Component(BBox(0, 10 * i, 20, 10 * i + 8), i,
                            None if i % 2 else 0.5)
                  for i in range(len(NAMES)))
    layout = LayoutDocument("x", 100, 100, comps)
    corpus = corpus_from_layouts(vocab, (layout,))
    root = ET.fromstring(render_layout_svg(corpus, 0).encode("utf-8"))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts == ["b&<c> 0.50", 'q"x', "back\\slash 0.50", "plain"]


def _dot_unquote(s):
    return re.sub(r'\\(["\\])', r"\1", s)


def test_dot_labels_round_trip_names():
    vocab = ClassVocabulary(NAMES)
    E = np.eye(len(NAMES))
    dot = graphs_to_dot(CoOccurrenceGraphSet(vocab, BandConfig(1), (E,)))
    labels = re.findall(r'b0_c\d+ \[label="((?:[^"\\]|\\.)*)"\];', dot)
    assert [_dot_unquote(l) for l in labels] == list(NAMES)
