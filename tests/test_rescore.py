import warnings

import numpy as np
import pytest

from layoutprior import ClassVocabulary, ProposalBatch
from layoutprior.conditioning import (AssociationKind, AssociationPolicy,
                                      band_association)
from layoutprior.core import BBox, ParseError, row_softmax
from layoutprior.prior import BandConfig, CoOccurrenceGraphSet
from layoutprior.rescore import (_LOG_FLOOR, RescoreConfig, labels_to_logits,
                                 rescore, rescore_corpus)

from conftest import random_corpus

def graphs_from(edges, n_classes):
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(n_classes)))
    return CoOccurrenceGraphSet(vocab, BandConfig(len(edges)), tuple(edges))

def batch(y_centers, logits, height=100.0):
    boxes = tuple(BBox(0, y - 5, 10, y + 5) for y in y_centers)
    return ProposalBatch(boxes, np.asarray(logits, dtype=float), height)

@pytest.fixture
def pair_graph():
    # classes A, B, C; A-B strongly coupled, A-C never co-occurs
    E = np.array([[1.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    return graphs_from([E], 3)

class TestRescore:
    def test_lambda_zero_identity(self, rng, pair_graph):
        logits = rng.standard_normal((4, 3))
        b = batch([10, 30, 50, 70], logits)
        out = rescore(b, pair_graph, RescoreConfig(blend=0.0))
        assert np.allclose(row_softmax(out.logits), row_softmax(logits),
                           atol=1e-9)
        assert out.boxes == b.boxes

    def test_outputs_are_distributions(self, rng, pair_graph):
        b = batch([10, 40, 80], rng.standard_normal((3, 3)) * 4)
        out = rescore(b, pair_graph, RescoreConfig(blend=0.7))
        probs = row_softmax(out.logits)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_uninformative_prior_keeps_argmax(self, rng):
        flat = graphs_from([np.ones((3, 3))], 3)
        logits = rng.standard_normal((5, 3)) * 3
        b = batch([10, 25, 50, 75, 90], logits)
        for lam in (0.3, 0.5, 1.0):
            out = rescore(b, flat, RescoreConfig(blend=lam))
            probs = row_softmax(out.logits)
            if lam < 1.0:
                assert np.array_equal(np.argmax(probs, axis=1),
                                      np.argmax(logits, axis=1))
            else:
                assert np.allclose(probs, 1 / 3, atol=1e-9)

    def test_context_disambiguates(self, pair_graph):
        # detection 0 ambiguous A-vs-C, detection 1 certain of B;
        # the A-B edge must pull detection 0 toward A
        logits = np.log(np.array([[0.5, 1e-12, 0.5],
                                  [1e-12, 1.0, 1e-12]]))
        b = batch([50, 52], logits)
        out = rescore(b, pair_graph, RescoreConfig(blend=0.5))
        probs = row_softmax(out.logits)
        assert probs[0, 0] > probs[0, 2]

    def test_leave_one_out(self, rng, pair_graph):
        # q for detection 0 must not depend on its own distribution
        y = [10, 40, 80]
        base = rng.standard_normal((3, 3))
        altered = base.copy()
        altered[0] = [50.0, -50.0, 0.0]
        out_a = rescore(batch(y, base), pair_graph, RescoreConfig(blend=1.0))
        out_b = rescore(batch(y, altered), pair_graph, RescoreConfig(blend=1.0))
        # blend=1 output is exactly q, which ignores the own row
        assert np.allclose(row_softmax(out_a.logits)[0],
                           row_softmax(out_b.logits)[0], atol=1e-9)

    def test_deterministic(self, rng, pair_graph):
        b = batch([10, 40, 80], rng.standard_normal((3, 3)))
        cfg = RescoreConfig(blend=0.4)
        a = rescore(b, pair_graph, cfg).logits
        c = rescore(b, pair_graph, cfg).logits
        assert np.array_equal(a, c)

    def test_kl_to_prior_monotone_in_lambda(self, rng, pair_graph):
        b = batch([10, 40, 80], rng.standard_normal((3, 3)))
        q = row_softmax(rescore(b, pair_graph, RescoreConfig(blend=1.0)).logits)
        prev = None
        for lam in np.linspace(0, 1, 11):
            s = row_softmax(rescore(b, pair_graph,
                                    RescoreConfig(blend=lam)).logits)
            with np.errstate(divide="ignore", invalid="ignore"):
                kl = np.nansum(np.where(s > 0, s * np.log(s / q), 0.0), axis=1)
            kl = kl.sum()
            if prev is not None:
                assert kl <= prev + 1e-9
            prev = kl

    def test_vocab_mismatch(self, rng, pair_graph):
        b = batch([10], rng.standard_normal((1, 4)))
        with pytest.raises(ParseError):
            rescore(b, pair_graph, RescoreConfig())

    def test_single_band_association_policies(self, rng, pair_graph):
        b = batch([10, 90], rng.standard_normal((2, 3)))
        for kind in AssociationKind:
            cfg = RescoreConfig(blend=0.5,
                                association=AssociationPolicy(kind, sigma=0.3))
            out = rescore(b, pair_graph, cfg)
            assert np.allclose(row_softmax(out.logits).sum(axis=1), 1.0)

    @pytest.mark.parametrize("kind", list(AssociationKind))
    def test_zero_boxes(self, pair_graph, kind):
        config = RescoreConfig(association=AssociationPolicy(kind))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rescore(batch([], np.zeros((0, 3))), pair_graph, config)
        assert out.boxes == ()
        assert out.logits.shape == (0, 3)
        assert out.logits.dtype == np.float64

    def test_invalid_blend(self):
        with pytest.raises(ParseError):
            RescoreConfig(blend=1.5)

def loop_rescore(detections, graphs, config):
    """Per-(detection, band) oracle: the plain-loop form of `rescore`."""
    C = graphs.vocabulary.size
    n = len(detections.boxes)
    s = row_softmax(detections.logits)
    alpha = band_association(detections, graphs.band_config, config.association)
    band_totals = alpha.T @ s
    uniform = np.full(C, 1.0 / C)
    q = np.zeros((n, C))
    fallbacks = 0
    for i in range(n):
        for j in range(graphs.n_graphs):
            ctx = band_totals[j] - alpha[i, j] * s[i]
            total = ctx.sum()
            if total <= config.epsilon:
                ctx = uniform
                fallbacks += 1
            else:
                ctx = ctx / total
            q[i] += alpha[i, j] * (graphs.edges[j] @ ctx)
    q_sums = q.sum(axis=1, keepdims=True)
    q = np.where(q_sums > 0, q / np.where(q_sums > 0, q_sums, 1.0),
                 uniform[None, :])
    lam = config.blend
    blended = s ** (1.0 - lam) * q ** lam
    blended /= blended.sum(axis=1, keepdims=True)
    return np.log(np.maximum(blended, _LOG_FLOOR)), fallbacks


class TestRescoreOracle:
    """`rescore` must equal the plain loop bit for bit: an allclose check
    would miss a reordered float sum."""

    def random_case(self, rng, n, n_g, C):
        edges = []
        for _ in range(n_g):
            E = rng.uniform(0, 1, (C, C)) * (rng.uniform(0, 1, (C, C)) < 0.7)
            E = (E + E.T) / 2
            np.fill_diagonal(E, 1.0)
            edges.append(E)
        ys = rng.uniform(0, 100, n)
        logits = rng.standard_normal((n, C)) * rng.uniform(0.5, 6)
        return graphs_from(edges, C), batch(ys, logits)

    @pytest.mark.parametrize("kind", list(AssociationKind))
    def test_bit_identical_to_loop(self, kind):
        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(12):
            n, n_g = int(rng.integers(1, 31)), int(rng.integers(1, 13))
            graphs, b = self.random_case(rng, n, n_g, int(rng.integers(2, 9)))
            cfg = RescoreConfig(blend=float(rng.uniform(0, 1)),
                                association=AssociationPolicy(
                                    kind, sigma=float(rng.uniform(0.02, 0.5))))
            want, _ = loop_rescore(b, graphs, cfg)
            assert np.array_equal(rescore(b, graphs, cfg).logits, want)

    @pytest.mark.parametrize("kind", list(AssociationKind))
    def test_single_detection_falls_back_to_uniform(self, kind):
        rng = np.random.Generator(np.random.PCG64(7))
        graphs, b = self.random_case(rng, 1, 4, 5)
        cfg = RescoreConfig(association=AssociationPolicy(kind))
        want, fallbacks = loop_rescore(b, graphs, cfg)
        assert fallbacks == 4
        assert np.array_equal(rescore(b, graphs, cfg).logits, want)

    def test_single_association_lone_detection(self):
        # Bands of height 25: detections 0 and 1 share band 0, detection 2
        # is alone in band 2 and bands 1 and 3 are empty.
        rng = np.random.Generator(np.random.PCG64(11))
        graphs, _ = self.random_case(rng, 3, 4, 4)
        b = batch([5, 15, 60], rng.standard_normal((3, 4)))
        cfg = RescoreConfig(
            association=AssociationPolicy(AssociationKind.SINGLE))
        want, fallbacks = loop_rescore(b, graphs, cfg)
        # empty context: bands 1 and 3 for everyone, and band 2 for
        # detection 2, the only one in it
        assert fallbacks == 2 + 2 + 3
        assert np.array_equal(rescore(b, graphs, cfg).logits, want)


class TestLabelsToLogits:
    def test_confidence_mass(self):
        corpus = random_corpus(np.random.Generator(np.random.PCG64(0)),
                               n_layouts=1, max_boxes=5, n_classes=4)
        lay = corpus.layouts[0]
        b = labels_to_logits(lay, 4, confidence=0.7)
        probs = row_softmax(b.logits)
        for i, comp in enumerate(lay.components):
            assert probs[i, comp.class_id] == pytest.approx(0.7)
            others = np.delete(probs[i], comp.class_id)
            assert np.allclose(others, 0.1, atol=1e-9)

class TestRescoreCorpus:
    def make_graphs(self):
        E = np.eye(3)
        E[0, 1] = E[1, 0] = 0.8
        return graphs_from([E, E], 3)

    def test_empty_corpus(self):
        graphs = self.make_graphs()
        from layoutprior import Corpus
        corpus = Corpus(graphs.vocabulary, ())
        out = rescore_corpus(corpus, graphs, RescoreConfig())
        assert out.layouts == ()

    def test_empty_layouts_unchanged(self, rng):
        graphs = self.make_graphs()
        from layoutprior import Corpus, LayoutDocument
        scored = random_corpus(rng, n_layouts=3, max_boxes=5, n_classes=3)
        empty = tuple(LayoutDocument(f"e{i}", 100, 50 + i) for i in range(3))
        corpus = Corpus(graphs.vocabulary, empty + scored.layouts)
        out = rescore_corpus(corpus, graphs, RescoreConfig())
        assert out.layouts[:3] == empty

    def test_single_detection_unchanged_class(self):
        graphs = self.make_graphs()
        from layoutprior import Component, Corpus, LayoutDocument
        lay = LayoutDocument("x", 100, 100,
                             (Component(BBox(0, 0, 10, 10), 2),))
        corpus = Corpus(graphs.vocabulary, (lay,))
        out = rescore_corpus(corpus, graphs, RescoreConfig(blend=0.5))
        # with no context the band falls back to the uniform prior,
        # which cannot flip the argmax
        assert out.layouts[0].components[0].class_id == 2

    def test_matches_per_layout_composition(self, rng):
        graphs = self.make_graphs()
        vocab_size = 3
        corpus = random_corpus(rng, n_layouts=4, max_boxes=8,
                               n_classes=vocab_size)
        from layoutprior import Corpus
        corpus = Corpus(graphs.vocabulary, corpus.layouts)
        cfg = RescoreConfig(blend=0.5)
        whole = rescore_corpus(corpus, graphs, cfg)
        from layoutprior.rescore import rescore_layout
        for lay, got in zip(corpus.layouts, whole.layouts):
            assert rescore_layout(lay, graphs, cfg) == got

    def test_vocab_mismatch(self, rng):
        graphs = self.make_graphs()
        corpus = random_corpus(rng, n_classes=4)
        with pytest.raises(ParseError):
            rescore_corpus(corpus, graphs, RescoreConfig())


def test_submodule_not_shadowed():
    import types

    import layoutprior.rescore as m
    assert isinstance(m, types.ModuleType)
    assert m.rescore is rescore
