import json
import os

import numpy as np
import pytest

from layoutprior import (BBox, ClassVocabulary, Component, Corpus,
                         LayoutDocument, load_native)
from layoutprior.core import LayoutPriorError
from layoutprior.evaluation import (SENTINEL, EvalConfig, evaluate,
                                    precision_recall)
from layoutprior.ingest import corpus_to_obj

from reference_eval import reference_evaluate

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def corpus_of(vocab_names, images):
    """images: {id: [(bbox, class_id, score?), ...]}"""
    vocab = ClassVocabulary(tuple(vocab_names))
    layouts = []
    for lid, items in images.items():
        comps = tuple(Component(BBox(*it[0]), it[1],
                                it[2] if len(it) > 2 else None)
                      for it in items)
        layouts.append(LayoutDocument(lid, 1000, 1000, comps))
    return Corpus(vocab, tuple(layouts))


class TestMatch:
    """Greedy matching, seen through evaluate on one image and class."""

    AT_50 = EvalConfig(iou_thresholds=(0.5,))

    def run(self, gts, dets, config=EvalConfig()):
        return evaluate(corpus_of(["a"], {"i": [(d, 0, s) for d, s in dets]}),
                        corpus_of(["a"], {"i": [(g, 0) for g in gts]}),
                        config)

    def test_exact_match(self):
        rep = self.run([(0, 0, 10, 10)], [((0, 0, 10, 10), 0.9)],
                       EvalConfig(iou_thresholds=(1.0,)))
        assert rep.ap == 1.0 and rep.ar100 == 1.0

    def test_score_order_beats_iou(self):
        gt = [(0, 0, 100, 100)]
        dets = [((0, 0, 100, 90), 0.5),   # IoU 0.9
                ((0, 0, 100, 80), 0.9)]   # IoU 0.8
        rep = self.run(gt, dets, self.AT_50)
        # the 0.9-scored detection is matched first and claims the GT,
        # so the ranking is TP, FP and the top-1 recall is full
        assert rep.ap == 1.0 and rep.ar1 == 1.0
        # at 0.85 only the 0.5-scored detection can match: FP, TP
        rep = self.run(gt, dets, EvalConfig(iou_thresholds=(0.85,)))
        assert rep.ap == pytest.approx(0.5) and rep.ar1 == 0.0

    def test_below_threshold(self):
        rep = self.run([(0, 0, 100, 100)], [((0, 0, 49, 100), 0.9)],  # IoU 0.49
                       self.AT_50)
        assert rep.ap == 0.0 and rep.ar100 == 0.0

    def test_max_dets_truncation(self):
        gts = [(0, 0, 10, 10), (50, 50, 60, 60)]
        # listed lowest score first: truncation keeps the top scores
        dets = [((50, 50, 60, 60), 0.8), ((0, 0, 10, 10), 0.9)]
        rep = self.run(gts, dets, self.AT_50)
        assert rep.ar1 == 0.5 and rep.ar10 == 1.0
        # ten higher-scored misses push the only hit past the 10 cap
        misses = [((500, 500, 510, 510), 0.95)] * 10
        rep = self.run(gts[:1], misses + dets[1:], self.AT_50)
        assert rep.ar10 == 0.0 and rep.ar100 == 1.0

    def test_prefers_in_range_ground_truth(self):
        # For the small range the medium GT is ignored: the detection
        # must take the in-range GT (IoU 0.826) although the ignored one
        # overlaps more (IoU 0.942), whichever comes first.
        gts = [(0, 0, 34, 34), (0, 0, 30, 30)]
        for order in (gts, gts[::-1]):
            rep = self.run(order, [((0, 0, 33, 33), 0.9)])
            assert rep.ar_small == pytest.approx(0.7)  # thresholds 0.5-0.8


class TestPrecisionRecall:
    def test_all_tp(self):
        _, ap = precision_recall([True, True], n_gt=2)
        assert ap == 1.0

    def test_no_detections(self):
        _, ap = precision_recall([], n_gt=3)
        assert ap == 0.0

    def test_no_ground_truth_sentinel(self):
        _, ap = precision_recall([True], n_gt=0)
        assert ap == SENTINEL

    def test_tp_fp_tp_envelope(self):
        _, ap = precision_recall([True, False, True], n_gt=2)
        expected = (51 * 1.0 + 50 * (2 / 3)) / 101
        assert ap == pytest.approx(expected, abs=1e-12)
        assert ap == pytest.approx(0.8350, abs=1e-4)


class TestEvaluate:
    def perfect(self):
        gts = corpus_of(["a", "b"], {
            "i1": [((0, 0, 50, 50), 0), ((100, 100, 300, 300), 1)],
            "i2": [((10, 10, 60, 80), 0)],
        })
        dets = corpus_of(["a", "b"], {
            "i1": [((0, 0, 50, 50), 0, 1.0), ((100, 100, 300, 300), 1, 1.0)],
            "i2": [((10, 10, 60, 80), 0, 1.0)],
        })
        return dets, gts

    def test_perfect_detections(self):
        dets, gts = self.perfect()
        rep = evaluate(dets, gts)
        for k in rep.FIELDS:
            v = getattr(rep, k)
            assert v == SENTINEL or v == pytest.approx(1.0), k

    def test_perfect_all_fields_with_all_scales(self):
        gts = corpus_of(["a"], {"i": [((0, 0, 10, 10), 0),      # small
                                      ((0, 0, 50, 50), 0),      # medium
                                      ((0, 0, 200, 200), 0)]})  # large
        dets = corpus_of(["a"], {"i": [((0, 0, 10, 10), 0, 0.9),
                                       ((0, 0, 50, 50), 0, 0.8),
                                       ((0, 0, 200, 200), 0, 0.7)]})
        rep = evaluate(dets, gts)
        for k in rep.FIELDS:
            if k == "ar1":  # capped at one detection for three GT
                continue
            assert getattr(rep, k) == pytest.approx(1.0), k

    def test_empty_detections(self):
        _, gts = self.perfect()
        dets = corpus_of(["a", "b"], {"i1": [], "i2": []})
        rep = evaluate(dets, gts)
        assert rep.ap == 0.0
        assert rep.ar100 == 0.0

    def test_id_mismatch_listed(self):
        dets, gts = self.perfect()
        dets = Corpus(dets.vocabulary, dets.layouts[:1])
        with pytest.raises(LayoutPriorError, match="i2"):
            evaluate(dets, gts)

    def test_reference_fixture(self):
        dets = load_native(os.path.join(FIXTURES, "eval_dets.json"))
        gts = load_native(os.path.join(FIXTURES, "eval_gts.json"))
        with open(os.path.join(FIXTURES, "eval_expected.json")) as f:
            expected = json.load(f)
        rep = evaluate(dets, gts)
        for k, v in expected.items():
            assert getattr(rep, k) == pytest.approx(v, abs=1e-6), k

    def test_input_order_invariance(self):
        gts = corpus_of(["a"], {"i": [((0, 0, 50, 50), 0),
                                      ((100, 100, 200, 200), 0)]})
        items = [((0, 0, 48, 50), 0, 0.9), ((100, 100, 190, 200), 0, 0.6),
                 ((300, 300, 400, 400), 0, 0.7)]
        rep1 = evaluate(corpus_of(["a"], {"i": items}), gts)
        rep2 = evaluate(corpus_of(["a"], {"i": items[::-1]}), gts)
        for k in rep1.FIELDS:
            assert getattr(rep1, k) == getattr(rep2, k), k

    def test_zero_overlap_fp_never_helps(self):
        gts = corpus_of(["a"], {"i": [((0, 0, 50, 50), 0)]})
        base_items = [((0, 0, 48, 50), 0, 0.9)]
        rep1 = evaluate(corpus_of(["a"], {"i": base_items}), gts)
        for fp_score in (0.95, 0.5):
            items = base_items + [((500, 500, 600, 600), 0, fp_score)]
            rep2 = evaluate(corpus_of(["a"], {"i": items}), gts)
            for k in ("ap", "ap50", "ap75"):
                assert getattr(rep2, k) <= getattr(rep1, k) + 1e-12, k

    def test_ap50_dominates_ap(self):
        dets = load_native(os.path.join(FIXTURES, "eval_dets.json"))
        gts = load_native(os.path.join(FIXTURES, "eval_gts.json"))
        rep = evaluate(dets, gts)
        assert rep.ap50 >= rep.ap

    def test_per_class_mean_matches_map(self):
        dets = load_native(os.path.join(FIXTURES, "eval_dets.json"))
        gts = load_native(os.path.join(FIXTURES, "eval_gts.json"))
        rep = evaluate(dets, gts)
        vals = [blk["ap"] for blk in rep.per_class.values()
                if blk["ap"] != SENTINEL]
        assert np.mean(vals) == pytest.approx(rep.ap, abs=1e-9)

    def test_uniform_scaling_invariance(self):
        def scaled(corpus, k):
            layouts = []
            for lay in corpus.layouts:
                comps = tuple(
                    Component(BBox(c.bbox.x1 * k, c.bbox.y1 * k,
                                   c.bbox.x2 * k, c.bbox.y2 * k),
                              c.class_id, c.score) for c in lay.components)
                layouts.append(LayoutDocument(lay.id, lay.width * k,
                                              lay.height * k, comps))
            return Corpus(corpus.vocabulary, tuple(layouts))

        dets = load_native(os.path.join(FIXTURES, "eval_dets.json"))
        gts = load_native(os.path.join(FIXTURES, "eval_gts.json"))
        # IoU is scale-free, so the all-areas metrics must not move
        cfg = EvalConfig(area_ranges=(("all", 0.0, float("inf")),))
        rep1 = evaluate(dets, gts, cfg)
        rep2 = evaluate(scaled(dets, 2.0), scaled(gts, 2.0), cfg)
        for k in ("ap", "ap50", "ap75", "ar1", "ar10", "ar100"):
            assert getattr(rep1, k) == pytest.approx(getattr(rep2, k),
                                                     abs=1e-12), k

    def test_table_format(self):
        dets, gts = self.perfect()
        table = evaluate(dets, gts).to_table()
        assert table.splitlines()[0].split() == [
            "AP", "AP50", "AP75", "APs", "APm", "APl",
            "AR1", "AR10", "AR100", "ARs", "ARm", "ARl"]


def random_eval_pair(rng, big):
    """Random (detections, ground truth) corpora for the oracle test.

    Box sides are log-uniform over 3..300 px, so all three area ranges
    occur; half the corpora draw scores from three values so ties are
    common, and about one detection in ten has no score. Some ground
    truths are rescaled copies of the previous one. With `big`,
    the first image holds 101-110 detections of class 0, past the
    100 cap.
    """
    n_classes = int(rng.integers(1, 4))
    tied = rng.random() < 0.5

    def box():
        w, h = np.exp(rng.uniform(np.log(3), np.log(300), 2))
        x, y = rng.uniform(0, 600, 2)
        return (x, y, x + w, y + h)

    def near(b):
        x1, y1, x2, y2 = np.asarray(b) + rng.normal(0, 0.1 * (b[2] - b[0]), 4)
        return (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))

    def rescaled(b):
        x1, y1, x2, y2 = b
        sx, sy = np.exp(rng.uniform(-0.3, 0.3, 2))
        cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
        hw, hh = sx * (x2 - x1) / 2, sy * (y2 - y1) / 2
        return (cx - hw, cy - hh, cx + hw, cy + hh)

    def score():
        if rng.random() < 0.1:
            return None
        return float(rng.choice([0.2, 0.5, 0.9])) if tied else float(rng.random())

    gts, dets = {}, {}
    for i in range(int(rng.integers(1, 4))):
        gts[f"i{i}"], dets[f"i{i}"] = [], []
        for c in range(n_classes):
            g = []
            for _ in range(int(rng.integers(0, 6))):
                # overlapping ground truths of nearby sizes make the
                # preference for in-range targets matter
                g.append(rescaled(g[-1]) if g and rng.random() < 0.5 else box())
            n_det = int(rng.integers(101, 111)) if big and i == c == 0 \
                else int(rng.integers(0, 9))
            gts[f"i{i}"] += [(b, c) for b in g]
            dets[f"i{i}"] += [(near(g[k % len(g)]) if g and rng.random() < 0.7
                               else box(), c, score()) for k in range(n_det)]
    names = [f"c{c}" for c in range(n_classes)]
    return corpus_of(names, dets), corpus_of(names, gts)


def test_matches_reference_on_random_corpora():
    rng = np.random.Generator(np.random.PCG64(2106))
    seen = set()
    for k in range(36):
        dets, gts = random_eval_pair(rng, big=k % 12 == 0)
        got = evaluate(dets, gts).to_dict(include_per_class=False)
        want = reference_evaluate(corpus_to_obj(dets), corpus_to_obj(gts))
        assert got.keys() == want.keys()
        for key, v in want.items():
            assert got[key] == pytest.approx(v, abs=1e-9), (k, key)
        seen |= {key for key in ("ar_small", "ar_medium", "ar_large")
                 if got[key] != SENTINEL}
    assert seen == {"ar_small", "ar_medium", "ar_large"}
