"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion. Pinned regression values were produced by the
reference runs recorded alongside each test.
"""

import json
import os
import time

import numpy as np
import pytest

from layoutprior import (BBox, ClassVocabulary, Component, LayoutDocument,
                         load_native)
from layoutprior.conditioning import (AssociationKind, AssociationPolicy,
                                      NodeFeatures, band_association,
                                      condition_features)
from layoutprior.core import ProposalBatch, matrix_from_json, matrix_to_json
from layoutprior.evaluation import evaluate, precision_recall
from layoutprior.ingest import corpus_to_obj, save_native
from layoutprior.prior import (BandConfig, accumulate, build_prior,
                               graphs_to_obj, load_graphs,
                               save_graphs)
from layoutprior.rescore import RescoreConfig, rescore_corpus
from layoutprior.synth import GeneratorSpec, generate, recovery_score

from conftest import corpus_from_layouts, random_corpus
from test_prior import brute_force_counts
from test_synth import block_spec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_01_algorithm_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(2024))
    start = time.perf_counter()
    for i in range(100):
        corpus = random_corpus(rng,
                               n_layouts=int(rng.integers(1, 11)),
                               max_boxes=20,
                               n_classes=int(rng.integers(1, 7)))
        n_bands = int(rng.choice([1, 2, 5, 10]))
        cfg = BandConfig(n_bands)
        got = accumulate(corpus, cfg)
        want = brute_force_counts(corpus, cfg)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), f"corpus {i}, bands {n_bands}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"100 corpora match brute-force counts exactly "
              f"({elapsed:.2f}s < 5s)")


def test_criterion_02_graph_invariants():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        corpus = random_corpus(rng, n_layouts=int(rng.integers(1, 8)))
        cfg = BandConfig(int(rng.integers(1, 11)))
        g = build_prior(corpus, cfg)
        for E in g.edges:
            assert np.allclose(E, E.T, atol=1e-9)
            assert np.array_equal(np.diag(E), np.ones(E.shape[0]))
            assert np.all(E >= 0) and np.all(E <= 1 + 1e-12)
        for k in (2, 5):
            layouts = tuple(
                LayoutDocument(f"{lay.id}-rep{r}", lay.width, lay.height,
                               lay.components)
                for r in range(k) for lay in corpus.layouts)
            gk = build_prior(corpus_from_layouts(corpus.vocabulary, layouts),
                             cfg)
            for a, b in zip(g.edges, gk.edges):
                assert np.allclose(a, b, atol=1e-9)
    report(2, "symmetry, unit diagonal, [0,1] range, replication "
              "invariance (x2, x5) on fuzz suite")


def test_criterion_03_hand_trace_fixture():
    vocab = ClassVocabulary(("A", "B", "C"))
    layout = LayoutDocument("l1", 100, 100, (
        Component(BBox(0, 5, 10, 15), 0),
        Component(BBox(0, 15, 10, 25), 1),
        Component(BBox(0, 75, 10, 85), 2),
    ))
    g = build_prior(corpus_from_layouts(vocab, (layout,)), BandConfig(2))
    expected0 = np.eye(3)
    expected0[0, 1] = expected0[1, 0] = 0.5
    assert np.array_equal(g.edges[0], expected0)
    assert np.array_equal(g.edges[1], np.eye(3))
    report(3, "3-box hand trace yields [[1,.5],[.5,1]] on {A,B}, "
              "identity elsewhere")


def test_criterion_04_association_contracts():
    rng = np.random.Generator(np.random.PCG64(11))
    bands5 = BandConfig(5)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        boxes = tuple(BBox(0, y - 1, 10, y + 1)
                      for y in rng.uniform(1, 99, size=n))
        batch = ProposalBatch([(b.x1, b.y1, b.x2, b.y2) for b in boxes],
                              np.zeros((n, 2)), 100.0)
        for kind in AssociationKind:
            alpha = band_association(batch, bands5,
                                     AssociationPolicy(kind, sigma=0.3))
            assert np.all(alpha >= 0)
            assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)
        tiny = band_association(batch, bands5, AssociationPolicy(sigma=1e-6))
        single = band_association(batch, bands5,
                                  AssociationPolicy(AssociationKind.SINGLE))
        centroids = bands5.centroids
        for i, box in enumerate(boxes):
            d = np.abs((box.y1 + box.y2) / 2.0 / 100.0 - centroids)
            if np.sum(d == d.min()) == 1:  # unique nearest band
                assert np.argmax(tiny[i]) == np.argmax(single[i])
    two = BandConfig(2)
    mid = ProposalBatch([(0, 45, 10, 55)], np.zeros((1, 2)), 100.0)
    alpha = band_association(mid, two, AssociationPolicy())
    assert np.allclose(alpha, [[0.5, 0.5]], atol=1e-12)
    report(4, "row-stochastic alpha for all policies; sigma->0 matches "
              "Single; symmetric case is [0.5,0.5]")


def test_criterion_05_conditioning_correctness():
    rng = np.random.Generator(np.random.PCG64(13))
    for _ in range(50):
        Nr = int(rng.integers(1, 17))
        C = int(rng.integers(1, 9))
        K = int(rng.integers(1, 11))
        Dp = int(rng.integers(1, 17))
        Ng = int(rng.integers(1, 11))
        vocab = ClassVocabulary(tuple(f"c{i}" for i in range(C)))
        from layoutprior.prior import CoOccurrenceGraphSet
        edges = [rng.uniform(0, 1, size=(C, C)) for _ in range(Ng)]
        graphs = CoOccurrenceGraphSet(vocab, BandConfig(Ng), tuple(edges))
        S = rng.standard_normal((Nr, C))
        alpha = rng.uniform(0, 1, size=(Nr, Ng))
        W = rng.standard_normal((C, K))
        Z = rng.standard_normal((K, Dp))
        out = condition_features(S, alpha, graphs, NodeFeatures(W), Z)
        oracle = np.zeros((Nr, Dp))
        for j, E in enumerate(edges):
            B = S @ E @ W @ Z
            for i in range(Nr):
                oracle[i] += alpha[i, j] * B[i]
        assert np.allclose(out, oracle, atol=1e-9)
        # identity-graph degeneracy
        id_graphs = CoOccurrenceGraphSet(vocab, BandConfig(Ng),
                                         tuple([np.eye(C)] * Ng))
        alpha_rs = alpha / np.maximum(alpha.sum(axis=1, keepdims=True), 1e-12)
        out_id = condition_features(S, alpha_rs, id_graphs,
                                    NodeFeatures(W), Z)
        assert np.allclose(out_id, S @ W @ Z, atol=1e-9)
        # linearity in S
        S2 = rng.standard_normal((Nr, C))
        lhs = condition_features(2.0 * S - 3.0 * S2, alpha, graphs,
                                 NodeFeatures(W), Z)
        rhs = (2.0 * condition_features(S, alpha, graphs, NodeFeatures(W), Z)
               - 3.0 * condition_features(S2, alpha, graphs,
                                          NodeFeatures(W), Z))
        assert np.allclose(lhs, rhs, atol=1e-9)
    report(5, "50 shape combinations match the loop oracle; identity "
              "degeneracy and linearity hold at 1e-9")


def test_criterion_06_evaluation_harness():
    dets = load_native(os.path.join(FIXTURES, "eval_dets.json"))
    gts = load_native(os.path.join(FIXTURES, "eval_gts.json"))
    with open(os.path.join(FIXTURES, "eval_expected.json")) as f:
        expected = json.load(f)
    rep = evaluate(dets, gts)
    for k, v in expected.items():
        assert getattr(rep, k) == pytest.approx(v, abs=1e-6), k

    # one instance per class per image so even AR at maxDets=1 can
    # reach 1.0; the three classes cover the three area buckets
    vocab = ClassVocabulary(("s", "m", "l"))
    shapes = [(0, 0, 10, 10), (0, 0, 50, 50), (0, 0, 200, 200)]

    def perfect_corpus(with_scores):
        layouts = []
        for i in range(3):
            comps = tuple(
                Component(BBox(*box), ci, 1.0 if with_scores else None)
                for ci, box in enumerate(shapes))
            layouts.append(LayoutDocument(f"img{i}", 1000, 1000, comps))
        return corpus_from_layouts(vocab, tuple(layouts))

    prep = evaluate(perfect_corpus(True), perfect_corpus(False))
    for k in prep.FIELDS:
        v = getattr(prep, k)
        assert v == -1.0 or v == pytest.approx(1.0), k

    _, ap = precision_recall([True, False, True], n_gt=2)
    assert ap == pytest.approx(0.8350, abs=1e-4)
    report(6, "reference fixture matches on all 12 fields (1e-6); "
              "perfect corpora score 1.0; TP/FP/TP AP = 0.8350")


def test_criterion_07_prior_recovery():
    start = time.perf_counter()
    spec = block_spec(seed=42)
    clean, _ = generate(spec, 1000)
    score = recovery_score(spec.planted_graphs, build_prior(clean, spec.band_config()))
    assert score >= 0.90, f"recovery {score:.4f}"
    means = []
    for n in (100, 1000, 10000):
        vals = []
        for seed in range(5):
            s = block_spec(seed=seed)
            c, _ = generate(s, n)
            vals.append(recovery_score(s.planted_graphs,
                                        build_prior(c, s.band_config())))
        means.append(float(np.mean(vals)))
    assert means[0] <= means[1] + 1e-12 and means[1] <= means[2] + 1e-12, means
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(7, f"recovery {score:.4f} >= 0.90; trend {[f'{m:.4f}' for m in means]} "
              f"non-decreasing ({elapsed:.1f}s < 30s)")


# Reference-run values for criterion 8 (seeds 7/42, 200 layouts,
# noise 0.3, confidence 0.8, lambda 0.5), pinned as regression targets.
BASELINE_AP50 = 0.5739871809157091
RESCORED_AP50 = 0.6166344416016084


def test_criterion_08_rescoring_benefit():
    train = block_spec(seed=7, boxes=(3, 6))
    graphs = build_prior(generate(train, 1000)[0], train.band_config())
    test = block_spec(seed=42, boxes=(3, 6))
    test = GeneratorSpec(test.vocabulary, test.planted_graphs,
                         test.class_marginals, boxes_per_band=(3, 6),
                         noise=0.3, seed=42)
    clean, noisy = generate(test, 200)

    baseline = evaluate(noisy, clean).ap50
    lam0 = rescore_corpus(noisy, graphs, RescoreConfig(blend=0.0))
    assert evaluate(lam0, clean).ap50 == pytest.approx(baseline, abs=1e-9)

    rescored = rescore_corpus(noisy, graphs, RescoreConfig(blend=0.5))
    improved = evaluate(rescored, clean).ap50
    margin_pts = 100.0 * (improved - baseline)
    assert improved > baseline
    assert margin_pts >= 2.0, f"margin {margin_pts:.2f} points"
    assert baseline == pytest.approx(BASELINE_AP50, abs=1e-9)
    assert improved == pytest.approx(RESCORED_AP50, abs=1e-9)
    report(8, f"AP50 {baseline:.4f} -> {improved:.4f} "
              f"(+{margin_pts:.2f} points >= 2.0); lambda=0 is identity")


def test_criterion_09_scale_throughput():
    spec = block_spec(seed=1, boxes=(7, 8))  # ~15 boxes per layout
    big, _ = generate(spec, 10000)
    start = time.perf_counter()
    g = build_prior(big, spec.band_config())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(9, f"build_prior on 10k layouts in {elapsed:.2f}s < 10s")


def test_criterion_10_round_trips(tmp_path):
    corpus = load_native(os.path.join(FIXTURES, "eval_dets.json"))
    p = tmp_path / "c.json"
    save_native(corpus, p)
    assert corpus_to_obj(load_native(p)) == corpus_to_obj(corpus)

    g = build_prior(corpus, BandConfig(4), keep_raw=True)
    gp = tmp_path / "g.json"
    save_graphs(g, gp)
    g2 = load_graphs(gp)
    for a, b in zip(g.edges, g2.edges):
        assert np.allclose(a, b, atol=1e-12)
    assert graphs_to_obj(g2) == graphs_to_obj(g)

    rng = np.random.Generator(np.random.PCG64(3))
    m = rng.standard_normal((5, 7))
    assert np.array_equal(matrix_from_json(
        json.loads(json.dumps(matrix_to_json(m)))), m)
    report(10, "native corpus, graph file, and MTX-JSON round-trips "
               "are lossless")
