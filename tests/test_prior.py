import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from layoutprior import ClassVocabulary, Corpus, LayoutDocument
from layoutprior.core import Component, ParseError
from layoutprior.prior import (BandConfig, CoOccurrenceGraphSet, accumulate,
                               band_membership, build_prior, graphs_from_obj,
                               graphs_to_dot, graphs_to_obj, load_graphs,
                               normalize, save_graphs)

from conftest import make_layout, random_corpus


def brute_force_counts(corpus, config):
    """Triple enumeration over (box, box, band), with band bounds
    recomputed from scratch."""
    C = corpus.vocabulary.size
    counts = [np.zeros((C, C), dtype=np.int64) for _ in range(config.n_bands)]
    n, w = config.n_bands, config.band_width_frac
    for layout in corpus.layouts:
        def in_band(comp, j):
            t = (comp.bbox.y1 + comp.bbox.y2) / 2.0 / layout.height
            upper = j / n
            lower = min(upper + w, 1.0)
            if t == 1.0 and lower == 1.0:
                return True
            return upper <= t < lower

        for j in range(config.n_bands):
            members = [c for c in layout.components if in_band(c, j)]
            if len(members) < 2:
                continue
            for a in members:
                for b in members:
                    counts[j][a.class_id, b.class_id] += 1
    return counts


class TestBands:
    def test_default_config(self):
        cfg = BandConfig()
        assert cfg.n_bands == 10
        assert cfg.band_width_frac == pytest.approx(0.1)

    def test_bounds(self):
        bands = BandConfig(4)
        assert bands.bounds.tolist() == [[0, 0.25], [0.25, 0.5], [0.5, 0.75],
                                         [0.75, 1.0]]
        assert np.allclose(bands.centroids, [0.125, 0.375, 0.625, 0.875])

    def test_overlapping_clamped(self):
        bands = BandConfig(2, 0.75)
        assert bands.bounds.tolist() == [[0, 0.75], [0.5, 1.0]]

    @pytest.mark.parametrize("w", [None, 0.3, 0.75, 1.0])
    def test_table_matches_formula(self, w):
        for n in range(1, 65):
            cfg = BandConfig(n, w)
            width = 1.0 / n if w is None else w
            want = [(j / n, min(j / n + width, 1.0)) for j in range(n)]
            assert cfg.bounds.tolist() == [list(b) for b in want]
            assert cfg.centroids.tolist() == [(u + l) / 2.0 for u, l in want]

    def test_table_read_only(self):
        cfg = BandConfig(3)
        for table in (cfg.bounds, cfg.centroids):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.5

    @pytest.mark.parametrize("n,w", [(0, 0.5), (2, 0.0), (2, 1.5)])
    def test_invalid(self, n, w):
        with pytest.raises(ParseError):
            BandConfig(n, w)


class TestMembership:
    def test_first_band(self):
        lay = make_layout("l", [(0, 5, 10, 15)], [0])
        M = band_membership(lay, BandConfig(2, 0.5))
        assert M.tolist() == [[1, 0]]

    def test_half_open_boundary(self):
        lay = make_layout("l", [(0, 45, 10, 55)], [0])  # center y = 50
        M = band_membership(lay, BandConfig(2, 0.5))
        assert M.tolist() == [[0, 1]]

    def test_bottom_edge_goes_to_last_band(self):
        lay = make_layout("l", [(0, 100, 10, 100)], [0])
        M = band_membership(lay, BandConfig(2, 0.5))
        assert M.tolist() == [[0, 1]]

    def test_overlapping_double_membership(self):
        lay = make_layout("l", [(0, 55, 10, 65)], [0])  # center y = 60
        M = band_membership(lay, BandConfig(2, 0.75))
        assert M.tolist() == [[1, 1]]

    def test_disjoint_partition(self, rng):
        corpus = random_corpus(rng, n_layouts=3)
        for lay in corpus.layouts:
            M = band_membership(lay, BandConfig(10))
            assert np.all(M.sum(axis=1) == 1)


class TestAccumulate:
    def test_hand_trace(self, three_box_corpus):
        raw = accumulate(three_box_corpus, BandConfig(2))
        expected0 = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        assert np.array_equal(raw[0], expected0)
        assert np.array_equal(raw[1], np.zeros((3, 3)))

    def test_empty_corpus(self):
        corpus = Corpus(ClassVocabulary(("A",)), ())
        raw = accumulate(corpus, BandConfig(3))
        assert all(np.array_equal(r, np.zeros((1, 1))) for r in raw)

    def test_singleton_bands_filtered(self):
        lay = make_layout("l", [(0, 5, 10, 15), (0, 55, 10, 65)], [0, 1])
        raw = accumulate(Corpus(ClassVocabulary(("A", "B")), (lay,)),
                         BandConfig(2))
        assert all(r.sum() == 0 for r in raw)

    @pytest.mark.parametrize("n_bands, width", [
        (1, None), (2, None), (5, None), (10, None),
        (2, 0.75), (3, 0.5), (4, 1.0),  # overlapping bands
    ], ids=["1", "2", "5", "10", "2-0.75", "3-0.5", "4-1.0"])
    def test_matches_brute_force(self, rng, n_bands, width):
        cfg = BandConfig(n_bands, width)
        # Two centres on every band bound, the bottom edge included.
        ys = sorted({y for band in cfg.bounds.tolist() for y in band}) * 2
        for _ in range(10):
            C = int(rng.integers(1, 7))
            layouts = [
                make_layout("bounds", [(0, y, 1, y) for y in ys],
                            [k % C for k in range(len(ys))], 1.0, 1.0),
                LayoutDocument("empty", 50.0, 80.0),
            ]
            for height in (100.0, 37.0, 640.0):
                part = random_corpus(rng, n_layouts=int(rng.integers(0, 5)),
                                     max_boxes=20, n_classes=C, height=height)
                layouts += [replace(lay, id=f"{height}-{lay.id}")
                            for lay in part.layouts]
            corpus = Corpus(ClassVocabulary(tuple(f"c{i}" for i in range(C))),
                            tuple(layouts))
            got = accumulate(corpus, cfg)
            want = brute_force_counts(corpus, cfg)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == np.int64 and np.array_equal(g, w)

    def test_overlapping_matches_brute_force(self, rng):
        corpus = random_corpus(rng, n_layouts=5)
        cfg = BandConfig(4, 0.4)
        got = accumulate(corpus, cfg)
        want = brute_force_counts(corpus, cfg)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def loop_normalize(raw):
    """normalize's edges as a loop over the bands, one matrix at a time."""
    edges = []
    for E in raw:
        E = np.asarray(E, dtype=np.float64)
        row = E.sum(axis=1)
        col = E.sum(axis=0)
        denom = np.sqrt(np.outer(row, col))
        with np.errstate(divide="ignore", invalid="ignore"):
            norm = np.where(denom > 0, E / np.where(denom > 0, denom, 1.0), 0.0)
        np.fill_diagonal(norm, 1.0)
        edges.append(norm)
    return np.stack(edges)


class TestNormalize:
    def vocab(self, n):
        return ClassVocabulary(tuple(f"c{i}" for i in range(n)))

    @pytest.mark.parametrize("C", [1, 2, 3, 9, 17])
    def test_equals_band_loop(self, rng, C):
        for n_bands in range(1, 13):
            # Fractional entries, so that the order of each sum shows.
            raw = rng.uniform(0, 50, size=(n_bands, C, C))
            raw[rng.uniform(size=(n_bands, C)) < 0.3] = 0.0  # zero rows
            raw.transpose(0, 2, 1)[rng.uniform(size=(n_bands, C)) < 0.2] = 0.0
            g = normalize(raw, self.vocab(C), BandConfig(n_bands))
            assert np.array_equal(g.edges, loop_normalize(raw))

    def test_stacks_read_only(self, three_box_corpus):
        g = build_prior(three_box_corpus, BandConfig(2), keep_raw=True)
        assert g.edges.dtype == np.float64 and g.raw_counts.dtype == np.int64
        for stack in (g.edges, g.raw_counts):
            assert stack.shape == (2, 3, 3)
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 1] = 7

    def test_uniform_counts(self):
        g = normalize([np.array([[1, 1], [1, 1]])], self.vocab(2), BandConfig(1))
        assert np.allclose(g.edges[0], [[1, 0.5], [0.5, 1]])

    def test_all_zero_gives_identity(self):
        g = normalize([np.zeros((3, 3))], self.vocab(3), BandConfig(1))
        assert np.array_equal(g.edges[0], np.eye(3))

    def test_antidiagonal(self):
        g = normalize([np.array([[0, 2], [2, 0]])], self.vocab(2), BandConfig(1))
        assert np.allclose(g.edges[0], [[1, 1], [1, 1]])


class TestBuildPrior:
    def test_hand_trace_composition(self, three_box_corpus):
        g = build_prior(three_box_corpus, BandConfig(2))
        expected = np.eye(3)
        expected[0, 1] = expected[1, 0] = 0.5
        assert np.allclose(g.edges[0], expected)
        assert np.array_equal(g.edges[1], np.eye(3))

    def test_invariants_on_fuzz(self, rng):
        for _ in range(10):
            corpus = random_corpus(rng)
            g = build_prior(corpus, BandConfig(int(rng.integers(1, 11))))
            for E in g.edges:
                assert np.allclose(E, E.T, atol=1e-9)
                assert np.array_equal(np.diag(E), np.ones(E.shape[0]))
                assert np.all(E >= 0) and np.all(E <= 1 + 1e-12)

    def test_replication_invariance(self, rng):
        corpus = random_corpus(rng, n_layouts=4)
        g1 = build_prior(corpus, BandConfig(5))
        for k in (2, 5):
            layouts = []
            for rep in range(k):
                for lay in corpus.layouts:
                    layouts.append(
                        make_layout(f"{lay.id}-r{rep}",
                                    [(c.bbox.x1, c.bbox.y1, c.bbox.x2, c.bbox.y2)
                                     for c in lay.components],
                                    [c.class_id for c in lay.components],
                                    height=lay.height, width=lay.width))
            rep_corpus = Corpus(corpus.vocabulary, tuple(layouts))
            gk = build_prior(rep_corpus, BandConfig(5))
            for a, b in zip(g1.edges, gk.edges):
                assert np.allclose(a, b, atol=1e-9)

    def test_vocabulary_permutation_equivariance(self, rng):
        corpus = random_corpus(rng, n_layouts=4, n_classes=5)
        perm = rng.permutation(5)
        names = corpus.vocabulary.names
        perm_vocab = ClassVocabulary(tuple(names[p] for p in perm))
        inv = np.argsort(perm)
        layouts = []
        for lay in corpus.layouts:
            comps = tuple(Component(c.bbox, int(inv[c.class_id]), c.score)
                          for c in lay.components)
            layouts.append(LayoutDocument(lay.id, lay.width, lay.height, comps))
        perm_corpus = Corpus(perm_vocab, tuple(layouts))
        g = build_prior(corpus, BandConfig(3))
        gp = build_prior(perm_corpus, BandConfig(3))
        for E, Ep in zip(g.edges, gp.edges):
            assert np.allclose(Ep, E[np.ix_(perm, perm)], atol=1e-12)

    def test_single_band_degenerate(self, three_box_corpus):
        g = build_prior(three_box_corpus, BandConfig(1, 1.0))
        # all three boxes co-occur in the single band
        assert np.all(g.edges[0] > 0)


class TestPersistence:
    def test_round_trip(self, tmp_path, three_box_corpus):
        g = build_prior(three_box_corpus, BandConfig(2), keep_raw=True)
        p = tmp_path / "graphs.json"
        save_graphs(g, p)
        g2 = load_graphs(p)
        assert g2.vocabulary == g.vocabulary
        assert g2.band_config == g.band_config
        for a, b in zip(g.edges, g2.edges):
            assert np.allclose(a, b, atol=1e-12)
        for a, b in zip(g.raw_counts, g2.raw_counts):
            assert np.array_equal(a, b)

    def test_version_mismatch(self, three_box_corpus):
        obj = graphs_to_obj(build_prior(three_box_corpus, BandConfig(2)))
        obj["version"] = 999
        with pytest.raises(ParseError, match="version"):
            graphs_from_obj(obj)

    def test_empty_vocabulary_rejected(self, three_box_corpus):
        obj = graphs_to_obj(build_prior(three_box_corpus, BandConfig(2)))
        obj["classes"] = []
        with pytest.raises(ParseError):
            graphs_from_obj(obj)

    @pytest.mark.parametrize("change, message", [
        (lambda o: o.pop("edges"), "missing key 'edges'"),
        (lambda o: o.update(n_bands=3), "2 edge matrices for 3 bands"),
        (lambda o: o.update(edges=[]), "0 edge matrices for 2 bands"),
        (lambda o: o.update(n_bands="a"), "invalid literal"),
        (lambda o: o.update(n_bands=10 ** 9), "2 edge matrices"),
        (lambda o: o.update(n_bands=float("inf")), "infinity"),
        (lambda o: o.update(n_bands=2.7), "n_bands must be an integer, got 2.7"),
        (lambda o: o.update(n_bands=True, edges=o["edges"][:1],
                            raw_counts=o["raw_counts"][:1]),
         "n_bands must be an integer, got True"),
        (lambda o: o["raw_counts"].pop(), "1 raw count matrices for 2 bands"),
        (lambda o: o["raw_counts"].__setitem__(
            0, {"rows": 1, "cols": 1, "data": [1.0]}), r"shape \(1, 1\)"),
        (lambda o: o["edges"][0].update(data=None), "NoneType"),
        (lambda o: o["raw_counts"][0]["data"].__setitem__(0, 1.5),
         "raw counts must be integers"),
        (lambda o: o["raw_counts"][0]["data"].__setitem__(0, 1e300),
         "raw counts must be integers"),
    ])
    def test_malformed_file_names_it(self, tmp_path, three_box_corpus,
                                     change, message):
        obj = graphs_to_obj(build_prior(three_box_corpus, BandConfig(2),
                                        keep_raw=True))
        change(obj)
        p = tmp_path / "graphs.json"
        p.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=message) as err:
            load_graphs(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("raw", [1.5, 1e300, -1.0, 2.0 ** 63, -1,
                                     np.uint64(2 ** 64 - 1)])
    def test_raw_counts_checked_before_cast(self, raw):
        vocab = ClassVocabulary(("A",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError,
                               match=r"integers in \[0, 2\*\*63\)"):
                CoOccurrenceGraphSet(vocab, BandConfig(1), [[[1.0]]],
                                     raw_counts=[[[raw]]])

    @pytest.mark.parametrize("raw", [0, 2 ** 63 - 1, 3.0, True,
                                     np.uint64(2 ** 63 - 1)])
    def test_raw_counts_in_range_kept(self, raw):
        g = CoOccurrenceGraphSet(ClassVocabulary(("A",)), BandConfig(1),
                                 [[[1.0]]], raw_counts=[[[raw]]])
        assert g.raw_counts.dtype == np.int64
        assert g.raw_counts[0, 0, 0] == raw

    @pytest.mark.parametrize("edge", [-5.0, -0.5, float("nan"), float("inf")])
    def test_edges_finite_non_negative(self, edge):
        vocab = ClassVocabulary(("A", "B"))
        E = np.eye(2)
        E[0, 1] = edge
        with pytest.raises(ParseError, match="edges must be finite and "
                                             "non-negative"):
            CoOccurrenceGraphSet(vocab, BandConfig(2), [np.eye(2), E])

    def test_dot_export(self, three_box_corpus):
        g = build_prior(three_box_corpus, BandConfig(2))
        dot = graphs_to_dot(g, threshold=0.1)
        assert dot.startswith("graph cooccurrence {")
        assert 'b0_c0 -- b0_c1' in dot
        assert 'b1_c0 -- b1_c1' not in dot
