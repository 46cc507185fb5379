import gzip
import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from layoutprior import ClassVocabulary, LayoutDocument
from layoutprior.core import Component, ParseError
from layoutprior.prior import (BandConfig, CoOccurrenceGraphSet, _band_counts,
                               accumulate, band_membership, build_prior,
                               graphs_from_obj, graphs_to_dot, graphs_to_obj,
                               load_graphs, normalize, save_graphs)

from conftest import corpus_from_layouts, make_layout, random_corpus


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

    def test_numpy_fields_stored_as_python_numbers(self):
        cfg = BandConfig(np.int64(2), np.float32(0.5))
        assert type(cfg.n_bands) is int and cfg.n_bands == 2
        assert type(cfg.band_width_frac) is float
        assert cfg.band_width_frac == 0.5
        assert BandConfig(2, 1) == BandConfig(2, 1.0)
        assert type(BandConfig(2, 1).band_width_frac) is float

    @pytest.mark.parametrize("n,width", [
        (True, None), (2.0, None), ("2", None), (np.float64(2), None),
        (2, True), (2, "0.5"), (2, [0.5]), (2, np.bool_(True))])
    def test_field_types_rejected(self, n, width):
        with pytest.raises(ParseError, match="must be an integer|"
                                             "must be a real number"):
            BandConfig(n, width)

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

    def test_count_an_array_can_hold(self):
        # The largest count whose N x 2 float64 bounds numpy can address is
        # accepted, as the table is only built on first use; one more is
        # refused.
        assert BandConfig(2**59 - 1).n_bands == 2**59 - 1
        for n in (2**59, 2**63 - 1, 2**63):
            with pytest.raises(ParseError, match=f"^n_bands must be at most "
                                                 f"{2**59 - 1}, "):
                BandConfig(n)


def centres(corpus) -> np.ndarray:
    """Each box's centre y as a fraction of its canvas height."""
    boxes = corpus.boxes
    return (boxes[:, 1] + boxes[:, 3]) / 2.0 / corpus.heights[corpus.index]


class TestMembership:
    def test_first_band(self):
        t = np.array([10.0]) / 100.0  # centre y = 10 of 100
        M = band_membership(t, BandConfig(2, 0.5))
        assert M.tolist() == [[1, 0]]

    def test_half_open_boundary(self):
        t = np.array([50.0]) / 100.0
        M = band_membership(t, BandConfig(2, 0.5))
        assert M.tolist() == [[0, 1]]

    def test_bottom_edge_goes_to_last_band(self):
        t = np.array([100.0]) / 100.0
        M = band_membership(t, BandConfig(2, 0.5))
        assert M.tolist() == [[0, 1]]

    def test_overlapping_double_membership(self):
        t = np.array([60.0]) / 100.0
        M = band_membership(t, BandConfig(2, 0.75))
        assert M.tolist() == [[1, 1]]

    def test_disjoint_partition(self, rng):
        corpus = random_corpus(rng, n_layouts=3)
        M = band_membership(centres(corpus), BandConfig(10))
        assert np.all(M.sum(axis=1) == 1)


class TestAccumulate:
    def test_hand_trace(self, three_box_corpus):
        raw = accumulate(three_box_corpus, BandConfig(2))
        expected0 = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
        assert np.array_equal(raw[0], expected0)
        assert np.array_equal(raw[1], np.zeros((3, 3)))

    def test_empty_corpus(self):
        corpus = corpus_from_layouts(ClassVocabulary(("A",)), ())
        raw = accumulate(corpus, BandConfig(3))
        assert all(np.array_equal(r, np.zeros((1, 1))) for r in raw)

    def test_singleton_bands_filtered(self):
        lay = make_layout("l", [(0, 5, 10, 15), (0, 55, 10, 65)], [0, 1])
        raw = accumulate(
            corpus_from_layouts(ClassVocabulary(("A", "B")), (lay,)),
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
            corpus = corpus_from_layouts(
                ClassVocabulary(tuple(f"c{i}" for i in range(C))),
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


@st.composite
def _corpora_and_bands(draw):
    """A small corpus and a band config, disjoint or overlapping, whose
    box centres often lie on a band bound or the bottom edge."""
    config = BandConfig(draw(st.integers(1, 5)), draw(st.one_of(
        st.none(), st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        st.floats(0.01, 1.0))))
    C = draw(st.integers(1, 4))
    bounds = sorted({y for band in config.bounds.tolist() for y in band})
    centres = st.one_of(st.sampled_from(bounds), st.floats(0.0, 1.0))
    layouts = []
    for i in range(draw(st.integers(0, 4))):
        height = draw(st.sampled_from([1.0, 37.0, 100.0, 640.0]))
        k = draw(st.integers(0, 12))
        ts = draw(st.lists(centres, min_size=k, max_size=k))
        layouts.append(make_layout(
            f"l{i}", [(0.0, t * height, 1.0, t * height) for t in ts],
            draw(st.lists(st.integers(0, C - 1), min_size=k, max_size=k)),
            height, 10.0))
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(C)))
    return corpus_from_layouts(vocab, tuple(layouts)), config


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_corpora_and_bands())
def test_accumulate_matches_brute_force(drawn):
    corpus, config = drawn
    got = accumulate(corpus, config)
    assert got.dtype == np.int64
    assert np.array_equal(got, brute_force_counts(corpus, config))


class TestBandCounts:
    """The band gram in float64 while every entry stays below 2**53, and
    in int64 past that; both equal the int64 H^T H over the kept rows."""

    @staticmethod
    def int64_gram(hist):
        kept = hist[hist.sum(axis=1) >= 2]
        return kept.T @ kept

    def test_float_branch_exact(self, rng):
        # Row sums below 2**25 over four rows: the bound stays under 2**52,
        # with odd products far past 2**32. Rows of zero or one box drop.
        hist = np.vstack([rng.integers(0, 2**24, (4, 3)),
                          [[0, 0, 0], [0, 1, 0], [1, 0, 0]]])
        got = _band_counts(hist)
        assert got.dtype == np.int64
        assert np.array_equal(got, self.int64_gram(hist))

    def test_float_branch_at_bound(self):
        hist = np.array([[2**25 + 1, 2**25 - 1]])  # the bound is 2**52
        assert np.array_equal(_band_counts(hist), self.int64_gram(hist))

    def test_int64_branch_past_bound(self):
        # Products near 2**54 that float64 rounds; the int64 gram is exact.
        hist = np.array([[2**27 + 1, 2**27 + 3, 0], [2**27 + 5, 1, 7],
                         [2**27 - 1, 2**27 + 9, 3]])
        want = self.int64_gram(hist)
        as_float = hist.astype(np.float64)
        assert not np.array_equal((as_float.T @ as_float).astype(np.int64),
                                  want)
        got = _band_counts(hist)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_no_kept_rows(self):
        for hist in (np.zeros((0, 3), np.int64), np.eye(3, dtype=np.int64)):
            assert np.array_equal(_band_counts(hist), np.zeros((3, 3)))


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


@st.composite
def _raw_counts(draw):
    """Band count stacks with all-zero classes, in some bands or all."""
    n, C = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    top = draw(st.sampled_from([1, 40, 2**31, 2**53, 2**62 - 1]))
    raw = np.array(draw(st.lists(st.integers(0, top), min_size=n * C * C,
                                 max_size=n * C * C)),
                   dtype=np.int64).reshape(n, C, C)
    if draw(st.booleans()):  # symmetric, as accumulate's counts are
        raw = raw + raw.transpose(0, 2, 1)
    for j, c in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, C - 1)))):
        raw[j, c, :] = raw[j, :, c] = 0
    for c in draw(st.lists(st.integers(0, C - 1))):
        raw[:, c, :] = raw[:, :, c] = 0
    return raw


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_raw_counts(), st.booleans())
def test_normalize_matches_loop_on_drawn_counts(raw, as_list):
    n, C = raw.shape[:2]
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(C)))
    g = normalize(list(raw) if as_list else raw, vocab, BandConfig(n),
                  keep_raw=True)
    assert np.array_equal(g.edges, loop_normalize(raw))
    assert np.array_equal(g.raw_counts, raw)
    # A class with no counts in a band keeps only its unit diagonal.
    empty = (raw == 0).all(axis=2) & (raw == 0).all(axis=1)
    for j, c in zip(*np.nonzero(empty)):
        assert np.array_equal(g.edges[j, c], np.eye(C)[c])
        assert np.array_equal(g.edges[j, :, c], np.eye(C)[c])


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

    def test_equality_is_field_wise(self, three_box_corpus):
        g = build_prior(three_box_corpus, BandConfig(2), keep_raw=True)
        assert g == build_prior(three_box_corpus, BandConfig(2), keep_raw=True)
        assert g != build_prior(three_box_corpus, BandConfig(2))
        assert g != build_prior(three_box_corpus, BandConfig(2, 1.0),
                                keep_raw=True)
        edges = g.edges.copy()
        edges[1, 0, 1] = 0.25
        assert g != replace(g, edges=edges) and g != "graphs"
        with pytest.raises(TypeError, match="unhashable"):
            hash(g)

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
            rep_corpus = corpus_from_layouts(corpus.vocabulary, tuple(layouts))
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
        perm_corpus = corpus_from_layouts(perm_vocab, tuple(layouts))
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
        # Each spells the file's class names, but is no list.
        (lambda o: o.update(classes="".join(o["classes"])),
         "classes must be a list"),
        (lambda o: o.update(classes=dict.fromkeys(o["classes"], 0)),
         "classes must be a list"),
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


# Round-trip laws of graph files, plain and gzip, over graph sets with
# class names that need escaping or are not ASCII, signed zeros and
# subnormal weights, and raw counts or none, up to 2**63 - 1: past 2**53,
# where a float64 rounds, the file writes them as ints.

_names = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9 '
                                           '\U0001f600'), st.characters()),
                 min_size=1, max_size=4)
_weights = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0,
                                      1e308]), st.floats(0.0, 1e308))


def _stack_of(values, n, C):
    return st.lists(values, min_size=n * C * C, max_size=n * C * C).map(
        lambda v: np.array(v).reshape(n, C, C))


@st.composite
def _graph_sets(draw):
    names = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    n, C = draw(st.integers(1, 3)), len(names)
    config = BandConfig(n, draw(st.one_of(st.none(), st.floats(5e-324, 1.0))))
    raw = draw(st.one_of(st.none(), _stack_of(
        st.one_of(st.integers(0, 9),
                  st.sampled_from([2**53, 2**53 + 1, 2**63 - 1])), n, C)))
    return CoOccurrenceGraphSet(ClassVocabulary(tuple(names)), config,
                                draw(_stack_of(_weights, n, C)),
                                raw_counts=raw)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_graph_sets())
def test_graph_files_round_trip(graphs):
    # load inverts save, and save rewrites a loaded file byte for byte.
    # The gzip header holds the base name: the same name, another folder.
    with tempfile.TemporaryDirectory() as d:
        for name in ("g.json", "g.json.gz"):
            first, second = Path(d, "1", name), Path(d, "2", name)
            first.parent.mkdir(exist_ok=True)
            second.parent.mkdir(exist_ok=True)
            save_graphs(graphs, first)
            loaded = load_graphs(first)
            assert loaded == graphs
            assert loaded.edges.tobytes() == graphs.edges.tobytes()
            save_graphs(loaded, second)
            assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("config", [
    BandConfig(np.int64(2)), BandConfig(2, np.float32(0.5)), BandConfig(2, 1)])
def test_numpy_band_config_rewrites_same_bytes(tmp_path, config):
    graphs = CoOccurrenceGraphSet(ClassVocabulary(("a",)), config,
                                  np.ones((2, 1, 1)))
    first, second = tmp_path / "1.json", tmp_path / "2.json"
    save_graphs(graphs, first)
    save_graphs(load_graphs(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_bool_band_width_in_graph_file_reads_as_one(tmp_path):
    obj = graphs_to_obj(CoOccurrenceGraphSet(
        ClassVocabulary(("a",)), BandConfig(2), np.ones((2, 1, 1))))
    obj["band_width_frac"] = True
    p = tmp_path / "g.json"
    p.write_text(json.dumps(obj))
    assert load_graphs(p).band_config == BandConfig(2, 1.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_graph_sets())
@example(CoOccurrenceGraphSet(ClassVocabulary(("a",)), BandConfig(2, 1),
                              np.ones((2, 1, 1))))
def test_graph_writer_matches_json_dumps(graphs):
    # save_graphs writes from templates the bytes the indenting json
    # encoder writes, plain and compressed.
    want = json.dumps(graphs_to_obj(graphs), indent=1, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as d:
        for name in ("g.json", "g.json.gz"):
            p = Path(d, name)
            save_graphs(graphs, p)
            got = p.read_bytes()
            if name.endswith(".gz"):
                got = gzip.decompress(got)
            assert got == want.encode()


def test_raw_counts_past_float_precision_exact(tmp_path):
    # Counts up to 2**53 are written as floats, as always; larger ones as
    # ints, which read back exactly.
    raw = np.array([[[12, 2**53], [2**53 + 1, 2**63 - 1]]])
    graphs = CoOccurrenceGraphSet(ClassVocabulary(("A", "B")), BandConfig(1),
                                  np.ones((1, 2, 2)), raw_counts=raw)
    p = tmp_path / "g.json"
    save_graphs(graphs, p)
    data = json.loads(p.read_text())["raw_counts"][0]["data"]
    assert [type(v) for v in data] == [float, float, int, int]
    assert np.array_equal(load_graphs(p).raw_counts, raw)


@pytest.mark.parametrize("count", [2**63, -1, 2**64 + 1, -2**60])
def test_int_raw_count_out_of_range_rejected(tmp_path, count):
    obj = graphs_to_obj(CoOccurrenceGraphSet(
        ClassVocabulary(("A",)), BandConfig(1), [[[1.0]]],
        raw_counts=[[[2**53 + 1]]]))
    obj["raw_counts"][0]["data"] = [count]
    p = tmp_path / "g.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(ParseError, match=r"integers in \[0, 2\*\*63\)"):
        load_graphs(p)
