import hashlib
import json
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layoutprior import ClassVocabulary
from layoutprior.cli import main
from layoutprior.core import (BBox, Component, LayoutDocument, ParseError,
                              write_text)
from layoutprior.ingest import corpus_to_obj, load_native, save_native
from layoutprior.prior import BandConfig, band_membership, build_prior
from layoutprior.synth import (_BLOCK_LAYOUTS, _DOUBLE, GeneratorSpec,
                               _Streams, generate, load_spec, recovery_score,
                               spec_from_obj, spec_to_obj)

from conftest import assert_rewrite_stable, corpus_from_layouts


def block_spec(noise=0.0, seed=42, boxes=(2, 5)):
    C = 6
    vocab = ClassVocabulary(tuple("ABCDEF"))
    g0, g1 = np.eye(C), np.eye(C)
    g0[:3, :3] = 1.0
    g1[3:, 3:] = 1.0
    m0 = np.array([1 / 3] * 3 + [0.0] * 3)
    m1 = np.array([0.0] * 3 + [1 / 3] * 3)
    return GeneratorSpec(vocab, (g0, g1), (m0, m1), boxes_per_band=boxes,
                         noise=noise, seed=seed)


# The class names of the benchmark's workloads; the draws do not read them.
WORKLOAD_CLASSES = (
    "text", "icon", "image", "text_button", "input", "toolbar", "list_item",
    "card", "checkbox", "radio_button", "switch", "slider", "tab", "drawer",
    "modal", "map_view", "video", "web_view", "advertisement", "date_picker",
    "pager_indicator", "multi_tab", "background_image", "bottom_navigation",
    "button_bar")


def workload_spec(seed, names=WORKLOAD_CLASSES):
    """The planted spec of the benchmark's workloads, rebuilt from the
    library alone: 25 classes in five groups of five, 10 bands, 1-3
    boxes per band and noise 0.3. Band j favours group j // 2: 60% of
    its first draws go to that group, and its edges are 0.9 inside it,
    0.5 inside other groups, 0.1 between neighbouring groups and 0
    otherwise, with a unit diagonal."""
    C, group = 25, np.arange(25) // 5
    same = group[:, None] == group[None, :]
    near = np.abs(group[:, None] - group[None, :]) == 1
    graphs, marginals = [], []
    for fav in np.arange(10) // 2:
        P = np.where(same, np.where(group[:, None] == fav, 0.9, 0.5),
                     np.where(near, 0.1, 0.0))
        np.fill_diagonal(P, 1.0)
        graphs.append(P)
        m = np.where(group == fav, 0.6 / 5, 0.4 / (C - 5))
        marginals.append(m / m.sum())
    return GeneratorSpec(ClassVocabulary(tuple(names)), graphs, marginals,
                         boxes_per_band=(1, 3), noise=0.3, seed=seed)

# The generator as one Generator call per draw: the oracle `generate`
# must reproduce exactly.

def _draw(rng, p) -> int:
    """The draw `rng.choice(len(p), p=p)` makes, without its checks."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sample_class(rng, spec, band, placed) -> int:
    if placed:
        weights = spec.planted_graphs[band][:, placed].sum(axis=1)
        total = weights.sum()
        if total > 0:
            return _draw(rng, weights / total)
    return _draw(rng, spec.class_marginals[band])


def _sample_box(rng, spec, upper, lower) -> BBox:
    width, height = spec.canvas
    lo, hi = spec.box_size_frac
    cy = rng.uniform(upper * height, lower * height)
    cx = rng.uniform(0.0, width)
    hw = min(rng.uniform(lo, hi) * width / 2.0, cx, width - cx)
    hh = min(rng.uniform(lo, hi) * height / 2.0, cy, height - cy)
    return BBox(cx - hw, cy - hh, cx + hw, cy + hh)


def loop_generate(spec, n_layouts):
    n = spec.n_bands
    C = spec.vocabulary.size
    clean_layouts, noisy_layouts = [], []
    for li in range(n_layouts):
        rng = np.random.Generator(np.random.PCG64([spec.seed, li]))
        clean_comps, noisy_comps = [], []
        for j in range(n):
            # Disjoint bands of height 1/n, computed from scratch.
            upper = j / n
            lower = min(upper + 1.0 / n, 1.0)
            k = int(rng.integers(spec.boxes_per_band[0],
                                 spec.boxes_per_band[1] + 1))
            placed = []
            for _ in range(k):
                cls = _sample_class(rng, spec, j, placed)
                box = _sample_box(rng, spec, upper, lower)
                placed.append(cls)
                clean_comps.append(Component(box, cls))
                noisy_cls = cls
                if spec.noise > 0 and rng.uniform() < spec.noise:
                    noisy_cls = int(rng.integers(C))
                noisy_comps.append(Component(box, noisy_cls))
        lid = f"synth-{li:05d}"
        w, h = spec.canvas
        clean_layouts.append(LayoutDocument(lid, w, h, tuple(clean_comps)))
        noisy_layouts.append(LayoutDocument(lid, w, h, tuple(noisy_comps)))
    return (corpus_from_layouts(spec.vocabulary, tuple(clean_layouts)),
            corpus_from_layouts(spec.vocabulary, tuple(noisy_layouts)))


def perfbench_spec(seed):
    """The benchmark's generator spec: 25 classes in five groups, ten
    bands, 1-3 boxes per band, noise 0.3."""
    C = 25
    group = np.arange(C) // 5
    same = group[:, None] == group[None, :]
    near = np.abs(group[:, None] - group[None, :]) == 1
    graphs, marginals = [], []
    for j in range(10):
        fav = j // 2
        P = np.where(same, np.where(group[:, None] == fav, 0.9, 0.5),
                     np.where(near, 0.1, 0.0))
        np.fill_diagonal(P, 1.0)
        graphs.append(P)
        m = np.where(group == fav, 0.6 / 5, 0.4 / (C - 5))
        marginals.append(m / m.sum())
    vocab = ClassVocabulary(tuple(f"class{i}" for i in range(C)))
    return GeneratorSpec(vocab, tuple(graphs), tuple(marginals),
                         boxes_per_band=(1, 3), noise=0.3, seed=seed)


def dense_spec(seed=9, boxes=(10, 16), C=9, n_bands=3, density=1.0, **kw):
    """Random, asymmetric planted graphs; dense ones make a band sum many
    weights, sparse ones leave classes whose weights are all zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.random((n_bands, C, C)) * (rng.random((n_bands, C, C)) < density)
    m = rng.random((n_bands, C))
    vocab = ClassVocabulary(tuple(f"k{i}" for i in range(C)))
    return GeneratorSpec(vocab, tuple(g),
                         tuple(m / m.sum(axis=1, keepdims=True)),
                         boxes_per_band=boxes, noise=0.4, seed=seed, **kw)


def _replace(spec, **kw):
    fields = dict(boxes_per_band=spec.boxes_per_band, canvas=spec.canvas,
                  box_size_frac=spec.box_size_frac, noise=spec.noise,
                  seed=spec.seed)
    fields.update(kw)
    return GeneratorSpec(spec.vocabulary, spec.planted_graphs,
                         spec.class_marginals, **fields)


ORACLE_CASES = {
    **{f"perfbench-{s}": (perfbench_spec(s), 120) for s in (1001, 1002)},
    **{f"block-{s}-noise{nz}": (block_spec(noise=nz, seed=s), 40)
       for s in range(6) for nz in (0.0, 0.3)},
    **{f"boxes-{lo}-{hi}": (block_spec(noise=0.3, seed=3, boxes=(lo, hi)), 40)
       for lo, hi in ((0, 3), (3, 3), (7, 8))},
    "dense-hi16": (dense_spec(), 40),
    "sparse": (dense_spec(seed=4, boxes=(1, 6), density=0.15), 60),
    "one-class-hi14": (GeneratorSpec(
        ClassVocabulary(("a",)), (np.full((1, 1), 0.3),), (np.ones(1),),
        boxes_per_band=(9, 14), noise=0.5, seed=2), 20),
    "int-canvas": (_replace(dense_spec(boxes=(0, 4)), canvas=(360, 641)), 30),
    "frac-0-0": (_replace(dense_spec(boxes=(0, 4)), box_size_frac=(0, 0)), 30),
    "frac-1-1": (_replace(dense_spec(boxes=(0, 4)), box_size_frac=(1, 1)), 30),
    "empty": (block_spec(noise=0.3), 0),
    # Streams that read past the words the reader takes up front.
    "past-max-width": (dense_spec(seed=5, boxes=(180, 200), n_bands=1), 5),
    # More layouts than the reader reads at once.
    "two-blocks": (block_spec(noise=0.3, seed=8, boxes=(0, 2)),
                   _BLOCK_LAYOUTS + 37),
}


@st.composite
def generator_specs(draw):
    """Specs of 1-6 classes and 1-4 bands with 0-8 boxes per band. Edge
    weights and marginal entries are often exactly 0, so some weight
    rows sum to 0 and some classes are never drawn first."""
    C, B = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
    graphs = draw(st.lists(st.lists(weight, min_size=C * C, max_size=C * C),
                           min_size=B, max_size=B))
    marginals = []
    for _ in range(B):
        m = np.array(draw(st.lists(weight, min_size=C, max_size=C)))
        m[draw(st.integers(0, C - 1))] += 0.5
        marginals.append(m / m.sum())
    lo = draw(st.integers(0, 8))
    side = st.integers(1, 2000) | st.floats(0.5, 2000)
    frac = sorted(draw(st.lists(st.floats(0, 1), min_size=2, max_size=2)))
    return GeneratorSpec(
        ClassVocabulary(tuple(f"c{i}" for i in range(C))),
        np.reshape(graphs, (B, C, C)), marginals,
        boxes_per_band=(lo, draw(st.integers(lo, 8))),
        canvas=(draw(side), draw(side)), box_size_frac=tuple(frac),
        noise=draw(st.just(0.0) | st.floats(0, 1, exclude_max=True)),
        seed=draw(st.integers(0, 2 ** 64)))


class TestGenerateOracle:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_matches_loop(self, name):
        spec, n = ORACLE_CASES[name]
        for got, want in zip(generate(spec, n), loop_generate(spec, n)):
            assert corpus_to_obj(got) == corpus_to_obj(want)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(generator_specs(), st.integers(0, 30))
    def test_matches_loop_on_drawn_specs(self, spec, n):
        for got, want in zip(generate(spec, n), loop_generate(spec, n)):
            assert corpus_to_obj(got) == corpus_to_obj(want)

    # sha256 of the sorted-key JSON of both corpora, taken from the loop
    # generator. A change to any layout's stream order changes them.
    PINNED = {
        "block": "3c584ad5dca7483c68d2149463debcf03b20099e7e1fce355301ec65670c2df5",
        "three-class": "85313b6d898c1e6e5f43854f260f50713578bccd85ca5710aecb75223b56f618",
    }

    @pytest.mark.parametrize("name", list(PINNED))
    def test_pinned_digest(self, name):
        if name == "block":
            spec, n = block_spec(noise=0.3, seed=7, boxes=(1, 4)), 12
        else:
            g = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.3], [0.0, 0.3, 1.0]])
            spec = GeneratorSpec(ClassVocabulary(("x", "y", "z")),
                                 (g, g.T, np.eye(3)),
                                 (np.array([0.5, 0.25, 0.25]),) * 3,
                                 boxes_per_band=(0, 9), canvas=(300, 500),
                                 noise=0.5, seed=11)
            n = 6
        text = json.dumps([corpus_to_obj(c) for c in generate(spec, n)],
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[name]

    def test_huge_box_range_reads_nothing_for_no_layouts(self):
        spec = block_spec(boxes=(0, 2 ** 63 - 1))
        clean, noisy = generate(spec, 0)
        assert clean.layouts == () and noisy.layouts == ()


class TestStream:
    # Lemire's method rejects often when 2**32 (or 2**64) modulo the
    # range is large, as just above 2**31; 2**32 - 1 is a plain 32-bit
    # draw and larger ranges take whole words.
    RANGES = [0, 1, 5, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 31 + 7,
              3 * 2 ** 30, 2 ** 32 - 3, 2 ** 32 - 2, 2 ** 32 - 1, 2 ** 32,
              2 ** 32 + 1, 2 ** 63, 2 ** 63 + 12345]

    @staticmethod
    def _doubles(streams, rows):
        at = streams.take(rows, 1)  # which may grow `words`
        return ((streams.words[rows, at] >> 11) * _DOUBLE).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decodes_like_generator(self, seed):
        # Each step reads from a drawn subset of four streams, so rows
        # fall out of step and reject on different draws; each row is
        # checked against its own Generator. Eight words per row to start
        # with makes every row read past its first words.
        seeds = [seed, seed + 10, seed + 20, seed + 30]
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
        streams = _Streams([np.random.PCG64(s) for s in seeds], 8)
        pick = np.random.Generator(np.random.PCG64(100 + seed))
        for _ in range(3000):
            rows = np.flatnonzero(pick.random(len(seeds)) < 0.7)
            if pick.random() < 0.3:
                assert self._doubles(streams, rows) == [rngs[i].random()
                                                        for i in rows]
            else:
                r = self.RANGES[int(pick.integers(len(self.RANGES)))]
                lo = int(pick.integers(0, 1000))
                want = [int(rngs[i].integers(lo, lo + r + 1, dtype=np.uint64))
                        for i in rows]
                got = streams.bounded(rows, r)
                assert got.dtype == np.uint64
                assert [lo + int(v) for v in got] == want
        rows = np.arange(len(seeds))
        assert self._doubles(streams, rows) == [rng.random() for rng in rngs]
        assert len(set(streams.take(rows, 0).tolist())) == len(seeds)

    def test_raw_is_every_word_taken(self):
        streams = _Streams([np.random.PCG64(7), np.random.PCG64(8)], 4)
        streams.take(np.array([0, 1]), 3)
        assert streams.take(np.array([0]), 600).tolist() == [3]
        # Row 0 read past its first block; both rows still hold a prefix
        # of their own streams.
        for row, seed in ((0, 7), (1, 8)):
            want = np.random.PCG64(seed).random_raw(603)
            assert np.array_equal(streams.words[row, :603], want)
        assert streams.take(np.array([1]), 2).tolist() == [3]


# generate's traced peak for the workload spec at seed 1 and 2000
# layouts while it walked each stream in Python was 11,143,382 bytes
# (10.63 MiB), measured with this test's code on that version (Python
# 3.11, numpy 2.4). The lockstep reader, its word blocks and its box
# steps must stay within 10% of that.
PEAK_BOUND = int(11.7 * 2 ** 20)


def test_generate_peak_memory_on_workload_spec():
    spec = workload_spec(1)
    generate(spec, 2000)  # first-call allocations are not generate's
    tracemalloc.start()
    try:
        generate(spec, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUND


# generate's traced peak for the same call, drawing each box whole as its
# words are read, was 4,159,677 bytes (3.97 MiB; Python 3.11, numpy
# 2.4), against 8,896,166 when it kept every box's doubles for a second,
# corpus-wide pass. A second such pass must not come back.
ONE_PASS_PEAK_BOUND = int(4.55 * 2 ** 20)


def test_generate_draws_each_box_in_one_pass():
    spec = workload_spec(1)
    generate(spec, 2000)
    tracemalloc.start()
    try:
        generate(spec, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ONE_PASS_PEAK_BOUND


class TestGenerate:
    def test_empty(self):
        clean, noisy = generate(block_spec(), 0)
        assert clean.layouts == () and noisy.layouts == ()

    def test_zero_noise_equal(self):
        clean, noisy = generate(block_spec(noise=0.0), 20)
        assert corpus_to_obj(clean) == corpus_to_obj(noisy)

    def test_seed_determinism(self):
        a, _ = generate(block_spec(seed=99), 10)
        b, _ = generate(block_spec(seed=99), 10)
        assert corpus_to_obj(a) == corpus_to_obj(b)

    def test_different_seeds_differ(self):
        a, _ = generate(block_spec(seed=1), 10)
        b, _ = generate(block_spec(seed=2), 10)
        assert corpus_to_obj(a) != corpus_to_obj(b)

    def test_boxes_on_canvas(self):
        clean, _ = generate(block_spec(seed=5), 30)
        w, h = 360.0, 640.0
        for lay in clean.layouts:
            for c in lay.components:
                b = c.bbox
                assert 0 <= b.x1 <= b.x2 <= w
                assert 0 <= b.y1 <= b.y2 <= h

    @pytest.mark.parametrize("side", [np.float32, np.int64])
    def test_numpy_scalar_canvas(self, tmp_path, side):
        spec = _replace(block_spec(seed=5), canvas=(side(360), side(640)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clean, _ = generate(spec, 3)
            save_native(clean, tmp_path / "c.json")
        want, _ = generate(block_spec(seed=5), 3)  # a (360.0, 640.0) canvas
        assert (corpus_to_obj(load_native(tmp_path / "c.json"))
                == corpus_to_obj(want))

    def test_builds_no_layouts(self):
        clean, noisy = generate(block_spec(noise=0.5, seed=3), 6)
        assert "layouts" not in vars(clean) and "layouts" not in vars(noisy)
        # Clean and noisy share every array but the class ids.
        assert clean.boxes is noisy.boxes and clean.index is noisy.index
        assert not np.array_equal(clean.class_id, noisy.class_id)

    def test_membership_closes_loop(self):
        # each generated box must fall in its generating band under the
        # prior module's membership rule
        spec = block_spec(seed=11, boxes=(3, 3))
        clean, _ = generate(spec, 10)
        cfg = spec.band_config()
        for lay in clean.layouts:
            t = np.array([(c.bbox.y1 + c.bbox.y2) / 2.0
                          for c in lay.components]) / lay.height
            M = band_membership(t, cfg)
            # boxes are emitted band by band, 3 per band
            for i in range(len(lay.components)):
                assert M[i, i // 3] == 1

    def test_noise_flips_some_labels(self):
        clean, noisy = generate(block_spec(noise=0.5, seed=3), 20)
        flips = sum(
            1
            for cl, nl in zip(clean.layouts, noisy.layouts)
            for a, b in zip(cl.components, nl.components)
            if a.class_id != b.class_id
        )
        total = sum(len(l.components) for l in clean.layouts)
        assert 0 < flips < total
        # boxes never change, only labels
        for cl, nl in zip(clean.layouts, noisy.layouts):
            for a, b in zip(cl.components, nl.components):
                assert a.bbox == b.bbox

    def test_invalid_specs(self):
        spec = block_spec()
        with pytest.raises(ParseError):
            GeneratorSpec(spec.vocabulary, spec.planted_graphs,
                          spec.class_marginals[:1])
        with pytest.raises(ParseError):
            GeneratorSpec(spec.vocabulary, spec.planted_graphs,
                          spec.class_marginals, noise=1.0)

    def test_stacks_are_read_only_copies(self):
        graphs, marginals = np.stack([np.eye(6)] * 2), np.full((2, 6), 1 / 6)
        spec = GeneratorSpec(block_spec().vocabulary, graphs, marginals)
        for got, want in ((spec.planted_graphs, graphs),
                          (spec.class_marginals, marginals)):
            assert got.dtype == np.float64 and np.array_equal(got, want)
            assert not got.flags.writeable and want.flags.writeable

    def test_equality_is_field_wise(self):
        spec = block_spec()
        assert spec == block_spec() and not spec != block_spec()
        assert spec != block_spec(seed=1) and spec != block_spec(noise=0.3)
        graphs = spec.planted_graphs.copy()
        graphs[1, 0, 1] = 0.5
        assert spec != replace(spec, planted_graphs=graphs)
        assert spec != spec_to_obj(spec)
        with pytest.raises(TypeError, match="unhashable"):
            hash(spec)

    @pytest.mark.parametrize("field", ["planted_graphs", "class_marginals"])
    def test_ragged_stack_names_field(self, field):
        spec = block_spec()
        stacks = {"planted_graphs": list(spec.planted_graphs),
                  "class_marginals": list(spec.class_marginals)}
        stacks[field][1] = stacks[field][1][:-1]
        with pytest.raises(ParseError, match=f"^{field}: .*inhomogeneous"):
            GeneratorSpec(spec.vocabulary, **stacks)

    @pytest.mark.parametrize("band,row,col,value", [
        (0, 0, 1, np.nan), (1, 4, 3, 1.5), (0, 2, 2, -0.1)])
    def test_invalid_planted_weight(self, band, row, col, value):
        spec = block_spec()
        graphs = [g.copy() for g in spec.planted_graphs]
        graphs[band][row, col] = value
        with pytest.raises(ParseError, match="edge weights"):
            GeneratorSpec(spec.vocabulary, graphs, spec.class_marginals)

    @pytest.mark.parametrize("marginal", [
        [np.nan, 0.5, 0.5, 0, 0, 0], [-0.5, 0.5, 0.5, 0.5, 0, 0]])
    def test_invalid_marginal(self, marginal):
        spec = block_spec()
        with pytest.raises(ParseError, match="marginals"):
            GeneratorSpec(spec.vocabulary, spec.planted_graphs,
                          (np.array(marginal), spec.class_marginals[1]))


class TestRecoveryScore:
    def test_identical_graphs(self):
        spec = block_spec()
        clean, _ = generate(spec, 200)
        g = build_prior(clean, spec.band_config())
        assert recovery_score(g.edges, g) == pytest.approx(1.0)

    def test_disjoint_supports_zero(self):
        a = np.eye(4)
        a[0, 1] = a[1, 0] = 1.0
        b = np.eye(4)
        b[2, 3] = b[3, 2] = 1.0
        vocab = ClassVocabulary(("a", "b", "c", "d"))
        from layoutprior.prior import CoOccurrenceGraphSet
        rec = CoOccurrenceGraphSet(vocab, BandConfig(1), (b,))
        assert recovery_score((a,), rec) == 0.0

    def test_all_bands_excluded_sentinel(self):
        vocab = ClassVocabulary(("a", "b"))
        from layoutprior.prior import CoOccurrenceGraphSet
        rec = CoOccurrenceGraphSet(vocab, BandConfig(1), (np.eye(2),))
        assert recovery_score((np.eye(2),), rec) == -1.0

    def test_shape_mismatch(self):
        vocab = ClassVocabulary(("a", "b"))
        from layoutprior.prior import CoOccurrenceGraphSet
        rec = CoOccurrenceGraphSet(vocab, BandConfig(1), (np.eye(2),))
        with pytest.raises(ParseError):
            recovery_score((np.eye(2), np.eye(2)), rec)

    def test_planted_recovery(self):
        spec = block_spec(seed=42)
        clean, _ = generate(spec, 1000)
        g = build_prior(clean, spec.band_config())
        assert recovery_score(spec.planted_graphs, g) >= 0.9


class TestSpecIO:
    def test_round_trip(self, tmp_path):
        spec = block_spec(noise=0.25, seed=7)
        p = tmp_path / "spec.json"
        import json
        p.write_text(json.dumps(spec_to_obj(spec)))
        again = load_spec(p)
        assert spec_to_obj(again) == spec_to_obj(spec)

    def test_bad_spec(self):
        with pytest.raises(ParseError):
            spec_from_obj({"classes": ["a"]})

    @pytest.mark.parametrize("noise", ["0.25", True, None, [0.25]])
    def test_noise_must_be_a_number(self, tmp_path, capsys, noise):
        obj = spec_to_obj(block_spec())
        obj["noise"] = noise
        with pytest.raises(ParseError, match="bad generator spec: noise "
                                             "must be a number"):
            spec_from_obj(obj)
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(obj))
        assert main(["synth", str(sp), "--n", "2",
                     "--out-clean", str(tmp_path / "c.json"),
                     "--out-noisy", str(tmp_path / "n.json")]) == 2
        assert "bad generator spec: noise must be a number" in \
            capsys.readouterr().err

    def test_integer_noise_is_a_float(self):
        obj = spec_to_obj(block_spec())
        obj["noise"] = 0
        spec = spec_from_obj(obj)
        assert spec.noise == 0.0 and isinstance(spec.noise, float)

    def test_pairs_are_tuples(self):
        spec = block_spec()
        listed = replace(spec, boxes_per_band=[2, 5],
                         box_size_frac=[0.05, 0.25], canvas=[360, 640.0])
        assert listed == replace(spec, canvas=(360, 640.0))
        assert listed.boxes_per_band == (2, 5)
        assert spec_from_obj(spec_to_obj(listed)) == listed

    @pytest.mark.parametrize("noise", [False, True, "0.25", None])
    def test_spec_refuses_non_number_noise(self, noise):
        with pytest.raises(ParseError, match="noise must be a number"):
            replace(block_spec(), noise=noise)


# Python and numpy forms of an int, and of any other real.
INT_FORMS = (int, np.int64, np.int32, np.uint16)
REAL_FORMS = (float, np.float64, np.float32)


@st.composite
def spec_scalars(draw):
    """The scalar fields of a valid spec, each number in one of its Python
    or numpy forms."""
    def form(v):
        return draw(st.sampled_from(
            INT_FORMS if isinstance(v, int) else REAL_FORMS))(v)

    def pair(values):
        return tuple(sorted(map(form, draw(st.lists(values, min_size=2,
                                                    max_size=2))), key=float))

    side = st.floats(1.0, 1e4) | st.integers(1, 10 ** 4)
    return {"boxes_per_band": pair(st.integers(0, 50)),
            "box_size_frac": pair(st.floats(0.0, 1.0)
                                  | st.sampled_from([0, 1])),
            "canvas": (form(draw(side)), form(draw(side))),
            "noise": form(draw(st.floats(0.0, 0.99) | st.just(0))),
            "seed": form(draw(st.integers(0, 2 ** 16 - 1)))}


def save_spec(spec, path):
    write_text(path, [json.dumps(spec_to_obj(spec))])


@settings(derandomize=True, deadline=None, max_examples=75)
@given(spec_scalars())
def test_spec_round_trip_and_rewrite(scalars):
    """A written spec reads back equal, and rewriting what was read keeps
    the file's bytes, on a plain and a .gz path, whatever the forms of
    its numbers."""
    spec = replace(block_spec(), **scalars)
    with tempfile.TemporaryDirectory() as d:
        for name in ("spec.json", "spec.json.gz"):
            save_spec(spec, Path(d, name))
            assert load_spec(Path(d, name)) == spec
    assert_rewrite_stable(save_spec, load_spec, spec)
