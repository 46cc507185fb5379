import numpy as np
import pytest

from layoutprior import ClassVocabulary
from layoutprior.core import ParseError
from layoutprior.ingest import corpus_to_obj
from layoutprior.prior import BandConfig, band_membership, build_prior
from layoutprior.synth import (GeneratorSpec, generate, load_spec,
                               recovery_score, spec_from_obj, spec_to_obj)


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

    def test_membership_closes_loop(self):
        # each generated box must fall in its generating band under the
        # prior module's membership rule
        spec = block_spec(seed=11, boxes=(3, 3))
        clean, _ = generate(spec, 10)
        cfg = spec.band_config()
        for lay in clean.layouts:
            M = band_membership(lay, cfg)
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
        assert recovery_score(g, g) == pytest.approx(1.0)

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
        assert recovery_score(spec, g) >= 0.9


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
