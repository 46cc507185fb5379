import itertools
import math

import numpy as np
import pytest

from layoutprior import ClassVocabulary, ProposalBatch
from layoutprior.conditioning import (AssociationKind, AssociationPolicy,
                                      MappingPolicy, NodeFeatures,
                                      band_association, concat_features,
                                      condition_features, load_proposals,
                                      proposal_node_features,
                                      proposals_from_obj, proposals_to_obj,
                                      save_proposals, soft_mapping)
from layoutprior.core import BBox, ShapeError
from layoutprior.prior import BandConfig, CoOccurrenceGraphSet

from conftest import random_embed, random_node_features


def batch_at(y_centers, n_classes=3, height=100.0, logits=None):
    boxes = tuple(BBox(0, y - 5, 10, y + 5) for y in y_centers)
    if logits is None:
        logits = np.zeros((len(boxes), n_classes))
    return ProposalBatch(boxes, logits, height)


def gauss(x, sigma=0.3):
    return math.exp(-0.5 * (x / sigma) ** 2) / math.sqrt(2 * math.pi * sigma ** 2)


class TestBandAssociation:
    two_bands = BandConfig(2)  # centroids 0.25, 0.75

    def test_symmetric_midpoint(self):
        alpha = band_association(batch_at([50.0]), self.two_bands,
                                 AssociationPolicy())
        assert np.allclose(alpha, [[0.5, 0.5]], atol=1e-12)

    def test_single_tie_to_lower_index(self):
        alpha = band_association(batch_at([50.0]), self.two_bands,
                                 AssociationPolicy(AssociationKind.SINGLE))
        assert alpha.tolist() == [[1.0, 0.0]]

    def test_gaussian_quarter_point(self):
        # center at 0.25: displacements 0 and -0.5 against the centroids
        alpha = band_association(batch_at([25.0]), self.two_bands,
                                 AssociationPolicy())
        g0, g5 = gauss(0.0), gauss(0.5)
        expected = [g0 / (g0 + g5), g5 / (g0 + g5)]
        assert np.allclose(alpha, [expected], atol=1e-12)
        assert np.allclose(alpha, [[0.8004, 0.1996]], atol=5e-5)

    def test_equal(self):
        alpha = band_association(batch_at([10.0, 90.0]), self.two_bands,
                                 AssociationPolicy(AssociationKind.EQUAL))
        assert np.allclose(alpha, 0.5)

    @pytest.mark.parametrize("kind", list(AssociationKind))
    def test_rows_stochastic(self, rng, kind):
        bands = BandConfig(7)
        batch = batch_at(rng.uniform(0, 100, size=20))
        alpha = band_association(batch, bands,
                                 AssociationPolicy(kind, sigma=0.3))
        assert np.all(alpha >= 0)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_tiny_sigma_matches_single(self, rng):
        bands = BandConfig(5)
        centers = rng.uniform(0, 100, size=30)
        # keep centers away from centroid midpoints so the nearest band
        # is unique
        centers = np.array([c for c in centers
                            if min(abs(c / 100 - m) for m in
                                   (0.2, 0.4, 0.6, 0.8)) > 1e-3])
        batch = batch_at(centers)
        tiny = band_association(batch, bands,
                                AssociationPolicy(sigma=1e-6))
        single = band_association(batch, bands,
                                  AssociationPolicy(AssociationKind.SINGLE))
        assert np.array_equal(np.argmax(tiny, axis=1),
                              np.argmax(single, axis=1))


class TestSoftMapping:
    def test_soft_uniform(self):
        S = soft_mapping(np.zeros((1, 4)), MappingPolicy.SOFT)
        assert np.allclose(S, 0.25)

    def test_soft_analytic(self):
        S = soft_mapping(np.array([[np.log(2.0), 0.0]]), MappingPolicy.SOFT)
        assert np.allclose(S, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_hard_argmax(self):
        S = soft_mapping(np.array([[5.0, 1.0, 1.0]]), MappingPolicy.HARD)
        assert S.tolist() == [[1.0, 0.0, 0.0]]

    def test_hard_tie_lowest_index(self):
        S = soft_mapping(np.array([[2.0, 2.0, 1.0]]), MappingPolicy.HARD)
        assert S.tolist() == [[1.0, 0.0, 0.0]]

    def test_row_contracts(self, rng):
        logits = rng.standard_normal((10, 5)) * 3
        soft = soft_mapping(logits, MappingPolicy.SOFT)
        hard = soft_mapping(logits, MappingPolicy.HARD)
        assert np.all(soft > 0)
        assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.sort(hard, axis=1)[:, :-1] == 0)
        assert np.all(hard.sum(axis=1) == 1)


class TestProposalNodeFeatures:
    def test_one_hot_selector(self):
        F = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        S = np.eye(3)
        P = proposal_node_features(F, S)
        assert np.array_equal(P.matrix, F)

    def test_uniform_is_mean(self):
        F = np.array([[2.0, 0.0], [4.0, 6.0]])
        S = np.full((2, 3), 1 / 3)
        P = proposal_node_features(F, S)
        assert np.allclose(P.matrix, np.tile(F.mean(axis=0), (3, 1)))

    def test_empty_class_zero_row(self):
        F = np.array([[1.0, 1.0]])
        S = np.array([[1.0, 0.0]])
        P = proposal_node_features(F, S)
        assert np.array_equal(P.matrix[1], [0.0, 0.0])

    def test_row_mismatch(self):
        with pytest.raises(ShapeError,
                           match="features rows 3 != mapping rows 2"):
            proposal_node_features(np.zeros((3, 4)), np.zeros((2, 3)))

    def test_matches_loop_oracle(self, rng):
        F = rng.standard_normal((5, 4))
        S = rng.uniform(0, 1, size=(5, 3))
        P = proposal_node_features(F, S).matrix
        expected = np.zeros((3, 4))
        for c in range(3):
            w = S[:, c].sum()
            for d in range(4):
                expected[c, d] = sum(S[i, c] * F[i, d] for i in range(5)) / w
        assert np.allclose(P, expected, atol=1e-9)


def make_graphs(edges, n_classes):
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(n_classes)))
    return CoOccurrenceGraphSet(vocab, BandConfig(len(edges)), tuple(edges))


def loop_oracle(S, alpha, edges, W, Z):
    n_r, d_prime = S.shape[0], Z.shape[1]
    out = np.zeros((n_r, d_prime))
    for i in range(n_r):
        for j, E in enumerate(edges):
            B = S @ E @ W @ Z
            out[i] += alpha[i, j] * B[i]
    return out


def pooled_loop_oracle(S, alpha, edges, W, Z):
    """condition_features as a loop over the bands, adding each band's
    pooled class mix in ascending order."""
    pooled = np.zeros_like(S)
    for j, E in enumerate(edges):
        pooled += alpha[:, j:j + 1] * (S @ E)
    return pooled @ (W @ Z)


class TestConditionFeatures:
    @pytest.mark.parametrize("C", [1, 2, 5])
    @pytest.mark.parametrize("Nr", [1, 2, 7])
    def test_equals_band_loop(self, rng, C, Nr):
        K, Dp = 3, 4
        for Ng, policy in itertools.product(range(1, 13), MappingPolicy):
            S = soft_mapping(rng.standard_normal((Nr, C)), policy)
            alpha = rng.uniform(0, 1, size=(Nr, Ng))
            alpha /= alpha.sum(axis=1, keepdims=True)
            edges = rng.uniform(0, 1, size=(Ng, C, C))
            edges[rng.uniform(size=(Ng, C)) < 0.3] = 0.0
            graphs = make_graphs(edges, C)
            nodes = NodeFeatures(rng.standard_normal((C, K)))
            Z = rng.standard_normal((K, Dp))
            out = condition_features(S, alpha, graphs, nodes, Z)
            assert np.array_equal(
                out, pooled_loop_oracle(S, alpha, edges, nodes.matrix, Z)), Ng

    def test_identity_graphs_degenerate(self, rng):
        C, K, Dp, Ng = 4, 5, 6, 3
        S = soft_mapping(rng.standard_normal((7, C)), MappingPolicy.SOFT)
        alpha = rng.uniform(0.1, 1, size=(7, Ng))
        alpha /= alpha.sum(axis=1, keepdims=True)
        graphs = make_graphs([np.eye(C)] * Ng, C)
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        out = condition_features(S, alpha, graphs, nodes, Z)
        assert np.allclose(out, S @ nodes.matrix @ Z, atol=1e-9)

    def test_matches_loop_oracle(self, rng):
        C, K, Dp, Ng, Nr = 4, 5, 5, 2, 3
        S = rng.standard_normal((Nr, C))
        alpha = rng.uniform(0, 1, size=(Nr, Ng))
        edges = [rng.uniform(0, 1, size=(C, C)) for _ in range(Ng)]
        graphs = make_graphs(edges, C)
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        out = condition_features(S, alpha, graphs, nodes, Z)
        assert out.shape == (Nr, Dp)
        assert np.allclose(out, loop_oracle(S, alpha, edges, nodes.matrix, Z),
                           atol=1e-9)

    def test_zero_embed_annihilates(self, rng):
        C = 3
        graphs = make_graphs([np.eye(C)], C)
        S = np.ones((2, C)) / C
        alpha = np.ones((2, 1))
        nodes = NodeFeatures(rng.standard_normal((C, 4)))
        out = condition_features(S, alpha, graphs, nodes, np.zeros((4, 6)))
        assert np.array_equal(out, np.zeros((2, 6)))

    def test_linear_in_mapping(self, rng):
        C, K, Dp, Ng, Nr = 5, 6, 4, 3, 4
        edges = [rng.uniform(0, 1, size=(C, C)) for _ in range(Ng)]
        graphs = make_graphs(edges, C)
        alpha = rng.uniform(0, 1, size=(Nr, Ng))
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        S1 = rng.standard_normal((Nr, C))
        S2 = rng.standard_normal((Nr, C))
        a, b = 2.5, -1.25
        lhs = condition_features(a * S1 + b * S2, alpha, graphs, nodes, Z)
        rhs = (a * condition_features(S1, alpha, graphs, nodes, Z)
               + b * condition_features(S2, alpha, graphs, nodes, Z))
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_proposal_permutation_equivariance(self, rng):
        C, K, Dp, Ng, Nr = 4, 3, 5, 2, 6
        edges = [rng.uniform(0, 1, size=(C, C)) for _ in range(Ng)]
        graphs = make_graphs(edges, C)
        S = rng.standard_normal((Nr, C))
        alpha = rng.uniform(0, 1, size=(Nr, Ng))
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        perm = rng.permutation(Nr)
        out = condition_features(S, alpha, graphs, nodes, Z)
        out_p = condition_features(S[perm], alpha[perm], graphs, nodes, Z)
        assert np.allclose(out_p, out[perm], atol=1e-12)

    def test_single_graph_exact(self, rng):
        C, K, Dp = 3, 4, 5
        E = rng.uniform(0, 1, size=(C, C))
        graphs = make_graphs([E], C)
        S = rng.standard_normal((4, C))
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        out = condition_features(S, np.ones((4, 1)), graphs, nodes, Z)
        assert np.allclose(out, S @ E @ nodes.matrix @ Z, atol=1e-12)

    def test_shape_error_names_product(self, rng):
        graphs = make_graphs([np.eye(3)], 3)
        nodes = NodeFeatures(rng.standard_normal((3, 4)))
        with pytest.raises(ShapeError, match="embed"):
            condition_features(np.zeros((2, 3)), np.ones((2, 1)), graphs,
                               nodes, np.zeros((5, 6)))


    def test_mapping_columns_must_match_classes(self, rng):
        graphs = make_graphs([np.eye(3)], 3)
        nodes = NodeFeatures(rng.standard_normal((3, 4)))
        with pytest.raises(ShapeError, match=r"mapping S \(2, 4\)"):
            condition_features(np.zeros((2, 4)), np.ones((2, 1)), graphs,
                               nodes, np.zeros((4, 6)))

    def test_alpha_must_match_proposals_and_graphs(self, rng):
        graphs = make_graphs([np.eye(3), np.eye(3)], 3)
        nodes = NodeFeatures(rng.standard_normal((3, 4)))
        for alpha in (np.ones((2, 1)), np.ones((3, 2))):
            with pytest.raises(ShapeError, match="alpha"):
                condition_features(np.zeros((2, 3)), alpha, graphs, nodes,
                                   np.zeros((4, 6)))


class TestConcat:
    def test_single_row(self):
        out = concat_features(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0, 5.0]]))
        assert out.tolist() == [[1, 2, 3, 4, 5]]

    def test_empty_prime(self):
        f = np.ones((3, 2))
        assert np.array_equal(concat_features(f, np.zeros((3, 0))), f)

    def test_default_dims(self):
        # paper-default conditioned width of 512
        out = concat_features(np.zeros((4, 8)), np.zeros((4, 512)))
        assert out.shape == (4, 520)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            concat_features(np.zeros((2, 2)), np.zeros((3, 2)))


class TestProposalIO:
    def test_round_trip(self, tmp_path, rng):
        batch = ProposalBatch(
            (BBox(0, 0, 10, 10), BBox(5, 5, 20, 30)),
            rng.standard_normal((2, 4)),
            200.0,
            rng.standard_normal((2, 8)),
        )
        p = tmp_path / "props.json"
        save_proposals(batch, p)
        again = load_proposals(p)
        assert again.boxes == batch.boxes
        assert np.array_equal(again.logits, batch.logits)
        assert np.array_equal(again.features, batch.features)
        assert again.layout_height == 200.0

    def test_obj_round_trip_without_features(self):
        batch = ProposalBatch((BBox(0, 0, 1, 1),), np.zeros((1, 2)), 10.0)
        again = proposals_from_obj(proposals_to_obj(batch))
        assert again.features is None

    def test_seeded_generators_deterministic(self):
        a = random_node_features(3, 4, seed=9).matrix
        b = random_node_features(3, 4, seed=9).matrix
        assert np.array_equal(a, b)
        assert random_embed(4, 6, seed=1).shape == (4, 6)
