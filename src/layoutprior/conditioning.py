"""Proposal conditioning through the co-occurrence graphs.

Each proposal is associated to the band graphs by vertical proximity
(Gaussian in the height-normalized displacement, or single/equal
assignment), class logits are mapped to a row-stochastic matrix S, and
node features are propagated through every graph and pooled by the
association weights:

    f'_i = sum_j alpha(i,j) * (S E_j W Z_e) row i
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (INF, BBox, ParseError, ProposalBatch, ShapeError, matmul,
                   matrix_from_json, matrix_to_json, read_json, row_softmax,
                   write_text)
from .prior import BandConfig, CoOccurrenceGraphSet

class AssociationKind(Enum):
    GAUSSIAN = "gauss"
    SINGLE = "single"
    EQUAL = "equal"

@dataclass(frozen=True)
class AssociationPolicy:
    kind: AssociationKind = AssociationKind.GAUSSIAN
    mu: float = 0.0
    sigma: float = 0.3

    def __post_init__(self):
        # Written so that NaN fails: NaN weights switch the prior off.
        if not (-INF < self.mu < INF and 0.0 < self.sigma < INF):
            raise ParseError("association needs a finite mu and a finite "
                             f"sigma > 0, got {self.mu} and {self.sigma}")

class MappingPolicy(Enum):
    SOFT = "soft"
    HARD = "hard"

@dataclass(frozen=True)
class NodeFeatures:
    matrix: np.ndarray  # C x K

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.asarray(self.matrix, dtype=np.float64))

def band_association(proposals: ProposalBatch, bands: BandConfig,
                     policy: AssociationPolicy) -> np.ndarray:
    """N_r x N_g association weights; rows are non-negative and sum to 1."""
    n_r = len(proposals.boxes)
    n_g = bands.n_bands
    if policy.kind is AssociationKind.EQUAL:
        return np.full((n_r, n_g), 1.0 / n_g)

    yc = np.array([b.center()[1] for b in proposals.boxes])
    delta = yc[:, None] / proposals.layout_height - bands.centroids[None, :]

    if policy.kind is AssociationKind.SINGLE:
        alpha = np.zeros((n_r, n_g))
        nearest = np.argmin(np.abs(delta), axis=1)  # argmin takes lowest index on ties
        alpha[np.arange(n_r), nearest] = 1.0
        return alpha

    # Density evaluated in log space; subtracting each row's max
    # exponent keeps tiny sigmas from underflowing to all-zero rows and
    # cancels in the normalization (as does the density prefactor).
    log_pref = -0.5 * math.log(2.0 * math.pi * policy.sigma ** 2)
    log_alpha = log_pref - 0.5 * ((delta - policy.mu) / policy.sigma) ** 2
    alpha = np.exp(log_alpha - log_alpha.max(axis=1, keepdims=True))
    return alpha / alpha.sum(axis=1, keepdims=True)

def soft_mapping(logits: np.ndarray, policy: MappingPolicy) -> np.ndarray:
    """Row-stochastic class mapping: softmax rows or one-hot argmax rows."""
    logits = np.asarray(logits, dtype=np.float64)
    if policy is MappingPolicy.SOFT:
        return row_softmax(logits)
    S = np.zeros_like(logits)
    S[np.arange(logits.shape[0]), np.argmax(logits, axis=1)] = 1.0
    return S

def proposal_node_features(features: np.ndarray, S: np.ndarray) -> NodeFeatures:
    """Class embeddings as the S-weighted average of proposal features."""
    features = np.asarray(features, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    if features.shape[0] != S.shape[0]:
        raise ShapeError(
            f"features rows {features.shape[0]} != mapping rows {S.shape[0]}"
        )
    P = matmul(S.T, features)
    weight = S.sum(axis=0)
    nz = weight > 0
    P[nz] /= weight[nz, None]
    P[~nz] = 0.0
    return NodeFeatures(P)

def condition_features(S: np.ndarray, alpha: np.ndarray,
                       graphs: CoOccurrenceGraphSet, nodes: NodeFeatures,
                       embed: np.ndarray) -> np.ndarray:
    """Pool per-band propagated features into conditioned features F'."""
    S = np.asarray(S, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    embed = np.asarray(embed, dtype=np.float64)
    W = nodes.matrix
    C = graphs.vocabulary.size
    if S.shape[1] != C:
        raise ShapeError(f"mapping S {S.shape} does not match {C} classes")
    if W.shape[0] != C:
        raise ShapeError(f"node features {W.shape} do not match {C} classes")
    if embed.shape[0] != W.shape[1]:
        raise ShapeError(
            f"cannot multiply nodes {W.shape} by embed {embed.shape}"
        )
    if alpha.shape != (S.shape[0], graphs.n_graphs):
        raise ShapeError(
            f"alpha {alpha.shape} does not match {S.shape[0]} proposals x "
            f"{graphs.n_graphs} graphs"
        )
    # W Z is shared by every band, so the class mixes S E_j are pooled
    # first. The running sum adds the bands in ascending order, as a loop
    # would; .sum(axis=0) adds pairwise for one proposal and one class.
    pooled = np.add.accumulate(alpha.T[:, :, None] * (S @ graphs.edges))[-1]
    return matmul(pooled, matmul(W, embed))

def concat_features(f: np.ndarray, f_prime: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    f_prime = np.asarray(f_prime, dtype=np.float64)
    if f.shape[0] != f_prime.shape[0]:
        raise ShapeError(
            f"row mismatch concatenating {f.shape} with {f_prime.shape}"
        )
    return np.hstack([f, f_prime])

def proposals_to_obj(batch: ProposalBatch) -> dict:
    obj = {
        "height": batch.layout_height,
        "boxes": [[b.x1, b.y1, b.x2, b.y2] for b in batch.boxes],
        "logits": matrix_to_json(batch.logits),
    }
    if batch.features is not None:
        obj["features"] = matrix_to_json(batch.features)
    return obj

def proposals_from_obj(obj: dict) -> ProposalBatch:
    try:
        boxes = tuple(BBox(*(float(v) for v in b)) for b in obj["boxes"])
        logits = matrix_from_json(obj["logits"])
        height = float(obj["height"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad proposal batch object: {e}") from None
    features = obj.get("features")
    if features is not None:
        features = matrix_from_json(features)
    return ProposalBatch(boxes, logits, height, features)

def save_proposals(batch: ProposalBatch, path) -> None:
    write_text(path, [json.dumps(proposals_to_obj(batch))])

def load_proposals(path) -> ProposalBatch:
    return read_json(path, proposals_from_obj)
