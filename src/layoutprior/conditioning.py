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

from .core import (BBox, ParseError, ProposalBatch, ShapeError,
                   fields_equal, finite, json_number, json_numbers, matmul,
                   matrix_from_json, matrix_to_json, midpoint, read_json,
                   row_softmax, write_text)
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
        # NaN weights would switch the prior off.
        if not (finite(self.mu) and finite(self.sigma) and self.sigma > 0.0):
            raise ParseError("association needs a finite mu and a finite "
                             f"sigma > 0, got {self.mu} and {self.sigma}")

class MappingPolicy(Enum):
    SOFT = "soft"
    HARD = "hard"

def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and float64 bit patterns: -0.0 is not 0.0, and NaNs
    compare by payload."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))

@dataclass(frozen=True, eq=False)
class NodeFeatures:
    matrix: np.ndarray  # C x K

    __eq__ = fields_equal  # and no hash, as the array has none

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ShapeError(
                f"node features must be a 2-D matrix, got shape {matrix.shape}")
        object.__setattr__(self, "matrix", matrix)
        # Not a dataclass field: equality and repr stay on `matrix`.
        object.__setattr__(self, "_projection", None)

    def project(self, embed: np.ndarray) -> np.ndarray:
        """W Z, read-only. The last product is kept with private copies of
        the W and Z it came from and reused while both keep their shapes
        and bytes; `matrix` may share the caller's buffer, so W is compared
        too."""
        W = self.matrix
        embed = np.asarray(embed, dtype=np.float64)
        memo = self._projection  # one read: a concurrent update is whole
        if memo is not None and _same_bytes(memo[0], W) \
                and _same_bytes(memo[1], embed):
            return memo[2]
        W, embed = W.copy(), embed.copy()
        WZ = matmul(W, embed)
        WZ.flags.writeable = False
        object.__setattr__(self, "_projection", (W, embed, WZ))
        return WZ

def band_association(proposals: ProposalBatch, bands: BandConfig,
                     policy: AssociationPolicy) -> np.ndarray:
    """N_r x N_g association weights of a proposal batch (`association`)."""
    yc = np.array([midpoint(b.y1, b.y2) for b in proposals.boxes])
    return association(yc / proposals.layout_height, bands, policy)

def _nearest(dist: np.ndarray) -> np.ndarray:
    """One-hot rows at each row's least entry, the lowest index on ties."""
    alpha = np.zeros(dist.shape)
    alpha[np.arange(len(dist)), np.argmin(dist, axis=1)] = 1.0
    return alpha

def association(t: np.ndarray, bands: BandConfig,
                policy: AssociationPolicy) -> np.ndarray:
    """len(t) x N_g association weights of box centres `t`, given as
    fractions of their canvas heights; rows are non-negative and sum to 1."""
    n_g = bands.n_bands
    if policy.kind is AssociationKind.EQUAL:
        return np.full((len(t), n_g), 1.0 / n_g)

    delta = t[:, None] - bands.centroids[None, :]
    if policy.kind is AssociationKind.SINGLE:
        return _nearest(np.abs(delta))
    return _gaussian(delta, policy.mu, policy.sigma)

# Overflow to inf is a limit of the density, taken on purpose; an invalid
# operation can only be -inf - -inf, in a row that is all -inf.
@np.errstate(over="ignore", invalid="raise")
def _gaussian(delta: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    # Density evaluated in log space; subtracting each row's max
    # exponent keeps tiny sigmas from underflowing to all-zero rows and
    # cancels in the normalization, as does the density prefactor, which
    # is taken as 0 where 2 pi sigma^2 is not a positive finite float.
    try:
        var = 2.0 * math.pi * sigma ** 2
    except OverflowError:
        var = 0.0
    log_pref = -0.5 * math.log(var) if finite(var) and var > 0 else 0.0
    log_alpha = log_pref - 0.5 * ((delta - mu) / sigma) ** 2
    top = log_alpha.max(axis=1, keepdims=True)
    try:
        alpha = np.exp(log_alpha - top)
    except FloatingPointError:
        # A row whose every exponent overflows to -inf takes the weights'
        # limit, a one-hot at the band of least |delta - mu|. Where mu
        # lies below (above) a row's every delta, |delta - mu| may round
        # to one value in all its bands; that band is its least (greatest)
        # delta's.
        lost = ~np.isfinite(top[:, 0])
        alpha = np.exp(log_alpha - np.where(lost[:, None], 0.0, top))
        d = delta[lost]
        below = (mu < d).all(axis=1, keepdims=True)
        above = (mu > d).all(axis=1, keepdims=True)
        alpha[lost] = _nearest(np.where(below, d, np.where(above, -d,
                                                           np.abs(d - mu))))
    return alpha / alpha.sum(axis=1, keepdims=True)

def soft_mapping(logits: np.ndarray, policy: MappingPolicy) -> np.ndarray:
    """Row-stochastic class mapping: softmax rows or one-hot argmax rows."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or not logits.shape[1]:
        raise ShapeError("class mapping needs 2-D logits with at least one "
                         f"column, got shape {logits.shape}")
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
    if embed.ndim != 2 or embed.shape[0] != W.shape[1]:
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
    return matmul(pooled, nodes.project(embed))

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
        "height": float(batch.layout_height),
        "boxes": [list(map(float, (b.x1, b.y1, b.x2, b.y2)))
                  for b in batch.boxes],
        "logits": matrix_to_json(batch.logits),
    }
    if batch.features is not None:
        obj["features"] = matrix_to_json(batch.features)
    return obj

def proposals_from_obj(obj: dict) -> ProposalBatch:
    try:
        boxes = json_numbers(obj["boxes"], "box coordinate", 4)
        logits = matrix_from_json(obj["logits"])
        height = json_number(obj["height"], "height")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad proposal batch object: {e}") from None
    features = obj.get("features")
    if features is not None:
        features = matrix_from_json(features)
    return ProposalBatch(tuple(map(BBox, *boxes.T.tolist())), logits, height,
                         features)

def save_proposals(batch: ProposalBatch, path) -> None:
    write_text(path, [json.dumps(proposals_to_obj(batch))])

def load_proposals(path) -> ProposalBatch:
    return read_json(path, proposals_from_obj)
