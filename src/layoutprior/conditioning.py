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
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (ParseError, ProposalBatch, ShapeError, centres,
                   fields_equal, finite, json_number, json_numbers, matmul,
                   matrix_from_json, matrix_to_json, read_json, read_only,
                   row_softmax, same_bits, write_text)
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
        # Floats, so that equal policies compute the same bits.
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))

class MappingPolicy(Enum):
    SOFT = "soft"
    HARD = "hard"

@dataclass(frozen=True, eq=False)
class NodeFeatures:
    matrix: np.ndarray  # C x K

    __eq__ = fields_equal  # and no hash, as the array has none

    def __post_init__(self):
        # A private read-only copy, so that an edit to the caller's array
        # cannot make the kept W Z stale.
        matrix = read_only(np.array(self.matrix, dtype=np.float64))
        if matrix.ndim != 2:
            raise ShapeError(
                f"node features must be a 2-D matrix, got shape {matrix.shape}")
        object.__setattr__(self, "matrix", matrix)
        # Not a dataclass field: equality and repr stay on `matrix`.
        object.__setattr__(self, "_projection", None)

    def project(self, embed: np.ndarray) -> np.ndarray:
        """W Z, read-only. The last product is kept with a private copy of
        the Z it came from and reused while Z keeps its shape and bits."""
        embed = np.asarray(embed, dtype=np.float64)
        memo = self._projection  # one read: a concurrent update is whole
        if memo is not None and same_bits(memo[0], embed):
            return memo[1]
        embed = embed.copy()
        WZ = read_only(matmul(self.matrix, embed))
        object.__setattr__(self, "_projection", (embed, WZ))
        return WZ

# The last batch's association: (weak reference to the batch, bands,
# policy, read-only weights). One entry, so that `rescore` of the batch
# just associated reuses its weights and nothing else is kept.
_last_association = None

def band_association(proposals: ProposalBatch, bands: BandConfig,
                     policy: AssociationPolicy) -> np.ndarray:
    """N_r x N_g association weights of a proposal batch (`association`);
    a centre past the float range of the height is at t = +-inf. Each
    call returns a new array; the weights of the last batch are kept, for
    a batch is immutable, and reused for that batch and equal bands and
    policy."""
    global _last_association
    last = _last_association  # one read: a concurrent update is whole
    if (last is not None and last[0]() is proposals and last[1] == bands
            and last[2] == policy):
        return last[3].copy()
    alpha = association(centres(proposals.coords, proposals.layout_height),
                        bands, policy)
    _last_association = (weakref.ref(proposals), bands, policy,
                         read_only(alpha.copy()))
    return alpha

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

    c = bands.centroids
    if policy.kind is AssociationKind.SINGLE:
        # Clipped, so that a far centre's distances cannot round to a tie.
        return _nearest(np.abs(np.clip(t, c[0], c[-1])[:, None] - c))
    return _gaussian(t, c, policy.mu, policy.sigma)

# Overflow to inf is a limit of the density, taken on purpose; an invalid
# operation can only be -inf - -inf, in a row that is all -inf.
@np.errstate(over="ignore", invalid="raise")
def _gaussian(t: np.ndarray, c: np.ndarray, mu: float,
              sigma: float) -> np.ndarray:
    # Density evaluated in log space; subtracting each row's max
    # exponent keeps tiny sigmas from underflowing to all-zero rows and
    # cancels in the normalization, as does the density prefactor, which
    # is taken as 0 where 2 pi sigma^2 is not a positive finite float.
    try:
        var = 2.0 * math.pi * sigma ** 2
    except OverflowError:
        var = 0.0
    log_pref = -0.5 * math.log(var) if finite(var) and var > 0 else 0.0
    delta = t[:, None] - c
    dist = delta - mu
    log_alpha = log_pref - 0.5 * (dist / sigma) ** 2
    top = log_alpha.max(axis=1, keepdims=True)
    try:
        alpha = np.exp(log_alpha - top)
    except FloatingPointError:
        # A row whose every exponent overflows to -inf takes the weights'
        # limit, a one-hot at the band of least |delta - mu|. Where mu
        # lies below (above) a row's every delta, |delta - mu| may round
        # to one value in all its bands; that band is the last (first),
        # the one of greatest (least) centroid.
        lost = ~np.isfinite(top[:, 0])
        alpha = np.exp(log_alpha - np.where(lost[:, None], 0.0, top))
        d, band = delta[lost], np.arange(delta.shape[1])
        below = (mu < d).all(axis=1, keepdims=True)
        above = (mu > d).all(axis=1, keepdims=True)
        alpha[lost] = _nearest(np.where(below, -band, np.where(
            above, band, np.abs(dist[lost]))))
    flat = log_alpha.ravel()  # compared across row ends too, which is cheap
    if np.count_nonzero(flat[1:] == flat[:-1]):
        # Exponents that round to one float in two adjacent bands on one
        # side of t - mu, which the exact ones never do, would split the
        # weight. Such a row, unless lost, takes its exponents against the
        # band r nearest t - mu in closed form, exact in the scale of u:
        # with u = t - mu - c_r and e_j = c_j - c_r, log alpha_j - log
        # alpha_r = (2 u e_j - e_j^2) / (2 sigma^2). A +inf, which only
        # rounding between two bands about as near can give, is cut to
        # the float max.
        neg = dist < 0
        tied = ((log_alpha[:, 1:] == log_alpha[:, :-1])
                & (neg[:, 1:] == neg[:, :-1])).any(axis=1) \
            & np.isfinite(top[:, 0])
        near = t[tied, None] - mu - c
        r = np.abs(near).argmin(axis=1)
        u, e = near[np.arange(len(r)), r, None], c - c[r, None]
        x = (u - e / 2) * e / sigma / sigma
        np.minimum(x, np.finfo(np.float64).max, out=x)
        alpha[tied] = np.exp(x - x.max(axis=1, keepdims=True))
    return alpha / alpha.sum(axis=1, keepdims=True)

def soft_mapping(logits: np.ndarray, policy: MappingPolicy) -> np.ndarray:
    """Row-stochastic class mapping: softmax rows or one-hot argmax rows."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or not logits.shape[1]:
        raise ShapeError("class mapping needs 2-D logits with at least one "
                         f"column, got shape {logits.shape}")
    if policy is MappingPolicy.SOFT:
        return row_softmax(logits)
    return _nearest(-logits)

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
    # first, adding the bands in place in ascending order, as a loop
    # would; .sum(axis=0) adds pairwise for one proposal and one class.
    terms = S @ graphs.edges
    np.multiply(alpha.T[:, :, None], terms, out=terms)
    for term in terms[1:]:
        terms[0] += term
    return matmul(terms[0], nodes.project(embed))

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
        "boxes": batch.coords.tolist(),
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
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad proposal batch object: {e}") from None
    features = obj.get("features")
    if features is not None:
        features = matrix_from_json(features)
    return ProposalBatch(boxes, logits, height, features)

def save_proposals(batch: ProposalBatch, path) -> None:
    """Write `batch` as JSON; non-finite entries raise as in `save_matrix`."""
    if not all(np.isfinite(m).all() for m in (batch.logits, batch.features)
               if m is not None):
        raise ParseError(f"{path}: not written: MTX-JSON entries must be "
                         "finite")
    write_text(path, [json.dumps(proposals_to_obj(batch))])

def load_proposals(path) -> ProposalBatch:
    return read_json(path, proposals_from_obj)
