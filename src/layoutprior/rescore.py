"""Training-free detection re-scoring using the band co-occurrence prior.

Each detection's class distribution is blended geometrically with a
context prior: the leave-one-out, association-weighted mix of the other
detections' distributions in each band, propagated through that band's
graph. lambda=0 leaves distributions untouched; lambda=1 replaces them
with the propagated prior.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from typing import ClassVar

import numpy as np

from .core import (LayoutDocument, ParseError, ProposalBatch, centres,
                   finite, row_softmax)
from .conditioning import AssociationPolicy, association, band_association
from .ingest import Corpus
from .prior import CoOccurrenceGraphSet

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class RescoreConfig:
    blend: float = 0.5  # lambda in [0, 1]
    association: AssociationPolicy = AssociationPolicy()
    confidence: float = 0.8  # label mass of a component's soft logits
    epsilon: ClassVar[float] = 1e-6  # a context of at most this mass is empty

    def __post_init__(self):
        if not (0.0 <= self.blend <= 1.0):
            raise ParseError("blend strength must lie in [0, 1]")
        if not finite(self.confidence):
            raise ParseError("label confidence must be finite, got "
                             f"{self.confidence}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ParseError("label confidence must lie in [0, 1], got "
                             f"{self.confidence}")


def rescore(detections: ProposalBatch, graphs: CoOccurrenceGraphSet,
            config: RescoreConfig) -> ProposalBatch:
    """Return the same boxes with context-adjusted logits."""
    C = graphs.vocabulary.size
    if detections.logits.shape[1] != C:
        raise ParseError(
            f"logits have {detections.logits.shape[1]} classes, "
            f"graphs have {C}"
        )
    s = row_softmax(detections.logits)  # n x C
    alpha = band_association(detections, graphs.band_config,
                             config.association)
    return ProposalBatch(detections.coords,
                         _rescore(s, alpha, graphs.edges, config),
                         detections.layout_height, detections.features)


def _rescore(s: np.ndarray, alpha: np.ndarray, edges: np.ndarray,
             config: RescoreConfig) -> np.ndarray:
    """Rescored logits of one layout's distributions and band weights."""
    # Band context including everybody, minus each detection's own term
    # (leave-one-out): n x n_g x C.
    band_totals = alpha.T @ s  # n_g x C
    uniform = np.full(s.shape[1], 1.0 / s.shape[1])
    ctx = band_totals[None] - alpha[:, :, None] * s[:, None, :]
    total = ctx.sum(axis=2, keepdims=True)
    empty = total <= config.epsilon  # a NaN total is divided by, not replaced
    ctx /= np.where(empty, 1.0, total)
    np.copyto(ctx, uniform, where=empty)

    # One stacked matrix-vector product per (detection, band); it rounds
    # as `edges[j] @ ctx[i, j]` does, which a gemm or einsum does not.
    prop = np.matmul(edges[None], ctx[..., None])[..., 0]
    # Summed over the bands in ascending order, as a loop would add them;
    # with one class numpy adds pairwise, but q then normalizes to 1.
    np.multiply(alpha[:, :, None], prop, out=prop)
    q = prop.sum(axis=1)
    q_sums = q.sum(axis=1, keepdims=True)
    lost = ~(q_sums > 0)  # a NaN row too
    q /= np.where(lost, 1.0, q_sums)
    np.copyto(q, uniform, where=lost)

    lam = config.blend
    blended = s ** (1.0 - lam) * q ** lam
    blended /= blended.sum(axis=1, keepdims=True)
    return np.log(np.maximum(blended, _LOG_FLOOR, out=blended), out=blended)


def _label_logits(class_id, score: np.ndarray, n_classes: int,
                  confidence: float) -> np.ndarray:
    """Soft logits of components given by their class ids and scores
    (1.0 where absent)."""
    conf = np.minimum(np.maximum(confidence * score, 1.0 / n_classes),
                      1.0 - 1e-9)
    probs = np.repeat(((1.0 - conf) / max(n_classes - 1, 1))[:, None],
                      n_classes, axis=1)
    probs[np.arange(len(conf)), class_id] = conf
    return np.log(probs)


def labels_to_logits(layout: LayoutDocument, n_classes: int,
                     confidence=RescoreConfig.confidence) -> ProposalBatch:
    """Soft logits from labeled components: mass `confidence` on the
    label (scaled by the component score when present), remainder uniform."""
    comps = layout.components
    corners = map(attrgetter("x1", "y1", "x2", "y2"), [c.bbox for c in comps])
    coords = np.fromiter(chain.from_iterable(corners), float, 4 * len(comps))
    return ProposalBatch(coords.reshape(-1, 4), _label_logits(
        [c.class_id for c in comps],
        np.array([1.0 if c.score is None else c.score for c in comps]),
        n_classes,
        RescoreConfig(confidence=confidence).confidence),  # which checks it
        layout.height)


def rescore_corpus(corpus: Corpus, graphs: CoOccurrenceGraphSet,
                   config: RescoreConfig) -> Corpus:
    """`corpus` with every label rescored within its own layout: each
    component takes the class of highest rescored probability, and that
    probability as its score."""
    if corpus.vocabulary.names != graphs.vocabulary.names:
        raise ParseError("corpus and graph vocabularies differ")
    C = graphs.vocabulary.size
    s = row_softmax(_label_logits(corpus.class_id, corpus.score, C,
                                  config.confidence))
    alpha = association(centres(corpus.boxes, corpus.heights[corpus.index]),
                        graphs.band_config, config.association)
    cuts = corpus.offsets
    logits = [_rescore(s[a:b], alpha[a:b], graphs.edges, config)
              for a, b in zip(cuts, cuts[1:])]
    probs = row_softmax(np.concatenate(logits or [np.empty((0, C))]))
    cls = np.argmax(probs, axis=1)
    return replace(corpus, class_id=cls, score=probs[np.arange(len(cls)), cls],
                   scored=np.ones(len(cls), dtype=bool))
