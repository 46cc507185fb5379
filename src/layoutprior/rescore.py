"""Training-free detection re-scoring using the band co-occurrence prior.

Each detection's class distribution is blended geometrically with a
context prior: the leave-one-out, association-weighted mix of the other
detections' distributions in each band, propagated through that band's
graph. lambda=0 leaves distributions untouched; lambda=1 replaces them
with the propagated prior.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Component, LayoutDocument, ParseError, ProposalBatch, row_softmax
from .conditioning import AssociationPolicy, band_association
from .ingest import Corpus
from .prior import CoOccurrenceGraphSet

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class RescoreConfig:
    blend: float = 0.5  # lambda in [0, 1]
    association: AssociationPolicy = AssociationPolicy()
    epsilon: float = 1e-6

    def __post_init__(self):
        if not (0.0 <= self.blend <= 1.0):
            raise ParseError("blend strength must lie in [0, 1]")


def rescore(detections: ProposalBatch, graphs: CoOccurrenceGraphSet,
            config: RescoreConfig) -> ProposalBatch:
    """Return the same boxes with context-adjusted logits."""
    C = graphs.vocabulary.size
    if detections.logits.shape[1] != C:
        raise ParseError(
            f"logits have {detections.logits.shape[1]} classes, "
            f"graphs have {C}"
        )
    n = len(detections.boxes)
    if n == 0:
        return detections

    s = row_softmax(detections.logits)  # n x C
    alpha = band_association(detections, graphs.bands(), config.association)
    n_g = graphs.n_graphs

    # Band context including everybody, minus each detection's own term
    # (leave-one-out): n x n_g x C.
    band_totals = alpha.T @ s  # n_g x C
    uniform = np.full(C, 1.0 / C)
    ctx = band_totals[None] - alpha[:, :, None] * s[:, None, :]
    total = ctx.sum(axis=2, keepdims=True)
    empty = total <= config.epsilon  # a NaN total is divided by, not replaced
    ctx = np.where(empty, uniform, ctx / np.where(empty, 1.0, total))

    # One stacked matrix-vector product per (detection, band); it rounds
    # as `edges[j] @ ctx[i, j]` does, which a gemm or einsum does not.
    prop = np.matmul(np.stack(graphs.edges)[None], ctx[..., None])[..., 0]
    q = np.zeros((n, C))
    for j in range(n_g):  # ascending band order keeps the sum reproducible
        q += alpha[:, j:j + 1] * prop[:, j]
    q_sums = q.sum(axis=1, keepdims=True)
    q = np.where(q_sums > 0, q / np.where(q_sums > 0, q_sums, 1.0),
                 uniform[None, :])

    lam = config.blend
    blended = s ** (1.0 - lam) * q ** lam
    blended /= blended.sum(axis=1, keepdims=True)
    new_logits = np.log(np.maximum(blended, _LOG_FLOOR))
    return ProposalBatch(detections.boxes, new_logits,
                         detections.layout_height, detections.features)


def labels_to_logits(layout: LayoutDocument, n_classes: int,
                     confidence: float = 0.8) -> ProposalBatch:
    """Soft logits from labeled components: mass `confidence` on the
    label (scaled by the component score when present), remainder uniform."""
    comps = layout.components
    if not comps:
        return ProposalBatch((), np.zeros((0, n_classes)), layout.height)
    scores = np.array([1.0 if c.score is None else c.score for c in comps])
    conf = np.minimum(np.maximum(confidence * scores, 1.0 / n_classes),
                      1.0 - 1e-9)
    probs = np.repeat(((1.0 - conf) / max(n_classes - 1, 1))[:, None],
                      n_classes, axis=1)
    probs[np.arange(len(comps)), [c.class_id for c in comps]] = conf
    return ProposalBatch(tuple(c.bbox for c in comps), np.log(probs),
                         layout.height)


def rescore_layout(layout: LayoutDocument, graphs: CoOccurrenceGraphSet,
                   config: RescoreConfig, confidence: float = 0.8) -> LayoutDocument:
    if not layout.components:
        return layout
    batch = labels_to_logits(layout, graphs.vocabulary.size, confidence)
    out = rescore(batch, graphs, config)
    probs = row_softmax(out.logits)
    classes = np.argmax(probs, axis=1)
    comps = tuple(Component(comp.bbox, int(cls), float(p[cls]))
                  for comp, cls, p in zip(layout.components, classes, probs))
    return replace(layout, components=comps)


def rescore_corpus(corpus: Corpus, graphs: CoOccurrenceGraphSet,
                   config: RescoreConfig, confidence: float = 0.8) -> Corpus:
    if corpus.vocabulary.names != graphs.vocabulary.names:
        raise ParseError("corpus and graph vocabularies differ")
    layouts = tuple(rescore_layout(l, graphs, config, confidence)
                    for l in corpus.layouts)
    return Corpus(corpus.vocabulary, layouts, source=corpus.source)
