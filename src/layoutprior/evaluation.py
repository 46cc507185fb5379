"""COCO-style detection evaluation, implemented from scratch.

Produces the standard 12-metric block: AP averaged over IoU thresholds
0.50:0.95, AP50, AP75, AP by object scale, and AR at detection caps
1/10/100 plus AR by scale. Precision is 101-point interpolated;
matching is greedy in descending score order. Crowd/ignore annotations
are not supported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .core import LayoutPriorError, box_areas, iou_matrix
from .ingest import Corpus

SENTINEL = -1.0


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple = tuple(np.round(np.arange(0.5, 1.0, 0.05), 2))
    recall_points: tuple = tuple(np.round(np.linspace(0.0, 1.0, 101), 2))
    area_ranges: tuple = (
        ("all", 0.0, float("inf")),
        ("small", 0.0, 32.0 ** 2),
        ("medium", 32.0 ** 2, 96.0 ** 2),
        ("large", 96.0 ** 2, float("inf")),
    )
    max_dets: tuple = (1, 10, 100)


@dataclass(frozen=True)
class EvalReport:
    ap: float
    ap50: float
    ap75: float
    ap_small: float
    ap_medium: float
    ap_large: float
    ar1: float
    ar10: float
    ar100: float
    ar_small: float
    ar_medium: float
    ar_large: float
    per_class: dict = field(default_factory=dict)

    FIELDS = ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large",
              "ar1", "ar10", "ar100", "ar_small", "ar_medium", "ar_large")

    def to_dict(self, include_per_class: bool = True) -> dict:
        out = {k: getattr(self, k) for k in self.FIELDS}
        if include_per_class:
            out["per_class"] = {name: dict(block)
                                for name, block in self.per_class.items()}
        return out

    def to_table(self) -> str:
        header = ["AP", "AP50", "AP75", "APs", "APm", "APl",
                  "AR1", "AR10", "AR100", "ARs", "ARm", "ARl"]
        vals = [getattr(self, k) for k in self.FIELDS]
        row = ["{:6.3f}".format(v) if v >= 0 else "     -" for v in vals]
        return ("  ".join("{:>6}".format(h) for h in header) + "\n"
                + "  ".join(row))


def precision_recall(flags, n_gt: int,
                     recall_points: Optional[tuple] = None) -> Tuple[np.ndarray, float]:
    """101-point interpolated precision samples and their mean (AP).

    Flags must be in descending-score order. Returns (samples, ap);
    ap is the sentinel when n_gt == 0.
    """
    if recall_points is None:
        recall_points = EvalConfig().recall_points
    if n_gt == 0:
        return np.zeros(len(recall_points)), SENTINEL
    flags = np.asarray(flags, dtype=bool)
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    rc = tp / n_gt
    pr = tp / np.maximum(tp + fp, 1)
    # Monotone-decreasing envelope from the right.
    pr = np.maximum.accumulate(pr[::-1])[::-1]
    # Recall levels beyond the last operating point sample precision 0.
    samples = np.append(pr, 0.0)[np.searchsorted(rc, recall_points, side="left")]
    return samples, float(samples.mean())


def _group(corpus: Corpus):
    """(layout_id, class_id) -> list of components, preserving input order."""
    out: Dict[Tuple[str, int], list] = {}
    for lay in corpus.layouts:
        for comp in lay.components:
            out.setdefault((lay.id, comp.class_id), []).append(comp)
    return out


def _boxes(comps) -> np.ndarray:
    return np.array([(c.bbox.x1, c.bbox.y1, c.bbox.x2, c.bbox.y2)
                     for c in comps], dtype=np.float64).reshape(-1, 4)


def _outside(areas: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return (areas < lo) | (areas >= hi)


def _greedy(ious: list, gt_ig: list, iou_thrs) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy matching of score-ordered detections at each threshold.

    Each detection claims the unmatched ground truth of highest IoU
    (the later one on ties) that reaches the threshold, preferring
    non-ignored ground truths. Returns (matched, ignored), both T x D:
    whether the detection matched, and whether its match is ignored.
    """
    T, D, G = len(iou_thrs), len(ious), len(gt_ig)
    gt_order = sorted(range(G), key=lambda i: gt_ig[i])
    matched = np.zeros((T, D), dtype=bool)
    ignored = np.zeros((T, D), dtype=bool)
    for ti, t in enumerate(iou_thrs):
        taken = [False] * G
        for di, row in enumerate(ious):
            best, best_iou = -1, min(t, 1.0 - 1e-10)
            for gi in gt_order:
                if taken[gi]:
                    continue
                if best > -1 and not gt_ig[best] and gt_ig[gi]:
                    break
                if row[gi] < best_iou:
                    continue
                best, best_iou = gi, row[gi]
            if best > -1:
                taken[best] = True
                matched[ti, di] = True
                ignored[ti, di] = gt_ig[best]
    return matched, ignored


def _match_image(dts, gts, config: EvalConfig):
    """One matching pass over one (image, class).

    Detections are sorted by descending score (ties keep input order,
    a missing score counts as 1.0) and truncated to the largest cap.
    Matching is greedy in that order, so each detection's outcome
    depends only on those above it and every smaller cap is a prefix.
    Returns (scores (D,), matched (A, T, D), ignored (A, T, D),
    n_positive (A,)) over the A area ranges; a detection is ignored
    when its match is an ignored ground truth or, unmatched, it lies
    outside the area range.
    """
    scores = np.array([1.0 if d.score is None else d.score for d in dts])
    order = np.argsort(-scores, kind="stable")[:max(config.max_dets)]
    dt_boxes = _boxes([dts[i] for i in order])
    gt_boxes = _boxes(gts)
    ious = iou_matrix(dt_boxes, gt_boxes).tolist()
    dt_area, gt_area = box_areas(dt_boxes), box_areas(gt_boxes)
    matched, ignored, n_pos = [], [], []
    for _, lo, hi in config.area_ranges:
        gt_ig = _outside(gt_area, lo, hi)
        m, ig = _greedy(ious, gt_ig.tolist(), config.iou_thresholds)
        matched.append(m)
        ignored.append(ig | (~m & _outside(dt_area, lo, hi)))
        n_pos.append(int((~gt_ig).sum()))
    return scores[order], np.array(matched), np.array(ignored), np.array(n_pos)


def evaluate(dets: Corpus, gts: Corpus,
             config: EvalConfig = EvalConfig()) -> EvalReport:
    if dets.vocabulary.names != gts.vocabulary.names:
        raise LayoutPriorError("detection and ground-truth vocabularies differ")
    det_ids = {l.id for l in dets.layouts}
    gt_ids = {l.id for l in gts.layouts}
    if det_ids != gt_ids:
        missing = sorted(gt_ids - det_ids)
        extra = sorted(det_ids - gt_ids)
        raise LayoutPriorError(
            f"layout id sets differ; missing from detections: {missing}, "
            f"unknown in detections: {extra}"
        )

    C = gts.vocabulary.size
    iou_thrs = config.iou_thresholds
    T, R = len(iou_thrs), len(config.recall_points)
    image_ids = [l.id for l in dets.layouts]
    det_groups = _group(dets)
    gt_groups = _group(gts)

    # precision[t, r, class, area, maxdet] and recall[t, class, area, maxdet];
    # sentinel where a slice has no ground truth.
    A, M = len(config.area_ranges), len(config.max_dets)
    precision = np.full((T, R, C, A, M), SENTINEL)
    recall = np.full((T, C, A, M), SENTINEL)

    for ci in range(C):
        units = [_match_image(det_groups.get((iid, ci), []),
                              gt_groups.get((iid, ci), []), config)
                 for iid in image_ids
                 if (iid, ci) in det_groups or (iid, ci) in gt_groups]
        if not units:
            continue
        n_pos = sum(u[3] for u in units)
        for mi, md in enumerate(config.max_dets):
            # Pool the images' top-md detections in one stable score order.
            order = np.argsort(-np.concatenate([u[0][:md] for u in units]),
                               kind="stable")
            matched = np.concatenate([u[1][..., :md] for u in units], 2)[..., order]
            ignored = np.concatenate([u[2][..., :md] for u in units], 2)[..., order]
            for ai in np.nonzero(n_pos)[0]:
                n = int(n_pos[ai])
                for ti in range(T):
                    flags = matched[ai, ti][~ignored[ai, ti]]
                    precision[ti, :, ci, ai, mi] = precision_recall(
                        flags, n, config.recall_points)[0]
                    recall[ti, ci, ai, mi] = flags.sum() / n

    area_names = [name for name, _, _ in config.area_ranges]

    def mean(values, area, maxdet, cls=None, thr=None):
        """Mean of the non-sentinel cells of precision or recall for one
        area range and cap, optionally one class and one threshold."""
        if (area not in area_names or maxdet not in config.max_dets
                or (thr is not None and thr not in iou_thrs)):
            return SENTINEL
        v = values[..., area_names.index(area), config.max_dets.index(maxdet)]
        if thr is not None:
            ti = list(iou_thrs).index(thr)
            v = v[ti:ti + 1]
        if cls is not None:
            v = v[..., cls:cls + 1]
        valid = v[v > SENTINEL]
        return float(valid.mean()) if valid.size else SENTINEL

    def block(cls=None):
        return dict(
            ap=mean(precision, "all", 100, cls),
            ap50=mean(precision, "all", 100, cls, thr=0.5),
            ap75=mean(precision, "all", 100, cls, thr=0.75),
            ap_small=mean(precision, "small", 100, cls),
            ap_medium=mean(precision, "medium", 100, cls),
            ap_large=mean(precision, "large", 100, cls),
            ar1=mean(recall, "all", 1, cls),
            ar10=mean(recall, "all", 10, cls),
            ar100=mean(recall, "all", 100, cls),
            ar_small=mean(recall, "small", 100, cls),
            ar_medium=mean(recall, "medium", 100, cls),
            ar_large=mean(recall, "large", 100, cls),
        )

    per_class = {gts.vocabulary.names[ci]: block(ci) for ci in range(C)}
    return EvalReport(per_class=per_class, **block())


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), indent=1, sort_keys=True)
