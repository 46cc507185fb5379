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
from typing import Optional, Tuple

import numpy as np

from .core import LayoutPriorError, box_areas, iou_matrix
from .ingest import Corpus

SENTINEL = -1.0

# The summary fields: each is the mean of the non-sentinel cells of one
# (area range, cap) slice of precision or recall, over every IoU
# threshold or just one.
_SUMMARY = (  # field, precision (or recall), area range, cap, threshold
    ("ap", True, "all", 100, None),
    ("ap50", True, "all", 100, 0.5),
    ("ap75", True, "all", 100, 0.75),
    ("ap_small", True, "small", 100, None),
    ("ap_medium", True, "medium", 100, None),
    ("ap_large", True, "large", 100, None),
    ("ar1", False, "all", 1, None),
    ("ar10", False, "all", 10, None),
    ("ar100", False, "all", 100, None),
    ("ar_small", False, "small", 100, None),
    ("ar_medium", False, "medium", 100, None),
    ("ar_large", False, "large", 100, None),
)


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

    FIELDS = tuple(row[0] for row in _SUMMARY)

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


def _sample(tp_flags: np.ndarray, fp_flags: np.ndarray, n_pos: np.ndarray,
            recall_points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolated precision samples and recall of rows of score-ordered
    flags shaped (..., A, T, N), with one positive count per area.

    Entries that are neither a true nor a false positive (ignored ones)
    repeat the previous precision and recall, which leaves the envelope
    and its samples unchanged. Returns (samples (..., A, T, R),
    recall (..., A, T)).
    """
    *lead, N = tp_flags.shape
    tp = np.cumsum(tp_flags, axis=-1)
    fp = np.cumsum(fp_flags, axis=-1)
    pr = tp / np.maximum(tp + fp, 1)
    # Monotone-decreasing envelope from the right.
    pr = np.maximum.accumulate(pr[..., ::-1], axis=-1)[..., ::-1]
    # The first entry with tp / n >= p is the first with tp >= k_p, the
    # least k with k / n >= p (N + 2 when none up to N + 1 has it): one
    # integer search over all rows at once.
    k = np.array([np.searchsorted(np.arange(N + 2) / n, recall_points)
                  for n in n_pos.tolist()]).reshape(-1, 1, len(recall_points))
    # Row r's keys r * (N + 2) + tp sit at flat positions r * N to
    # r * N + N - 1, so the search returns r * N + the entry's index, or
    # r * N + N when no entry qualifies.
    row = np.arange(np.prod(lead, dtype=int)).reshape(tuple(lead) + (1,))
    pos = np.searchsorted((row * (N + 2) + tp).ravel(), row * (N + 2) + k)
    # Recall levels beyond the last operating point sample precision 0:
    # an extra last entry per row, which shifts row r by r positions.
    pr = np.concatenate([pr, np.zeros(tuple(lead) + (1,))], axis=-1)
    recall = tp_flags.sum(axis=-1) / n_pos[:, None]
    return pr.ravel()[pos + row], recall


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
    flags = np.asarray(flags, dtype=bool).reshape(1, 1, -1)
    samples = _sample(flags, ~flags, np.array([n_gt]),
                      np.asarray(recall_points, dtype=np.float64))[0][0, 0]
    return samples, float(samples.mean())


def _rank(keys: np.ndarray) -> np.ndarray:
    """Position of each entry within its run of equal sorted keys."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys)


def _outside(areas: np.ndarray, config: EvalConfig) -> np.ndarray:
    """A x ... flags: whether each area lies outside each area range."""
    lo, hi = (np.array([r[i] for r in config.area_ranges], dtype=np.float64)
              .reshape((-1,) + (1,) * areas.ndim) for i in (1, 2))
    return (areas < lo) | (areas >= hi)


def _greedy(ious: np.ndarray, n_dt: np.ndarray, gt_ig: np.ndarray,
            gt_pad: np.ndarray, iou_thrs) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy matching of U units' score-ordered detections at every
    area range and threshold at once.

    ious is U x D x G; units are ordered by detection count n_dt, most
    first, so step d touches only the units that have a detection d.
    Each unit's ground truths lie in reverse input order along G.
    gt_ig (A x U x G) flags ground truths outside each area range and
    gt_pad (U x G) the padding. Each detection claims the unmatched
    ground truth of highest IoU (the later one in input order on ties,
    argmax's first) that reaches the threshold, preferring non-ignored
    ground truths. Returns (matched, matched_ignored), both A x T x U x D:
    whether the detection matched, and whether its match is an ignored
    ground truth.
    """
    U, D, G = ious.shape
    A = gt_ig.shape[0]
    thr = np.minimum(np.asarray(iou_thrs, dtype=np.float64),
                     1.0 - 1e-10).reshape(-1, 1, 1)
    taken = np.repeat(np.broadcast_to(gt_pad, (A, 1, U, G)), len(thr), axis=1)
    matched = np.zeros(taken.shape[:3] + (D,), dtype=bool)
    matched_ig = np.zeros_like(matched)
    slots = np.arange(G)
    for d in range(D):
        u = int(np.count_nonzero(n_dt > d))
        row = ious[:u, d]
        cand = ~taken[:, :, :u] & (row >= thr)
        real = cand & ~gt_ig[:, None, :u]
        has_real = real.any(axis=-1)
        cand = np.where(has_real[..., None], real, cand)
        hit = cand.any(axis=-1)
        best = np.argmax(np.where(cand, row, -np.inf), axis=-1)
        taken[:, :, :u] |= hit[..., None] & (slots == best[..., None])
        matched[:, :, :u, d] = hit
        matched_ig[:, :, :u, d] = hit & ~has_real
    return matched, matched_ig


def _match_class(key, rank, boxes, dt_out, g_key, g_rank, g_boxes, g_out,
                 iou_thrs) -> Tuple[np.ndarray, np.ndarray]:
    """Match one class's detections, sorted by unit key and then rank,
    to its ground truths, sorted by unit key and then input order.

    dt_out (A x K) and g_out (A x G_total) flag boxes outside each area
    range. Returns (tp, fp), both A x T x K: whether each detection is a
    true or a false positive. An ignored detection is neither: its match
    is an ignored ground truth or, unmatched, it lies outside the range.
    """
    A, T = len(g_out), len(iou_thrs)
    if not len(key):
        return np.zeros((2, A, T, 0), dtype=bool)
    starts = np.flatnonzero(rank == 0)
    unit_keys = key[starts]
    n_dt = np.diff(starts, append=len(key))
    # Scatter the units into padded rows, most detections first.
    by_count = np.argsort(-n_dt, kind="stable")
    row_of = np.empty_like(by_count)
    row_of[by_count] = np.arange(len(by_count))
    u = row_of[np.cumsum(rank == 0) - 1]
    U, D = len(starts), int(n_dt.max())
    dt_box = np.zeros((U, D, 4))
    dt_box[u, rank] = boxes
    # Ground truths of units without detections match nothing.
    gu = np.searchsorted(unit_keys, g_key)
    found = unit_keys[np.minimum(gu, U - 1)] == g_key
    gu, gr = row_of[gu[found]], g_rank[found]
    G = int(gr.max(initial=0)) + 1
    gr = G - 1 - gr
    gt_box = np.zeros((U, G, 4))
    gt_box[gu, gr] = g_boxes[found]
    gt_pad = np.ones((U, G), dtype=bool)
    gt_pad[gu, gr] = False
    gt_ig = np.zeros((A, U, G), dtype=bool)
    gt_ig[:, gu, gr] = g_out[:, found]
    matched, matched_ig = _greedy(iou_matrix(dt_box, gt_box), n_dt[by_count],
                                  gt_ig, gt_pad, iou_thrs)
    m, mig = matched[:, :, u, rank], matched_ig[:, :, u, rank]
    return m & ~mig, ~m & ~dt_out[:, None]


def evaluate(dets: Corpus, gts: Corpus,
             config: EvalConfig = EvalConfig()) -> EvalReport:
    if dets.vocabulary.names != gts.vocabulary.names:
        raise LayoutPriorError("detection and ground-truth vocabularies differ")
    det_ids, gt_ids = set(dets.ids), set(gts.ids)
    if det_ids != gt_ids:
        missing = sorted(gt_ids - det_ids)
        extra = sorted(det_ids - gt_ids)
        raise LayoutPriorError(
            f"layout id sets differ; missing from detections: {missing}, "
            f"unknown in detections: {extra}"
        )

    C, I = gts.vocabulary.size, len(dets.ids)
    iou_thrs = config.iou_thresholds
    T, R = len(iou_thrs), len(config.recall_points)
    A, M = len(config.area_ranges), len(config.max_dets)
    # precision[t, r, class, area, maxdet] and recall[t, class, area, maxdet];
    # sentinel where a slice has no ground truth.
    precision = np.full((T, R, C, A, M), SENTINEL)
    recall = np.full((T, C, A, M), SENTINEL)

    # A unit is one (class, image), keyed class * I + image. Each unit's
    # detections are sorted by descending score (ties keep input order)
    # and truncated to the largest cap: matching is greedy in that order,
    # so every smaller cap is a prefix.
    img, cls, score, boxes = dets.index, dets.class_id, dets.score, dets.boxes
    key = cls * I + img
    order = np.lexsort((-score, key))
    rank = _rank(key[order])
    keep = rank < max(config.max_dets)
    order, rank = order[keep], rank[keep]
    key, score, boxes = key[order], score[order], boxes[order]
    dt_out = _outside(box_areas(boxes), config)

    # A ground truth's image is the position of its layout's id among
    # the detection layouts.
    index = {lid: i for i, lid in enumerate(dets.ids)}
    g_layout, g_cls, g_boxes = gts.index, gts.class_id, gts.boxes
    g_img = np.array([index[lid] for lid in gts.ids],
                     dtype=np.int64)[g_layout]
    g_key = g_cls * I + g_img
    order = np.argsort(g_key, kind="stable")
    g_key, g_boxes = g_key[order], g_boxes[order]
    g_rank = _rank(g_key)
    g_out = _outside(box_areas(g_boxes), config)

    recall_points = np.asarray(config.recall_points, dtype=np.float64)
    caps = np.array(config.max_dets).reshape(-1, 1)
    # Each class's units are one run of keys.
    d_bounds = np.searchsorted(key, np.arange(C + 1) * I)
    g_bounds = np.searchsorted(g_key, np.arange(C + 1) * I)
    for ci in range(C):
        d = slice(*d_bounds[ci:ci + 2])
        g = slice(*g_bounds[ci:ci + 2])
        n_pos = (~g_out[:, g]).sum(axis=1)
        live = np.flatnonzero(n_pos)
        if not live.size:
            continue
        tp, fp = _match_class(key[d], rank[d], boxes[d], dt_out[:, d],
                              g_key[g], g_rank[g], g_boxes[g], g_out[:, g],
                              iou_thrs)
        # Pool the images' detections in one stable score order (ties in
        # image order, then input order), every cap at once: entries past
        # a cap count as neither a true nor a false positive.
        pooled = np.argsort(-score[d], kind="stable")
        in_cap = (rank[d][pooled] < caps)[:, None, None]
        samples, rec = _sample(tp[live][..., pooled] & in_cap,
                               fp[live][..., pooled] & in_cap,
                               n_pos[live], recall_points)
        precision[:, :, ci, live] = samples.transpose(2, 3, 1, 0)
        recall[:, ci, live] = rec.transpose(2, 1, 0)

    # Each summary field's slice, classes on the last axis; a field whose
    # area range, cap or threshold the config lacks stays at the sentinel.
    area_names = [name for name, _, _ in config.area_ranges]
    thrs = list(iou_thrs)
    slices = []
    for name, is_ap, area, cap, thr in _SUMMARY:
        if (area in area_names and cap in config.max_dets
                and (thr is None or thr in thrs)):
            v = (precision if is_ap else recall)[
                ..., area_names.index(area), config.max_dets.index(cap)]
            if thr is not None:
                v = v[thrs.index(thr):thrs.index(thr) + 1]
            slices.append((name, v))

    def block(classes):
        out = dict.fromkeys(EvalReport.FIELDS, SENTINEL)
        for name, v in slices:
            v = v[..., classes]
            valid = v[v > SENTINEL]
            if valid.size:
                out[name] = float(valid.mean())
        return out

    per_class = {gts.vocabulary.names[ci]: block(slice(ci, ci + 1))
                 for ci in range(C)}
    return EvalReport(per_class=per_class, **block(slice(None)))


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), indent=1, sort_keys=True)
