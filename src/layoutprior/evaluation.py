"""COCO-style detection evaluation, implemented from scratch.

Produces the standard 12-metric block: AP averaged over IoU thresholds
0.50:0.95, AP50, AP75, AP by object scale, and AR at detection caps
1/10/100 plus AR by scale. Precision is 101-point interpolated;
matching is greedy in descending score order. The parameters are COCO's
and fixed. Crowd/ignore annotations are not supported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .core import LayoutPriorError, box_areas, iou_matrix
from .ingest import Corpus

SENTINEL = -1.0

IOU_THRESHOLDS = tuple(np.round(np.arange(0.5, 1.0, 0.05), 2))
RECALL_POINTS = tuple(np.round(np.linspace(0.0, 1.0, 101), 2))
AREA_RANGES = (
    ("all", 0.0, float("inf")),
    ("small", 0.0, 32.0 ** 2),
    ("medium", 32.0 ** 2, 96.0 ** 2),
    ("large", 96.0 ** 2, float("inf")),
)
MAX_DETS = (1, 10, 100)

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

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in self.FIELDS}
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


def _at_true_positives(tp_flags: np.ndarray,
                       fp_flags: np.ndarray) -> np.ndarray:
    """The precision envelope of rows of score-ordered, exclusive true-
    and false-positive flags (..., N), read at entry 0 and then at each
    true positive in turn: (..., N + 2), 0 past a row's last one.

    Entries that are neither a true nor a false positive (ignored ones,
    and padding) repeat the previous precision, which leaves the
    envelope unchanged.
    """
    N = tp_flags.shape[-1]
    pr = np.cumsum(tp_flags | fp_flags, axis=-1, dtype=np.float64)
    np.divide(np.cumsum(tp_flags, axis=-1), np.maximum(pr, 1.0, out=pr),
              out=pr)
    # Monotone-decreasing envelope from the right.
    np.maximum.accumulate(pr[..., ::-1], axis=-1, out=pr[..., ::-1])
    table = np.zeros(tp_flags.shape[:-1] + (N + 2,))
    if N:
        table[..., 0] = pr[..., 0]
    hit = np.flatnonzero(tp_flags)
    row = hit // max(N, 1)
    table.reshape(-1, N + 2)[row, _rank(row) + 1] = pr.ravel()[hit]
    return table


def _sample(tp_flags: np.ndarray, fp_flags: np.ndarray, n_pos: np.ndarray,
            recall_points: np.ndarray) -> np.ndarray:
    """Interpolated precision samples (L, T, R) of rows of score-ordered,
    exclusive true- and false-positive flags (L, T, N), with one positive
    count per leading row.

    The first entry with tp / n >= p is the first with tp >= k_p, the
    least k with k / n >= p (N + 2 when none up to N + 1 has it): entry 0
    for k = 0, else the row's k-th true positive. Recall levels beyond
    the last operating point sample precision 0.
    """
    L, T, N = tp_flags.shape
    n, row = np.unique(n_pos, return_inverse=True)
    k = np.array([np.searchsorted(np.arange(N + 2) / v, recall_points)
                  for v in n.tolist()],
                 dtype=np.intp).reshape(len(n), 1, len(recall_points))[row]
    return np.take_along_axis(_at_true_positives(tp_flags, fp_flags),
                              np.minimum(k, N + 1), axis=-1)


def precision_recall(flags, n_gt: int,
                     recall_points=RECALL_POINTS) -> Tuple[np.ndarray, float]:
    """101-point interpolated precision samples and their mean (AP).

    Flags must be in descending-score order. Returns (samples, ap);
    ap is the sentinel when n_gt == 0.
    """
    if n_gt == 0:
        return np.zeros(len(recall_points)), SENTINEL
    flags = np.asarray(flags, dtype=bool).reshape(1, 1, -1)
    samples = _sample(flags, ~flags, np.array([n_gt]),
                      np.asarray(recall_points, dtype=np.float64))[0, 0]
    return samples, float(samples.mean())


def _rank(keys: np.ndarray) -> np.ndarray:
    """Position of each entry within its run of equal sorted keys."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys)


def _outside(areas: np.ndarray) -> np.ndarray:
    """A x N flags: whether each area lies outside each area range."""
    lo, hi = (np.array([r[i] for r in AREA_RANGES]).reshape(-1, 1)
              for i in (1, 2))
    return (areas < lo) | (areas >= hi)


def _match(key, rank, boxes, dt_out, g_key, g_rank, g_boxes, g_out,
           iou_thrs) -> Tuple[np.ndarray, np.ndarray]:
    """Match every unit's detections, sorted by unit key and then rank,
    to its ground truths, sorted by unit key and then input order.

    dt_out (A x K) and g_out (A x G) flag boxes outside each area range.
    Greedy in rank order, each detection claims the untaken ground truth
    of highest IoU (the later one in input order on ties) that reaches
    the threshold, preferring ground truths inside the area range; one
    sweep over the candidate pairs does every area range and threshold
    at once. Returns (tp, fp), both A x T x K: whether each detection is
    a true or a false positive. An ignored detection is neither: its
    match is an ignored ground truth or, unmatched, it lies outside the
    range.
    """
    A, T, K = len(g_out), len(iou_thrs), len(key)
    thr = np.minimum(np.asarray(iou_thrs, dtype=np.float64),
                     1.0 - 1e-10).reshape(-1, 1)
    # Every (detection, ground truth) pair of a unit that reaches some
    # threshold, by detection rank, then detection, then preference.
    lo = np.searchsorted(g_key, key)
    n = np.searchsorted(g_key, key, side="right") - lo
    det = np.repeat(np.arange(K), n)
    gt = np.arange(len(det)) + np.repeat(lo - np.cumsum(n) + n, n)
    iou = iou_matrix(boxes[det, None], g_boxes[gt, None])[:, 0, 0]
    keep = (iou >= thr).any(axis=0)
    det, gt, iou = det[keep], gt[keep], iou[keep]
    order = np.lexsort((-g_rank[gt], -iou, det, rank[det]))
    det, gt, iou = det[order], gt[order], iou[order]
    # Where each detection's pairs start; each step is one rank, where a
    # unit has at most one detection, so a step's ground truths are
    # distinct.
    starts = np.append(np.flatnonzero(np.diff(det, prepend=-1)), len(det))
    steps = np.append(np.flatnonzero(np.diff(rank[det[starts[:-1]]],
                                             prepend=-1)), len(starts) - 1)
    taken = np.zeros((A, T, len(g_key)), dtype=bool)
    tp = np.zeros((A, T, K), dtype=bool)
    matched = np.zeros_like(tp)
    for s0, s1 in zip(steps[:-1], steps[1:]):
        p0, p1 = starts[s0], starts[s1]
        g, pos = gt[p0:p1], np.arange(p0, p1)
        cand = ~taken[:, :, g] & (iou[p0:p1] >= thr)
        # Each detection's first candidate pair, in-range ones first (p1
        # where it has none); a match in range is a true positive.
        inside, first = (np.minimum.reduceat(np.where(c, pos, p1),
                                             starts[s0:s1] - p0, axis=-1)
                         for c in (cand & ~g_out[:, None, g], cand))
        first = np.where(inside < p1, inside, first)
        taken[:, :, g] |= pos == np.repeat(first, np.diff(starts[s0:s1 + 1]),
                                           axis=-1)
        d = det[starts[s0:s1]]
        tp[:, :, d] = inside < p1
        matched[:, :, d] = first < p1
    return tp, ~matched & ~dt_out[:, None]


def _some(ids: set, shown: int = 5) -> str:
    """The list of the first `shown` of `ids` in sorted order, and how
    many more there are."""
    more = f" and {len(ids) - shown} more" if len(ids) > shown else ""
    return f"{sorted(ids)[:shown]}{more}"


def evaluate(dets: Corpus, gts: Corpus) -> EvalReport:
    if dets.vocabulary.names != gts.vocabulary.names:
        raise LayoutPriorError("detection and ground-truth vocabularies differ")
    det_ids, gt_ids = set(dets.ids), set(gts.ids)
    if det_ids != gt_ids:
        raise LayoutPriorError(
            "layout id sets differ; missing from detections: "
            f"{_some(gt_ids - det_ids)}, unknown in detections: "
            f"{_some(det_ids - gt_ids)}")

    C, I, A = gts.vocabulary.size, len(dets.ids), len(AREA_RANGES)

    # A unit is one (class, image), keyed class * I + image. Each unit's
    # detections are sorted by descending score (ties keep input order)
    # and truncated to the largest cap: matching is greedy in that order,
    # so every smaller cap is a prefix.
    img, cls, score, boxes = dets.index, dets.class_id, dets.score, dets.boxes
    key = cls * I + img
    order = np.lexsort((-score, key))
    rank = _rank(key[order])
    keep = rank < max(MAX_DETS)
    order, rank = order[keep], rank[keep]
    key, cls, score, boxes = key[order], cls[order], score[order], boxes[order]
    dt_out = _outside(box_areas(boxes))

    # A ground truth's image is the position of its layout's id among
    # the detection layouts.
    index = {lid: i for i, lid in enumerate(dets.ids)}
    g_layout, g_cls, g_boxes = gts.index, gts.class_id, gts.boxes
    g_img = np.array([index[lid] for lid in gts.ids],
                     dtype=np.int64)[g_layout]
    g_key = g_cls * I + g_img
    order = np.argsort(g_key, kind="stable")
    g_key, g_cls, g_boxes = g_key[order], g_cls[order], g_boxes[order]
    g_rank = _rank(g_key)
    g_out = _outside(box_areas(g_boxes))
    # Positives per (area range, class); only slices with some are scored.
    n_pos = np.bincount((np.arange(A)[:, None] * C + g_cls)[~g_out],
                        minlength=A * C).reshape(A, C)
    live_a, live_c = np.nonzero(n_pos)
    n_live = n_pos[live_a, live_c]

    tp, fp = _match(key, rank, boxes, dt_out, g_key, g_rank, g_boxes, g_out,
                    IOU_THRESHOLDS)
    # Pool each class's detections in one stable score order (ties in
    # image order, then input order), padded to the longest class:
    # padding is neither a true nor a false positive.
    pooled = np.lexsort((-score, cls))
    p_cls = cls[pooled]
    slot = _rank(p_cls)
    width = int(slot.max(initial=-1)) + 1

    def pad(v):
        out = np.zeros(v.shape[:-1] + (C, width), dtype=v.dtype)
        out[..., p_cls, slot] = v[..., pooled]
        return out

    tp, fp, rank = pad(tp), pad(fp), pad(rank)
    # Each live (area range, class) row's recall at each cap, L x T: its
    # in-cap true positives over its positives (entries past a cap count
    # as neither a true nor a false positive) ...
    recall = {cap: (tp & (rank < cap)).sum(axis=-1)[live_a, :, live_c]
              / n_live[:, None] for cap in MAX_DETS}
    # ... and its precision samples, L x T x R, at the largest cap, which
    # every detection kept is within.
    precision = _sample(tp[live_a, :, live_c], fp[live_a, :, live_c],
                        n_live, np.asarray(RECALL_POINTS, dtype=np.float64))

    # Each summary field averages the cells of its area range's live rows
    # at its cap, over every threshold or just one; a field with no live
    # row stays at the sentinel.
    area_names = [name for name, _, _ in AREA_RANGES]
    overall = dict.fromkeys(EvalReport.FIELDS, SENTINEL)
    by_class = np.full((C, len(_SUMMARY)), SENTINEL)
    for f, (name, is_ap, area, cap, thr) in enumerate(_SUMMARY):
        rows = live_a == area_names.index(area)
        v = precision[rows] if is_ap else recall[cap][rows]
        if thr is not None:
            t = IOU_THRESHOLDS.index(thr)
            v = v[:, t:t + 1]
        if v.size:
            # The overall mean reads the cells in (threshold, recall
            # point, class) order, and each class's mean its own
            # contiguous row: the cells, order and pairwise sums of a 1-D
            # mean over the non-sentinel cells of a full (threshold,
            # recall point, class) array.
            overall[name] = float(np.moveaxis(v, 0, -1).ravel().mean())
            by_class[live_c[rows], f] = np.ascontiguousarray(v).reshape(
                len(v), -1).mean(axis=1)

    per_class = {name: dict(zip(EvalReport.FIELDS, row)) for name, row
                 in zip(gts.vocabulary.names, by_class.tolist())}
    return EvalReport(per_class=per_class, **overall)


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), indent=1, sort_keys=True)
