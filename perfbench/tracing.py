"""Spans and counts for the traced run, recorded from outside the library.

`instrument(tracer)` replaces each public layer function named in
LAYERS by a wrapper that opens a span around the call, in every
layoutprior module that holds a reference to it (so `cli.load_native`
and `prior.accumulate` as looked up inside `build_prior` are both
covered), and puts the originals back on exit. Nothing under src/ is
changed. Counts are computed by the wrappers from each call's inputs,
inside a span of their own named "trace" so that their cost shows as
tracing overhead rather than as time of the calling layer.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory spans (name, start, end, parent) and per-root counts."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)   # (root name, count name) -> total

    def begin(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, n) -> None:
        root = self.spans[self.stack[0]][0] if self.stack else "none"
        self.counts[(root, name)] += int(n)

    def self_times(self) -> dict:
        """(root name, span name) -> summed self time: each span's
        duration minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[(self.spans[root[i]][0], name)] += (end - start) - child[i]
        return out

    def write(self, path: str, meta: dict) -> None:
        obj = dict(meta)
        obj["spans"] = [[n, s - self.t0, e - self.t0, p]
                        for n, s, e, p in self.spans]
        obj["counts"] = [[r, n, v] for (r, n), v in sorted(self.counts.items())]
        with open(path, "w") as f:
            json.dump(obj, f)


# ------------------------------------------------------------ counters

def _bytes_written(tr, args, kwargs, result):
    tr.count("ingest.bytes_written", os.path.getsize(kwargs.get("path", args[-1])))


def _bytes_read(tr, args, kwargs, result):
    tr.count("ingest.bytes_read", os.path.getsize(kwargs.get("path", args[0])))


def _band_layouts(tr, args, kwargs, result):
    corpus, config = args[0], kwargs.get("config", args[1])
    n = config.n_bands
    upper = np.array([j / n for j in range(n)])
    lower = np.minimum(upper + config.band_width_frac, 1.0)
    counted = 0
    for lay in corpus.layouts:
        if not lay.components:
            continue
        t = np.array([(c.bbox.y1 + c.bbox.y2) / 2.0
                      for c in lay.components])[:, None] / lay.height
        member = (t >= upper) & ((t < lower) | ((t == 1.0) & (lower == 1.0)))
        counted += int((member.sum(axis=0) > 1).sum())
    tr.count("prior.band_layouts_counted", counted)
    tr.count("prior.band_layouts_skipped", len(corpus.layouts) * n - counted)


def _conditioning_flops(tr, args, kwargs, result):
    S, alpha, graphs, nodes, embed = args[:5]
    N, C = np.shape(S)
    K, D = np.shape(embed)
    G = graphs.n_graphs
    # W Z once, then per band S E_j, (S E_j)(W Z) and the alpha-weighted add.
    tr.count("conditioning.flops",
             2 * C * K * D + G * (2 * N * C * C + 2 * N * C * D + 2 * N * D))


def _detection_band_pairs(tr, args, kwargs, result):
    detections, graphs = args[0], args[1]
    tr.count("rescore.detection_band_pairs",
             len(detections.boxes) * graphs.n_graphs)


def _eval_work(tr, args, kwargs, result):
    """Slices and IoU pairs of the COCO criterion: one unit per (image,
    class, area range, detection cap) holding a detection or a ground
    truth, with min(D, cap) x G IoU pairs in it."""
    dets, gts = args[0], args[1]
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    areas = len(config.area_ranges) if config is not None else 4
    caps = config.max_dets if config is not None else (1, 10, 100)
    groups = defaultdict(lambda: [0, 0])
    for side, corpus in ((0, dets), (1, gts)):
        for lay in corpus.layouts:
            for c in lay.components:
                groups[(lay.id, c.class_id)][side] += 1
    units = pairs = 0
    for D, G in groups.values():
        units += areas * len(caps)
        pairs += areas * sum(min(D, cap) for cap in caps) * G
    tr.count("evaluation.units", units)
    tr.count("evaluation.iou_pairs", pairs)


# (module, function, span name, counter) for each wrapped public function.
LAYERS = (
    ("layoutprior.cli", "main", "cli.main", None),
    ("layoutprior.synth", "generate", "synth.generate", None),
    ("layoutprior.ingest", "save_native", "ingest.save_native", _bytes_written),
    ("layoutprior.ingest", "load_native", "ingest.load_native", _bytes_read),
    ("layoutprior.prior", "accumulate", "prior.accumulate", _band_layouts),
    ("layoutprior.prior", "normalize", "prior.normalize", None),
    ("layoutprior.prior", "save_graphs", "prior.save_graphs", None),
    ("layoutprior.conditioning", "band_association",
     "conditioning.band_association", None),
    ("layoutprior.conditioning", "soft_mapping", "conditioning.soft_mapping", None),
    ("layoutprior.conditioning", "condition_features",
     "conditioning.condition_features", _conditioning_flops),
    ("layoutprior.rescore", "rescore", "rescore.rescore", _detection_band_pairs),
    ("layoutprior.evaluation", "evaluate", "evaluation.evaluate", _eval_work),
)

SPAN_NAMES = tuple(span for _, _, span, _ in LAYERS)


def _wrap(tracer, fn, name, counter):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if counter is not None:
            tracer.begin("trace")
            try:
                counter(tracer, args, kwargs, result)
            finally:
                tracer.end()
        return result
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Route every layoutprior reference to a LAYERS function through a
    span-recording wrapper for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "layoutprior" or name.startswith("layoutprior.")]
    saved = []
    try:
        for modname, attr, span, counter in LAYERS:
            fn = getattr(sys.modules[modname], attr)
            wrapper = _wrap(tracer, fn, span, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)
