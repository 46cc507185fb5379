"""Band-partitioned co-occurrence graph construction.

A layout is divided into N_b horizontal bands; for each band a C x C
count matrix records how often each pair of classes appears together in
that band across the corpus. Counts are row-column normalized
(e_mn / sqrt(rowsum * colsum)) and the diagonal is forced to 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (ClassVocabulary, LayoutDocument, ParseError,
                   matrix_from_json, matrix_to_json, read_json)
from .ingest import Corpus

GRAPH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BandConfig:
    n_bands: int = 10
    band_width_frac: Optional[float] = None  # default: 1/n_bands (disjoint)

    def __post_init__(self):
        if self.n_bands < 1:
            raise ParseError("n_bands must be >= 1")
        if self.band_width_frac is None:
            object.__setattr__(self, "band_width_frac", 1.0 / self.n_bands)
        if not (0.0 < self.band_width_frac <= 1.0):
            raise ParseError("band_width_frac must be in (0, 1]")


@dataclass(frozen=True)
class BandSet:
    """Band bounds in normalized height units [0, 1]."""

    bounds: tuple  # ((upper_j, lower_j), ...)

    @property
    def n_bands(self) -> int:
        return len(self.bounds)

    @property
    def centroids(self) -> np.ndarray:
        return np.array([(u + l) / 2.0 for u, l in self.bounds])


def make_bands(config: BandConfig) -> BandSet:
    n, w = config.n_bands, config.band_width_frac
    bounds = []
    for j in range(n):
        upper = j / n
        lower = min(upper + w, 1.0)
        bounds.append((upper, lower))
    return BandSet(tuple(bounds))


@dataclass(frozen=True)
class CoOccurrenceGraphSet:
    vocabulary: ClassVocabulary
    band_config: BandConfig
    edges: tuple  # N_g matrices, each C x C
    raw_counts: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(np.asarray(e, dtype=np.float64)
                                                for e in self.edges))
        if self.raw_counts is not None:
            object.__setattr__(self, "raw_counts",
                               tuple(np.asarray(r) for r in self.raw_counts))
        C, n = self.vocabulary.size, self.band_config.n_bands
        if len(self.edges) != n:
            raise ParseError(f"{len(self.edges)} edge matrices for {n} bands")
        if self.raw_counts is not None and len(self.raw_counts) != n:
            raise ParseError(f"{len(self.raw_counts)} raw count matrices "
                             f"for {n} bands")
        for e in self.edges + (self.raw_counts or ()):
            if e.shape != (C, C):
                raise ParseError(f"graph matrix shape {e.shape} != ({C},{C})")

    @property
    def n_graphs(self) -> int:
        return len(self.edges)

    def bands(self) -> BandSet:
        return make_bands(self.band_config)


def _member(t: np.ndarray, config: BandConfig) -> np.ndarray:
    """Boxes x bands flags of the rule in band_membership, for an array
    of box centres t as fractions of the canvas height."""
    upper, lower = np.array(make_bands(config).bounds).T
    t = t[:, None]
    return (t >= upper) & ((t < lower) | ((t == 1.0) & (lower == 1.0)))


def band_membership(layout: LayoutDocument, config: BandConfig) -> np.ndarray:
    """0/1 membership matrix, boxes x bands.

    A box belongs to band j when upper_j <= center_y/H < lower_j
    (half-open); a center exactly at the bottom edge belongs to every
    band whose lower bound is 1.
    """
    t = np.array([(c.bbox.y1 + c.bbox.y2) / 2.0 for c in layout.components])
    return _member(t / layout.height, config).astype(np.int64)


def accumulate(corpus: Corpus, config: BandConfig) -> list:
    """Raw per-band co-occurrence counts over the corpus.

    Bands holding fewer than two boxes in a layout are skipped for that
    layout; within a surviving band, every box increments the edge
    between its own class and the class of each box in the band
    (including itself): H^T H over the surviving layouts' class
    histograms H (layouts x classes).
    """
    C, L = corpus.vocabulary.size, len(corpus.layouts)
    layout, cls, _, boxes = corpus.columns
    heights = np.array([lay.height for lay in corpus.layouts])
    member = _member((boxes[:, 1] + boxes[:, 3]) / 2.0 / heights[layout],
                     config)
    counts = []
    for j in range(config.n_bands):
        m = member[:, j]
        hist = np.bincount(layout[m] * C + cls[m],
                           minlength=L * C).reshape(L, C)
        hist[hist.sum(axis=1) < 2] = 0
        counts.append((hist.T @ hist).astype(np.int64))
    return counts


def normalize(raw, vocabulary: ClassVocabulary, config: BandConfig,
              keep_raw: bool = False) -> CoOccurrenceGraphSet:
    """Row-column normalize counts and force unit diagonals."""
    edges = []
    for E in raw:
        E = np.asarray(E, dtype=np.float64)
        row = E.sum(axis=1)
        col = E.sum(axis=0)
        denom = np.sqrt(np.outer(row, col))
        with np.errstate(divide="ignore", invalid="ignore"):
            norm = np.where(denom > 0, E / np.where(denom > 0, denom, 1.0), 0.0)
        np.fill_diagonal(norm, 1.0)
        edges.append(norm)
    return CoOccurrenceGraphSet(vocabulary, config, tuple(edges),
                                raw_counts=tuple(raw) if keep_raw else None)


def build_prior(corpus: Corpus, config: BandConfig,
                keep_raw: bool = False) -> CoOccurrenceGraphSet:
    raw = accumulate(corpus, config)
    return normalize(raw, corpus.vocabulary, config, keep_raw=keep_raw)


def graphs_to_obj(graphs: CoOccurrenceGraphSet) -> dict:
    obj = {
        "version": GRAPH_SCHEMA_VERSION,
        "classes": list(graphs.vocabulary.names),
        "n_bands": graphs.band_config.n_bands,
        "band_width_frac": graphs.band_config.band_width_frac,
        "edges": [matrix_to_json(e) for e in graphs.edges],
    }
    if graphs.raw_counts is not None:
        obj["raw_counts"] = [matrix_to_json(r.astype(np.float64))
                             for r in graphs.raw_counts]
    return obj


def graphs_from_obj(obj: dict) -> CoOccurrenceGraphSet:
    try:
        version = obj["version"]
    except (KeyError, TypeError):
        raise ParseError("graph file missing 'version'") from None
    if version != GRAPH_SCHEMA_VERSION:
        raise ParseError(
            f"graph file version {version} != supported {GRAPH_SCHEMA_VERSION}"
        )
    vocab = ClassVocabulary(tuple(obj["classes"]))
    config = BandConfig(int(obj["n_bands"]), float(obj["band_width_frac"]))
    edges = tuple(matrix_from_json(e) for e in obj["edges"])
    raw = obj.get("raw_counts")
    if raw is not None:
        raw = tuple(matrix_from_json(r).astype(np.int64) for r in raw)
    return CoOccurrenceGraphSet(vocab, config, edges, raw_counts=raw)


def save_graphs(graphs: CoOccurrenceGraphSet, path) -> None:
    with open(path, "w") as f:
        json.dump(graphs_to_obj(graphs), f, indent=1, sort_keys=True)
        f.write("\n")


def load_graphs(path) -> CoOccurrenceGraphSet:
    return read_json(path, graphs_from_obj)


def graphs_to_dot(graphs: CoOccurrenceGraphSet, threshold: float = 0.0) -> str:
    """Graphviz DOT rendering, one subgraph per band, edges above threshold."""
    names = graphs.vocabulary.names
    lines = ["graph cooccurrence {"]
    for j, E in enumerate(graphs.edges):
        lines.append(f'  subgraph cluster_band{j} {{')
        lines.append(f'    label="band {j}";')
        for m, name in enumerate(names):
            label = name.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'    b{j}_c{m} [label="{label}"];')
        C = len(names)
        for m in range(C):
            for n in range(m + 1, C):
                w = E[m, n]
                if w > threshold:
                    lines.append(f'    b{j}_c{m} -- b{j}_c{n} [weight={w:.4f}, '
                                 f'label="{w:.2f}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
