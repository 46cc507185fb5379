"""Band-partitioned co-occurrence graph construction.

A layout is divided into N_b horizontal bands; for each band a C x C
count matrix records how often each pair of classes appears together in
that band across the corpus. Counts are row-column normalized
(e_mn / sqrt(rowsum * colsum)) and the diagonal is forced to 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (ClassVocabulary, LayoutDocument, ParseError, json_int,
                   matrix_from_json, matrix_to_json, read_json, write_text)
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

    @cached_property
    def bounds(self) -> np.ndarray:
        """Read-only N_b x 2 (upper, lower) bounds as fractions of the
        height; built on first use, so a graph file may name any count."""
        upper = np.arange(self.n_bands) / self.n_bands
        lower = np.minimum(upper + self.band_width_frac, 1.0)
        return _read_only(np.stack([upper, lower], axis=1))

    @cached_property
    def centroids(self) -> np.ndarray:
        """Read-only band centres, (upper + lower) / 2."""
        return _read_only((self.bounds[:, 0] + self.bounds[:, 1]) / 2.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _stack(mats, n: int, C: int, what: str) -> np.ndarray:
    """One n x C x C array of the matrices in `mats`."""
    mats = [np.asarray(m) for m in mats]
    if len(mats) != n:
        raise ParseError(f"{len(mats)} {what} for {n} bands")
    bad = [m.shape for m in mats if m.shape != (C, C)]
    if bad:
        raise ParseError(f"graph matrix shape {bad[0]} != ({C},{C})")
    return np.stack(mats)


@dataclass(frozen=True)
class CoOccurrenceGraphSet:
    vocabulary: ClassVocabulary
    band_config: BandConfig
    edges: np.ndarray  # N_g x C x C float64, read-only
    raw_counts: Optional[np.ndarray] = None  # N_g x C x C int64, read-only

    def __post_init__(self):
        C, n = self.vocabulary.size, self.band_config.n_bands
        edges = np.asarray(_stack(self.edges, n, C, "edge matrices"), float)
        if not np.all(np.isfinite(edges) & (edges >= 0.0)):
            raise ParseError("graph edges must be finite and non-negative")
        object.__setattr__(self, "edges", _read_only(edges))
        if self.raw_counts is not None:
            raw = _stack(self.raw_counts, n, C, "raw count matrices")
            # Checked before the cast, which would wrap or truncate. A float
            # rounds 2**63 - 1 up to 2**63, so floats take the strict bound.
            below = raw < 2**63 if raw.dtype.kind == "f" else raw <= 2**63 - 1
            if not np.all((raw >= 0) & below & (np.floor(raw) == raw)):
                raise ParseError("raw counts must be integers in [0, 2**63)")
            object.__setattr__(self, "raw_counts",
                               _read_only(raw.astype(np.int64)))

    @property
    def n_graphs(self) -> int:
        return len(self.edges)

    def bands(self) -> BandConfig:
        """`band_config`, for callers outside the library."""
        return self.band_config


def _member(t: np.ndarray, config: BandConfig) -> np.ndarray:
    """Boxes x bands flags of the rule in band_membership, for an array
    of box centres t as fractions of the canvas height."""
    upper, lower = config.bounds.T
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


def accumulate(corpus: Corpus, config: BandConfig) -> np.ndarray:
    """Raw per-band co-occurrence counts over the corpus, N_b x C x C.

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
    # Band by band: an N_b x L x C histogram would raise the peak memory.
    counts = np.empty((config.n_bands, C, C), dtype=np.int64)
    for j in range(config.n_bands):
        m = member[:, j]
        hist = np.bincount(layout[m] * C + cls[m],
                           minlength=L * C).reshape(L, C)
        hist[hist.sum(axis=1) < 2] = 0
        counts[j] = hist.T @ hist
    return counts


def normalize(raw, vocabulary: ClassVocabulary, config: BandConfig,
              keep_raw: bool = False) -> CoOccurrenceGraphSet:
    """Row-column normalize each band's counts, an N_b x C x C stack or a
    sequence of C x C matrices, and force unit diagonals."""
    E = np.asarray(raw, dtype=np.float64)
    # Each band's sums add as its matrix's .sum(axis=1) and .sum(axis=0).
    row, col = E.sum(axis=2), E.sum(axis=1)
    denom = np.sqrt(row[:, :, None] * col[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.where(denom > 0, E / np.where(denom > 0, denom, 1.0), 0.0)
    norm[:, np.eye(norm.shape[-1], dtype=bool)] = 1.0
    return CoOccurrenceGraphSet(vocabulary, config, norm,
                                raw_counts=raw if keep_raw else None)


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
        obj["raw_counts"] = [matrix_to_json(r) for r in graphs.raw_counts]
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
    config = BandConfig(json_int(obj["n_bands"], "n_bands"),
                        float(obj["band_width_frac"]))
    edges = [matrix_from_json(e) for e in obj["edges"]]
    raw = obj.get("raw_counts")
    if raw is not None:
        raw = [matrix_from_json(r) for r in raw]
    return CoOccurrenceGraphSet(vocab, config, edges, raw_counts=raw)


def save_graphs(graphs: CoOccurrenceGraphSet, path) -> None:
    write_text(path, [json.dumps(graphs_to_obj(graphs), indent=1,
                                 sort_keys=True), "\n"])


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
        # Pairs above the diagonal, row by row.
        for m, n in zip(*np.nonzero(np.triu(E > threshold, 1))):
            w = E[m, n]
            lines.append(f'    b{j}_c{m} -- b{j}_c{n} [weight={w:.4f}, '
                         f'label="{w:.2f}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
