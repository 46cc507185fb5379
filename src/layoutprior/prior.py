"""Band-partitioned co-occurrence graph construction.

A layout is divided into N_b horizontal bands; for each band a C x C
count matrix records how often each pair of classes appears together in
that band across the corpus. Counts are row-column normalized
(e_mn / sqrt(rowsum * colsum)) and the diagonal is forced to 1.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .core import (ClassVocabulary, ParseError, centres, fields_equal,
                   json_int, json_number, matrix_from_json, matrix_to_json,
                   read_json, read_only, write_text)
from .ingest import Corpus

GRAPH_SCHEMA_VERSION = 1

# The most (upper, lower) float64 rows a numpy array can address.
_MAX_BANDS = np.iinfo(np.intp).max // 16


@dataclass(frozen=True)
class BandConfig:
    n_bands: int = 10
    band_width_frac: Optional[float] = None  # default: 1/n_bands (disjoint)

    def __post_init__(self):
        # Stored as int and float, so that a graph file rewrites the same.
        n, width = self.n_bands, self.band_width_frac
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ParseError(f"n_bands must be an integer, got {n!r}")
        if n < 1:
            raise ParseError("n_bands must be >= 1")
        if n > _MAX_BANDS:  # numpy would fail or, near 2**63, give no rows
            raise ParseError(f"n_bands must be at most {_MAX_BANDS}, the "
                             "most band bounds an array can hold")
        if width is None:
            width = 1.0 / n
        elif not isinstance(width, numbers.Real) or isinstance(width, bool):
            raise ParseError(f"band_width_frac must be a real number, "
                             f"got {width!r}")
        object.__setattr__(self, "n_bands", int(n))
        object.__setattr__(self, "band_width_frac", float(width))
        if not (0.0 < self.band_width_frac <= 1.0):
            raise ParseError("band_width_frac must be in (0, 1]")

    @cached_property
    def bounds(self) -> np.ndarray:
        """Read-only N_b x 2 (upper, lower) bounds as fractions of the
        height; built on first use, so a graph file may name any count."""
        upper = np.arange(self.n_bands) / self.n_bands
        lower = np.minimum(upper + self.band_width_frac, 1.0)
        return read_only(np.stack([upper, lower], axis=1))

    @cached_property
    def centroids(self) -> np.ndarray:
        """Read-only band centres, (upper + lower) / 2."""
        return read_only((self.bounds[:, 0] + self.bounds[:, 1]) / 2.0)


def _stack(mats, n: int, C: int, what: str) -> np.ndarray:
    """One n x C x C array of the matrices in `mats`."""
    mats = [np.asarray(m) for m in mats]
    if len(mats) != n:
        raise ParseError(f"{len(mats)} {what} for {n} bands")
    bad = [m.shape for m in mats if m.shape != (C, C)]
    if bad:
        raise ParseError(f"graph matrix shape {bad[0]} != ({C},{C})")
    return np.stack(mats)


@dataclass(frozen=True, eq=False)
class CoOccurrenceGraphSet:
    vocabulary: ClassVocabulary
    band_config: BandConfig
    edges: np.ndarray  # N_g x C x C float64, read-only
    raw_counts: Optional[np.ndarray] = None  # N_g x C x C int64, read-only

    __eq__ = fields_equal  # and no hash, as the arrays have none

    def __post_init__(self):
        C, n = self.vocabulary.size, self.band_config.n_bands
        edges = np.asarray(_stack(self.edges, n, C, "edge matrices"), float)
        if not np.all(np.isfinite(edges) & (edges >= 0.0)):
            raise ParseError("graph edges must be finite and non-negative")
        object.__setattr__(self, "edges", read_only(edges))
        if self.raw_counts is not None:
            raw = _stack(self.raw_counts, n, C, "raw count matrices")
            # Checked before the cast, which would wrap or truncate. A float
            # rounds 2**63 - 1 up to 2**63, so floats take the strict bound.
            below = raw < 2**63 if raw.dtype.kind == "f" else raw <= 2**63 - 1
            if not np.all((raw >= 0) & below & (np.floor(raw) == raw)):
                raise ParseError("raw counts must be integers in [0, 2**63)")
            object.__setattr__(self, "raw_counts",
                               read_only(raw.astype(np.int64)))

    @property
    def n_graphs(self) -> int:
        return len(self.edges)

    def bands(self) -> BandConfig:
        """`band_config`, for callers outside the library."""
        return self.band_config


def band_membership(t: np.ndarray, config: BandConfig) -> np.ndarray:
    """Boxes x bands membership flags for an array `t` of box centres as
    fractions of the canvas height, center_y / H.

    A box belongs to band j when upper_j <= t < lower_j (half-open); a
    center exactly at the bottom edge belongs to every band whose lower
    bound is 1.
    """
    upper, lower = config.bounds.T
    t = t[:, None]
    return (t >= upper) & ((t < lower) | ((t == 1.0) & (lower == 1.0)))


def accumulate(corpus: Corpus, config: BandConfig) -> np.ndarray:
    """Raw per-band co-occurrence counts over the corpus, N_b x C x C.

    Bands holding fewer than two boxes in a layout are skipped for that
    layout; within a surviving band, every box increments the edge
    between its own class and the class of each box in the band
    (including itself): H^T H over the surviving layouts' class
    histograms H (layouts x classes).
    """
    C, L = corpus.vocabulary.size, len(corpus.ids)
    layout, cls, boxes = corpus.index, corpus.class_id, corpus.boxes
    member = band_membership(centres(boxes, corpus.heights[layout]), config)
    # Band by band: an N_b x L x C histogram would raise the peak memory.
    counts = np.empty((config.n_bands, C, C), dtype=np.int64)
    for j in range(config.n_bands):
        m = member[:, j]
        counts[j] = _band_counts(np.bincount(
            layout[m] * C + cls[m], minlength=L * C).reshape(L, C))
    return counts


def _band_counts(hist: np.ndarray) -> np.ndarray:
    """H^T H, as int64, over the rows of the int64 class histogram `hist`
    (layouts x classes) that hold at least two boxes."""
    rows = hist.sum(axis=1)
    kept = rows >= 2
    # Each entry's partial sums are integers at most sum(rows**2), exact in
    # float64 in any order below 2**53; 2**52 covers that sum's own rounding.
    exact = np.square(rows[kept], dtype=np.float64).sum() <= 2**52
    h = hist[kept].astype(np.float64 if exact else np.int64)
    return (h.T @ h).astype(np.int64)


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


def _counts_from_json(obj) -> np.ndarray:
    """Raw counts from MTX-JSON as Python numbers, each int exact."""
    m = matrix_from_json(obj)
    return np.array([v if type(v) is int else x for v, x in zip(
        obj["data"], m.ravel().tolist())], dtype=object).reshape(m.shape)


def graphs_from_obj(obj: dict) -> CoOccurrenceGraphSet:
    try:
        version = obj["version"]
    except (KeyError, TypeError):
        raise ParseError("graph file missing 'version'") from None
    if version != GRAPH_SCHEMA_VERSION:
        raise ParseError(
            f"graph file version {version} != supported {GRAPH_SCHEMA_VERSION}"
        )
    vocab = ClassVocabulary(obj["classes"])
    config = BandConfig(
        json_int(obj["n_bands"], "n_bands"),
        json_number(obj["band_width_frac"], "band_width_frac"))
    edges = [matrix_from_json(e) for e in obj["edges"]]
    raw = obj.get("raw_counts")
    if raw is not None:
        raw = [_counts_from_json(r) for r in raw]
    return CoOccurrenceGraphSet(vocab, config, edges, raw_counts=raw)


# The graph writer writes what json.dumps(graphs_to_obj(g), indent=1,
# sort_keys=True) writes, from templates: the keys in sorted order, each
# part at its depth, an MTX-JSON number as the repr of the float or int
# that matrix_to_json gives, and a scalar or class name as json writes it.
_MATRIX = ('  {\n   "cols": %d,\n   "data": [\n    %s\n   ],\n'
           '   "rows": %d\n  }')


def _matrices_text(stack: np.ndarray) -> str:
    """The JSON list of the MTX-JSON objects of the matrices in `stack`."""
    return "[\n" + ",\n".join([_MATRIX % (
        m.shape[1], ",\n    ".join(map(repr, matrix_to_json(m)["data"])),
        m.shape[0]) for m in stack]) + "\n ]"


def save_graphs(graphs: CoOccurrenceGraphSet, path) -> None:
    """Write `graphs` as json.dumps(graphs_to_obj(graphs), indent=1,
    sort_keys=True) and a newline would."""
    names = ",\n  ".join(map(encode_basestring_ascii, graphs.vocabulary.names))
    parts = ['{\n "band_width_frac": ',
             json.dumps(graphs.band_config.band_width_frac),
             ',\n "classes": [\n  ', names, '\n ],\n "edges": ',
             _matrices_text(graphs.edges), ',\n "n_bands": ',
             json.dumps(graphs.band_config.n_bands)]
    if graphs.raw_counts is not None:
        parts += [',\n "raw_counts": ', _matrices_text(graphs.raw_counts)]
    parts.append(f',\n "version": {GRAPH_SCHEMA_VERSION}\n}}\n')
    write_text(path, parts)


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
