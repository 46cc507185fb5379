"""Synthetic layout corpora from planted per-band compatibility graphs.

The generator plants a known co-occurrence structure so the prior
builder can be verified against ground truth: within each band, the
first class is drawn from the band marginal and each subsequent class
proportionally to its planted edge weights against the classes already
placed. All randomness comes from numpy's PCG64 generator, which is a
published, portable algorithm; results are reproducible across
platforms for a fixed seed.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .core import (BBox, ClassVocabulary, Component, LayoutDocument, ParseError,
                   read_json)
from .ingest import Corpus
from .prior import BandConfig, CoOccurrenceGraphSet, make_bands


def _pair(values, kind, name: str) -> tuple:
    """The two entries of a (lo, hi) or (width, height) field, each an
    instance of `kind` (booleans excluded)."""
    if not (isinstance(values, (tuple, list)) and len(values) == 2
            and all(isinstance(v, kind) and not isinstance(v, bool)
                    for v in values)):
        raise ParseError(f"{name} must be two {kind.__name__} numbers, "
                         f"got {values!r}")
    return tuple(values)


@dataclass(frozen=True)
class GeneratorSpec:
    vocabulary: ClassVocabulary
    planted_graphs: tuple            # per band, C x C symmetric, unit diagonal
    class_marginals: tuple           # per band, distribution over C classes
    boxes_per_band: tuple = (2, 5)   # inclusive integer range
    canvas: tuple = (360.0, 640.0)   # (width, height)
    box_size_frac: tuple = (0.05, 0.25)  # box side as fraction of canvas side
    noise: float = 0.0               # label-flip probability
    seed: int = 0

    def __post_init__(self):
        graphs = tuple(np.asarray(g, dtype=np.float64)
                       for g in self.planted_graphs)
        marginals = tuple(np.asarray(m, dtype=np.float64)
                          for m in self.class_marginals)
        object.__setattr__(self, "planted_graphs", graphs)
        object.__setattr__(self, "class_marginals", marginals)
        C = self.vocabulary.size
        if len(marginals) != len(graphs):
            raise ParseError("one class marginal required per band")
        for g in graphs:
            if g.shape != (C, C):
                raise ParseError(f"planted graph shape {g.shape} != ({C},{C})")
            # Written so that NaN fails: `_draw` does not check its weights.
            if not np.all((g >= 0) & (g <= 1)):
                raise ParseError("planted edge weights must lie in [0,1]")
        for m in marginals:
            if (m.shape != (C,) or not np.all(m >= 0)
                    or abs(m.sum() - 1.0) > 1e-9):
                raise ParseError("band marginals must be non-negative and "
                                 "sum to 1")
        if not (0.0 <= self.noise < 1.0):
            raise ParseError("noise must lie in [0, 1)")
        lo, hi = _pair(self.boxes_per_band, numbers.Integral, "boxes_per_band")
        # rng.integers draws below hi + 1, which must fit in an int64.
        if not 0 <= lo <= hi < 2 ** 63:
            raise ParseError("boxes_per_band must satisfy 0 <= lo <= hi")
        lo, hi = _pair(self.box_size_frac, numbers.Real, "box_size_frac")
        if not 0.0 <= lo <= hi <= 1.0:
            raise ParseError("box_size_frac must satisfy 0 <= lo <= hi <= 1")
        # An integer beyond the float range compares below inf.
        if not all(0.0 < v <= sys.float_info.max
                   for v in _pair(self.canvas, numbers.Real, "canvas")):
            raise ParseError("canvas sides must be positive and finite")
        if not (isinstance(self.seed, numbers.Integral)
                and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ParseError("seed must be a non-negative integer")

    @property
    def n_bands(self) -> int:
        return len(self.planted_graphs)

    def band_config(self) -> BandConfig:
        return BandConfig(self.n_bands)


def _draw(rng, p) -> int:
    """The draw `rng.choice(len(p), p=p)` makes, without its checks."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sample_class(rng, spec: GeneratorSpec, band: int, placed: list) -> int:
    if placed:
        weights = spec.planted_graphs[band][:, placed].sum(axis=1)
        total = weights.sum()
        if total > 0:
            return _draw(rng, weights / total)
    return _draw(rng, spec.class_marginals[band])


def _sample_box(rng, spec: GeneratorSpec, upper: float, lower: float) -> BBox:
    width, height = spec.canvas
    lo, hi = spec.box_size_frac
    cy = rng.uniform(upper * height, lower * height)
    cx = rng.uniform(0.0, width)
    # Half-extents are shrunk so the box stays on canvas with its center
    # fixed, keeping band membership exact.
    hw = min(rng.uniform(lo, hi) * width / 2.0, cx, width - cx)
    hh = min(rng.uniform(lo, hi) * height / 2.0, cy, height - cy)
    return BBox(cx - hw, cy - hh, cx + hw, cy + hh)


def generate(spec: GeneratorSpec, n_layouts: int):
    """Return (clean, noisy) corpora; noisy resamples each label
    uniformly with probability `spec.noise`."""
    bands = make_bands(spec.band_config())
    C = spec.vocabulary.size
    clean_layouts, noisy_layouts = [], []
    for li in range(n_layouts):
        # Per-layout derived seed keeps generation order-independent.
        rng = np.random.Generator(np.random.PCG64([spec.seed, li]))
        clean_comps, noisy_comps = [], []
        for j, (upper, lower) in enumerate(bands.bounds):
            k = int(rng.integers(spec.boxes_per_band[0],
                                 spec.boxes_per_band[1] + 1))
            placed = []
            for _ in range(k):
                cls = _sample_class(rng, spec, j, placed)
                box = _sample_box(rng, spec, upper, lower)
                placed.append(cls)
                clean_comps.append(Component(box, cls))
                noisy_cls = cls
                if spec.noise > 0 and rng.uniform() < spec.noise:
                    noisy_cls = int(rng.integers(C))
                noisy_comps.append(Component(box, noisy_cls))
        lid = f"synth-{li:05d}"
        w, h = spec.canvas
        clean_layouts.append(LayoutDocument(lid, w, h, tuple(clean_comps)))
        noisy_layouts.append(LayoutDocument(lid, w, h, tuple(noisy_comps)))
    clean = Corpus(spec.vocabulary, tuple(clean_layouts), source="synth:clean")
    noisy = Corpus(spec.vocabulary, tuple(noisy_layouts), source="synth:noisy")
    return clean, noisy


def recovery_score(planted, recovered: CoOccurrenceGraphSet) -> float:
    """Mean per-band cosine similarity of off-diagonal edge weights.

    `planted` may be a GeneratorSpec or a raw sequence of matrices.
    Bands whose off-diagonal vector is zero on either side are skipped;
    the sentinel -1 is returned when every band is skipped.
    """
    if isinstance(planted, GeneratorSpec):
        planted_mats = planted.planted_graphs
    elif isinstance(planted, CoOccurrenceGraphSet):
        planted_mats = planted.edges
    else:
        planted_mats = tuple(np.asarray(g, dtype=np.float64) for g in planted)
    if len(planted_mats) != recovered.n_graphs:
        raise ParseError(
            f"band count mismatch: {len(planted_mats)} planted vs "
            f"{recovered.n_graphs} recovered"
        )
    sims = []
    for P, E in zip(planted_mats, recovered.edges):
        if P.shape != E.shape:
            raise ParseError(f"graph shape mismatch: {P.shape} vs {E.shape}")
        off = ~np.eye(P.shape[0], dtype=bool)
        a, b = P[off], E[off]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            continue
        sims.append(float(a @ b / (na * nb)))
    if not sims:
        return -1.0
    return float(np.mean(sims))


def spec_to_obj(spec: GeneratorSpec) -> dict:
    return {
        "classes": list(spec.vocabulary.names),
        "planted_graphs": [[[float(v) for v in row] for row in g]
                           for g in spec.planted_graphs],
        "class_marginals": [[float(v) for v in m]
                            for m in spec.class_marginals],
        "boxes_per_band": list(spec.boxes_per_band),
        "canvas": list(spec.canvas),
        "box_size_frac": list(spec.box_size_frac),
        "noise": spec.noise,
        "seed": spec.seed,
    }


def spec_from_obj(obj: dict) -> GeneratorSpec:
    try:
        return GeneratorSpec(
            vocabulary=ClassVocabulary(tuple(obj["classes"])),
            planted_graphs=tuple(np.asarray(g, dtype=np.float64)
                                 for g in obj["planted_graphs"]),
            class_marginals=tuple(np.asarray(m, dtype=np.float64)
                                  for m in obj["class_marginals"]),
            boxes_per_band=tuple(obj.get("boxes_per_band", (2, 5))),
            canvas=tuple(obj.get("canvas", (360.0, 640.0))),
            box_size_frac=tuple(obj.get("box_size_frac", (0.05, 0.25))),
            noise=float(obj.get("noise", 0.0)),
            seed=int(obj.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad generator spec: {e}") from None


def load_spec(path) -> GeneratorSpec:
    return read_json(path, spec_from_obj)
