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
from .prior import BandConfig, CoOccurrenceGraphSet, _read_only


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
    planted_graphs: np.ndarray       # N_b x C x C, weights in [0, 1]
    class_marginals: np.ndarray      # N_b x C, each row a distribution
    boxes_per_band: tuple = (2, 5)   # inclusive integer range
    canvas: tuple = (360.0, 640.0)   # (width, height)
    box_size_frac: tuple = (0.05, 0.25)  # box side as fraction of canvas side
    noise: float = 0.0               # label-flip probability
    seed: int = 0

    def __post_init__(self):
        for name in ("planted_graphs", "class_marginals"):
            try:  # a copy, so that the caller's array stays writeable
                a = np.array(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as e:  # such as a ragged list
                raise ParseError(f"{name}: {e}") from None
            object.__setattr__(self, name, _read_only(a))
        graphs, marginals = self.planted_graphs, self.class_marginals
        C = self.vocabulary.size
        if marginals.shape[:1] != graphs.shape[:1]:
            raise ParseError("class_marginals needs one row per band")
        if graphs.shape[1:] != (C, C):
            raise ParseError(f"planted_graphs shape {graphs.shape} != "
                             f"(n_bands,{C},{C})")
        # Written so that NaN fails: the class draws do not check weights.
        if not np.all((graphs >= 0) & (graphs <= 1)):
            raise ParseError("planted_graphs edge weights must lie in [0,1]")
        if (marginals.shape[1:] != (C,) or not np.all(marginals >= 0)
                or not np.all(abs(marginals.sum(axis=1) - 1.0) <= 1e-9)):
            raise ParseError("class_marginals rows must be non-negative and "
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
        # numpy scalars become floats, to compare in double precision and
        # to serialize; an integer beyond the float range compares below inf.
        canvas = tuple(v if isinstance(v, int) else float(v)
                       for v in _pair(self.canvas, numbers.Real, "canvas"))
        object.__setattr__(self, "canvas", canvas)
        if not all(0.0 < v <= sys.float_info.max for v in canvas):
            raise ParseError("canvas sides must be positive and finite")
        if not (isinstance(self.seed, numbers.Integral)
                and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ParseError("seed must be a non-negative integer")

    @property
    def n_bands(self) -> int:
        return len(self.planted_graphs)

    def band_config(self) -> BandConfig:
        return BandConfig(self.n_bands)


# numpy's Generator reads a double in [0, 1) as a raw 64-bit word's top
# 53 bits times 2**-53.
_DOUBLE = 1.0 / 9007199254740992.0
_U32, _U64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
# Doubles a box reads: the class draw's, then cy, cx and the width and
# height fractions. With noise > 0 it reads a sixth, for the flip test.
_BOX_WORDS = 5
_BLOCK = 256  # words per random_raw read


class _Stream:
    """One PCG64 stream read the way numpy's Generator reads it.

    `take` hands out raw 64-bit words in order. `bounded(r)` is what
    `integers(lo, lo + r + 1) - lo` returns: nothing is read when r == 0;
    below 2**32 it is Lemire's method on 32-bit draws, a 32-bit draw
    being the low half of a fresh word, with the high half kept for the
    next 32-bit draw; above that it is Lemire's method on whole words,
    which leaves the kept half alone. (numpy special-cases r == 2**32 - 1
    as one 32-bit draw, which is what Lemire's method gives on Python's
    unbounded integers.)
    """

    def __init__(self, bit_generator):
        self._bg = bit_generator
        self.words, self._blocks = [], []
        self._pos = 0
        self._half = None

    def take(self, n: int) -> int:
        """Consume the next n words; return the index of the first."""
        start = self._pos
        self._pos += n
        short = self._pos - len(self.words)
        if short > 0:
            block = self._bg.random_raw(max(short, _BLOCK))
            self._blocks.append(block)
            self.words.extend(block.tolist())
        return start

    def raw(self) -> np.ndarray:
        """Every word read so far, as a uint64 array."""
        return np.concatenate(self._blocks)

    def _word(self) -> int:
        return self.words[self.take(1)]

    def _uint32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _U32

    def bounded(self, r: int) -> int:
        if r == 0:
            return 0
        draw, bits, mask = ((self._uint32, 32, _U32) if r <= _U32
                            else (self._word, 64, _U64))
        excl = r + 1
        threshold = (mask - r) % excl  # 2**bits mod excl
        m = draw() * excl
        while m & mask < threshold:
            m = draw() * excl
        return m >> bits


def _cdf(p: np.ndarray) -> np.ndarray:
    """Row-wise normalized cumulative sums; a draw `u` from a row picks
    `(cdf <= u).sum()`, which is `cdf.searchsorted(u, side="right")`."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _uniform(low, high, d):
    """numpy's `uniform(low, high)` for the double `d`."""
    return low + (high - low) * d


def generate(spec: GeneratorSpec, n_layouts: int):
    """Return (clean, noisy) corpora; noisy resamples each label
    uniformly with probability `spec.noise`.

    Layout `li` reads its own stream, `PCG64([spec.seed, li])`, in this
    order, band by band: the box count `integers(lo, hi + 1)`, then per
    box one double for the class, four for the box (cy, cx, width and
    height fractions) and, when noise > 0, one for the flip test and,
    when it flips, `integers(C)` for the new label. A class is drawn by
    inverting the normalized cumulative sum of the band marginal, for a
    band's first box, or of the planted edge weights summed over the
    classes already placed in the band. This order is part of the output
    contract: the words are decoded as numpy decodes them, so the result
    equals that of one Generator call per draw.
    """
    if n_layouts < 0:
        raise ParseError(f"layout count must be >= 0, got {n_layouts}")
    C, B = spec.vocabulary.size, spec.n_bands
    lo, hi = (int(v) for v in spec.boxes_per_band)
    noise = spec.noise
    box_words = _BOX_WORDS + (noise > 0)
    # Walk each stream for the box counts, the offsets of the box doubles
    # and the noise flips; everything else reads the doubles as arrays.
    k = np.zeros((n_layouts, B), dtype=np.int64)
    doubles, flips, n_boxes = [], [], 0
    for li in range(n_layouts):
        # Per-layout derived seed keeps generation order-independent.
        stream = _Stream(np.random.PCG64([spec.seed, li]))
        starts = []
        for j in range(B):
            k[li, j] = kj = lo + stream.bounded(hi - lo)
            for _ in range(kj):
                first = stream.take(box_words)
                starts.append(first)
                if noise and (stream.words[first + _BOX_WORDS] >> 11) \
                        * _DOUBLE < noise:
                    flips.append((n_boxes + len(starts) - 1,
                                  stream.bounded(C - 1)))
        if starts:
            idx = np.add.outer(starts, np.arange(_BOX_WORDS))
            doubles.append((stream.raw()[idx] >> 11) * _DOUBLE)
        n_boxes += len(starts)
    d = (np.concatenate(doubles) if doubles
         else np.empty((0, _BOX_WORDS)))

    # Index of each layout's first box in band j is first[:, j].
    counts = k.ravel()
    first = (np.cumsum(counts) - counts).reshape(k.shape)
    cls = np.empty(n_boxes, dtype=np.int64)
    for j in range(B):
        G = spec.planted_graphs[j]
        marginal = _cdf(spec.class_marginals[j])
        # One running weight row per layout. The loop form's
        # G[:, placed].sum(axis=1) also adds in placement order, since numpy
        # lays the gathered columns out transposed; with C == 1 it sums
        # pairwise, but then the one class is drawn whatever the sum.
        weights = np.zeros((n_layouts, C))
        for t in range(int(k[:, j].max(initial=0))):
            rows = np.flatnonzero(k[:, j] > t)
            at = first[rows, j] + t
            u = d[at, 0]
            draw = marginal.searchsorted(u, side="right")
            if t > 0:
                w = weights[rows] = weights[rows] + G.T[cls[at - 1]]
                total = w.sum(axis=1)
                pos = total > 0
                cdf = _cdf(w[pos] / total[pos, None])
                draw[pos] = (cdf <= u[pos, None]).sum(axis=1)
            cls[at] = draw
    noisy_cls = cls.copy()
    if flips:
        at, flipped = np.array(flips).T
        noisy_cls[at] = flipped

    band = np.repeat(np.tile(np.arange(B), n_layouts), counts)
    upper, lower = spec.band_config().bounds[band].T
    width, height = (float(v) for v in spec.canvas)
    flo, fhi = (float(v) for v in spec.box_size_frac)
    cy = _uniform(upper * height, lower * height, d[:, 1])
    cx = _uniform(0.0, width, d[:, 2])
    # Half-extents are shrunk so the box stays on canvas with its center
    # fixed, keeping band membership exact.
    hw = np.minimum(np.minimum(_uniform(flo, fhi, d[:, 3]) * width / 2.0,
                               cx), width - cx)
    hh = np.minimum(np.minimum(_uniform(flo, fhi, d[:, 4]) * height / 2.0,
                               cy), height - cy)
    boxes = list(map(BBox, *(a.tolist() for a in
                             (cx - hw, cy - hh, cx + hw, cy + hh))))
    clean_comps = list(map(Component, boxes, cls.tolist()))
    # Clean and noisy share each component whose label did not change.
    noisy_comps = list(clean_comps)
    for i in np.flatnonzero(noisy_cls != cls).tolist():
        noisy_comps[i] = Component(boxes[i], int(noisy_cls[i]))

    w, h = spec.canvas
    ends = np.cumsum(k.sum(axis=1)).tolist()
    clean_layouts, noisy_layouts = [], []
    for li, (a, b) in enumerate(zip([0] + ends, ends)):
        lid = f"synth-{li:05d}"
        clean_layouts.append(LayoutDocument(lid, w, h,
                                            tuple(clean_comps[a:b])))
        noisy_layouts.append(LayoutDocument(lid, w, h,
                                            tuple(noisy_comps[a:b])))
    return (Corpus(spec.vocabulary, tuple(clean_layouts)),
            Corpus(spec.vocabulary, tuple(noisy_layouts)))


def recovery_score(planted, recovered: CoOccurrenceGraphSet) -> float:
    """Mean per-band cosine similarity of off-diagonal edge weights.

    `planted` is an N_b x C x C stack shaped as `recovered.edges`, such
    as `GeneratorSpec.planted_graphs`. Bands whose off-diagonal vector is
    zero on either side are skipped; the sentinel -1 is returned when
    every band is skipped.
    """
    planted = np.asarray(planted, dtype=np.float64)
    if planted.shape != recovered.edges.shape:
        raise ParseError(f"graph stack shape mismatch: {planted.shape} "
                         f"planted vs {recovered.edges.shape} recovered")
    off = ~np.eye(planted.shape[-1], dtype=bool)
    sims = []
    for a, b in zip(planted[:, off], recovered.edges[:, off]):
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
        "planted_graphs": spec.planted_graphs.tolist(),
        "class_marginals": spec.class_marginals.tolist(),
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
            planted_graphs=obj["planted_graphs"],
            class_marginals=obj["class_marginals"],
            boxes_per_band=tuple(obj.get("boxes_per_band", (2, 5))),
            canvas=tuple(obj.get("canvas", (360.0, 640.0))),
            box_size_frac=tuple(obj.get("box_size_frac", (0.05, 0.25))),
            noise=float(obj.get("noise", 0.0)),
            seed=obj.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad generator spec: {e}") from None


def load_spec(path) -> GeneratorSpec:
    return read_json(path, spec_from_obj)
