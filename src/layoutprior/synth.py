"""Synthetic layout corpora from planted per-band compatibility graphs.

The generator plants a known co-occurrence structure so the prior
builder can be verified against ground truth: within each band, the
first class is drawn from the band marginal and each subsequent class
proportionally to its planted edge weights against the classes already
placed. All randomness comes from numpy's PCG64 generator, which is a
published, portable algorithm; results are reproducible across
platforms for a fixed seed. Each layout reads its own stream, and
`generate` reads a block of such streams in lockstep, decoding the raw
words as numpy's Generator does; each box is drawn whole, class, noisy
class and coordinates, at the step that reads its words.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .core import (ClassVocabulary, ParseError, fields_equal, finite,
                   read_json, read_only)
from .ingest import Corpus
from .prior import BandConfig, CoOccurrenceGraphSet


def _real(v):
    """An int as it is, and any other real, numpy's too, as a float."""
    return v if isinstance(v, int) else float(v)


def _pair(spec, name: str, kind, convert) -> tuple:
    """Set `spec`'s (lo, hi) or (width, height) field `name` to the tuple
    of its two entries, each a `kind` but not a bool, converted by
    `convert`, and return it."""
    values = getattr(spec, name)
    if not (isinstance(values, (tuple, list)) and len(values) == 2
            and all(isinstance(v, kind) and not isinstance(v, bool)
                    for v in values)):
        raise ParseError(f"{name} must be two {kind.__name__} numbers, "
                         f"got {values!r}")
    pair = tuple(map(convert, values))
    object.__setattr__(spec, name, pair)
    return pair


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    vocabulary: ClassVocabulary
    planted_graphs: np.ndarray       # N_b x C x C, weights in [0, 1]
    class_marginals: np.ndarray      # N_b x C, each row a distribution
    boxes_per_band: tuple = (2, 5)   # inclusive integer range
    canvas: tuple = (360.0, 640.0)   # (width, height)
    box_size_frac: tuple = (0.05, 0.25)  # box side as fraction of canvas side
    noise: float = 0.0               # label-flip probability
    seed: int = 0

    __eq__ = fields_equal  # and no hash, as the arrays have none

    def __post_init__(self):
        for name in ("planted_graphs", "class_marginals"):
            try:  # a copy, so that the caller's array stays writeable
                a = np.array(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as e:  # such as a ragged list
                raise ParseError(f"{name}: {e}") from None
            object.__setattr__(self, name, read_only(a))
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
        # Scalars are stored as the Python numbers spec_to_obj writes:
        # numpy ones are converted, and compare in double precision.
        if (isinstance(self.noise, bool)
                or not isinstance(self.noise, numbers.Real)):
            raise ParseError(f"noise must be a number, got {self.noise!r}")
        object.__setattr__(self, "noise", float(self.noise))
        if not (0.0 <= self.noise < 1.0):
            raise ParseError("noise must lie in [0, 1)")
        lo, hi = _pair(self, "boxes_per_band", numbers.Integral, int)
        # rng.integers draws below hi + 1, which must fit in an int64.
        if not 0 <= lo <= hi < 2 ** 63:
            raise ParseError("boxes_per_band must satisfy 0 <= lo <= hi")
        lo, hi = _pair(self, "box_size_frac", numbers.Real, _real)
        if not 0.0 <= lo <= hi <= 1.0:
            raise ParseError("box_size_frac must satisfy 0 <= lo <= hi <= 1")
        if not all(finite(v) and v > 0.0
                   for v in _pair(self, "canvas", numbers.Real, _real)):
            raise ParseError("canvas sides must be positive and finite")
        if not (isinstance(self.seed, numbers.Integral)
                and not isinstance(self.seed, bool) and self.seed >= 0):
            raise ParseError("seed must be a non-negative integer")
        object.__setattr__(self, "seed", int(self.seed))

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
# Layouts whose streams are read together, and the most words a stream
# reads up front: the first bounds the word block whatever the layout
# count, the second whatever the box range (a stream that needs more
# grows the block).
_BLOCK_LAYOUTS = 512
_MAX_WIDTH = 1024


class _Streams:
    """PCG64 streams read in lockstep, each the way numpy's Generator
    reads it.

    Row i of `words` holds the raw 64-bit words of the i-th bit generator.
    A step reads from a set of distinct rows at once. `take(rows, n)`
    hands out each row's next n words. `bounded(rows, r)` is, per row,
    what `integers(lo, lo + r + 1) - lo` returns: nothing is read when
    r == 0; below 2**32 it is Lemire's method on 32-bit draws, a 32-bit
    draw being the low half of a fresh word, with the high half kept for
    the row's next 32-bit draw; above that it is Lemire's method on whole
    words, which leaves the kept half alone. (numpy special-cases
    r == 2**32 - 1 as one 32-bit draw, which is what Lemire's method
    gives there.) Rows whose draw is rejected draw again, by themselves.
    A row that runs past its words reads its bit generator's next ones.
    """

    def __init__(self, bit_generators, width: int):
        self._bgs = list(bit_generators)
        self.words = np.empty((len(self._bgs), width), dtype=np.uint64)
        for row, bg in zip(self.words, self._bgs):
            row[:] = bg.random_raw(width)
        self._pos = np.zeros(len(self._bgs), dtype=np.int64)
        self._half = np.zeros(len(self._bgs), dtype=np.uint64)
        self._has_half = np.zeros(len(self._bgs), dtype=bool)

    def take(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Consume the next n words of each row; return the index of each
        row's first."""
        start = self._pos[rows]
        self._pos[rows] = end = start + n
        have = self.words.shape[1]
        if end.size and end.max() > have:
            # Every row grows, so each row's words stay one prefix of its
            # stream.
            width = max(int(end.max()), 2 * have)
            words = np.empty((len(self._bgs), width), dtype=np.uint64)
            words[:, :have] = self.words
            for row, bg in zip(words, self._bgs):
                row[have:] = bg.random_raw(width - have)
            self.words = words
        return start

    def _word(self, rows):
        at = self.take(rows, 1)  # which may grow `words`
        return self.words[rows, at].astype(object)

    def _uint32(self, rows):
        has = self._has_half[rows]
        out = self._half[rows]
        fresh = rows[~has]
        at = self.take(fresh, 1)
        word = self.words[fresh, at]
        out[~has] = word & _U32
        self._half[fresh] = word >> 32
        self._has_half[rows] = ~has
        return out

    def bounded(self, rows: np.ndarray, r: int) -> np.ndarray:
        out = np.zeros(len(rows), dtype=np.uint64)
        if r == 0:
            return out
        # Above 2**32 the products take 128 bits, so they are Python ints.
        draw, bits, mask = ((self._uint32, 32, _U32) if r <= _U32
                            else (self._word, 64, _U64))
        excl = r + 1
        threshold = (mask - r) % excl  # 2**bits mod excl
        todo = np.arange(len(rows))
        while todo.size:
            m = draw(rows[todo]) * excl
            kept = m & mask >= threshold
            out[todo[kept]] = m[kept] >> bits
            todo = todo[~kept]
        return out


def _cdf(p: np.ndarray) -> np.ndarray:
    """Row-wise normalized cumulative sums; a draw `u` from a row picks
    `(cdf <= u).sum()`, which is `cdf.searchsorted(u, side="right")`."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _uniform(low, high, d):
    """numpy's `uniform(low, high)` for the double `d`."""
    return low + (high - low) * d


def _read_block(spec: GeneratorSpec, layouts: range):
    """Draw the layouts `layouts`, reading their streams in lockstep in
    `generate`'s order.

    Each step reads one draw kind from every row that makes it: per band
    the box counts, then per box index t the boxes of the layouts with
    more than t boxes in the band, and their flips. A box is drawn whole
    at its step: its class, its noisy class and its coordinates. Returns
    the box counts (layouts x bands), then the boxes, classes and noisy
    classes in layout, band and box index order.
    """
    C = spec.vocabulary.size
    lo, hi = spec.boxes_per_band
    noise = spec.noise
    box_words = _BOX_WORDS + (noise > 0)
    bounds = spec.band_config().bounds
    # What a layout reads when no draw is rejected, or a little more.
    width = min(len(bounds) * (1 + hi * (box_words + 1)), _MAX_WIDTH)
    streams = _Streams((np.random.PCG64([spec.seed, li]) for li in layouts),
                       width)
    side = np.array([float(v) for v in spec.canvas])  # width, height
    flo, fhi = (float(v) for v in spec.box_size_frac)
    k = np.empty((len(layouts), len(bounds)), dtype=np.int64)
    last = np.empty(len(layouts), dtype=np.int64)  # the band's latest class
    steps = []
    for j, (upper, lower) in enumerate(bounds):
        k[:, j] = lo + streams.bounded(np.arange(len(layouts)), hi - lo)
        G = spec.planted_graphs[j]
        marginal = _cdf(spec.class_marginals[j])
        # One running weight row per layout. The loop form's
        # G[:, placed].sum(axis=1) also adds in placement order, since numpy
        # lays the gathered columns out transposed; with C == 1 it sums
        # pairwise, but then the one class is drawn whatever the sum.
        weights = np.zeros((len(layouts), C))
        # Where the band's box centres (cx, cy) lie.
        low, high = side * [[0.0, upper], [1.0, lower]]
        for t in range(int(k[:, j].max(initial=0))):
            rows = np.flatnonzero(k[:, j] > t)
            at = streams.take(rows, box_words)
            d = (streams.words[rows[:, None], at[:, None]
                               + np.arange(_BOX_WORDS)] >> 11) * _DOUBLE
            u = d[:, 0]
            cls = marginal.searchsorted(u, side="right")
            if t > 0:
                w = weights[rows] = weights[rows] + G.T[last[rows]]
                total = w.sum(axis=1)
                pos = total > 0
                cdf = _cdf(w[pos] / total[pos, None])
                cls[pos] = (cdf <= u[pos, None]).sum(axis=1)
            last[rows] = cls
            noisy = cls.copy()
            if noise:
                flip = (streams.words[rows, at + _BOX_WORDS] >> 11) \
                    * _DOUBLE < noise
                noisy[flip] = streams.bounded(rows[flip], C - 1)
            c = _uniform(low, high, d[:, [2, 1]])
            # Half-extents are shrunk so the box stays on canvas with its
            # center fixed, keeping band membership exact.
            half = np.minimum(np.minimum(
                _uniform(flo, fhi, d[:, 3:]) * side / 2.0, c), side - c)
            steps.append((rows, j, t, np.concatenate([c - half, c + half], 1),
                          cls, noisy))
    # Index of each layout's first box in band j is first[:, j].
    counts = k.ravel()
    first = (np.cumsum(counts) - counts).reshape(k.shape)
    boxes = np.empty((int(counts.sum()), 4))
    cls, noisy = np.empty((2, len(boxes)), dtype=np.int64)
    for rows, j, t, *drawn in steps:
        at = first[rows, j] + t
        boxes[at], cls[at], noisy[at] = drawn
    return k, boxes, cls, noisy


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
    equals that of one Generator call per draw. The streams are read in
    lockstep, a block of layouts at a time, and each box is drawn whole
    as its words are read.
    """
    if n_layouts < 0:
        raise ParseError(f"layout count must be >= 0, got {n_layouts}")
    # One block, empty, for no layouts.
    k, boxes, cls, noisy = map(np.concatenate, zip(*(
        _read_block(spec, range(start, min(start + _BLOCK_LAYOUTS, n_layouts)))
        for start in range(0, max(n_layouts, 1), _BLOCK_LAYOUTS))))
    w, h = spec.canvas
    layouts = (tuple(f"synth-{li:05d}" for li in range(n_layouts)),
               np.full(n_layouts, w), np.full(n_layouts, h),
               np.repeat(np.arange(n_layouts), k.sum(axis=1)))
    score, scored = np.ones(len(cls)), np.zeros(len(cls), dtype=bool)
    # Clean and noisy share every array but the class ids.
    return tuple(Corpus(spec.vocabulary, *layouts, c, score, scored, boxes)
                 for c in (cls, noisy))


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
    """`obj` as a spec; GeneratorSpec's defaults fill the keys it omits."""
    try:
        given = {f.name: obj[f.name] for f in fields(GeneratorSpec)[3:]
                 if f.name in obj}
        # As GeneratorSpec does, but so the error reads "bad generator spec".
        noise = given.get("noise", 0.0)
        if isinstance(noise, bool) or not isinstance(noise, (int, float)):
            raise TypeError(f"noise must be a number, got {noise!r}")
        return GeneratorSpec(ClassVocabulary(tuple(obj["classes"])),
                             obj["planted_graphs"], obj["class_marginals"],
                             **given)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad generator spec: {e}") from None


def load_spec(path) -> GeneratorSpec:
    return read_json(path, spec_from_obj)
