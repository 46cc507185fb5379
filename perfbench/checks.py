"""Output checks for the benchmark workloads.

Every checker works from plain data (parsed JSON, numpy arrays) and
recomputes what it needs on its own, without calling layoutprior, so a
fault in the library cannot hide itself. Each raises CheckFailed with a
message naming the first disagreement. Float comparisons use a float64
tolerance rather than bit equality, so a later change that only reorders
a floating-point sum still passes.
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9


class CheckFailed(Exception):
    """An output disagrees with its independent recomputation."""


def band_bounds(n_bands: int) -> list:
    """The documented band layout: band j covers [j/n, j/n + 1/n) of the
    height, the last one closed at the bottom edge."""
    width = 1.0 / n_bands
    return [(j / n_bands, min(j / n_bands + width, 1.0)) for j in range(n_bands)]


def member_bands(t: float, bounds: list) -> list:
    """Bands holding a box whose centre sits at normalized height t."""
    return [j for j, (u, l) in enumerate(bounds)
            if u <= t and (t < l or (t == 1.0 and l == 1.0))]


def _centre_t(box, height) -> float:
    return (box[1] + box[3]) / 2.0 / height


# ---------------------------------------------------------------- synth

def check_synth(clean: dict, noisy: dict, *, n_layouts: int, classes: list,
                n_bands: int, boxes_per_band: tuple, noise: float) -> None:
    """Generated corpora: counts, band placement, canvas, shared boxes and
    a label-flip rate within five binomial standard deviations."""
    if clean.get("classes") != classes or noisy.get("classes") != classes:
        raise CheckFailed("class list differs from the generator spec")
    for name, corpus in (("clean", clean), ("noisy", noisy)):
        if len(corpus["layouts"]) != n_layouts:
            raise CheckFailed(f"{name}: {len(corpus['layouts'])} layouts, "
                              f"expected {n_layouts}")
    bounds = band_bounds(n_bands)
    lo, hi = boxes_per_band
    flips = total = 0
    for lc, ln in zip(clean["layouts"], noisy["layouts"]):
        lid = lc["id"]
        if ln["id"] != lid or (ln["width"], ln["height"]) != (lc["width"], lc["height"]):
            raise CheckFailed(f"layout {lid}: clean and noisy headers differ")
        W, H = lc["width"], lc["height"]
        if len(lc["components"]) != len(ln["components"]):
            raise CheckFailed(f"layout {lid}: clean and noisy box counts differ")
        per_band = [0] * n_bands
        last_band = 0
        for cc, cn in zip(lc["components"], ln["components"]):
            box = cc["bbox"]
            if cn["bbox"] != box:
                raise CheckFailed(f"layout {lid}: clean and noisy boxes differ")
            if not (0.0 <= box[0] <= box[2] <= W and 0.0 <= box[1] <= box[3] <= H):
                raise CheckFailed(f"layout {lid}: box {box} leaves the canvas")
            bands = member_bands(_centre_t(box, H), bounds)
            if len(bands) != 1:
                raise CheckFailed(f"layout {lid}: box {box} lies in bands {bands}")
            # Boxes are written band by band, so a centre inside its
            # generating band gives a non-decreasing band sequence.
            if bands[0] < last_band:
                raise CheckFailed(f"layout {lid}: box {box} is outside its band")
            last_band = bands[0]
            per_band[bands[0]] += 1
            if cc["class"] not in classes or cn["class"] not in classes:
                raise CheckFailed(f"layout {lid}: unknown class name")
            flips += cc["class"] != cn["class"]
            total += 1
        if any(not (lo <= k <= hi) for k in per_band):
            raise CheckFailed(f"layout {lid}: boxes per band {per_band} "
                              f"outside [{lo}, {hi}]")
    C = len(classes)
    p = noise * (C - 1) / C
    sd = math.sqrt(total * p * (1.0 - p))
    if abs(flips - total * p) > 5.0 * sd + 1.0:
        raise CheckFailed(f"label flips {flips}/{total} far from the expected "
                          f"rate {p:.4f}")


# ---------------------------------------------------------------- prior

def brute_force_counts(corpus: dict, n_bands: int) -> np.ndarray:
    """Per-band pair counts straight from the definition: in every band
    holding at least two boxes, each ordered pair of its boxes (a box
    paired with itself included) adds one to (class_a, class_b)."""
    classes = corpus["classes"]
    index = {name: i for i, name in enumerate(classes)}
    C = len(classes)
    counts = [[[0] * C for _ in range(C)] for _ in range(n_bands)]
    bounds = band_bounds(n_bands)
    for lay in corpus["layouts"]:
        H = float(lay["height"])
        members = [[] for _ in range(n_bands)]
        for comp in lay["components"]:
            for j in member_bands(_centre_t(comp["bbox"], H), bounds):
                members[j].append(index[comp["class"]])
        for j, labels in enumerate(members):
            if len(labels) < 2:
                continue
            for a in labels:
                for b in labels:
                    counts[j][a][b] += 1
    return np.array(counts, dtype=np.int64)


def _mtx(obj: dict) -> np.ndarray:
    return np.array(obj["data"], dtype=np.float64).reshape(obj["rows"], obj["cols"])


def check_prior(corpus: dict, graphs: dict, n_bands: int) -> None:
    """`build-prior --keep-raw` output: exact raw counts, normalized edges
    e / sqrt(row * col) with a unit diagonal, symmetric."""
    if graphs.get("classes") != corpus["classes"]:
        raise CheckFailed("graph classes differ from the corpus classes")
    if graphs.get("n_bands") != n_bands or len(graphs.get("edges", ())) != n_bands:
        raise CheckFailed(f"expected {n_bands} band graphs")
    if "raw_counts" not in graphs:
        raise CheckFailed("raw counts missing from a --keep-raw graph file")
    expected = brute_force_counts(corpus, n_bands)
    for j in range(n_bands):
        raw = _mtx(graphs["raw_counts"][j])
        if not np.array_equal(raw, expected[j].astype(np.float64)):
            bad = np.argwhere(raw != expected[j])[0]
            raise CheckFailed(f"band {j}: raw count at {tuple(bad)} is "
                              f"{raw[tuple(bad)]}, brute force gives "
                              f"{expected[j][tuple(bad)]}")
        E = _mtx(graphs["edges"][j])
        counts = expected[j].astype(np.float64)
        row, col = counts.sum(axis=1), counts.sum(axis=0)
        ref = np.zeros_like(counts)
        for a in range(counts.shape[0]):
            for b in range(counts.shape[1]):
                d = math.sqrt(row[a] * col[b])
                ref[a, b] = counts[a, b] / d if d > 0 else 0.0
        np.fill_diagonal(ref, 1.0)
        if not np.allclose(E, ref, rtol=RTOL, atol=1e-15):
            raise CheckFailed(f"band {j}: edges differ from e/sqrt(row*col)")
        if not np.allclose(E, E.T, rtol=RTOL, atol=1e-15):
            raise CheckFailed(f"band {j}: edge matrix is not symmetric")


# ---------------------------------------------------------------- online

def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits)
    for i, row in enumerate(logits):
        e = np.exp(row - row.max())
        out[i] = e / e.sum()
    return out


def gaussian_association(boxes: np.ndarray, height: float, n_bands: int,
                         sigma: float) -> np.ndarray:
    """Association weights from the README: a Gaussian in the vertical
    displacement between box centre and band centroid, rows normalized."""
    centroids = np.array([(u + l) / 2.0 for u, l in band_bounds(n_bands)])
    t = (boxes[:, 1] + boxes[:, 3]) / 2.0 / height
    z2 = ((t[:, None] - centroids[None, :]) / sigma) ** 2
    # Shifting by the row minimum cancels in the normalization.
    w = np.exp(-0.5 * (z2 - z2.min(axis=1, keepdims=True)))
    return w / w.sum(axis=1, keepdims=True)


def loop_rescore(logits: np.ndarray, alpha: np.ndarray, edges: np.ndarray,
                 blend: float, epsilon: float) -> np.ndarray:
    """The README's leave-one-out blend written as plain loops."""
    n, C = logits.shape
    G = alpha.shape[1]
    s = _softmax_rows(logits)
    uniform = np.full(C, 1.0 / C)
    out = np.empty_like(logits)
    for i in range(n):
        q = np.zeros(C)
        for j in range(G):
            ctx = np.zeros(C)
            for k in range(n):
                if k != i:
                    ctx += alpha[k, j] * s[k]
            total = ctx.sum()
            ctx = uniform if total <= epsilon else ctx / total
            q += alpha[i, j] * (edges[j] @ ctx)
        q = q / q.sum() if q.sum() > 0 else uniform
        mixed = s[i] ** (1.0 - blend) * q ** blend
        mixed = mixed / mixed.sum()
        out[i] = np.log(np.maximum(mixed, 1e-300))
    return out


def check_online(*, boxes: np.ndarray, height: float, logits: np.ndarray,
                 alpha: np.ndarray, S: np.ndarray, f_prime: np.ndarray,
                 rescored: np.ndarray, edges: np.ndarray, W: np.ndarray,
                 Z: np.ndarray, sigma: float, blend: float,
                 epsilon: float) -> None:
    """One screen: association, mapping, conditioned features and
    rescored logits against their definitions."""
    n_bands = edges.shape[0]
    ref_alpha = gaussian_association(boxes, height, n_bands, sigma)
    if alpha.shape != ref_alpha.shape or not np.allclose(alpha, ref_alpha,
                                                         rtol=RTOL, atol=1e-12):
        raise CheckFailed("band association differs from the Gaussian weights")
    ref_S = _softmax_rows(logits)
    if S.shape != ref_S.shape or not np.allclose(S, ref_S, rtol=RTOL, atol=1e-12):
        raise CheckFailed("soft mapping differs from the row softmax")
    ref_f = np.einsum("ij,ic,jcd,dk->ik", ref_alpha, ref_S, edges, W @ Z,
                      optimize=True)
    scale = max(float(np.abs(ref_f).max()), 1.0)
    if f_prime.shape != ref_f.shape or not np.allclose(
            f_prime, ref_f, rtol=RTOL, atol=RTOL * scale):
        raise CheckFailed("conditioned features differ from "
                          "sum_j alpha_ij (S E_j W Z)")
    ref_r = loop_rescore(logits, ref_alpha, edges, blend, epsilon)
    if rescored.shape != ref_r.shape or not np.allclose(rescored, ref_r,
                                                        rtol=RTOL, atol=1e-12):
        raise CheckFailed("rescored logits differ from the leave-one-out blend")


# ---------------------------------------------------------------- eval

EVAL_FIELDS = ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large",
               "ar1", "ar10", "ar100", "ar_small", "ar_medium", "ar_large")


def check_eval(report: dict, reference: dict) -> None:
    """All twelve summary fields of `eval --format json` against the
    independent reference criterion."""
    for k in EVAL_FIELDS:
        if k not in report:
            raise CheckFailed(f"eval output lacks field {k}")
        if not math.isclose(report[k], reference[k], rel_tol=RTOL, abs_tol=1e-12):
            raise CheckFailed(f"{k} = {report[k]!r}, reference gives "
                              f"{reference[k]!r}")
