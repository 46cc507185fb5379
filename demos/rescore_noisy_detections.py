"""Improve noisy detections with the co-occurrence prior.

Builds the prior from a clean synthetic corpus, then takes a separately
seeded noisy corpus (labels flipped with probability 0.3) as stand-in
detector output and re-scores it against the prior. AP50 is reported
before and after; the context-aware blend recovers a chunk of the
accuracy the label noise destroyed.

Run:  PYTHONPATH=src python3 demos/rescore_noisy_detections.py
"""

import numpy as np

from layoutprior import ClassVocabulary
from layoutprior.evaluation import evaluate
from layoutprior.prior import build_prior
from layoutprior.rescore import RescoreConfig, rescore_corpus
from layoutprior.synth import GeneratorSpec, generate


def block_spec(seed, noise=0.0):
    vocab = ClassVocabulary(("icon", "title", "menu", "card", "text", "button"))
    block = np.eye(6)
    top = block.copy()
    top[:3, :3] = 1.0
    bottom = block.copy()
    bottom[3:, 3:] = 1.0
    uniform = np.full(6, 1 / 6)
    return GeneratorSpec(
        vocabulary=vocab,
        planted_graphs=(top, bottom),
        class_marginals=(uniform, uniform),
        boxes_per_band=(3, 6),
        noise=noise,
        seed=seed,
    )


def ap50(dets, gts):
    return evaluate(dets, gts).ap50


def main():
    train_clean, _ = generate(block_spec(seed=7), 1000)
    graphs = build_prior(train_clean, block_spec(seed=7).band_config())
    print("prior built from 1000 clean training layouts")

    test_clean, test_noisy = generate(block_spec(seed=42, noise=0.3), 200)
    baseline = ap50(test_noisy, test_clean)
    print(f"baseline AP50 (noisy labels, lambda=0.0): {baseline:.4f}")

    for lam in (0.25, 0.5, 0.75):
        cfg = RescoreConfig(blend=lam)
        rescored = rescore_corpus(test_noisy, graphs, cfg)
        score = ap50(rescored, test_clean)
        print(f"rescored AP50 (lambda={lam:.2f}):          {score:.4f} "
              f"({100 * (score - baseline):+.2f} pts)")


if __name__ == "__main__":
    main()
