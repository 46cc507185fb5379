"""The four benchmark workloads and their shared planted generator spec.

Each workload prepares its inputs in `setup`, runs one operation per
`op(k)` call through layoutprior's public entry points, keeps what it
needs of each output in `record`, and verifies the outputs in `check`,
outside the timed region. Library functions are always reached through
their module (`synth.generate`, never a bare imported name), so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks
from checks import CheckFailed

cli = importlib.import_module("layoutprior.cli")
cond = importlib.import_module("layoutprior.conditioning")
evaluation = importlib.import_module("layoutprior.evaluation")
ingest = importlib.import_module("layoutprior.ingest")
prior = importlib.import_module("layoutprior.prior")
rescore_mod = importlib.import_module("layoutprior.rescore")
synth = importlib.import_module("layoutprior.synth")

# Planted spec shared by every workload: 25 classes in five groups of
# five, 10 bands, 1-3 boxes per band (about 20 boxes per screen).
CLASSES = [
    "text", "icon", "image", "text_button", "input",
    "toolbar", "list_item", "card", "checkbox", "radio_button",
    "switch", "slider", "tab", "drawer", "modal",
    "map_view", "video", "web_view", "advertisement", "date_picker",
    "pager_indicator", "multi_tab", "background_image", "bottom_navigation",
    "button_bar",
]
N_BANDS = 10
BOXES_PER_BAND = (1, 3)
NOISE = 0.3
TEST_SEED_OFFSET = 1_000_003   # test corpora never share a seed with training
NODE_WIDTH = 256               # K, node feature width
D_PRIME = 512                  # the documented default output width

SIZES = {
    # layouts per synth op, per prior op, prior-training corpus for
    # online/eval, screens in the online pool, layouts per eval op
    "full": dict(synth=400, prior=1000, train=500, screens=1000, eval=60),
    "tiny": dict(synth=8, prior=20, train=100, screens=4, eval=20),
}


def spec_obj(seed: int) -> dict:
    """The generator spec as plain JSON. Band j favours group j // 2:
    60% of its first draws go to that group, and its planted edges are
    0.9 inside the favoured group, 0.5 inside other groups, 0.1 between
    neighbouring groups and 0 otherwise, with a unit diagonal."""
    C = len(CLASSES)
    group = np.arange(C) // 5
    same = group[:, None] == group[None, :]
    near = np.abs(group[:, None] - group[None, :]) == 1
    graphs, marginals = [], []
    for j in range(N_BANDS):
        fav = j // 2
        P = np.where(same, np.where(group[:, None] == fav, 0.9, 0.5),
                     np.where(near, 0.1, 0.0))
        np.fill_diagonal(P, 1.0)
        graphs.append(P.tolist())
        m = np.where(group == fav, 0.6 / 5, 0.4 / (C - 5))
        marginals.append((m / m.sum()).tolist())
    return {"classes": CLASSES, "planted_graphs": graphs,
            "class_marginals": marginals, "boxes_per_band": list(BOXES_PER_BAND),
            "noise": NOISE, "seed": seed}


def make_corpora(seed: int, n: int):
    return synth.generate(synth.spec_from_obj(spec_obj(seed)), n)


def run_cli(argv) -> tuple:
    """One in-process `layoutprior` invocation: (ok, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        print(f"layoutprior {' '.join(argv)} exited {code}: {err.getvalue()}",
              file=sys.stderr)
    return code == 0, out.getvalue()


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def load_json(path):
    with open(path) as f:
        return json.load(f)


class Workload:
    ops_per_round = 1     # a round is the unit a run repeats whole
    min_ops = 1

    def __init__(self, work: str, seed: int, size: str):
        self.work, self.seed, self.size = work, seed, SIZES[size]
        self.outputs = set()

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def record(self, k, out) -> None:
        self.outputs.add(out)

    def after_warmup(self, out) -> None:
        """Set-up checks that need the warm-up operation's output."""

    def check_identical(self) -> None:
        if len(self.outputs) != 1:
            raise CheckFailed(f"{len(self.outputs)} different outputs from "
                              "identical operations")


class Synth(Workload):
    """`layoutprior synth` writing a clean and a noisy corpus."""

    def setup(self):
        self.n = self.layouts_per_round = self.size["synth"]
        with open(self.path("spec.json"), "w") as f:
            json.dump(spec_obj(0), f)

    def op(self, k):
        clean, noisy = self.path("clean.json"), self.path("noisy.json")
        ok, _ = run_cli(["synth", self.path("spec.json"), "--n", str(self.n),
                         "--seed", str(self.seed),
                         "--out-clean", clean, "--out-noisy", noisy])
        return ok, (clean, noisy)

    def record(self, k, out):
        self.outputs.add(digest(*out))

    def check(self):
        self.check_identical()
        checks.check_synth(load_json(self.path("clean.json")),
                           load_json(self.path("noisy.json")),
                           n_layouts=self.n, classes=CLASSES, n_bands=N_BANDS,
                           boxes_per_band=BOXES_PER_BAND, noise=NOISE)


class Prior(Workload):
    """`layoutprior build-prior --keep-raw` on a saved clean corpus."""

    def setup(self):
        self.layouts_per_round = self.size["prior"]
        clean, _ = make_corpora(self.seed, self.size["prior"])
        ingest.save_native(clean, self.path("corpus.json"))

    def op(self, k):
        out = self.path("graphs.json")
        ok, _ = run_cli(["build-prior", self.path("corpus.json"),
                         "--keep-raw", "--out", out])
        return ok, out

    def record(self, k, out):
        self.outputs.add(digest(out))

    def check(self):
        self.check_identical()
        checks.check_prior(load_json(self.path("corpus.json")),
                           load_json(self.path("graphs.json")), N_BANDS)


def trained_prior(seed: int, n: int):
    clean, _ = make_corpora(seed, n)
    return prior.build_prior(clean, prior.BandConfig(N_BANDS))


class Online(Workload):
    """One screen per op: association, mapping, conditioning, rescoring."""

    def setup(self):
        n = self.size["screens"]
        self.ops_per_round = self.layouts_per_round = n
        # Three passes over the pool, so that each screen has a median
        # latency; 1000 screens leave ten beyond the 99th percentile.
        self.min_ops = 3 * n
        self.graphs = trained_prior(self.seed, self.size["train"])
        _, noisy = make_corpora(self.seed + TEST_SEED_OFFSET, n)
        C = len(CLASSES)
        self.batches = [rescore_mod.labels_to_logits(lay, C)
                        for lay in noisy.layouts]
        rng = np.random.Generator(np.random.PCG64(self.seed))
        self.nodes = cond.NodeFeatures(rng.standard_normal((C, NODE_WIDTH)))
        self.embed = rng.standard_normal((NODE_WIDTH, D_PRIME)) / np.sqrt(NODE_WIDTH)
        self.config = rescore_mod.RescoreConfig()
        # About a hundred screens spread over the pool are checked: the
        # plain-loop rescoring reference is too slow for all of them.
        self.step = max(1, n // 100)
        self.last = {}

    def op(self, k):
        batch, graphs = self.batches[k], self.graphs
        alpha = cond.band_association(batch, graphs.bands(),
                                      self.config.association)
        S = cond.soft_mapping(batch.logits, cond.MappingPolicy.SOFT)
        f_prime = cond.condition_features(S, alpha, graphs, self.nodes, self.embed)
        rescored = rescore_mod.rescore(batch, graphs, self.config)
        return True, (alpha, S, f_prime, rescored.logits)

    def record(self, k, out):
        if k % self.step == 0:
            self.last[k] = out

    def check(self):
        edges = np.stack(self.graphs.edges)
        for k, (alpha, S, f_prime, rescored) in sorted(self.last.items()):
            batch = self.batches[k]
            boxes = np.array([[b.x1, b.y1, b.x2, b.y2] for b in batch.boxes])
            checks.check_online(
                boxes=boxes, height=batch.layout_height, logits=batch.logits,
                alpha=alpha, S=S, f_prime=f_prime, rescored=rescored,
                edges=edges, W=self.nodes.matrix, Z=self.embed,
                sigma=self.config.association.sigma, blend=self.config.blend,
                epsilon=self.config.epsilon)


class Eval(Workload):
    """`layoutprior eval --format json` on rescored detections."""

    def setup(self):
        n = self.layouts_per_round = self.size["eval"]
        graphs = trained_prior(self.seed, self.size["train"])
        clean, noisy = make_corpora(self.seed + TEST_SEED_OFFSET, n)
        rescored = rescore_mod.rescore_corpus(noisy, graphs,
                                              rescore_mod.RescoreConfig())
        ingest.save_native(rescored, self.path("dets.json"))
        ingest.save_native(clean, self.path("gts.json"))
        self.noisy_ap50 = evaluation.evaluate(noisy, clean).ap50

    def after_warmup(self, out):
        # The method's claim, checked once per set-up: rescoring lifts AP50.
        ap50 = json.loads(out)["ap50"]
        if not ap50 > self.noisy_ap50:
            raise CheckFailed(f"rescored AP50 {ap50} does not exceed noisy "
                              f"AP50 {self.noisy_ap50}")

    def op(self, k):
        return run_cli(["eval", self.path("dets.json"), self.path("gts.json"),
                        "--format", "json"])

    def check(self):
        self.check_identical()
        ref_path = os.path.join("tests", "reference_eval.py")
        spec = importlib.util.spec_from_file_location("reference_eval", ref_path)
        reference = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reference)
        expected = reference.reference_evaluate(load_json(self.path("dets.json")),
                                                load_json(self.path("gts.json")))
        checks.check_eval(json.loads(next(iter(self.outputs))), expected)


WORKLOADS = {"synth": Synth, "prior": Prior, "online": Online, "eval": Eval}
