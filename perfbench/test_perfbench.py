"""Quick tests of the benchmark itself: every checker rejects a wrong
output, the tracer's accounting holds, and a tiny run of each workload
completes. Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from checks import CheckFailed  # noqa: E402
from layoutprior.ingest import corpus_to_obj  # noqa: E402
from layoutprior.prior import BandConfig, build_prior, graphs_to_obj  # noqa: E402


@pytest.fixture(scope="module")
def corpora():
    clean, noisy = wl.make_corpora(7, 30)
    return clean, noisy


def synth_kwargs(n):
    return dict(n_layouts=n, classes=wl.CLASSES, n_bands=wl.N_BANDS,
                boxes_per_band=wl.BOXES_PER_BAND, noise=wl.NOISE)


def test_check_synth_rejects(corpora):
    clean, noisy = (corpus_to_obj(c) for c in corpora)
    checks.check_synth(clean, noisy, **synth_kwargs(30))

    moved = copy.deepcopy(noisy)
    moved["layouts"][3]["components"][0]["bbox"][0] += 1.0
    with pytest.raises(CheckFailed, match="boxes differ"):
        checks.check_synth(clean, moved, **synth_kwargs(30))

    with pytest.raises(CheckFailed, match="layouts"):
        checks.check_synth(clean, noisy, **synth_kwargs(31))

    # The last box of a layout placed back in the first band.
    c2, n2 = copy.deepcopy(clean), copy.deepcopy(noisy)
    for corpus in (c2, n2):
        box = corpus["layouts"][0]["components"][-1]["bbox"]
        h = box[3] - box[1]
        box[1], box[3] = 1.0, 1.0 + h
    with pytest.raises(CheckFailed, match="band"):
        checks.check_synth(c2, n2, **synth_kwargs(30))

    # No label noise at all is far outside the binomial bound.
    with pytest.raises(CheckFailed, match="flips"):
        checks.check_synth(clean, clean, **synth_kwargs(30))


def test_check_prior_rejects(corpora):
    clean = corpora[0]
    corpus = corpus_to_obj(clean)
    graphs = graphs_to_obj(build_prior(clean, BandConfig(wl.N_BANDS), keep_raw=True))
    checks.check_prior(corpus, graphs, wl.N_BANDS)

    off_by_one = copy.deepcopy(graphs)
    off_by_one["raw_counts"][4]["data"][7] += 1.0
    with pytest.raises(CheckFailed, match="raw count"):
        checks.check_prior(corpus, off_by_one, wl.N_BANDS)

    nudged = copy.deepcopy(graphs)
    data = nudged["edges"][2]["data"]
    i = next(k for k, v in enumerate(data) if 0.0 < v < 1.0)
    data[i] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="edges"):
        checks.check_prior(corpus, nudged, wl.N_BANDS)


@pytest.fixture(scope="module")
def screen(tmp_path_factory):
    w = wl.Online(str(tmp_path_factory.mktemp("online")), 3, "tiny")
    w.setup()
    ok, (alpha, S, f_prime, rescored) = w.op(0)
    assert ok
    batch = w.batches[0]
    return dict(
        boxes=np.array([[b.x1, b.y1, b.x2, b.y2] for b in batch.boxes]),
        height=batch.layout_height, logits=batch.logits, alpha=alpha, S=S,
        f_prime=f_prime, rescored=rescored, edges=np.stack(w.graphs.edges),
        W=w.nodes.matrix, Z=w.embed, sigma=w.config.association.sigma,
        blend=w.config.blend, epsilon=w.config.epsilon)


def test_check_online_rejects(screen):
    checks.check_online(**screen)

    permuted = screen["rescored"].copy()
    permuted[[0, 1]] = permuted[[1, 0]]
    with pytest.raises(CheckFailed, match="rescored"):
        checks.check_online(**dict(screen, rescored=permuted))

    f_prime = screen["f_prime"].copy()
    f_prime[2, 5] *= 1.0 + 1e-6
    with pytest.raises(CheckFailed, match="conditioned"):
        checks.check_online(**dict(screen, f_prime=f_prime))

    alpha = screen["alpha"][:, ::-1].copy()
    with pytest.raises(CheckFailed, match="association"):
        checks.check_online(**dict(screen, alpha=alpha))


def test_check_eval_rejects():
    report = {k: 0.25 + 0.01 * i for i, k in enumerate(checks.EVAL_FIELDS)}
    checks.check_eval(report, dict(report))
    for k in ("ap", "ar_large"):
        nudged = dict(report)
        nudged[k] += 1e-6
        with pytest.raises(CheckFailed, match=k):
            checks.check_eval(nudged, report)


def test_self_times_partition_the_root():
    tr = tracing.Tracer()
    tr.spans = [["op", 0.0, 10.0, -1], ["cli.main", 1.0, 9.0, 0],
                ["ingest.load_native", 2.0, 5.0, 1], ["trace", 5.0, 6.0, 1]]
    self_t = tr.self_times()
    assert self_t[("op", "op")] == 2.0
    assert self_t[("op", "cli.main")] == 4.0
    assert self_t[("op", "ingest.load_native")] == 3.0
    assert sum(self_t.values()) == 10.0


def test_normaliser_scales_by_the_probes_around_a_block(monkeypatch):
    probes = iter([0.002, 0.004, 0.001])
    monkeypatch.setattr(hostspeed, "probe_once", lambda: 0.0)
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    ref = hostspeed.REFERENCE_S
    norm = hostspeed.Normaliser()
    norm.add(0.15)
    assert not norm.due()
    norm.add(0.15, keep=False)
    assert norm.due()
    # Host at 0.003 s a probe around the block: times scale by ref / 0.003.
    (a, keep_a), (b, keep_b) = norm.flush()
    assert (keep_a, keep_b) == (True, False)
    assert a == b == pytest.approx(0.15 * ref / 0.003)
    assert not norm.due()
    norm.add(0.2)
    [(c, _)] = norm.flush()
    assert c == pytest.approx(0.2 * ref / 0.0025)
    assert norm.median_probe_s() == 0.002


def test_instrument_covers_every_binding_and_restores():
    cli = sys.modules["layoutprior.cli"]
    prior = sys.modules["layoutprior.prior"]
    original = cli.load_native, prior.accumulate
    with tracing.instrument(tracing.Tracer()):
        assert cli.load_native.__wrapped__ is original[0]
        assert prior.accumulate.__wrapped__ is original[1]
    assert (cli.load_native, prior.accumulate) == original


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", ["synth", "prior", "online", "eval"])
def test_tiny_run_completes(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        p = bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                  "--trace", trace, "--size", "tiny")
        assert p.returncode == 0, p.stderr
        result = json.loads(p.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert os.path.isfile(os.path.join(ROOT, "perfbench", "out",
                                       f"trace-{workload}-1.json"))


def test_refuses_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = bench("--workload", "synth", "--seed", "1", "--seconds", "1",
              "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
