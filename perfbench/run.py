"""Benchmark of the layoutprior pipeline: synth, prior, online, eval.

Run from the root of a layoutprior checkout:

    python3 perfbench/run.py --workload online --seed 1 --seconds 10 --trace 0

One process, one caller, one compute thread (BLAS is held to a single
thread), closed loop. Inputs come from --seed. Set-up (input generation
plus one untimed warm-up operation) runs SETUP_ROUNDS times; then whole
rounds of operations run until --seconds have passed, and the outputs
are checked outside the timed region. The last line of stdout is one
JSON object: with --trace 0 the end-to-end metrics, their times scaled
to a reference host speed by a probe timed around the operations (see
hostspeed.py), with --trace 1 the
per-layer metrics from spans recorded around the library's public
functions (see tracing.py), and the spans themselves are written to
perfbench/out/trace-<workload>-<seed>.json. Exit code 1 means a check
failed, 2 that the library could not be found.
"""

import os
import sys
import time

START = time.perf_counter()
# Set before numpy is imported: BLAS starts no worker threads of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
from contextlib import nullcontext

SETUP_ROUNDS = 3
OUT_DIR = os.path.join("perfbench", "out")

# Per-layer metrics: self time per timed operation of each span ...
LAYER_METRICS = {
    "synth.generate": "synth.generate_s",
    "ingest.save_native": "ingest.save_native_s",
    "ingest.load_native": "ingest.load_native_s",
    "prior.accumulate": "prior.accumulate_s",
    "prior.normalize": "prior.normalize_s",
    "prior.save_graphs": "prior.save_graphs_s",
    "conditioning.band_association": "conditioning.band_association_s",
    "conditioning.soft_mapping": "conditioning.soft_mapping_s",
    "conditioning.condition_features": "conditioning.condition_features_s",
    "rescore.rescore": "rescore.rescore_s",
    "evaluation.evaluate": "evaluation.evaluate_s",
    "cli.main": "cli.self_s",
    "op": "bench.self_s",        # the harness around each operation
    "trace": "trace.count_s",    # computing the counts below
}
# ... counts per timed operation ...
COUNT_UNITS = {
    "ingest.bytes_written": "B/op",
    "ingest.bytes_read": "B/op",
    "prior.band_layouts_counted": "count/op",
    "prior.band_layouts_skipped": "count/op",
    "conditioning.flops": "flop/op",
    "rescore.detection_band_pairs": "count/op",
    "evaluation.units": "count/op",
    "evaluation.iou_pairs": "count/op",
}
# ... and self time per set-up round of the layers set-up leans on.
SETUP_LAYERS = ("synth.generate", "ingest.save_native", "prior.accumulate",
                "rescore.rescore", "evaluation.evaluate")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["synth", "prior", "online", "eval"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="input sizes; tiny is for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_round(w, tracer) -> float:
    """Wall seconds of one set-up: inputs plus an untimed warm-up op."""
    gc.collect()
    t0 = time.perf_counter()
    with tracer.span("setup") if tracer else nullcontext():
        w.setup()
        ok, out = w.op(0)
    elapsed = time.perf_counter() - t0
    if not ok:
        raise RuntimeError("the warm-up operation failed")
    w.record(0, out)
    w.after_warmup(out)
    return elapsed


def measure(w, seconds, tracer, norm) -> dict:
    """Whole rounds until `seconds` have passed. With a tracer, odd
    rounds are traced and even rounds are not, so the two interleave.
    Each round's time is kept both as measured (raw, for the per-layer
    accounting) and scaled to the reference host speed (for the
    end-to-end metrics)."""
    raw = {False: [], True: []}
    scaled = {False: [], True: []}
    op_times = []   # per untraced round, op k's scaled time (None if it failed)
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        gc.collect()
        round_raw = 0.0
        done = []
        for k in range(w.ops_per_round):
            if traced:
                tracer.begin("op")
            t0 = time.perf_counter()
            ok, out = w.op(k)
            dt = time.perf_counter() - t0
            if traced:
                tracer.end()
            round_raw += dt
            attempted += 1
            norm.add(dt, keep=ok and not traced)
            if norm.due():
                done += norm.flush()
            if ok:
                w.record(k, out)
            else:
                failed += 1
        done += norm.flush()
        raw[traced].append(round_raw)
        scaled[traced].append(sum(dt for dt, _ in done))
        if not traced:
            op_times.append([dt if keep else None for dt, keep in done])
        r += 1
        if (time.perf_counter() >= deadline and attempted >= w.min_ops
                and (tracer is None or r >= 2)):
            break
    # Read before the output checks, which allocate memory of their own.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"raw": raw, "scaled": scaled, "op_times": op_times,
            "rss_kb": rss_kb, "attempted": attempted, "failed": failed}


def end_to_end(w, run, setup_s) -> dict:
    """Times here are scaled to the reference host speed (hostspeed.py)."""
    rounds = run["op_times"]
    ms = [t * 1e3 for r in rounds for t in r if t is not None]
    p50 = statistics.median(ms)
    if w.ops_per_round > 1:
        # A round is one pass over the screen pool. Each screen's latency
        # is its median over the passes, so that a stall of the host in
        # one pass does not set the tail; p99 is taken over the screens.
        per_screen = [statistics.median([r[k] for r in rounds if r[k] is not None])
                      for k in range(w.ops_per_round)]
        p99 = statistics.quantiles(per_screen, n=100)[98] * 1e3
    else:
        # Batch workloads run too few operations for a tail percentile:
        # both figures are then the median operation.
        p99 = p50
    return {
        "setup_s": (setup_s, "s"),
        # Over the median round, as the median is steadier than the mean
        # on a host that stalls now and then.
        "layouts_per_s": (w.layouts_per_round
                          / statistics.median(run["scaled"][False]), "layouts/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "peak_rss_mb": (run["rss_kb"] / 1024.0, "MB"),
    }


def per_layer(w, run, tracer, setup_times) -> dict:
    self_t = tracer.self_times()
    per_op = w.ops_per_round
    n_ops = per_op * len(run["raw"][True])
    out = {}
    for span, name in LAYER_METRICS.items():
        out[name] = (self_t.get(("op", span), 0.0) / n_ops, "s/op")
    for name, unit in COUNT_UNITS.items():
        out[name] = (tracer.counts.get(("op", name), 0) / n_ops, unit)
    # Means, so that the self times above add up to the traced time.
    traced = sum(run["raw"][True]) / n_ops
    untraced = sum(run["raw"][False]) / (per_op * len(run["raw"][False]))
    out["trace.traced_op_s"] = (traced, "s/op")
    out["trace.untraced_op_s"] = (untraced, "s/op")
    out["trace.overhead_s"] = (traced - untraced, "s/op")
    out["setup.round_s"] = (statistics.median(setup_times), "s/round")
    for span in SETUP_LAYERS:
        out[f"setup.{span}_s"] = (self_t.get(("setup", span), 0.0)
                                  / len(setup_times), "s/round")
    return out


def import_library():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "layoutprior", "cli.py")):
        print("error: src/layoutprior not found; run from the root of a "
              "layoutprior checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import hostspeed
    import tracing
    import workloads
    return hostspeed, tracing, workloads


def main(argv=None) -> int:
    args = parse_args(argv)
    hostspeed, tracing, workloads = import_library()
    import_s = time.perf_counter() - START
    from checks import CheckFailed
    norm = hostspeed.Normaliser()

    work = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tracer = tracing.Tracer() if args.trace else None
    correct = True
    try:
        w = workloads.WORKLOADS[args.workload](work, args.seed, args.size)
        with tracing.instrument(tracer) if tracer else nullcontext():
            setup_times = []
            for _ in range(SETUP_ROUNDS):
                setup_times.append(setup_round(w, tracer))
                norm.mark()
            run = measure(w, args.seconds, tracer, norm)
        try:
            w.check()
        except CheckFailed as e:
            print(f"check failed: {e}", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        metrics = per_layer(w, run, tracer, setup_times)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
                     {"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "size": args.size})
    else:
        # Scaled by the median of the probes made before, between and
        # after the set-up rounds.
        setup_s = ((import_s + statistics.median(setup_times))
                   * hostspeed.REFERENCE_S
                   / norm.median_probe_s(0, SETUP_ROUNDS + 1))
        metrics = end_to_end(w, run, setup_s)
    print(f"host-speed probe: median {norm.median_probe_s() * 1e3:.3f} ms over "
          f"{len(norm.probes)} probes; reference "
          f"{hostspeed.REFERENCE_S * 1e3:.3f} ms; as measured, start-up "
          f"{import_s:.3f} s and set-up rounds "
          f"{', '.join(f'{t:.3f}' for t in setup_times)} s", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
