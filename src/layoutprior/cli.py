"""Command-line pipelines: build-prior, condition, rescore, eval, synth, render.

Exit codes: 0 success, 2 input/validation error, 3 shape/contract error.
Summaries go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .conditioning import (AssociationKind, AssociationPolicy, MappingPolicy,
                           NodeFeatures, band_association, concat_features,
                           condition_features, load_proposals, soft_mapping)
from .core import LayoutPriorError, ParseError, ShapeError, load_matrix, save_matrix
from .evaluation import EvalConfig, evaluate, report_to_json
from .ingest import load_native, save_native
from .prior import (GRAPH_SCHEMA_VERSION, BandConfig, build_prior,
                    graphs_to_dot, load_graphs, save_graphs)
from .render import render_layout_svg
from .rescore import RescoreConfig, rescore_corpus
from .synth import generate, load_spec


def _err(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _association(args) -> AssociationPolicy:
    kind = AssociationKind(args.assoc)
    return AssociationPolicy(kind, mu=args.mu, sigma=args.sigma)


def cmd_build_prior(args) -> int:
    corpus = load_native(args.corpus)
    config = BandConfig(args.bands, args.band_width)
    graphs = build_prior(corpus, config, keep_raw=args.keep_raw)
    save_graphs(graphs, args.out)
    for j, E in enumerate(graphs.edges):
        off = E[~np.eye(E.shape[0], dtype=bool)]
        print(f"band {j}: {int((off > 0).sum())} nonzero off-diagonal edges",
              file=sys.stderr)
    if args.dot:
        with open(args.dot, "w") as f:
            f.write(graphs_to_dot(graphs, threshold=args.dot_threshold))
    return 0


def cmd_condition(args) -> int:
    batch = load_proposals(args.proposals)
    graphs = load_graphs(args.graphs)
    nodes = NodeFeatures(load_matrix(args.nodes))
    embed = load_matrix(args.embed)
    alpha = band_association(batch, graphs.band_config, _association(args))
    S = soft_mapping(batch.logits, MappingPolicy(args.map))
    f_prime = condition_features(S, alpha, graphs, nodes, embed)
    if args.concat:
        if batch.features is None:
            raise ParseError("--concat requires proposal features")
        f_prime = concat_features(batch.features, f_prime)
    save_matrix(f_prime, args.out)
    print(f"conditioned features: {f_prime.shape[0]}x{f_prime.shape[1]}",
          file=sys.stderr)
    return 0


def cmd_rescore(args) -> int:
    # Validates --lambda before any file is read.
    config = RescoreConfig(blend=args.blend, association=_association(args))
    corpus = load_native(args.detections)
    graphs = load_graphs(args.graphs)
    out = rescore_corpus(corpus, graphs, config, confidence=args.confidence)
    save_native(out, args.out)
    print(f"re-scored {len(out.layouts)} layouts (lambda={args.blend})",
          file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    dets = load_native(args.detections)
    gts = load_native(args.ground_truth)
    report = evaluate(dets, gts, EvalConfig())
    if args.format == "json":
        print(report_to_json(report))
    else:
        print(report.to_table())
    return 0


def cmd_synth(args) -> int:
    spec = load_spec(args.spec)
    if args.seed is not None:
        from dataclasses import replace
        spec = replace(spec, seed=args.seed)
    clean, noisy = generate(spec, args.n)
    save_native(clean, args.out_clean)
    save_native(noisy, args.out_noisy)
    print(f"generated {args.n} layouts (seed={spec.seed}, noise={spec.noise})",
          file=sys.stderr)
    return 0


def cmd_render(args) -> int:
    corpus = load_native(args.corpus)
    by_id = {l.id: l for l in corpus.layouts}
    if args.layout_id not in by_id:
        raise ParseError(f"unknown layout id: {args.layout_id}")
    svg = render_layout_svg(by_id[args.layout_id], corpus)
    with open(args.out, "w") as f:
        f.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layoutprior",
        description="Band-partitioned co-occurrence priors for UI layouts",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"layoutprior {__version__} (graph schema v{GRAPH_SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-prior",
                       help="compute per-band co-occurrence graphs")
    p.add_argument("corpus")
    p.add_argument("--bands", type=int, default=10,
                   help="number of horizontal bands (default 10)")
    p.add_argument("--band-width", type=float, default=None,
                   help="band width as fraction of height "
                        "(default 1/bands, non-overlapping)")
    p.add_argument("--keep-raw", action="store_true",
                   help="store raw integer counts in the graph file")
    p.add_argument("--dot", default=None, help="also write Graphviz DOT here")
    p.add_argument("--dot-threshold", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_prior)

    def add_assoc(p):
        p.add_argument("--assoc", choices=["gauss", "single", "equal"],
                       default="gauss")
        p.add_argument("--sigma", type=float, default=0.3,
                       help="Gaussian association std (default 0.3)")
        p.add_argument("--mu", type=float, default=0.0)

    p = sub.add_parser("condition",
                       help="condition proposal features on the graphs")
    p.add_argument("proposals")
    p.add_argument("graphs")
    p.add_argument("--nodes", required=True,
                   help="node feature matrix (MTX-JSON), C x K")
    p.add_argument("--embed", required=True,
                   help="embedding matrix (MTX-JSON), K x D' (default D'=512)")
    add_assoc(p)
    p.add_argument("--map", choices=["soft", "hard"], default="soft")
    p.add_argument("--concat", action="store_true",
                   help="concatenate original features before writing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser("rescore", help="re-score detections with the prior")
    p.add_argument("detections")
    p.add_argument("graphs")
    p.add_argument("--lambda", dest="blend", type=float, default=0.5,
                   help="blend strength in [0,1] (default 0.5)")
    p.add_argument("--confidence", type=float, default=0.8,
                   help="label confidence when building soft logits")
    add_assoc(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("eval", help="COCO-style AP/AR evaluation")
    p.add_argument("detections")
    p.add_argument("ground_truth")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate synthetic corpora")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-clean", required=True)
    p.add_argument("--out-noisy", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("render", help="render one layout to SVG")
    p.add_argument("corpus")
    p.add_argument("layout_id")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ShapeError as e:
        return _err(str(e), 3)
    except (LayoutPriorError, OSError) as e:
        return _err(str(e), 2)


if __name__ == "__main__":
    sys.exit(main())
