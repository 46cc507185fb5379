import argparse
import codecs
import copy
import gzip
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from layoutprior import (ProposalBatch, cli, ingest, load_native,
                         save_native)
from layoutprior.cli import build_parser, main
from layoutprior.conditioning import (MappingPolicy, NodeFeatures,
                                      condition_features, soft_mapping)
from layoutprior.core import (LayoutDocument, load_matrix, open_text,
                              save_matrix, write_text)
from layoutprior.prior import load_graphs
from layoutprior.ingest import corpus_to_obj
from layoutprior.render import render_layout_svg
from layoutprior.synth import generate

from conftest import refuse_layout_objects, save_proposals, spec_to_obj
from reference_eval import reference_evaluate
from test_synth import block_spec

CORPUS = {
    "classes": ["A", "B", "C"],
    "layouts": [
        {"id": "l1", "width": 100, "height": 100, "components": [
            {"bbox": [0, 5, 10, 15], "class": "A"},
            {"bbox": [0, 15, 10, 25], "class": "B"},
            {"bbox": [0, 75, 10, 85], "class": "C"},
        ]},
    ],
}


# Association parameters that would make every band weight NaN or zero.
BAD_ASSOCIATION = [("--sigma", "nan"), ("--sigma", "inf"), ("--sigma", "0"),
                   ("--mu", "nan"), ("--mu", "inf")]


@pytest.fixture
def corpus_path(tmp_path):
    p = tmp_path / "corpus.json"
    p.write_text(json.dumps(CORPUS))
    return p


@pytest.fixture
def graphs_path(tmp_path, corpus_path):
    out = tmp_path / "graphs.json"
    assert main(["build-prior", str(corpus_path), "--bands", "2",
                 "--out", str(out)]) == 0
    return out


class TestBuildPrior:
    def test_golden_values(self, graphs_path):
        g = load_graphs(graphs_path)
        expected = np.eye(3)
        expected[0, 1] = expected[1, 0] = 0.5
        assert np.allclose(g.edges[0], expected)
        assert np.array_equal(g.edges[1], np.eye(3))

    def test_single_band(self, tmp_path, corpus_path):
        out = tmp_path / "g1.json"
        assert main(["build-prior", str(corpus_path), "--bands", "1",
                     "--out", str(out)]) == 0
        assert load_graphs(out).n_graphs == 1

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["build-prior", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "g.json")]) == 2

    def test_layout_without_id_exit_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(CORPUS))
        del bad["layouts"][0]["id"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["build-prior", str(p), "--out",
                     str(tmp_path / "g.json")]) == 2
        assert "layout 0: missing key 'id'" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,reason", [
        ("width", "10", "width must be a JSON number, got '10'"),
        ("bbox", ["1.5", 0, 2, 3],
         "bbox coordinate must be a JSON number, got '1.5'"),
        ("score", "0.5", "score must be a JSON number, got '0.5'"),
        ("components", {}, "components must be a list, got {}"),
    ])
    def test_contract_fault_exit_2(self, tmp_path, capsys, field, value,
                                   reason):
        bad = json.loads(json.dumps(CORPUS))
        bad["layouts"].insert(0, {"id": "l0", "width": 5, "height": 5})
        lay = bad["layouts"][1]
        target = lay if field in ("width", "components") \
            else lay["components"][1]
        target[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        assert main(["build-prior", str(p), "--out",
                     str(tmp_path / "g.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {p}: layout 1: id 'l1': {reason}\n")

    def test_dot_output(self, tmp_path, corpus_path):
        dot = tmp_path / "g.dot"
        assert main(["build-prior", str(corpus_path), "--bands", "2",
                     "--out", str(tmp_path / "g.json"),
                     "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("graph cooccurrence")

    def test_nan_dot_threshold_exit_2(self, tmp_path, corpus_path, capsys):
        # E > nan holds nowhere: the graph would have no edges.
        out, dot = tmp_path / "g.json", tmp_path / "g.dot"
        assert main(["build-prior", str(corpus_path), "--out", str(out),
                     "--dot", str(dot), "--dot-threshold", "nan"]) == 2
        assert capsys.readouterr().err == \
            "error: dot threshold must be a number, got nan\n"
        assert not out.exists() and not dot.exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 8.75 GiB for an array"),
         "Unable to allocate 8.75 GiB for an array"),
        (MemoryError(), "out of memory")])
    def test_memory_error_exit_2(self, tmp_path, corpus_path, capsys,
                                 monkeypatch, exc, message):
        # An input that asks for more memory than the host holds, such as
        # --bands 100000000, is an input error, not a traceback.
        def build_prior(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "build_prior", build_prior)
        out = tmp_path / "g.json"
        assert main(["build-prior", str(corpus_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # Counts numpy's size check refuses without allocating; near 2**63
    # np.arange gives no rows at all.
    @pytest.mark.parametrize("bands", [2**62, 2**63 - 1, 2**63])
    def test_band_count_past_array_limit_exit_2(self, tmp_path, corpus_path,
                                                capsys, bands):
        out = tmp_path / "g.json"
        assert main(["build-prior", str(corpus_path), "--bands", str(bands),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: n_bands must be at most 576460752303423487, the most "
            "band bounds an array can hold\n")
        assert not out.exists()

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["build-prior", "--help"])
        assert "default 10" in capsys.readouterr().out


class TestCondition:
    def write_inputs(self, tmp_path, graphs_path, rng):
        props = {
            "layout_id": "l1", "height": 100.0,
            "boxes": [[0, 5, 10, 15], [0, 45, 10, 55]],
            "logits": {"rows": 2, "cols": 3,
                       "data": list(rng.standard_normal(6))},
        }
        pp = tmp_path / "props.json"
        pp.write_text(json.dumps(props))
        W = rng.standard_normal((3, 4))
        Z = rng.standard_normal((4, 5))
        wp, zp = tmp_path / "W.json", tmp_path / "Z.json"
        save_matrix(W, wp)
        save_matrix(Z, zp)
        return pp, wp, zp, props, W, Z

    def test_identity_graph_pipeline(self, tmp_path, rng):
        # build a single-band prior from a corpus with no co-occurrence,
        # giving identity graphs: F' must equal S W Z
        solo = {"classes": ["A", "B", "C"], "layouts": [
            {"id": "x", "width": 100, "height": 100,
             "components": [{"bbox": [0, 0, 10, 10], "class": "A"}]}]}
        cp = tmp_path / "solo.json"
        cp.write_text(json.dumps(solo))
        gp = tmp_path / "g.json"
        assert main(["build-prior", str(cp), "--bands", "1",
                     "--out", str(gp)]) == 0
        pp, wp, zp, props, W, Z = self.write_inputs(tmp_path, gp, rng)
        out = tmp_path / "fprime.json"
        assert main(["condition", str(pp), str(gp), "--nodes", str(wp),
                     "--embed", str(zp), "--out", str(out)]) == 0
        logits = np.array(props["logits"]["data"]).reshape(2, 3)
        S = soft_mapping(logits, MappingPolicy.SOFT)
        assert np.allclose(load_matrix(out), S @ W @ Z, atol=1e-9)

    def test_library_parity(self, tmp_path, graphs_path, rng):
        pp, wp, zp, props, W, Z = self.write_inputs(tmp_path, graphs_path, rng)
        out = tmp_path / "fprime.json"
        assert main(["condition", str(pp), str(graphs_path),
                     "--nodes", str(wp), "--embed", str(zp),
                     "--sigma", "0.3", "--out", str(out)]) == 0
        from layoutprior.conditioning import (AssociationPolicy,
                                              band_association,
                                              condition_features,
                                              load_proposals)
        batch = load_proposals(pp)
        graphs = load_graphs(graphs_path)
        alpha = band_association(batch, graphs.band_config, AssociationPolicy())
        S = soft_mapping(batch.logits, MappingPolicy.SOFT)
        expected = condition_features(S, alpha, graphs, NodeFeatures(W), Z)
        assert np.allclose(load_matrix(out), expected, atol=1e-12)

    def test_centre_past_height_range_quiet(self, tmp_path, graphs_path, rng,
                                            capsys):
        """A centre over a height so small that the quotient overflows is
        at t = +inf, below the page: the last band, with no warning."""
        pp, wp, zp, props, W, Z = self.write_inputs(tmp_path, graphs_path, rng)
        props.update(height=5e-324, boxes=[[0, 600, 10, 700]],
                     logits={"rows": 1, "cols": 3, "data": [0.5, 0.0, 1.0]})
        pp.write_text(json.dumps(props))
        out = tmp_path / "fprime.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["condition", str(pp), str(graphs_path),
                         "--nodes", str(wp), "--embed", str(zp),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == "conditioned features: 1x5\n"
        S = soft_mapping(np.array([[0.5, 0.0, 1.0]]), MappingPolicy.SOFT)
        want = condition_features(S, np.array([[0.0, 1.0]]),
                                  load_graphs(graphs_path), NodeFeatures(W), Z)
        assert np.array_equal(load_matrix(out), want)

    def test_shape_mismatch_exit_3(self, tmp_path, graphs_path, rng):
        pp, wp, zp, _, _, _ = self.write_inputs(tmp_path, graphs_path, rng)
        bad = tmp_path / "bad_embed.json"
        save_matrix(rng.standard_normal((7, 5)), bad)
        assert main(["condition", str(pp), str(graphs_path),
                     "--nodes", str(wp), "--embed", str(bad),
                     "--out", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize("bad, message", [
        ("nodes", r"node features \(4, 4\)"),
        ("embed", r"cannot multiply nodes \(3, 4\) by embed \(5, 5\)"),
        ("features", r"features shape \(3, 2\) does not match 2 boxes"),
    ])
    def test_wrong_row_count_exit_3(self, tmp_path, graphs_path, rng, capsys,
                                    bad, message):
        # C + 1 node rows, K + 1 embedding rows, or a feature row too many.
        pp, wp, zp, props, _, _ = self.write_inputs(tmp_path, graphs_path,
                                                    rng)
        if bad == "nodes":
            save_matrix(rng.standard_normal((4, 4)), wp)
        elif bad == "embed":
            save_matrix(rng.standard_normal((5, 5)), zp)
        else:
            props["features"] = {"rows": 3, "cols": 2, "data": [0.0] * 6}
            pp.write_text(json.dumps(props))
        out = tmp_path / "o.json"
        assert main(["condition", str(pp), str(graphs_path),
                     "--nodes", str(wp), "--embed", str(zp), "--concat",
                     "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(message, err)

    @pytest.mark.parametrize("field, value, reason", [
        ("height", "100", "height must be a JSON number, got '100'"),
        ("boxes", [["0", 5, 10, 15], [0, 45, 10, 55]],
         "box coordinate must be a JSON number, got '0'"),
        ("logits", {"rows": 2, "cols": 3, "data": ["1.5"] * 6},
         "bad MTX-JSON data: entry must be a JSON number, got '1.5'"),
    ])
    def test_numeric_string_in_proposals_exit_2(
            self, tmp_path, graphs_path, rng, capsys, field, value, reason):
        pp, wp, zp, props, _, _ = self.write_inputs(tmp_path, graphs_path,
                                                    rng)
        props[field] = value
        pp.write_text(json.dumps(props))
        out = tmp_path / "o.json"
        assert main(["condition", str(pp), str(graphs_path),
                     "--nodes", str(wp), "--embed", str(zp),
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pp}: ") and reason in err

    @pytest.mark.parametrize("bad", [[10, 45, 0, 55],
                                     [0, 45, float("nan"), 55]])
    def test_bad_box_exit_2_names_first(self, tmp_path, graphs_path, rng,
                                        capsys, bad):
        pp, wp, zp, props, _, _ = self.write_inputs(tmp_path, graphs_path,
                                                    rng)
        props["boxes"] = [[0, 5, 10, 15], bad, [0, 60, 10, 50]]
        props["logits"] = {"rows": 3, "cols": 3, "data": [0.0] * 9}
        pp.write_text(json.dumps(props))
        out = tmp_path / "o.json"
        assert main(["condition", str(pp), str(graphs_path),
                     "--nodes", str(wp), "--embed", str(zp),
                     "--out", str(out)]) == 2
        assert not out.exists()
        x1, y1, x2, y2 = map(float, bad)
        assert capsys.readouterr().err == (
            f"error: {pp}: malformed box ({x1},{y1},{x2},{y2}): coordinates "
            "must be finite with x1 <= x2 and y1 <= y2\n")

    def test_numeric_string_in_matrix_exit_2(self, tmp_path, graphs_path,
                                             rng, capsys):
        pp, wp, zp, _, _, _ = self.write_inputs(tmp_path, graphs_path, rng)
        obj = json.loads(wp.read_text())
        obj["data"][3] = "1e3"
        wp.write_text(json.dumps(obj))
        assert main(["condition", str(pp), str(graphs_path),
                     "--nodes", str(wp), "--embed", str(zp),
                     "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {wp}: bad MTX-JSON data: entry must be a JSON number, "
            "got '1e3'\n")

    def test_concat_without_features_exit_2(self, tmp_path, graphs_path, rng,
                                            capsys):
        pp, wp, zp, _, _, _ = self.write_inputs(tmp_path, graphs_path, rng)
        out = tmp_path / "o.json"
        assert main(["condition", str(pp), str(graphs_path),
                     "--nodes", str(wp), "--embed", str(zp), "--concat",
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == ("error: --concat requires proposal "
                                           "features\n")

    def test_overflow_exit_2_writes_nothing(self, tmp_path, graphs_path, rng,
                                            capsys):
        # Finite inputs whose product overflows: the result is not a file
        # that --nodes or --embed would accept, so none is written.
        pp, wp, zp, _, _, _ = self.write_inputs(tmp_path, graphs_path, rng)
        save_matrix(np.full((3, 4), 1e308), wp)
        save_matrix(np.full((4, 5), 1e308), zp)
        out = tmp_path / "fprime.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["condition", str(pp), str(graphs_path),
                         "--nodes", str(wp), "--embed", str(zp),
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("mapping", [m.value for m in MappingPolicy])
    def test_logits_without_columns_exit_3(self, tmp_path, graphs_path, rng,
                                           capsys, mapping):
        pp, wp, zp, props, _, _ = self.write_inputs(tmp_path, graphs_path,
                                                    rng)
        props["boxes"] = props["boxes"][:1]
        props["logits"] = {"rows": 1, "cols": 0, "data": []}
        pp.write_text(json.dumps(props))
        out = tmp_path / "o.json"
        assert main(["condition", str(pp), str(graphs_path),
                     "--nodes", str(wp), "--embed", str(zp),
                     "--map", mapping, "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: class mapping needs 2-D logits with at least one column, "
            "got shape (1, 0)\n")

    @pytest.mark.parametrize("flag, value", BAD_ASSOCIATION)
    def test_bad_association_exit_2(self, tmp_path, graphs_path, rng, capsys,
                                    flag, value):
        pp, wp, zp, _, _, _ = self.write_inputs(tmp_path, graphs_path, rng)
        out = tmp_path / "fprime.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["condition", str(pp), str(graphs_path),
                         "--nodes", str(wp), "--embed", str(zp),
                         flag, value, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "association needs" in capsys.readouterr().err

    def test_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["condition", "--help"])
        out = capsys.readouterr().out
        assert "0.3" in out and "512" in out


class TestRescoreCmd:
    def test_lambda_zero_identity(self, tmp_path, corpus_path, graphs_path):
        out = tmp_path / "rescored.json"
        assert main(["rescore", str(corpus_path), str(graphs_path),
                     "--lambda", "0", "--out", str(out)]) == 0
        rescored = load_native(out)
        original = load_native(corpus_path)
        for a, b in zip(original.layouts[0].components,
                        rescored.layouts[0].components):
            assert a.class_id == b.class_id

    def test_lambda_out_of_range_exit_2(self, tmp_path, corpus_path,
                                        graphs_path, capsys):
        assert main(["rescore", str(corpus_path), str(graphs_path),
                     "--lambda", "1.5", "--out", str(tmp_path / "o.json")]) == 2
        # rejected before any file is read
        assert main(["rescore", str(tmp_path / "none.json"),
                     str(tmp_path / "none.json"), "--lambda", "1.5",
                     "--out", str(tmp_path / "o.json")]) == 2
        assert "none.json" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", BAD_ASSOCIATION + [
        ("--confidence", "nan"), ("--confidence", "inf")])
    def test_bad_parameter_exit_2(self, tmp_path, corpus_path, graphs_path,
                                  capsys, flag, value):
        out = tmp_path / "o.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rescore", str(corpus_path), str(graphs_path),
                         flag, value, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert flag[2:] in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["5", "-1", "1.5", "-0.25"])
    def test_confidence_outside_unit_interval_exit_2(
            self, tmp_path, corpus_path, graphs_path, capsys, value):
        out = tmp_path / "o.json"
        assert main(["rescore", str(corpus_path), str(graphs_path),
                     "--confidence", value, "--out", str(out)]) == 2
        assert not out.exists()
        assert "label confidence must lie in [0, 1], got " in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_confidence_bounds_accepted(self, tmp_path, corpus_path,
                                        graphs_path, value):
        assert main(["rescore", str(corpus_path), str(graphs_path),
                     "--confidence", value,
                     "--out", str(tmp_path / "o.json")]) == 0

    # Two layouts whose box centres lie off the two bands' centroids (0.25
    # and 0.75) and off their midpoint, so single assignment has no ties.
    TWO_LAYOUTS = {"classes": ["A", "B"], "layouts": [
        {"id": "p", "width": 100, "height": 100, "components": [
            {"bbox": [0, 10, 10, 20], "class": "A", "score": 0.9},
            {"bbox": [0, 40, 10, 52], "class": "B", "score": 0.6},
            {"bbox": [0, 80, 10, 90], "class": "A"}]},
        {"id": "q", "width": 50, "height": 200, "components": [
            {"bbox": [0, 20, 10, 30], "class": "B", "score": 0.7},
            {"bbox": [0, 150, 10, 170], "class": "A", "score": 0.4}]}]}

    @pytest.mark.parametrize("flag, value, limit, moved", [
        ("--sigma", "1e200", "equal", False),
        ("--sigma", "1e-170", "single", False),
        ("--sigma", "1e-160", "single", False),
        # Every |delta - mu| rounds to 1e300, so band 0 takes every box:
        # single assignment of the same boxes moved to the top of the page.
        ("--mu", "1e300", "single", True)])
    def test_extreme_gaussian_takes_its_limit(self, tmp_path, capsys, flag,
                                              value, limit, moved):
        """A Gaussian so wide, so narrow or so far off that its weights
        overflow rescores as the limit it tends to, quietly."""
        top = copy.deepcopy(self.TWO_LAYOUTS)
        for lay in top["layouts"]:
            for c in lay["components"]:
                c["bbox"][1], c["bbox"][3] = 0, 1
        paths = {}
        for name, corpus in (("corpus", self.TWO_LAYOUTS), ("top", top)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(corpus))
        gp = tmp_path / "g.json"
        assert main(["build-prior", str(paths["corpus"]), "--bands", "2",
                     "--out", str(gp)]) == 0
        capsys.readouterr()

        def rescored(corpus, options):
            out = tmp_path / "r.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["rescore", str(corpus), str(gp), "--lambda",
                             "0.7", *options, "--out", str(out)])
            assert code == 0
            assert capsys.readouterr().err == \
                "re-scored 2 layouts (lambda=0.7)\n"
            return [(c["class"], c["score"]) for lay in
                    json.loads(out.read_text())["layouts"]
                    for c in lay["components"]]

        got = rescored(paths["corpus"], [flag, value])
        want = rescored(paths["top" if moved else "corpus"],
                        ["--assoc", limit])
        assert got == want
        assert len({score for _, score in got}) > 1

    def test_far_mu_rescores_as_band_zero(self, tmp_path, capsys):
        """mu = 1e15 or 1e16 lies so far below every box that the float
        distances round to ties between bands; the rows still take band 0,
        as mu = 1e300 does, not equal weights."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_to_obj(block_spec(noise=0.3, seed=3))))
        noisy, gp = tmp_path / "noisy.json", tmp_path / "g.json"
        assert main(["synth", str(spec), "--n", "20", "--out-clean",
                     str(tmp_path / "clean.json"), "--out-noisy",
                     str(noisy)]) == 0
        assert main(["build-prior", str(noisy), "--bands", "10",
                     "--out", str(gp)]) == 0

        def rescored(*options):
            out = tmp_path / "r.json"
            assert main(["rescore", str(noisy), str(gp), *options,
                         "--out", str(out)]) == 0
            return out.read_bytes()

        want = rescored("--mu", "1e300")
        assert rescored("--mu", "1e15") == rescored("--mu", "1e16") == want
        assert want != rescored("--assoc", "equal")

    @pytest.mark.parametrize("change", [
        lambda g: g.pop("edges"), lambda g: g.update(n_bands=3),
        lambda g: g.update(edges=[]), lambda g: g.update(n_bands="a"),
        lambda g: g.update(n_bands=2.7),
        lambda g: g.update(n_bands=True, edges=g["edges"][:1]),
        lambda g: g.update(band_width_frac="0.5"),
        lambda g: g["edges"][0]["data"].__setitem__(0, "1.0"),
    ])
    def test_malformed_graph_file_exit_2(self, tmp_path, corpus_path,
                                         graphs_path, capsys, change):
        obj = json.loads(graphs_path.read_text())
        change(obj)
        graphs_path.write_text(json.dumps(obj))
        assert main(["rescore", str(corpus_path), str(graphs_path),
                     "--out", str(tmp_path / "o.json")]) == 2
        assert str(graphs_path) in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, reason", [
        ("band_width_frac", "0.5",
         "band_width_frac must be a JSON number, got '0.5'"),
        ("edges", " 1 ", "bad MTX-JSON data: entry must be a JSON number, "
         "got ' 1 '"),
        ("raw_counts", "2", "bad MTX-JSON data: entry must be a JSON number, "
         "got '2'"),
    ])
    def test_numeric_string_in_graph_file_exit_2(
            self, tmp_path, corpus_path, capsys, field, value, reason):
        gp = tmp_path / "raw.json"
        assert main(["build-prior", str(corpus_path), "--bands", "2",
                     "--keep-raw", "--out", str(gp)]) == 0
        capsys.readouterr()
        obj = json.loads(gp.read_text())
        if field == "band_width_frac":
            obj[field] = value
        else:
            obj[field][1]["data"][0] = value
        gp.write_text(json.dumps(obj))
        out = tmp_path / "o.json"
        assert main(["rescore", str(corpus_path), str(gp),
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {gp}: {reason}\n"

    def test_negative_edges_exit_2(self, tmp_path, corpus_path, graphs_path,
                                   capsys):
        obj = json.loads(graphs_path.read_text())
        band = obj["edges"][0]
        band["data"] = [-5.0] * len(band["data"])
        graphs_path.write_text(json.dumps(obj))
        out = tmp_path / "o.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["rescore", str(corpus_path), str(graphs_path),
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "edges must be finite and non-negative" in err
        assert str(graphs_path) in err


@pytest.mark.parametrize("argv, rule", [
    (["build-prior", "{f}", "--bands", "0"], "n_bands must be >= 1"),
    (["build-prior", "{f}", "--band-width", "2"], "band_width_frac must be"),
    (["condition", "{f}", "{f}", "--nodes", "{f}", "--embed", "{f}",
      "--sigma", "nan"], "association needs a finite mu"),
    (["rescore", "{f}", "{f}", "--confidence", "nan"],
     "label confidence must be finite, got nan"),
    (["build-prior", "{f}", "--dot-threshold", "nan"],
     "dot threshold must be a number, got nan"),
])
def test_options_checked_before_files(tmp_path, capsys, argv, rule):
    missing, out = tmp_path / "none.json", tmp_path / "o.json"
    assert main([a.format(f=missing) for a in argv]
                + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert rule in err and "none.json" not in err
    assert not out.exists()


class TestEvalCmd:
    def test_identical_scores_one(self, tmp_path, corpus_path, capsys):
        scored = json.loads(json.dumps(CORPUS))
        for c in scored["layouts"][0]["components"]:
            c["score"] = 1.0
        dp = tmp_path / "dets.json"
        dp.write_text(json.dumps(scored))
        assert main(["eval", str(dp), str(corpus_path),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ap"] == pytest.approx(1.0)
        assert report["ap50"] == pytest.approx(1.0)

    def test_fixture_matches_golden(self, capsys):
        import os
        fix = os.path.join(os.path.dirname(__file__), "fixtures")
        assert main(["eval", os.path.join(fix, "eval_dets.json"),
                     os.path.join(fix, "eval_gts.json"),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        with open(os.path.join(fix, "eval_expected.json")) as f:
            expected = json.load(f)
        for k, v in expected.items():
            assert report[k] == pytest.approx(v, abs=1e-6)

    @pytest.mark.parametrize("field,value", [
        ("bbox", [0, float("nan"), 5, 5]),
        ("bbox", [0, 0, float("inf"), 5]),
        ("score", float("nan")),
        ("score", float("-inf")),
    ])
    def test_non_finite_input_exit_2(self, tmp_path, corpus_path, capsys,
                                     field, value):
        bad = json.loads(json.dumps(CORPUS))
        bad["layouts"][0]["components"][0][field] = value
        dp = tmp_path / "dets.json"
        dp.write_text(json.dumps(bad))  # writes NaN / Infinity literals
        assert main(["eval", str(dp), str(corpus_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_areas_past_float_range_quiet(self, tmp_path, capsys):
        # Box areas that overflow float64: every field is the sentinel,
        # as the reference gives, with no numpy warning on stderr.
        side = 1e308
        gts = {"classes": ["A"], "layouts": [
            {"id": "x", "width": side, "height": side, "components": [
                {"bbox": [0.0, 0.0, side, side], "class": "A"}]}]}
        dets = json.loads(json.dumps(gts))
        dets["layouts"][0]["components"] = [
            {"bbox": [0.0, 0.0, side, side], "class": "A", "score": 0.9},
            {"bbox": [0.0, 0.0, side / 2, side], "class": "A",
             "score": 0.5}]
        dp, gp = tmp_path / "dets.json", tmp_path / "gts.json"
        dp.write_text(json.dumps(dets))
        gp.write_text(json.dumps(gts))
        assert main(["eval", str(dp), str(gp), "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        report = json.loads(out)
        want = reference_evaluate(dets, gts)
        assert {k: report[k] for k in want} == want
        assert set(want.values()) == {-1.0}

    def test_id_mismatch_exit_2(self, tmp_path, corpus_path):
        other = json.loads(json.dumps(CORPUS))
        other["layouts"][0]["id"] = "different"
        op = tmp_path / "other.json"
        op.write_text(json.dumps(other))
        assert main(["eval", str(op), str(corpus_path)]) == 2

    def test_id_mismatch_lists_five_ids_a_side(self, tmp_path, capsys):
        def corpus(name, ids):
            p = tmp_path / name
            p.write_text(json.dumps({"classes": ["A"], "layouts": [
                {"id": i, "width": 10, "height": 10} for i in ids]}))
            return str(p)

        # Nine ground-truth ids, eight missing; five unknown, none more.
        dets = corpus("dets.json", ["g0", "x5", "x4", "x3", "x2", "x1"])
        gts = corpus("gts.json", [f"g{i}" for i in range(9)])
        assert main(["eval", dets, gts]) == 2
        assert capsys.readouterr().err == (
            "error: layout id sets differ; missing from detections: "
            "['g1', 'g2', 'g3', 'g4', 'g5'] and 3 more, unknown in "
            "detections: ['x1', 'x2', 'x3', 'x4', 'x5']\n")

    def test_vocabulary_mismatch_exit_2(self, tmp_path, corpus_path, capsys):
        other = json.loads(json.dumps(CORPUS))
        other["classes"].append("D")
        op = tmp_path / "other.json"
        op.write_text(json.dumps(other))
        assert main(["eval", str(op), str(corpus_path)]) == 2
        assert capsys.readouterr().err == ("error: detection and ground-truth "
                                           "vocabularies differ\n")

    def test_table_output(self, corpus_path, capsys):
        scored = json.loads(json.dumps(CORPUS))
        for c in scored["layouts"][0]["components"]:
            c["score"] = 0.5
        import tempfile, os
        with tempfile.TemporaryDirectory() as d:
            dp = os.path.join(d, "dets.json")
            with open(dp, "w") as f:
                json.dump(scored, f)
            assert main(["eval", dp, str(corpus_path)]) == 0
        out = capsys.readouterr().out
        assert "AP50" in out


class TestSynthCmd:
    def test_determinism_and_zero_noise(self, tmp_path):
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec_to_obj(block_spec(noise=0.0, seed=5))))
        c1, n1 = tmp_path / "c1.json", tmp_path / "n1.json"
        c2, n2 = tmp_path / "c2.json", tmp_path / "n2.json"
        assert main(["synth", str(sp), "--n", "5",
                     "--out-clean", str(c1), "--out-noisy", str(n1)]) == 0
        assert main(["synth", str(sp), "--n", "5",
                     "--out-clean", str(c2), "--out-noisy", str(n2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()
        assert c1.read_bytes() == n1.read_bytes()

    def test_seed_override(self, tmp_path):
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec_to_obj(block_spec(seed=5))))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["synth", str(sp), "--n", "3", "--seed", "123",
                     "--out-clean", str(a),
                     "--out-noisy", str(tmp_path / "x.json")]) == 0
        assert main(["synth", str(sp), "--n", "3", "--seed", "124",
                     "--out-clean", str(b),
                     "--out-noisy", str(tmp_path / "y.json")]) == 0
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("boxes_per_band", [5, 2]), ("boxes_per_band", [1]),
        ("boxes_per_band", [-1, 2]), ("boxes_per_band", [1.5, 2]),
        ("boxes_per_band", [0, 2 ** 63]), ("box_size_frac", [0.5, -1]),
        ("box_size_frac", [1.5, 2]), ("canvas", [float("nan"), 640]),
        ("canvas", [360, 0]), ("canvas", [360, 10 ** 400]), ("seed", -1),
        pytest.param("seed", float("inf"), id="seed-inf-overflow"),
        pytest.param("seed", 1.9, id="seed-float"),
        pytest.param("seed", True, id="seed-bool"),
        pytest.param("planted_graphs", [np.eye(6).tolist(),
                                        np.eye(5).tolist()], id="ragged"),
        pytest.param("class_marginals", [[1 / 6] * 6], id="one-marginal"),
        pytest.param("planted_graphs", [
            np.eye(6).tolist(), np.diag([1.0] * 5 + [float("nan")]).tolist()],
            id="nan-weight"),
        # Each spells the spec's class names, but is no list.
        pytest.param("classes", "ABCDEF", id="classes-string"),
        pytest.param("classes", dict.fromkeys("ABCDEF", 0),
                     id="classes-object"),
        # Numbers spelt as strings, which numpy would read.
        pytest.param("planted_graphs", [[["1"] * 6] * 6] * 2,
                     id="graphs-numeric-string"),
        pytest.param("class_marginals", [["0.5", "0.5"] + [0] * 4,
                                         [0] * 4 + ["0.5", "0.5"]],
                     id="marginals-numeric-string"),
    ])
    def test_invalid_spec_exit_2(self, tmp_path, capsys, field, value):
        obj = spec_to_obj(block_spec())
        obj[field] = value
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(obj))
        assert main(["synth", str(sp), "--n", "2",
                     "--out-clean", str(tmp_path / "c.json"),
                     "--out-noisy", str(tmp_path / "n.json")]) == 2
        err = capsys.readouterr().err
        assert field in err or "generator spec" in err
        assert not (tmp_path / "c.json").exists()

    def test_box_range_past_32_bits_exit_2(self, tmp_path, capsys):
        # With --n 1 the old reader drew 2**31 boxes per band on average.
        obj = spec_to_obj(block_spec())
        obj["boxes_per_band"] = [0, 2 ** 32]
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(obj))
        assert main(["synth", str(sp), "--n", "0",
                     "--out-clean", str(tmp_path / "c.json"),
                     "--out-noisy", str(tmp_path / "n.json")]) == 2
        assert "hi - lo < 2**32" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_negative_seed_override_exit_2(self, tmp_path):
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec_to_obj(block_spec())))
        assert main(["synth", str(sp), "--n", "2", "--seed", "-1",
                     "--out-clean", str(tmp_path / "c.json"),
                     "--out-noisy", str(tmp_path / "n.json")]) == 2

    def test_negative_count_exit_2(self, tmp_path, capsys):
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec_to_obj(block_spec())))
        assert main(["synth", str(sp), "--n", "-1",
                     "--out-clean", str(tmp_path / "c.json"),
                     "--out-noisy", str(tmp_path / "n.json")]) == 2
        assert "layout count" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    # The two outputs are written together; each must still hold what
    # json.dump writes through core.open_text, as when they were written
    # one after the other.

    @staticmethod
    def dumped_bytes(tmp_path, corpus, name):
        """The bytes of json.dump(corpus_to_obj(corpus), indent=1,
        sort_keys=True) and a newline in a file named `name`."""
        p = tmp_path / "oracle" / name
        p.parent.mkdir(exist_ok=True)
        with open_text(p, "wt") as f:
            json.dump(corpus_to_obj(corpus), f, indent=1, sort_keys=True)
            f.write("\n")
        return p.read_bytes()

    def synth(self, tmp_path, clean, noisy):
        spec = block_spec(noise=0.3, seed=5)
        sp = tmp_path / "spec.json"
        sp.write_text(json.dumps(spec_to_obj(spec)))
        code = main(["synth", str(sp), "--n", "6", "--out-clean", str(clean),
                     "--out-noisy", str(noisy)])
        return code, generate(spec, 6)

    @pytest.mark.parametrize("name", ["both.json", "both.json.gz"])
    def test_one_path_for_both_holds_noisy(self, tmp_path, name):
        p = tmp_path / name
        for other in (p, tmp_path / "." / name):
            code, (_, noisy) = self.synth(tmp_path, p, other)
            assert code == 0
            assert p.read_bytes() == self.dumped_bytes(tmp_path, noisy, name)

    @pytest.mark.parametrize("names", [("c.json.gz", "n.json"),
                                       ("c.json", "n.json.gz")])
    def test_gz_and_plain_outputs(self, tmp_path, names):
        paths = [tmp_path / n for n in names]
        code, corpora = self.synth(tmp_path, *paths)
        assert code == 0
        for p, corpus in zip(paths, corpora):
            assert p.read_bytes() == self.dumped_bytes(tmp_path, corpus,
                                                       p.name)

    @pytest.mark.parametrize("second", [True, False])
    def test_unwritable_path_exit_2(self, tmp_path, capsys, second):
        bad = tmp_path / "dir.json"
        bad.mkdir()
        paths = [tmp_path / "ok.json", bad][::1 if second else -1]
        code, _ = self.synth(tmp_path, *paths)
        assert code == 2
        assert str(bad) in capsys.readouterr().err


class TestRenderCmd:
    def test_renders_components(self, tmp_path, corpus_path):
        out = tmp_path / "l1.svg"
        assert main(["render", str(corpus_path), "l1",
                     "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<?xml")
        assert svg.count("<rect") == 4  # canvas + 3 components
        assert ">A<" in svg or ">A " in svg or "A</text>" in svg

    def test_deterministic_bytes(self, tmp_path, corpus_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", str(corpus_path), "l1", "--out", str(a)]) == 0
        assert main(["render", str(corpus_path), "l1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_layout(self, tmp_path):
        empty = {"classes": ["A"], "layouts": [
            {"id": "e", "width": 50, "height": 50, "components": []}]}
        cp = tmp_path / "c.json"
        cp.write_text(json.dumps(empty))
        out = tmp_path / "e.svg"
        assert main(["render", str(cp), "e", "--out", str(out)]) == 0
        assert out.read_text().count("<rect") == 1

    def test_unknown_id_exit_2(self, tmp_path, corpus_path):
        assert main(["render", str(corpus_path), "nope",
                     "--out", str(tmp_path / "x.svg")]) == 2

    def test_builds_only_the_rendered_layout(self, tmp_path, monkeypatch):
        clean, _ = generate(block_spec(seed=2), 5)
        cp = tmp_path / "c.json"
        save_native(clean, cp)
        loaded, built = [], []

        def load(path):
            loaded.append(load_native(path))
            return loaded[-1]

        def layout(*args):
            built.append(args[0])
            return LayoutDocument(*args)

        monkeypatch.setattr(cli, "load_native", load)
        monkeypatch.setattr(ingest, "LayoutDocument", layout)
        out = tmp_path / "l.svg"
        assert main(["render", str(cp), "synth-00002",
                     "--out", str(out)]) == 0
        assert built == []
        assert "layouts" not in vars(loaded[0])
        monkeypatch.undo()
        corpus = load_native(cp)
        want = render_layout_svg(corpus, 2)
        assert out.read_text() == want


def test_commands_build_no_layout_objects(tmp_path, monkeypatch, capsys,
                                          rng):
    """synth, build-prior, rescore, condition, eval and render write the
    same bytes when the layout object classes refuse to be built."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_obj(block_spec(noise=0.3, seed=3))))
    props = tmp_path / "props.json"
    props.write_text(json.dumps({
        "height": 640.0, "boxes": [[0, 5, 10, 15], [0, 400, 10, 500]],
        "logits": {"rows": 2, "cols": 6,
                   "data": list(rng.standard_normal(12))},
        "features": {"rows": 2, "cols": 3,
                     "data": list(rng.standard_normal(6))}}))
    W, Z = tmp_path / "W.json", tmp_path / "Z.json"
    save_matrix(rng.standard_normal((6, 4)), W)
    save_matrix(rng.standard_normal((4, 5)), Z)

    def run(d):
        d.mkdir()
        p = {n: str(d / n) for n in ("clean.json", "noisy.json", "g.json",
                                     "r.json", "f.json", "l.svg")}
        assert main(["synth", str(spec), "--n", "6",
                     "--out-clean", p["clean.json"],
                     "--out-noisy", p["noisy.json"]]) == 0
        assert main(["build-prior", p["noisy.json"], "--bands", "3",
                     "--keep-raw", "--out", p["g.json"]]) == 0
        assert main(["rescore", p["noisy.json"], p["g.json"],
                     "--out", p["r.json"]]) == 0
        assert main(["condition", str(props), p["g.json"], "--nodes", str(W),
                     "--embed", str(Z), "--concat",
                     "--out", p["f.json"]]) == 0
        assert main(["render", p["clean.json"], "synth-00002",
                     "--out", p["l.svg"]]) == 0
        capsys.readouterr()
        assert main(["eval", p["r.json"], p["clean.json"],
                     "--format", "json"]) == 0
        return capsys.readouterr().out, [Path(v).read_bytes()
                                         for v in p.values()]

    want = run(tmp_path / "objects")
    refuse_layout_objects(monkeypatch)
    assert run(tmp_path / "arrays") == want


# Every file the CLI writes, by name; each is also written under name + ".gz".
OUTPUTS = ("clean.json", "noisy.json", "g.json", "g.dot", "r.json", "f.json",
           "l.svg")


def run_outputs(inputs, d, suffix):
    """Run every writing command into directory `d`, each output file
    named from OUTPUTS plus `suffix`, each input read from the previous
    command's output; returns the output paths by name."""
    d.mkdir()
    out = {name: str(d / (name + suffix)) for name in OUTPUTS}
    assert main(["synth", inputs["spec"], "--n", "6",
                 "--out-clean", out["clean.json"],
                 "--out-noisy", out["noisy.json"]]) == 0
    assert main(["build-prior", out["noisy.json"], "--bands", "3",
                 "--keep-raw", "--dot", out["g.dot"],
                 "--out", out["g.json"]]) == 0
    assert main(["rescore", out["noisy.json"], out["g.json"],
                 "--out", out["r.json"]]) == 0
    assert main(["condition", inputs["props"], out["g.json"],
                 "--nodes", inputs["W"], "--embed", inputs["Z"],
                 "--out", out["f.json"]]) == 0
    layout_id = load_native(out["clean.json"]).layouts[0].id
    assert main(["render", out["clean.json"], layout_id,
                 "--out", out["l.svg"]]) == 0
    return out


class TestGzipOutput:
    @pytest.fixture
    def inputs(self, tmp_path, rng):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_to_obj(block_spec(noise=0.3, seed=3))))
        props = tmp_path / "props.json"
        props.write_text(json.dumps({
            "layout_id": "p", "height": 640.0,
            "boxes": [[0, 5, 10, 15], [0, 400, 10, 500]],
            "logits": {"rows": 2, "cols": 6,
                       "data": list(rng.standard_normal(12))}}))
        W, Z = tmp_path / "W.json", tmp_path / "Z.json"
        save_matrix(rng.standard_normal((6, 4)), W)
        save_matrix(rng.standard_normal((4, 5)), Z)
        return {"spec": str(spec), "props": str(props), "W": str(W),
                "Z": str(Z)}

    def test_round_trip_and_stable_bytes(self, tmp_path, inputs, capsys):
        plain = run_outputs(inputs, tmp_path / "plain", "")
        gz = run_outputs(inputs, tmp_path / "gz", ".gz")
        again = run_outputs(inputs, tmp_path / "again", ".gz")
        for name in OUTPUTS:
            data = Path(gz[name]).read_bytes()
            assert gzip.decompress(data) == Path(plain[name]).read_bytes()
            assert data[4:8] == b"\0\0\0\0"  # the gzip header's mtime
            assert Path(again[name]).read_bytes() == data
        # Consumers read the compressed outputs back.
        assert load_graphs(gz["g.json"]).raw_counts is not None
        assert np.array_equal(load_matrix(gz["f.json"]),
                              load_matrix(plain["f.json"]))
        reports = []
        for out in (plain, gz):
            capsys.readouterr()
            assert main(["eval", out["r.json"], out["clean.json"],
                         "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and '"ap"' in reports[0]

    @pytest.mark.parametrize("command", [
        ["build-prior", "{plain}", "--out", "{out}"],
        ["rescore", "{corpus}", "{plain}", "--out", "{out}"],
    ])
    def test_plain_file_named_gz_exit_2(self, tmp_path, corpus_path,
                                        graphs_path, capsys, command):
        # A corpus or a graph file, not compressed, under a .gz name.
        source = corpus_path if command[0] == "build-prior" else graphs_path
        plain = tmp_path / (source.name + ".gz")
        plain.write_bytes(source.read_bytes())
        out = tmp_path / "out.json"
        argv = [a.format(plain=plain, corpus=corpus_path, out=out)
                for a in command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {plain}: invalid JSON" in err
        assert not out.exists()


# A JSON array nested past the decoder's recursion limit.
DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize("kind, command", [
    ("corpus", ["build-prior", "{deep}", "--out", "{out}"]),
    ("graphs", ["rescore", "{corpus}", "{deep}", "--out", "{out}"]),
    ("proposals", ["condition", "{deep}", "{graphs}", "--nodes", "{W}",
                   "--embed", "{Z}", "--out", "{out}"]),
    ("matrix", ["condition", "{props}", "{graphs}", "--nodes", "{deep}",
                "--embed", "{Z}", "--out", "{out}"]),
    ("spec", ["synth", "{deep}", "--n", "1", "--out-clean", "{out}",
              "--out-noisy", "{out}"]),
])
def test_deeply_nested_json_exit_2(tmp_path, corpus_path, graphs_path, rng,
                                   capsys, kind, command, suffix):
    pp, wp, zp, *_ = TestCondition().write_inputs(tmp_path, graphs_path, rng)
    deep = tmp_path / f"deep-{kind}.json{suffix}"
    write_text(deep, [DEEP])
    out = tmp_path / "out.json"
    argv = [a.format(deep=deep, corpus=corpus_path, graphs=graphs_path,
                     props=pp, W=wp, Z=zp, out=out) for a in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {deep}: invalid JSON" in err
    assert "Traceback" not in err
    assert not out.exists()


HUGE = "1" + "0" * 400  # a JSON int past the float range


@pytest.mark.parametrize("kind, text, reason", [
    pytest.param("proposals", '{"height": %s, "boxes": [], "logits": '
                 '{"rows": 0, "cols": 3, "data": []}}' % HUGE,
                 "bad proposal batch object: int too large to convert to "
                 "float", id="height"),
    pytest.param("proposals", '{"height": 1, "boxes": [[0, 0, 1, %s]], '
                 '"logits": {"rows": 1, "cols": 3, "data": [0, 0, 0]}}'
                 % HUGE, "bad proposal batch object: int too large to "
                 "convert to float", id="box"),
    pytest.param("matrix", '{"rows": Infinity, "cols": 1, "data": [1]}',
                 "bad MTX-JSON object: cannot convert float infinity to "
                 "integer", id="rows"),
    pytest.param("matrix", '{"rows": 1, "cols": -Infinity, "data": [1]}',
                 "bad MTX-JSON object: cannot convert float infinity to "
                 "integer", id="cols"),
])
def test_overflow_keeps_reader_prefix(tmp_path, graphs_path, rng, capsys,
                                      kind, text, reason):
    """A number that overflows on conversion is named by its reader's
    prefix, as any other malformed field is, and exits 2."""
    pp, wp, zp, *_ = TestCondition().write_inputs(tmp_path, graphs_path, rng)
    bad = tmp_path / f"bad-{kind}.json"
    bad.write_text(text)
    out = tmp_path / "out.json"
    props, nodes = (bad, wp) if kind == "proposals" else (pp, bad)
    assert main(["condition", str(props), str(graphs_path), "--nodes",
                 str(nodes), "--embed", str(zp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: {reason}\n" in err
    assert "Traceback" not in err
    assert not out.exists()


# Runs the CLI once per JSON-encoded argv given, and writes the locale's
# preferred encoding and the exit codes as JSON to the file named first.
LOCALE_CHILD = """
import json, locale, sys
from layoutprior.cli import main
codes = [main(json.loads(argv)) for argv in sys.argv[2:]]
with open(sys.argv[1], "w") as f:
    json.dump([locale.getpreferredencoding(False), codes], f)
"""


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Under an ASCII locale, the CLI reads a corpus whose class name is
    UTF-8 text and writes DOT and SVG files of a non-ASCII class name,
    with the bytes that a UTF-8 run writes."""
    escaped = json.dumps(CORPUS).replace('"A"', '"bot\\u00f3n"')
    (tmp_path / "escaped.json").write_text(escaped)  # ASCII
    (tmp_path / "raw.json").write_bytes(json.dumps(
        json.loads(escaped), ensure_ascii=False).encode("utf-8"))
    src = str(Path(cli.__file__).resolve().parent.parent)
    ascii_env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C",
                 "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    utf8_env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "1"}
    argvs = [["build-prior", "../raw.json", "--bands", "2", "--out",
              "raw-g.json"],
             ["build-prior", "../escaped.json", "--bands", "2", "--out",
              "g.json", "--dot", "g.dot"],
             ["render", "../escaped.json", "l1", "--out", "x.svg"]]
    outputs = {}
    for name, env in (("ascii", ascii_env), ("utf8", utf8_env)):
        d = tmp_path / name
        d.mkdir()
        result = subprocess.run(
            [sys.executable, "-c", LOCALE_CHILD, "result.json",
             *map(json.dumps, argvs)],
            cwd=d, env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        encoding, codes = json.loads((d / "result.json").read_text())
        assert codes == [0, 0, 0], result.stderr
        outputs[name] = encoding, {f: (d / f).read_bytes() for f in (
            "raw-g.json", "g.json", "g.dot", "x.svg")}
    (ascii_encoding, ascii_files), (_, utf8_files) = outputs.values()
    assert codecs.lookup(ascii_encoding).name != "utf-8"
    assert ascii_files == utf8_files
    assert "bot\u00f3n".encode("utf-8") in utf8_files["g.dot"]
    assert "bot\u00f3n".encode("utf-8") in utf8_files["x.svg"]


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert "layoutprior" in out and "schema v1" in out


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    built = []

    def build_parser():
        built.append(1)
        return real()

    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", build_parser)
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["render", str(tmp_path / "none.json"), "l1",
                         "--out", str(tmp_path / "o.svg")]) == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def _scaled(corpus, factor):
    """A copy of a native corpus with every side and coordinate times
    factor."""
    corpus = copy.deepcopy(corpus)
    for lay in corpus["layouts"]:
        lay["width"] *= factor
        lay["height"] *= factor
        for comp in lay["components"]:
            comp["bbox"] = [v * factor for v in comp["bbox"]]
    return corpus


def test_float_range_corpora_quiet(tmp_path, capsys):
    """build-prior, rescore and eval on canvases near the float limit, where
    box areas and some coordinate sums pass the float range: no warning,
    even as an error, and the same graphs, classes and scores as on the
    same corpus scaled by 2**-1000, which is exact."""
    side, tall = 1e308, 1.7e308
    big = {"classes": ["A", "B"], "layouts": [
        {"id": "x", "width": side, "height": side, "components": [
            {"bbox": [0.0, 0.0, side, side], "class": "A", "score": 0.9},
            {"bbox": [0.0, 0.0, side / 2, side], "class": "B", "score": 0.5},
            {"bbox": [side / 2, 0.9 * side, side, side], "class": "A",
             "score": 0.7},
            {"bbox": [0.0, 0.95 * side, side / 4, side], "class": "B",
             "score": 0.2}]},
        {"id": "y", "width": tall, "height": tall, "components": [
            {"bbox": [0.0, 1.6e308, tall, tall], "class": "A", "score": 0.3},
            {"bbox": [0.0, 1.5e308, 1e308, tall], "class": "B",
             "score": 0.6}]}]}

    def pipeline(name, corpus):
        cp, gp, rp = (tmp_path / f"{name}-{f}.json"
                      for f in ("corpus", "graphs", "rescored"))
        cp.write_text(json.dumps(corpus))
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in (["build-prior", str(cp), "--bands", "3",
                          "--out", str(gp)],
                         ["rescore", str(cp), str(gp), "--out", str(rp)],
                         ["eval", str(rp), str(cp), "--format", "json"]):
                assert main(argv) == 0, argv
                runs.append(capsys.readouterr())
        rescored = [(c["class"], c["score"]) for lay in
                    json.loads(rp.read_text())["layouts"]
                    for c in lay["components"]]
        return gp.read_bytes(), rescored, runs

    graphs, rescored, runs = pipeline("big", big)
    small_graphs, small_rescored, small_runs = pipeline(
        "small", _scaled(big, 2.0 ** -1000))
    assert graphs == small_graphs and rescored == small_rescored
    # The same summaries on stderr as the scaled run, and none from eval.
    assert [r.err for r in runs] == [r.err for r in small_runs]
    assert runs[2].err == ""
    report = json.loads(runs[2].out)
    want = reference_evaluate(json.loads((tmp_path / "big-rescored.json")
                                         .read_text()), big)
    assert {k: report[k] for k in want} == want


# Replacement values for the mutation fuzz. None is big enough to make a
# valid input ask for more than about 10^3 boxes: counts come from small
# integers, and huge numbers are either rejected or only stretch boxes.
FUZZ_VALUES = (None, "x", "", [], {}, [1, 2], {"a": 1}, True, -1, 0, 1, 0.5,
               float("nan"), float("inf"), -float("inf"), 1e308, 10 ** 400)


def mutate(obj, rng):
    """A copy of a JSON tree with one node, reached by a random walk from
    the root that stops early half the time, dropped, duplicated at the
    end of its list or replaced by one of FUZZ_VALUES."""
    obj = copy.deepcopy(obj)
    parent, key, node = None, None, obj
    while isinstance(node, (dict, list)) and node and \
            (parent is None or rng.random() < 0.5):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, keys[rng.integers(len(keys))]
        node = parent[key]
    if parent is None:
        return FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]
    op = rng.integers(3)
    if op == 0:
        del parent[key]
    elif op == 1 and isinstance(parent, list):
        parent.append(copy.deepcopy(node))
    else:
        parent[key] = FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]
    return obj


def test_mutation_fuzz_exits_cleanly(tmp_path, capsys):
    """Mutated corpora, graph files, generator specs, proposal batches and
    matrices, and files that are not JSON: every run of every subcommand
    that reads them exits 0, 2 or 3 and none raises. The corpus commands
    also read mutations of a corpus whose sides and boxes lie near the
    float limit, and of its graphs."""
    scored = copy.deepcopy(CORPUS)
    scored["layouts"].append({"id": "l2", "width": 50, "height": 80,
                              "components": [{"bbox": [1, 2, 30, 40],
                                              "class": "B"}]})
    for k, comp in enumerate(c for lay in scored["layouts"]
                             for c in lay["components"]):
        comp["score"] = 0.9 - 0.1 * k
    graphs = tmp_path / "graphs.json"
    cp = tmp_path / "corpus.json"
    cp.write_text(json.dumps(scored))
    assert main(["build-prior", str(cp), "--bands", "2", "--keep-raw",
                 "--out", str(graphs)]) == 0
    proposals = {"layout_id": "l1", "height": 100.0,
                 "boxes": [[0, 5, 10, 15], [0, 45, 10, 55]],
                 "logits": {"rows": 2, "cols": 3,
                            "data": [0.5, -1.0, 2.0, 0.0, 1.0, -0.5]},
                 "features": {"rows": 2, "cols": 2,
                              "data": [1.0, 2.0, 3.0, 4.0]}}
    base = {"corpus": scored, "graphs": json.loads(graphs.read_text()),
            "spec": spec_to_obj(block_spec(boxes=(1, 3))),
            "proposals": proposals,
            "nodes": {"rows": 3, "cols": 2, "data": [1.0, 0.0, 0.0, 1.0,
                                                     0.5, 0.5]},
            "embed": {"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0, 4.0]}}
    wide = _scaled(scored, 1.7e308 / 100)
    cp.write_text(json.dumps(wide))
    assert main(["build-prior", str(cp), "--bands", "2", "--keep-raw",
                 "--out", str(graphs)]) == 0
    wide = {**base, "corpus": wide, "graphs": json.loads(graphs.read_text())}

    def write(name, obj):
        p = tmp_path / f"{name}.json"
        if isinstance(obj, bytes):
            p.write_bytes(obj)
        else:
            p.write_text(json.dumps(obj))
        return str(p)

    out = str(tmp_path / "out")
    commands = {
        "eval": lambda f: ["eval", f("corpus"), f("truth"), "--format", "json"],
        "build-prior": lambda f: ["build-prior", f("corpus"), "--bands", "2",
                                  "--keep-raw", "--out", out],
        "render": lambda f: ["render", f("corpus"), "l1", "--out", out],
        "rescore": lambda f: ["rescore", f("corpus"), f("graphs"), "--out", out],
        "synth": lambda f: ["synth", f("spec"), "--n", "2",
                            "--out-clean", out, "--out-noisy", out + "2"],
        "condition": lambda f: ["condition", f("proposals"), f("graphs"),
                                "--nodes", f("nodes"), "--embed", f("embed"),
                                "--concat", "--out", out],
    }
    targets = {"eval": ["corpus", "truth"], "rescore": ["corpus", "graphs"],
               "synth": ["spec"],
               "condition": ["proposals", "graphs", "nodes", "embed"]}

    def run(case, name, target, inputs):
        argv = commands[name](lambda n: write(n, inputs[n]))
        try:
            code = main(argv)
        except Exception as e:  # reported with the input that caused it
            pytest.fail(f"case {case}: {name} with mutated {target} "
                        f"{str(inputs[target])[:300]} raised {e!r}")
        assert code in (0, 2, 3), (case, name, code)
        return code

    rng = np.random.Generator(np.random.PCG64(4711))
    names = list(commands)
    corpus_names = ["eval", "build-prior", "render", "rescore"]
    for name in corpus_names:  # the float-range inputs are valid
        assert run("wide", name, "corpus",
                   {"truth": wide["corpus"], **wide}) == 0, name
    for case in range(480):
        if case < 360:
            name, inputs = names[case % len(names)], base
        else:
            name, inputs = corpus_names[case % len(corpus_names)], wide
        inputs = {"truth": inputs["corpus"], **inputs}
        target = targets.get(name, ["corpus"])
        target = target[rng.integers(len(target))]
        inputs[target] = mutate(inputs[target], rng)
        run(case, name, target, inputs)
    # Bytes that are not JSON, and not UTF-8, in every file read.
    for name in commands:
        for target in targets.get(name, ["corpus"]):
            inputs = {"truth": base["corpus"], **base,
                      target: b"\xff\xfe{not json"}
            assert run("bytes", name, target, inputs) == 2, (name, target)
    capsys.readouterr()


# Every value the option fuzz gives each int or float option, as text.
OPTION_VALUES = ("nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e308", "-1",
                 str(2 ** 31), str(2 ** 62), str(2 ** 63))

# Option values the fuzz does not run, as the ints n with lo < n <= hi
# (no hi: every n past lo), and why: each would allocate or loop at scale.
AT_SCALE = {
    ("synth", "--n"): (64, None, "generates n layouts, block by block"),
    ("build-prior", "--bands"): (64, 2 ** 59 - 1,
                                 "allocates an n-row band table and n "
                                 "C x C graphs; past 2**59 - 1 it is "
                                 "refused before any work"),
}

# A run of each subcommand that succeeds, with "{out}" its output folder.
OPTION_BASE = {
    "build-prior": ["{noisy}", "--dot", "{out}/g.dot", "--out",
                    "{out}/g.json"],
    "condition": ["{props}", "{graphs}", "--nodes", "{W}", "--embed", "{Z}",
                  "--concat", "--out", "{out}/f.json"],
    "rescore": ["{noisy}", "{graphs}", "--out", "{out}/r.json"],
    "eval": ["{noisy}", "{clean}", "--format", "json"],
    "synth": ["{spec}", "--n", "3", "--out-clean", "{out}/c.json",
              "--out-noisy", "{out}/n.json"],
    "render": ["{clean}", "synth-00000", "--out", "{out}/l.svg"],
}


def numeric_options():
    """(subcommand, option) of every int or float option of build_parser()."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(OPTION_BASE)
    return [(name, a.option_strings[0]) for name, p in sub.choices.items()
            for a in p._actions if a.option_strings and a.type in (int, float)]


@pytest.mark.parametrize("command, option", numeric_options())
def test_numeric_option_fuzz(tmp_path, capsys, rng, command, option):
    """Each value of OPTION_VALUES, save those AT_SCALE skips, exits 0, 2
    or 3 without a traceback, and no file written holds NaN or Infinity."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(spec_to_obj(block_spec(noise=0.3, seed=3))))
    clean, noisy = generate(block_spec(noise=0.3, seed=3), 4)
    files = {"spec": spec, "clean": tmp_path / "clean.json",
             "noisy": tmp_path / "noisy.json", "graphs": tmp_path / "g.json",
             "props": tmp_path / "props.json", "W": tmp_path / "W.json",
             "Z": tmp_path / "Z.json"}
    save_native(clean, files["clean"])
    save_native(noisy, files["noisy"])
    assert main(["build-prior", str(files["noisy"]), "--bands", "3",
                 "--out", str(files["graphs"])]) == 0
    C = clean.vocabulary.size
    save_proposals(ProposalBatch(noisy.boxes[:3], rng.standard_normal((3, C)),
                                 640.0, rng.standard_normal((3, 2))),
                   files["props"])
    save_matrix(rng.standard_normal((C, 4)), files["W"])
    save_matrix(rng.standard_normal((4, 5)), files["Z"])
    lo, hi, _ = AT_SCALE.get((command, option), (None, None, None))
    for k, value in enumerate(OPTION_VALUES):
        if lo is not None and re.fullmatch(r"-?\d+", value) \
                and int(value) > lo and (hi is None or int(value) <= hi):
            continue
        out = tmp_path / f"out{k}"
        out.mkdir()
        argv = [command] + [a.format(out=out, **files)
                            for a in OPTION_BASE[command]]
        try:
            code = main(argv + [f"{option}={value}"])
        except SystemExit as e:  # argparse refuses the value
            code = e.code
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and "Traceback" not in err, (value, err)
        for written in out.iterdir():
            text = written.read_text()
            assert "NaN" not in text and "Infinity" not in text, (value,
                                                                   written)
