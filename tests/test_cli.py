import copy
import gzip
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from layoutprior import load_native
from layoutprior.cli import main
from layoutprior.conditioning import (MappingPolicy, NodeFeatures,
                                      soft_mapping)
from layoutprior.core import load_matrix, save_matrix
from layoutprior.prior import load_graphs
from layoutprior.synth import spec_to_obj

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

    def test_dot_output(self, tmp_path, corpus_path):
        dot = tmp_path / "g.dot"
        assert main(["build-prior", str(corpus_path), "--bands", "2",
                     "--out", str(tmp_path / "g.json"),
                     "--dot", str(dot)]) == 0
        assert dot.read_text().startswith("graph cooccurrence")

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

    @pytest.mark.parametrize("change", [
        lambda g: g.pop("edges"), lambda g: g.update(n_bands=3),
        lambda g: g.update(edges=[]), lambda g: g.update(n_bands="a"),
        lambda g: g.update(n_bands=2.7),
        lambda g: g.update(n_bands=True, edges=g["edges"][:1]),
    ])
    def test_malformed_graph_file_exit_2(self, tmp_path, corpus_path,
                                         graphs_path, capsys, change):
        obj = json.loads(graphs_path.read_text())
        change(obj)
        graphs_path.write_text(json.dumps(obj))
        assert main(["rescore", str(corpus_path), str(graphs_path),
                     "--out", str(tmp_path / "o.json")]) == 2
        assert str(graphs_path) in capsys.readouterr().err

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

    def test_id_mismatch_exit_2(self, tmp_path, corpus_path):
        other = json.loads(json.dumps(CORPUS))
        other["layouts"][0]["id"] = "different"
        op = tmp_path / "other.json"
        op.write_text(json.dumps(other))
        assert main(["eval", str(op), str(corpus_path)]) == 2

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


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert "layoutprior" in out and "schema v1" in out


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
    that reads them exits 0, 2 or 3 and none raises."""
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
    for case in range(360):
        name = list(commands)[case % len(commands)]
        inputs = {"truth": base["corpus"], **base}
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
