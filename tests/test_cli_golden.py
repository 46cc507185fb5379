"""Every CLI output pinned by sha256: the bytes each command writes, and
its stdout and stderr, on small fixed inputs.

The inputs are the eval fixture, a hand-written native corpus with int,
negative, signed-zero and past-the-canvas coordinates and absent and
present scores, and `block_spec` corpora made by `synth`, two of them on
int canvases, one side beyond int64. A change that
alters any byte of any output fails here; a deliberate change of an
output format re-pins the digests and says why.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from layoutprior.cli import main
from layoutprior.core import save_matrix

from conftest import FIXTURES, spec_to_obj
from test_synth import block_spec

ODD = {
    "classes": ["A", "B", "C"],
    "layouts": [
        {"id": "ints", "width": 100, "height": 200, "components": [
            {"bbox": [0, 5, 10, 15], "class": "A"},
            {"bbox": [-0.0, 15, 10, 25], "class": "B", "score": 0.5},
            {"bbox": [-20, -0.0, 130, 250], "class": "C", "score": 1},
            {"bbox": [5, 150, 5, 150], "class": "A", "score": 0.0}]},
        {"id": "floats", "width": 320.5, "height": 480.25, "components": [
            {"bbox": [1.5, 2.25, 300.125, 40.0], "class": "C"},
            {"bbox": [10.0, 400.0, 330.0, 500.0], "class": "B"},
            {"bbox": [5e-324, 1e-300, 2.5, 3.5], "class": "A",
             "score": 0.875}]},
        {"id": "empty", "width": 10, "height": 10},
    ],
}


def run(argv) -> str:
    """The stdout and stderr of one in-process run, which must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0, err.getvalue()
    return out.getvalue() + "\x00" + err.getvalue()


def digests(d) -> dict:
    """sha256 of every output of the pipeline run in directory `d`: files
    by name, and each run's stdout and stderr under its label."""
    spec, odd = d / "spec.json", d / "odd.json"
    spec.write_text(json.dumps(spec_to_obj(block_spec(noise=0.3, seed=3))))
    int_spec, huge_spec = d / "int_spec.json", d / "huge_spec.json"
    for path, canvas in ((int_spec, [300, 500]), (huge_spec, [640, 10**30])):
        path.write_text(json.dumps(
            {**spec_to_obj(block_spec(noise=0.3, seed=5)), "canvas": canvas}))
    odd.write_text(json.dumps(ODD))
    rng = np.random.Generator(np.random.PCG64(11))
    W, Z = d / "W.json", d / "Z.json"
    save_matrix(rng.standard_normal((6, 8)), W)
    save_matrix(rng.standard_normal((8, 16)), Z)
    props = d / "props.json"
    props.write_text(json.dumps({
        "height": 640.0,
        "boxes": [[0, 5, 10, 15], [0, 400, 10, 500], [20, 620, 30, 640]],
        "logits": {"rows": 3, "cols": 6,
                   "data": rng.standard_normal(18).tolist()},
        "features": {"rows": 3, "cols": 4,
                     "data": rng.standard_normal(12).tolist()}}))
    dets, gts = f"{FIXTURES}/eval_dets.json", f"{FIXTURES}/eval_gts.json"
    f = {name: d / name for name in (
        "clean.json", "noisy.json", "g.json", "g.dot", "g2.json", "g2.dot",
        "go.json", "go.dot", "r.json", "r2.json", "ro.json", "f.json",
        "f2.json", "l.svg", "lo.svg", "le.svg", "ic.json", "in.json",
        "ig.json", "ir.json", "il.svg", "hc.json", "hn.json", "hg.json",
        "hr.json", "hl.svg")}
    std = {
        "synth": run(["synth", spec, "--n", "40", "--seed", "7",
                      "--out-clean", f["clean.json"],
                      "--out-noisy", f["noisy.json"]]),
        "build-prior": run(["build-prior", f["clean.json"], "--keep-raw",
                            "--bands", "4", "--dot", f["g.dot"],
                            "--out", f["g.json"]]),
        "build-prior-overlap": run(["build-prior", f["noisy.json"],
                                    "--keep-raw", "--bands", "3",
                                    "--band-width", "0.5",
                                    "--dot", f["g2.dot"],
                                    "--out", f["g2.json"]]),
        "build-prior-odd": run(["build-prior", odd, "--keep-raw", "--bands",
                                "2", "--dot", f["go.dot"],
                                "--out", f["go.json"]]),
        "rescore": run(["rescore", f["noisy.json"], f["g.json"],
                        "--out", f["r.json"]]),
        "rescore-single": run(["rescore", f["noisy.json"], f["g2.json"],
                               "--lambda", "0.3", "--assoc", "single",
                               "--out", f["r2.json"]]),
        "rescore-odd": run(["rescore", odd, f["go.json"],
                            "--out", f["ro.json"]]),
        "eval": run(["eval", f["r.json"], f["clean.json"],
                     "--format", "json"]),
        "eval-noisy": run(["eval", f["noisy.json"], f["clean.json"],
                           "--format", "json"]),
        "eval-fixture": run(["eval", dets, gts, "--format", "json"]),
        "eval-table": run(["eval", f["r2.json"], f["clean.json"]]),
        "condition": run(["condition", props, f["g2.json"], "--nodes", W,
                          "--embed", Z, "--out", f["f.json"]]),
        "condition-hard": run(["condition", props, f["g2.json"], "--nodes",
                               W, "--embed", Z, "--map", "hard", "--concat",
                               "--out", f["f2.json"]]),
        "render": run(["render", f["noisy.json"], "synth-00003",
                       "--out", f["l.svg"]]),
        "render-odd": run(["render", odd, "ints", "--out", f["lo.svg"]]),
        "render-empty": run(["render", odd, "empty", "--out", f["le.svg"]]),
    }
    for p, spec_path in (("i", int_spec), ("h", huge_spec)):
        std.update({
            f"synth-{p}": run(["synth", spec_path, "--n", "5",
                               "--out-clean", f[f"{p}c.json"],
                               "--out-noisy", f[f"{p}n.json"]]),
            f"build-prior-{p}": run(["build-prior", f[f"{p}c.json"],
                                     "--keep-raw", "--bands", "2",
                                     "--out", f[f"{p}g.json"]]),
            f"rescore-{p}": run(["rescore", f[f"{p}n.json"], f[f"{p}g.json"],
                                 "--out", f[f"{p}r.json"]]),
            f"render-{p}": run(["render", f[f"{p}n.json"], "synth-00002",
                                "--out", f[f"{p}l.svg"]]),
        })
    out = {name: hashlib.sha256(p.read_bytes()).hexdigest()
           for name, p in f.items()}
    out.update({f"{label} stdio": hashlib.sha256(text.encode()).hexdigest()
                for label, text in std.items()})
    return out


PINNED = {
    "clean.json":
        "84def5d57e7c47f77a576b95e0e0725222ea45c2125ff967d0788e4c3f58c5a1",
    "noisy.json":
        "b7ca9a2b509eb017b4aed95e318d895b43d6f3a7f2ac6f234d91645277631331",
    "g.json":
        "a0868fee8ab15dc61d7d777981b05fbc5da4944202ddb8add03d774283871f24",
    "g.dot":
        "e1303d6eed53d1585053b3fabeff5ae218fc77b1582fa8bffbec798ec312a370",
    "g2.json":
        "eb1f591d12cee510e02d892a57741a5bbbb8c1e6db309419aea5783ea3b44530",
    "g2.dot":
        "acd3da0b4b6c288859272c8994fa2df4c0004adffcc16d1017b31ca3103a52d7",
    "go.json":
        "c5093f84ef66225d674c5577c19b18147eb158ff4d45e83be183d0c59103597b",
    "go.dot":
        "58e73eea448a504641cc69a9fdedd96f62cbf0a4f9acd0457996ad6141111fab",
    "r.json":
        "90eae2e3a353129a480f00cb602297f5011f8bd6fe67c4825138528bc128430a",
    "r2.json":
        "5f48d4dfa9e9626badc3a6e154efcbca45b7b96e8724093a0abe9a65f20e54ff",
    "ro.json":
        "d3ae7bdb47cf1a576c7de39b3afa7e1f7e58a3bf85975ef40d8b9ff5eb488c75",
    "f.json":
        "e799716ebc4acf80242ad44db76c17e15f787931e5d78372b231728b7cdb0ebe",
    "f2.json":
        "784ca85d3417b16640c6427dbc6ac8e728f569f5ad26f6fdf4e90906e19d86a7",
    "l.svg":
        "cf617ed614ee365b24b894f7d4f44c684b5ce1e657ee1af093f3ae5d86e9b73b",
    "lo.svg":
        "7e9ab7e4781799894369ae288c6050fe4b9c21a5f93da54eb1243e04a80ad84a",
    "le.svg":
        "c0367badfafa5bbc61d5c043e4b3519a79c9438f76b3f2d0fb76c180abd5e35f",
    "synth stdio":
        "ded911bcb150090be878348b6b3e71b1544cf3d13202b2249b0ce676dd31f0e2",
    "build-prior stdio":
        "ff61cbbcfbeed3f14495f1978236f9e4fc350560efc42b4e31d4e619dc0dcd88",
    "build-prior-overlap stdio":
        "d5b3c71c548ffbd2fdf411a1ce4c0e526fdd9f9ebaf4e52db8cca152f963e982",
    "build-prior-odd stdio":
        "3764b9bdb4fea49841f7abc7ba454db3008ae440b1f87fcdef99d1c9fdfe27fb",
    "rescore stdio":
        "066d6478e5888678fb26a9cf449f6f2d56c0e6e989fcdecfbfbeb88dee7534a9",
    "rescore-single stdio":
        "839948de824a622d90695b811a9d0456b313acc7c2eddf2dc53244f614e36131",
    "rescore-odd stdio":
        "30b3cd52cc4e322eda74a806afc893db666b80808cfbdd0f850bd31521f81520",
    "eval stdio":
        "c197b4b587c629a82d68b56c21b680302a6148825bc5a1a039af6aabbb0ebd61",
    "eval-noisy stdio":
        "cce3d1cfe966cb8b721e107dce9349e4830b3c5bfd9ef0107b25355297deeee0",
    "eval-fixture stdio":
        "fb4560d8d0ae1f6f00c0f82bfddbe0e8f6f5c5260870b05bdc0f95e61805f7c8",
    "eval-table stdio":
        "8b769ea6b64f1a4fade6b4601e7d5a3c2960669f2d0b777ebf13eb9ba371430a",
    "condition stdio":
        "87d339c4b8b9aee15c1f03682d495cd55ab4d51664db69d7b7fefd0e7485792b",
    "condition-hard stdio":
        "27813b44b9325d3f8577ac5fac88565d85b535342b51d74fc373ac3cec1e0f3e",
    "render stdio":
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "render-odd stdio":
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "render-empty stdio":
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "ic.json":
        "85589c256e88a4f0031ede077939151ab4bb910e92f4b2cbedac69a328d45464",
    "in.json":
        "9410c84b7b98196d15aeced6c77ffba97f7a87e864ecd38149627d56457221de",
    "ig.json":
        "2e8edbc0d29dfbd7a1ee4912425acd92d7a86feabf625e4e36fe44dad341957e",
    "ir.json":
        "7e2bfccc44f19f776c6e303b2998fd0b226ea346bac182c4dc309a43e648a266",
    "il.svg":
        "3bbf586da047886d23786541bfcc384dace0970356cddbfe3a9529d072ae1576",
    "hc.json":
        "a4ea3dedbc0bffaa3e938c10f531126692842efb4b65fa139acea157c73de38a",
    "hn.json":
        "3a6fecd7892ac7f84a665d854e9de95c9f81c50265ed9a3ed8ee4a3777fc9ee8",
    "hg.json":
        "2e8edbc0d29dfbd7a1ee4912425acd92d7a86feabf625e4e36fe44dad341957e",
    "hr.json":
        "58c88ab11e6f3111b060c7f87e0ac79220c2c5400f676d70a419d6e11eda456b",
    "hl.svg":
        "ae6f71cf74f35367405d76c2d6a6d79cdb2a22e69c713eb0ca8b6a4eb5d7bf9e",
    "synth-i stdio":
        "4aa2145c45f075a75336a84b0f1be377420e06bd9b3e4dafca26750f1c993e7a",
    "build-prior-i stdio":
        "71fcccf6c6721391bef8d05fa164d0f72bbe147c145bef2e4d8a047cc771e2bd",
    "rescore-i stdio":
        "03980a829280423aae2a31e496835f845e5a425cf159d0cc5ae67c42c70e8dd3",
    "render-i stdio":
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "synth-h stdio":
        "4aa2145c45f075a75336a84b0f1be377420e06bd9b3e4dafca26750f1c993e7a",
    "build-prior-h stdio":
        "71fcccf6c6721391bef8d05fa164d0f72bbe147c145bef2e4d8a047cc771e2bd",
    "rescore-h stdio":
        "03980a829280423aae2a31e496835f845e5a425cf159d0cc5ae67c42c70e8dd3",
    "render-h stdio":
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
}


def test_cli_outputs_match_pins(tmp_path):
    assert digests(tmp_path) == PINNED
