import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lovasz_abstain import make_jaccard, make_modular, make_sqrt_card, make_zero_one
from lovasz_abstain.cli import _COMMANDS, build_parser, main
from lovasz_abstain.serialize import collection_to_obj, save_collection, save_setfn
from lovasz_abstain.setfn import PolymatroidCollection


@pytest.fixture
def files(tmp_path):
    sf = tmp_path / "zero_one.json"
    save_setfn(make_zero_one(2), sf)
    sq = tmp_path / "sqrt3.json"
    save_setfn(make_sqrt_card(3), sq)
    coll = tmp_path / "jac3.json"
    save_collection(make_jaccard(3), coll)
    sym = tmp_path / "sqrt2.json"
    save_collection(make_sqrt_card(2), sym)
    sqrt4 = tmp_path / "sqrt4.json"
    save_collection(make_sqrt_card(4), sqrt4)
    nan = tmp_path / "nan3.json"  # as save_collection wrote it before SetFunction refused a NaN table
    nan.write_text('{"k": 3, "symmetric": true, "per_label": {"0": {"k": 3, "kind": "table", '
                   '"values": [0.0, 1.0, 1.0, NaN, 1.0, 1.0, 1.0, 1.0]}}}')
    broken = {"modular_nan": '{"kind": "modular", "weights": [NaN, 1]}',
              "modular_scalar": '{"kind": "modular", "weights": 3}',
              "costs_nan": '{"weights_by_class": [NaN, 1, 1, 1]}',
              "jaccard_no_k": '{"kind": "jaccard"}',
              "table_no_values": '{"k": 2, "kind": "table"}',
              "label_no_values": '{"k": 2, "symmetric": false, "per_label": {"0": {"k": 2}}}',
              "json_list": '[1, 2]',
              "per_label_list": '{"k": 2, "symmetric": false, "per_label": [{"k": 2}]}',
              "per_label_number": '{"k": 2, "symmetric": false, "per_label": {"0": 3}}',
              "costs_short": '{"weights_by_class": [1]}',
              "jaccard20": '{"kind": "jaccard", "k": 20}',
              "labels_0_and_3": '{"k": 2, "symmetric": false, "per_label": {"0": {"k": 2, "kind": "zero_one"}, '
                                '"3": {"k": 2, "kind": "zero_one"}}}',
              "train_list": '[1]',
              "train_no_setfn": '{"k": 2}',
              "train_unknown_field": '{"k": 2, "epoch": 3, "setfn": {"kind": "zero_one", "k": 2}}',
              **{f"train_{name}": json.dumps({"k": 2, field: value, "setfn": {"kind": "zero_one", "k": 2}})
                 for name, field, value in [("negative_epochs", "epochs", -1), ("noise_3", "noise", [0, 1, 2]),
                                            ("fractional_epochs", "epochs", 2.5),
                                            ("string_feature_dim", "feature_dim", "8"),
                                            ("float_n_samples", "n_samples", 20.0),
                                            ("bool_epochs", "epochs", True), ("negative_seed", "seed", -1),
                                            ("string_lr_init", "lr_init", "0.1"), ("bool_lr_init", "lr_init", True),
                                            ("negative_epsilon", "epsilon", -1.0),
                                            ("string_epsilon", "epsilon", "0.1"),
                                            ("nan_epsilon", "epsilon", float("nan")),
                                            # options the trainer no longer has
                                            ("negative_grad_clip", "grad_clip", -1), ("label_corr_2", "label_corr", 2),
                                            ("nan_margin", "margin", float("nan")), ("scalar_taus", "taus", 5),
                                            ("string_lr_decay", "lr_decay", "0.9"),
                                            ("bool_grad_clip", "grad_clip", True), ("string_margin", "margin", "1"),
                                            ("bool_label_corr", "label_corr", False), ("tau_2", "taus", [0.5, 2.0])]}}
    for key, text in broken.items():
        (tmp_path / f"{key}.json").write_text(text)
    old_run = tmp_path / "old_run"  # written when the config had six more trainer options
    old_run.mkdir()
    (old_run / "model.json").write_text(json.dumps({"config": {
        "k": 2, "feature_dim": 4, "n_samples": 40, "epochs": 2, "seed": 1, "lr_init": 0.1, "lr_decay": 0.96,
        "lr_decay_every": 10000, "grad_clip": 1.0, "noise": 0.0, "margin": 1.0, "label_corr": 0.0, "epsilon": None,
        "taus": [0.0, 0.25, 0.5, 0.75, 1.0]}}))
    no_weights = tmp_path / "no_weights"  # a run directory whose model.json lost its weights
    no_weights.mkdir()
    (no_weights / "model.json").write_text(json.dumps({"config": {"k": 2, "feature_dim": 4, "n_samples": 40}}))
    preds = tmp_path / "preds2.csv"
    preds.write_text("c1,c2\n+,0\n-,-\n")
    truth = tmp_path / "truth1.csv"
    truth.write_text("c1,c2\n+,+\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    return {"setfn": sf, "sqrt3": sq, "jaccard3": coll, "sqrt2": sym, "sqrt4": sqrt4, "nan3": nan,
            "preds2": preds, "truth1": truth, "empty": empty, "dir": tmp_path, "old_run": old_run,
            "no_weights": no_weights,
            **{key: tmp_path / f"{key}.json" for key in broken}}


def run(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_validate(files, capsys):
    out = json.loads(run(capsys, ["validate", "--setfn", str(files["sqrt3"]), "--strict"]))
    assert out["valid"] and out["strictly_submodular"]


def test_condition1(files, capsys):
    out = json.loads(run(capsys, ["condition1", "--collection", str(files["jaccard3"])]))
    assert out["passed"]


def test_eval_extension(files, capsys):
    out = run(capsys, ["eval-extension", "--setfn", str(files["setfn"]), "--x=0.5,0.3"])
    assert float(out) == pytest.approx(0.5)


def test_eval_hinge(files, capsys):
    out = run(capsys, ["eval-hinge", "--collection", str(files["sqrt2"]),
                       "--u=0,0", "--y=++"])
    assert float(out) == pytest.approx(np.sqrt(2))


def test_eval_target(files, capsys):
    out = run(capsys, ["eval-target", "--collection", str(files["sqrt2"]),
                       "--v=+0", "--y=++"])
    assert float(out) == pytest.approx(1.0)
    out = run(capsys, ["eval-target", "--collection", str(files["sqrt2"]),
                       "--v=-+", "--y=++", "--plain"])
    assert float(out) == pytest.approx(1.0)


def test_link_and_envelope(files, capsys):
    assert run(capsys, ["link", "--u=0.9,0.1", "--tau", "0.5", "--eps", "0.25"]).strip() == "+0"
    trimmed = run(capsys, ["link", "--u=0.9,-0.1", "--tau", "0.5", "--eps", "0.25",
                           "--trim"]).strip()
    assert trimmed == "+-"
    out = json.loads(run(capsys, ["envelope", "--u=0.9,0.1", "--eps", "0.25"]))
    assert [m["report"] for m in out["members"]] == ["+0"]
    oracle_out = json.loads(
        run(capsys, ["envelope", "--u=0.9,0.1", "--eps", "0.25", "--oracle"])
    )
    assert [m["report"] for m in oracle_out["members"]] == ["+0"]


def test_verify_subcommands(files, capsys):
    out = json.loads(run(capsys, ["verify", "embedding", "--collection",
                                  str(files["sqrt2"]), "--k", "2"]))
    assert out["passed"]
    out = json.loads(run(capsys, ["verify", "representative", "--collection",
                                  str(files["sqrt2"]), "--family", "V0", "--grid", "6"]))
    assert out["passed"]
    out = json.loads(run(capsys, ["verify", "tightness", "--collection",
                                  str(files["sqrt2"]), "--grid", "6"]))
    assert out["passed"]


def test_verify_k_mismatch(files, capsys):
    assert main(["verify", "embedding", "--collection", str(files["sqrt2"]), "--k", "3"]) == 2
    assert "--k has k=3, but --collection has k=2" in capsys.readouterr().err


def test_counterexample(files, capsys):
    out = json.loads(run(capsys, ["counterexample", "--collection",
                                  str(files["sqrt2"]), "--symmetric"]))
    assert out["consistent_case"] is False and out["epsilon"] > 0
    out = json.loads(run(capsys, ["counterexample", "--collection", str(files["jaccard3"])]))
    assert out["mode"] in ("direct", "flipped", "sequence")


# The whole stdout of lovabs counterexample, pinned in tests/data: a change of key, key order, value or
# layout fails here. The four cover both records, the consistent case and the "direct" and "sequence" modes.
PINNED_COUNTEREXAMPLES = {
    "zero_one3_symmetric": (lambda: make_zero_one(3), ["--symmetric"]),
    "modular123_symmetric": (lambda: make_modular([1, 2, 3]), ["--symmetric"]),
    "sqrt3": (lambda: make_sqrt_card(3), []),
    "jaccard4": (lambda: make_jaccard(4), []),
}


@pytest.mark.parametrize("name", PINNED_COUNTEREXAMPLES)
def test_counterexample_prints_the_pinned_json(name, capsys, tmp_path):
    make, flags = PINNED_COUNTEREXAMPLES[name]
    path = tmp_path / f"{name}.json"
    save_collection(make(), path)
    out = run(capsys, ["counterexample", "--collection", str(path), *flags])
    assert out == (Path(__file__).parent / "data" / f"counterexample_{name}.json").read_text()


def test_mc_commands(files, capsys, tmp_path):
    out = run(capsys, ["mc-encode", "--C", "8", "--y=7,3"]).strip()
    assert out == "+++-++"  # 7 -> (+,+,+), 3 -> (-,+,+)
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"kind": "concave_card", "k": 2, "exponent": 0.5}))
    out = run(capsys, ["mc-eval", "--g", str(g), "--C", "8", "--v=5,_", "--y=7,3"])
    assert float(out) == pytest.approx(1.0 + np.sqrt(2))
    gw = tmp_path / "gw.json"
    gw.write_text(json.dumps({"weights_by_class": [1, 1, 2, 2]}))
    out = run(capsys, ["mc-eval", "--g", str(gw), "--C", "4", "--v=1,_", "--y=3,2"])
    assert float(out) == pytest.approx(2.0 + 3.0)
    out = run(capsys, ["mc-link", "--u=0.7,-0.7,0.7", "--C", "8", "--tau", "0"]).strip()
    assert out == "5"


def test_train_metrics_sweep(files, capsys, tmp_path):
    config = {
        "k": 2, "feature_dim": 4, "n_samples": 60, "epochs": 30, "seed": 0,
        "setfn": {"kind": "modular", "weights": [1, 1]},
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(config))
    run_dir = tmp_path / "run"
    out = run(capsys, ["train", "--config", str(cfg_path), "--out", str(run_dir)])
    assert "final train hinge" in out
    assert (run_dir / "model.json").exists()

    sweep_out = json.loads(run(capsys, ["sweep", "--model", str(run_dir),
                                        "--taus", "0,0.5,1"]))
    assert [row["tau"] for row in sweep_out] == [0.0, 0.5, 1.0]

    preds = tmp_path / "preds.csv"
    truth = tmp_path / "truth.csv"
    with open(preds, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["c1", "c2", "c3"])
        w.writerows([["+", "-", "0"]])
    with open(truth, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["c1", "c2", "c3"])
        w.writerows([["+", "+", "+"]])
    metrics_path = tmp_path / "metrics.json"
    out = json.loads(run(capsys, ["metrics", "--pred", str(preds), "--truth", str(truth),
                                  "--out", str(metrics_path)]))
    assert out["accuracy"] == pytest.approx(0.5)
    assert json.loads(metrics_path.read_text())["rejection_rate"] == pytest.approx(1 / 3)


def test_metrics_reads_csv_files_with_or_without_the_header(capsys, tmp_path):
    """Without its c1,c2,... header row a report file's first row is a report."""
    preds = [["+", "-", "0"], ["-", "-", "+"], ["0", "0", "-"]]
    truths = [["+", "+", "+"], ["-", "+", "+"], ["-", "+", "-"]]
    printed = []
    for header in ([["c1", "c2", "c3"]], []):
        paths = []
        for name, rows in (("preds", preds), ("truth", truths)):
            paths.append(tmp_path / f"{name}{len(header)}.csv")
            with open(paths[-1], "w", newline="") as fh:
                csv.writer(fh).writerows(header + rows)
        printed.append(run(capsys, ["metrics", "--pred", str(paths[0]), "--truth", str(paths[1]),
                                    "--out", str(tmp_path / "metrics.json")]))
    assert printed[0] == printed[1]
    assert json.loads(printed[1])["rejection_rate"] == pytest.approx(3 / 9)


def test_train_writes_the_jaccard_spec(capsys, tmp_path):
    """A Jaccard run writes its collection as the spec, not as 2^k tables, and the
    spec and table forms train and evaluate to the same numbers."""
    spec = {"kind": "jaccard", "k": 4}
    jac = make_jaccard(4)
    tables = collection_to_obj(PolymatroidCollection(jac.k, jac.values, jac.rows))  # the spec-less form
    traces, hinges = [], []
    for name, setfn in (("spec", spec), ("tables", tables)):
        config = {"k": 4, "feature_dim": 4, "n_samples": 60, "epochs": 6, "seed": 0, "setfn": setfn}
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        (tmp_path / f"{name}-collection.json").write_text(json.dumps(setfn))
        run_dir = tmp_path / f"run-{name}"
        run(capsys, ["train", "--config", str(tmp_path / f"{name}.json"), "--out", str(run_dir)])
        assert json.loads((run_dir / "collection.json").read_text()) == setfn  # each form writes itself back
        traces.append(json.loads((run_dir / "model.json").read_text())["train_trace"])
        for path in (run_dir / "collection.json", tmp_path / f"{name}-collection.json"):
            hinges.append(run(capsys, ["eval-hinge", "--collection", str(path),
                                       "--u=0.3,-0.2,0.9,0", "--y=+-+-"]))
    assert traces[0] == traces[1]
    # the trace this config trained to when every collection was written as tables
    assert traces[0] == pytest.approx([1.0, 0.9335063644882279, 0.8523381385935401, 0.7777585885371788,
                                       0.706930930480833, 0.637786608850406, 0.5703879103289844], rel=1e-12)
    assert len(set(hinges)) == 1 and float(hinges[0]) == pytest.approx(2 / 3)


def test_train_runs_jaccard_above_the_dense_cap(capsys, tmp_path):
    """At k = 20 the Jaccard family has no dense table; training reads its rule and writes its spec."""
    spec = {"kind": "jaccard", "k": 20}
    config = {"k": 20, "feature_dim": 20, "n_samples": 40, "epochs": 2, "seed": 0, "setfn": spec}
    (tmp_path / "train.json").write_text(json.dumps(config))
    out = run(capsys, ["train", "--config", str(tmp_path / "train.json"), "--out", str(tmp_path / "run")])
    assert out.startswith("final train hinge")
    assert json.loads((tmp_path / "run" / "collection.json").read_text()) == spec
    trace = json.loads((tmp_path / "run" / "model.json").read_text())["train_trace"]
    assert len(trace) == 3 and trace[-1] < trace[0]


NO_TABLE = "error: collection has no table for label bitmask 1\n"  # the KeyError's message, unquoted


@pytest.mark.parametrize(
    "argv, word",
    [(["link", "--u=nan,0.2"], "non-finite"),
     (["eval-hinge", "--collection", "sqrt2", "--u=0,0", "--y=+x"], "'x'"),
     (["verify", "embedding", "--collection", "sqrt2", "--grid", "0"], "m=0"),
     (["verify", "embedding", "--collection", "nan3"], "non-finite value nan"),
     (["eval-hinge", "--collection", "nan3", "--u=0,0,0", "--y=+++"], "label 0: non-finite value nan at S=0x3"),
     (["metrics", "--pred", "preds2", "--truth", "truth1", "--out", "dir"], "different lengths"),
     (["eval-hinge", "--collection", "modular_nan", "--u=0,0", "--y=++"], "weights has a non-finite entry"),
     (["eval-hinge", "--collection", "modular_scalar", "--u=0,0", "--y=++"], "weights must be a vector"),
     (["mc-eval", "--g", "costs_nan", "--C", "4", "--v=2,_", "--y=1,2"], "weights_by_class has a non-finite entry"),
     (["eval-hinge", "--collection", "jaccard_no_k", "--u=0,0", "--y=++"], "jaccard object has no 'k' field"),
     (["eval-hinge", "--collection", "table_no_values", "--u=0,0", "--y=++"],
      "table object has no 'values' field"),
     (["eval-hinge", "--collection", "label_no_values", "--u=0,0", "--y=++"],
      "label 0: table object has no 'values' field"),
     (["eval-hinge", "--collection", "json_list", "--u=0,0", "--y=++"], "must be a JSON object, got [1, 2]"),
     (["eval-hinge", "--collection", "per_label_list", "--u=0,0", "--y=++"], "per_label must be a JSON object"),
     (["eval-hinge", "--collection", "per_label_number", "--u=0,0", "--y=++"],
      "label 0: a set function must be a JSON object, got 3"),
     (["validate", "--setfn", "json_list"], "must be a JSON object, got [1, 2]"),
     (["mc-eval", "--g", "json_list", "--C", "4", "--v=2,_", "--y=1,3"], "must be a JSON object"),
     (["mc-eval", "--g", "costs_short", "--C", "4", "--v=2,_", "--y=1,3"], "weights_by_class has 1 weights"),
     (["condition1", "--collection", "jaccard20"], "complementary-error check capped at k <= 12, got k=20"),
     (["train", "--config", "train_list", "--out", "dir"], "a train config must be a JSON object, got [1]"),
     (["train", "--config", "train_no_setfn", "--out", "dir"], "train config object has no 'setfn' field"),
     (["train", "--config", "train_unknown_field", "--out", "dir"], "train config has no field 'epoch'"),
     (["train", "--config", "train_negative_epochs", "--out", "dir"], "epochs must be an integer >= 0, got epochs=-1"),
     (["train", "--config", "train_noise_3", "--out", "dir"], "noise has shape (3,), expected (2,)"),
     (["train", "--config", "train_fractional_epochs", "--out", "dir"],
      "epochs must be an integer >= 0, got epochs=2.5"),
     (["train", "--config", "train_string_feature_dim", "--out", "dir"],
      "feature_dim must be an integer >= 2, got feature_dim='8'"),
     (["train", "--config", "train_float_n_samples", "--out", "dir"],
      "n_samples must be an integer >= 10, got n_samples=20.0"),
     (["train", "--config", "train_bool_epochs", "--out", "dir"], "epochs must be an integer >= 0, got epochs=True"),
     (["train", "--config", "train_negative_seed", "--out", "dir"], "seed must be an integer >= 0, got seed=-1"),
     (["train", "--config", "train_string_lr_init", "--out", "dir"], "lr_init must be a real number, got '0.1'"),
     (["train", "--config", "train_bool_lr_init", "--out", "dir"], "lr_init must be a real number, got True"),
     (["train", "--config", "train_negative_epsilon", "--out", "dir"],
      "epsilon must lie in (0, inf), got -1.0"),
     (["train", "--config", "train_string_epsilon", "--out", "dir"],
      "epsilon must be a real number, got '0.1'"),
     (["train", "--config", "train_nan_epsilon", "--out", "dir"],
      "epsilon must lie in (0, inf), got nan"),
     (["train", "--config", "train_negative_grad_clip", "--out", "dir"], "train config has no field 'grad_clip'"),
     (["train", "--config", "train_label_corr_2", "--out", "dir"], "train config has no field 'label_corr'"),
     (["train", "--config", "train_nan_margin", "--out", "dir"], "train config has no field 'margin'"),
     (["train", "--config", "train_scalar_taus", "--out", "dir"], "train config has no field 'taus'"),
     (["train", "--config", "train_string_lr_decay", "--out", "dir"], "train config has no field 'lr_decay'"),
     (["train", "--config", "train_bool_grad_clip", "--out", "dir"], "train config has no field 'grad_clip'"),
     (["train", "--config", "train_string_margin", "--out", "dir"], "train config has no field 'margin'"),
     (["train", "--config", "train_bool_label_corr", "--out", "dir"], "train config has no field 'label_corr'"),
     (["train", "--config", "train_tau_2", "--out", "dir"], "train config has no field 'taus'"),
     (["envelope", "--u=0.5,0.5", "--eps", "inf", "--oracle"], "epsilon must lie in (0, inf), got inf"),
     (["envelope", "--u=0.5,0.2", "--eps", "inf"], "epsilon must lie in (0, inf), got inf"),
     (["link", "--u=0.5,0.2", "--eps", "inf"], "epsilon must lie in (0, inf), got inf"),
     (["mc-link", "--C", "4", "--u=0.5,0.2", "--eps", "inf"], "epsilon must lie in (0, inf), got inf"),
     (["mc-encode", "--C", "4", "--y=1,x"], "s must be comma-separated integers, got '1,x'"),
     (["mc-encode", "--C", "1024", "--y=1,2,3,4,5,6,7"], "block-encoded label capped at d*k <= 62, got d*k=70"),
     (["mc-eval", "--g", "costs_short", "--C", "4", "--v=2.5,_", "--y=1,3"],
      "s must be comma-separated integers or _, got '2.5,_'"),
     (["mc-eval", "--g", "costs_short", "--C", "0", "--v=_", "--y=1"], "C must be an integer >= 1, got C=0"),
     (["envelope", "--u=0,0,0,0,0", "--oracle"], "face route of u capped at k <= 4, got k=5"),
     (["metrics", "--pred", "empty", "--truth", "truth1", "--out", "dir"], "empty.csv is empty"),
     (["metrics", "--pred", "preds2", "--truth", "empty", "--out", "dir"], "empty.csv is empty"),
     (["verify", "representative", "--collection", "sqrt2", "--grid", "0"], "m=0"),
     (["verify", "tightness", "--collection", "sqrt2", "--grid", "0"], "m=0"),
     (["verify", "tightness", "--collection", "sqrt4", "--grid", "0"], "m=0"),
     (["verify", "embedding", "--collection", "sqrt4", "--grid", "-1"], "m=-1"),
     (["verify", "embedding", "--collection", "/nonexistent/nope.json"], "'/nonexistent/nope.json'"),
     (["sweep", "--model", "/nonexistent"], "'/nonexistent/model.json'"),
     (["train", "--config", "/nonexistent/train.json", "--out", "dir"], "'/nonexistent/train.json'"),
     (["link", "--u=abc"], "u: could not convert string to float: 'abc'"),
     (["eval-hinge", "--collection", "sqrt2", "--u=0.5,1e", "--y=++"], "u: could not convert string to float: '1e'"),
     (["mc-link", "--C", "4", "--u=0.5,,0.2"], "u: could not convert string to float: ''"),
     (["mc-link", "--C", "1099511627776", "--u=0.5"], "capped at d <= 20, got d=40"),
     (["eval-extension", "--setfn", "setfn", "--x=0.5,x"], "x: could not convert string to float: 'x'"),
     (["sweep", "--model", "dir", "--taus", "0,half"], "taus: could not convert string to float: 'half'"),
     (["sweep", "--model", "old_run"], "train config has no field 'grad_clip'"),
     (["sweep", "--model", "no_weights"], "no_weights/model.json object has no 'weights' field"),
     (["verify", "embedding", "--collection", "labels_0_and_3"], NO_TABLE),
     (["condition1", "--collection", "labels_0_and_3"], NO_TABLE),
     (["eval-hinge", "--collection", "labels_0_and_3", "--u=0,0", "--y=+-"], NO_TABLE),
     (["eval-target", "--collection", "labels_0_and_3", "--v=+0", "--y=+-"], NO_TABLE)],
    ids=["link-nan", "eval-hinge-bad-label", "verify-empty-grid", "verify-nan-table",
         "eval-hinge-nan-table", "metrics-length-mismatch", "eval-hinge-nan-weights", "eval-hinge-scalar-weights",
         "mc-eval-nan-class-weights", "eval-hinge-jaccard-without-k", "eval-hinge-table-without-values",
         "eval-hinge-label-without-values", "eval-hinge-json-list", "eval-hinge-per-label-list",
         "eval-hinge-per-label-number", "validate-json-list", "mc-eval-json-list", "mc-eval-too-few-class-weights",
         "condition1-jaccard-above-the-dense-cap", "train-config-list", "train-config-without-setfn",
         "train-config-unknown-field", "train-negative-epochs",
         "train-noise-of-wrong-length", "train-fractional-epochs", "train-string-feature-dim",
         "train-float-n-samples", "train-bool-epochs", "train-negative-seed",
         "train-string-lr-init", "train-bool-lr-init", "train-negative-epsilon", "train-string-epsilon",
         "train-nan-epsilon", "train-negative-grad-clip", "train-label-corr-above-1", "train-nan-margin",
         "train-scalar-taus", "train-string-lr-decay", "train-bool-grad-clip", "train-string-margin",
         "train-bool-label-corr", "train-tau-above-1", "envelope-oracle-infinite-eps",
         "envelope-infinite-eps", "link-infinite-eps", "mc-link-infinite-eps",
         "mc-encode-malformed-label", "mc-encode-past-the-label-bits", "mc-eval-fractional-report",
         "mc-eval-zero-classes", "envelope-oracle-k5",
         "metrics-empty-pred", "metrics-empty-truth", "verify-representative-empty-grid",
         "verify-tightness-empty-grid", "verify-tightness-k4-empty-grid", "verify-embedding-k4-negative-grid",
         "verify-missing-collection", "sweep-missing-model", "train-missing-config", "link-word-entry",
         "eval-hinge-bad-exponent", "mc-link-empty-entry", "mc-link-huge-class-count", "eval-extension-word-entry",
         "sweep-word-tau",
         "sweep-run-directory-with-removed-options", "sweep-model-without-weights",
         "verify-embedding-label-without-table", "condition1-label-without-table", "eval-hinge-label-without-table",
         "eval-target-label-without-table"],
)
def test_value_errors_exit_with_status_2(files, capsys, argv, word):
    argv = [str(files[a]) if a in files else a for a in argv]  # file keys become paths
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and word in captured.err


def _exit_and_output(call, capsys):
    """(exit code, stdout, stderr) of a call that ends in SystemExit, as argparse's help and errors do."""
    with pytest.raises(SystemExit) as exit_:
        call()
    captured = capsys.readouterr()
    return exit_.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_one_command_parser_prints_the_full_parsers_help(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = _exit_and_output(lambda: build_parser().parse_args([command, "-h"]), capsys)
    assert full[0] == 0 and full[1].startswith(f"usage: lovabs {command} [-h]")
    assert _exit_and_output(lambda: build_parser(command).parse_args([command, "-h"]), capsys) == full
    assert _exit_and_output(lambda: main([command, "-h"]), capsys) == full


@pytest.mark.parametrize("argv, line", [
    (["-h"], "sweep               tau sweep of a trained run directory"),
    (["sweep", "--model", "run", "--bogus"], "lovabs: error: unrecognized arguments: --bogus"),
    (["sweep"], "lovabs sweep: error: the following arguments are required: --model"),
    (["bogus"], "lovabs: error: argument command: invalid choice: 'bogus'"),
    ([], "lovabs: error: the following arguments are required: command"),
], ids=["help", "unrecognized-argument", "missing-option", "unknown-command", "no-command"])
def test_help_and_parse_errors_match_the_full_parser(argv, line, capsys, monkeypatch):
    """main builds one command's parser, yet prints what the full parser prints;
    the top-level usage still lists every command."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit_and_output(lambda: main(argv), capsys)
    assert (code, out, err) == _exit_and_output(lambda: build_parser().parse_args(argv), capsys)
    assert code == (0 if argv == ["-h"] else 2) and line in out + err
    usage = (out + err).split("\n\n")[0]
    if usage.startswith("usage: lovabs [-h]"):
        assert "{" + ",".join(_COMMANDS) + "}" in usage


def test_a_call_builds_only_its_own_subparser(monkeypatch, capsys):
    inits = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        inits.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["sweep", "--model", "/nonexistent"]) == 2
    assert inits == ["lovabs", "lovabs sweep"]


def test_module_entry_point_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "lovasz_abstain.cli", "sweep", "-h"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == _exit_and_output(
        lambda: build_parser().parse_args(["sweep", "-h"]), capsys)
