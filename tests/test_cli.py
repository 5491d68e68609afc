import dataclasses
import json
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest

from swagnn.cli import build_config, build_parser, main
from swagnn.graphs import write_tu_dataset
from swagnn.reporting import save_result
from swagnn.training import CHOICES, RunResult, TrainConfig
from test_training import sbm_dataset

TINY = ["--dataset", "toy", "--hidden-graphs", "2", "--hidden-nodes", "4",
        "--hidden-dim", "8", "--walk-len", "2", "--epochs", "3",
        "--folds", "2", "--batch-size", "8", "--seed", "0"]


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_train_writes_reports(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert run_cli("train", *TINY, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "accuracy" in stdout
    for name in ("result.json", "folds.csv", "checkpoint.npz"):
        assert os.path.isfile(os.path.join(out, name))
    payload = read_json(os.path.join(out, "result.json"))
    assert payload["mode"] == "supervised"
    # reported statistics recompute from the per-fold entries
    accs = payload["fold_accuracies"]
    assert abs(payload["mean_accuracy"] - np.mean(accs)) <= 1e-12
    assert abs(payload["std_accuracy"] - np.std(accs)) <= 1e-12


def test_train_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_cli("train", *TINY, "--out", out1)
    run_cli("train", *TINY, "--out", out2)
    r1 = read_json(os.path.join(out1, "result.json"))
    r2 = read_json(os.path.join(out2, "result.json"))
    assert r1["fold_accuracies"] == r2["fold_accuracies"]
    assert r1["loss_curves"] == r2["loss_curves"]


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": "toy", "hidden_graphs": 2,
                                    "hidden_nodes": 4, "hidden_dim": 8,
                                    "walk_len": 2, "epochs": 2, "folds": 2,
                                    "seed": 3}))
    out = str(tmp_path / "run")
    assert run_cli("train", "--config", str(cfg_path), "--seed", "5",
                   "--out", out) == 0
    saved = read_json(os.path.join(out, "result.json"))["config"]
    assert saved["epochs"] == 2      # from the file
    assert saved["seed"] == 5        # flag wins
    assert saved["hidden_graphs"] == 2


def test_config_file_unknown_field(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": "toy", "bogus": 1}))
    assert run_cli("train", "--config", str(cfg_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg_path}: ") and "['bogus']" in err


def test_config_file_unreadable(tmp_path, capsys):
    assert run_cli("train", "--config", str(tmp_path / "nope.json")) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("entry, shown", [
    ({"seed": "a"}, ["seed", "'a'", "int"]),
    ({"lr": "0.1"}, ["lr", "'0.1'", "float"]),
    ({"folds": True}, ["folds", "True", "int"]),
    ({"epochs": 2.5}, ["epochs", "2.5", "int"]),
    ({"lr": False}, ["lr", "False", "float"]),
    ({"dataset": 3}, ["dataset", "3", "str"]),
    ({"out": 5}, ["out", "5", "str"]),
])
def test_config_file_errors_name_the_field(tmp_path, capsys, entry, shown):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": "toy", "epochs": 1, **entry}))
    assert run_cli("train", "--config", str(cfg_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(text in err for text in shown), err


@pytest.mark.parametrize("entry, message", [
    ({"seed": "a"}, "TrainConfig: seed must be of type int, got 'a'"),
    ({"tau": -1}, "LgaAugmenter: tau must be positive, got -1"),
    ({"lr": 0}, "TrainConfig: lr must be positive and finite, got 0"),
])
def test_a_bad_value_from_the_config_file_names_the_file(tmp_path, capsys, entry, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(entry))
    assert run_cli("train", "--config", str(cfg_path)) == 1
    assert capsys.readouterr().err == f"error: config {cfg_path}: {message}\n"


@pytest.mark.parametrize("entry", [{"epochs": 1}, {"lr": "fast"}])
def test_a_bad_flag_names_no_config_file(tmp_path, capsys, entry):
    # the flag's own error, whether the file's values are valid or not
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(entry))
    assert run_cli("train", "--config", str(cfg_path), "--seed", "-1") == 1
    assert capsys.readouterr().err == "error: TrainConfig: seed must be >= 0, got -1\n"


def test_a_flag_overrides_a_bad_config_file_value(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lr": 0, "tau": -1}))
    assert run_cli("train", *TINY, "--config", str(cfg_path), "--lr", "0.1",
                   "--tau", "1.5") == 0
    assert "accuracy" in capsys.readouterr().out


def test_config_file_must_be_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([["seed", 1]]))
    assert run_cli("train", "--config", str(cfg_path)) == 1
    assert "expected a JSON object" in capsys.readouterr().err


def test_config_file_valid_types_load(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    # an int where a float is expected, and a null out, are valid JSON for TrainConfig
    cfg_path.write_text(json.dumps({"dataset": "toy", "lr": 1, "alpha": 0.15, "out": None,
                                    "seed": 2, "folds": 2}))

    class Args:
        config = str(cfg_path)
        mode = "supervised"
    cfg = build_config(Args())
    assert (cfg.lr, cfg.seed, cfg.folds, cfg.out) == (1, 2, 2, None)


@pytest.mark.parametrize("flag, value", [("--lr", "inf"), ("--seed", "-1"), ("--batch-size", "0"),
                                         ("--hidden-dim", "0"), ("--drop-rate", "2")])
def test_train_rejects_bad_lr_and_seed(tmp_path, capsys, flag, value):
    out = str(tmp_path / "run")
    # one Adam step per fold: an infinite lr used to finish with NaN weights
    assert run_cli("train", *TINY, "--epochs", "1", "--batch-size", "64",
                   flag, value, "--out", out) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(os.path.join(out, "result.json"))


def write_tu(directory, edges):
    directory.mkdir()
    (directory / "BAD_A.txt").write_text(edges)
    (directory / "BAD_graph_indicator.txt").write_text("1\n1\n2\n2\n")
    (directory / "BAD_graph_labels.txt").write_text("0\n1\n")
    return str(directory)


def test_malformed_tu_file_is_a_diagnostic(tmp_path, capsys):
    data = write_tu(tmp_path / "BAD", "1, 2\n2, x\n")
    argv = [a if a != "toy" else "BAD" for a in TINY]
    assert run_cli("train", *argv, "--data-dir", data) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "BAD_A.txt:2:" in err


def test_build_config_defaults():
    class Args:
        config = None
        mode = "supervised"
    cfg = build_config(Args())
    assert cfg.hidden_graphs == 16
    assert cfg.epochs == 200
    assert cfg.mode == "supervised"


def test_pretrain_writes_checkpoint(tmp_path, capsys):
    out = str(tmp_path / "pre")
    assert run_cli("pretrain", *TINY, "--epochs", "2", "--augmenter",
                   "identity", "--out", out) == 0
    assert "final loss" in capsys.readouterr().out
    assert os.path.isfile(os.path.join(out, "pretrained.npz"))
    curves = read_json(os.path.join(out, "loss_curves.json"))
    assert len(curves) == 2 and len(curves[0]) == 2


def test_pretrain_honours_pretrain_epochs(tmp_path):
    out = str(tmp_path / "pre")
    assert run_cli("pretrain", *TINY, "--epochs", "3", "--pretrain-epochs", "1",
                   "--augmenter", "identity", "--out", out) == 0
    assert [len(curve) for curve in read_json(os.path.join(out, "loss_curves.json"))] == [1, 1]


def test_pretrain_with_no_epochs_writes_the_untrained_encoders(tmp_path, capsys):
    out = str(tmp_path / "pre")
    assert run_cli("pretrain", *TINY, "--pretrain-epochs", "0", "--out", out) == 0
    captured = capsys.readouterr()
    assert captured.out.count("no epoch ran") == 2
    assert "certified rank 0" not in captured.out and captured.err == ""
    assert read_json(os.path.join(out, "loss_curves.json")) == [[], []]
    # the untrained encoders are the ones a probe with no pretraining starts from
    probe = str(tmp_path / "probe")
    assert run_cli("probe", *TINY, "--checkpoint", os.path.join(out, "pretrained.npz"),
                   "--out", probe) == 0
    untrained = str(tmp_path / "untrained")
    assert run_cli("probe", *TINY, "--pretrain-epochs", "0", "--out", untrained) == 0
    assert (read_json(os.path.join(probe, "result.json"))["loss_curves"]
            == read_json(os.path.join(untrained, "result.json"))["loss_curves"])


def test_pretrain_without_a_two_graph_batch_is_one_error_line(tmp_path, capsys):
    write_tu_dataset(sbm_dataset(12).graphs, str(tmp_path), "SBM")
    argv = [a if a != "toy" else "SBM" for a in TINY]
    assert run_cli("pretrain", *argv, "--data-dir", str(tmp_path), "--batch-size", "1",
                   "--augmenter", "edge-drop") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: fold 0: pretraining loss needs batches "
                                               "of at least 2 graphs")


def test_pretrain_merges_a_one_graph_tail_into_a_two_graph_batch(capsys):
    assert run_cli("pretrain", "--dataset", "toy", "--batch-size", "1", "--epochs", "1",
                   "--folds", "2") == 0
    assert capsys.readouterr().out.count("final loss") == 2


@pytest.mark.parametrize("flags, recorded", [([], None), (["--pretrain-epochs", "2"], 2)])
def test_result_records_pretrain_epochs(tmp_path, flags, recorded):
    out = str(tmp_path / "probe")
    assert run_cli("probe", *TINY, "--augmenter", "identity", *flags, "--out", out) == 0
    assert read_json(os.path.join(out, "result.json"))["config"]["pretrain_epochs"] == recorded


def test_probe_from_checkpoint(tmp_path):
    pre_out = str(tmp_path / "pre")
    run_cli("pretrain", *TINY, "--epochs", "1", "--augmenter", "identity",
            "--out", pre_out)
    out = str(tmp_path / "probe")
    assert run_cli("probe", *TINY, "--checkpoint",
                   os.path.join(pre_out, "pretrained.npz"), "--out", out) == 0
    payload = read_json(os.path.join(out, "result.json"))
    assert payload["mode"] == "probe"
    assert len(payload["fold_accuracies"]) == 2


def test_finetune_pretrains_internally(tmp_path):
    out = str(tmp_path / "ft")
    assert run_cli("finetune", *TINY, "--augmenter", "identity",
                   "--pretrain-epochs", "1", "--out", out) == 0
    payload = read_json(os.path.join(out, "result.json"))
    assert payload["mode"] == "finetune"


def test_checkpoint_fold_count_mismatch(tmp_path, capsys):
    pre_out = str(tmp_path / "pre")
    run_cli("pretrain", *TINY, "--epochs", "1", "--augmenter", "identity",
            "--out", pre_out)
    # adaptation asks for 4 folds, the checkpoint holds 2
    args = list(TINY)
    args[args.index("--folds") + 1] = "4"
    assert run_cli("probe", *args, "--checkpoint",
                   os.path.join(pre_out, "pretrained.npz")) == 1
    err = capsys.readouterr().err
    assert "folds=2" in err and "folds=4" in err


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pre"))
    assert run_cli("pretrain", *TINY, "--epochs", "1", "--augmenter", "identity",
                   "--out", out) == 0
    return os.path.join(out, "pretrained.npz")


@pytest.mark.parametrize("flag, value, stored", [
    ("--hidden-graphs", "4", "2"), ("--hidden-nodes", "5", "4"), ("--hidden-dim", "6", "8"),
    ("--walk-len", "3", "2"), ("--diff-steps", "2", "3"), ("--alpha", "0.3", "0.15"),
    # another seed draws other folds, whose test graphs the encoders partly trained on
    ("--seed", "1", "0")])
def test_checkpoint_encoder_mismatch_is_a_config_error(tmp_path, capsys, tiny_checkpoint,
                                                        flag, value, stored):
    out = str(tmp_path / "ft")
    assert run_cli("finetune", *TINY, flag, value, "--checkpoint", tiny_checkpoint,
                   "--out", out) == 1
    err = capsys.readouterr().err
    field = flag[2:].replace("-", "_")
    assert f"{field}={stored}" in err and f"{field}={value}" in err
    assert not os.path.exists(os.path.join(out, "result.json"))


def test_probe_without_checkpoint_loads_the_dataset_once(monkeypatch):
    import swagnn.cli
    import swagnn.training
    calls = []

    def counted(cfg):
        calls.append(cfg.dataset)
        return swagnn.training.make_toy_dataset()
    monkeypatch.setattr(swagnn.training, "load_dataset", counted)
    monkeypatch.setattr(swagnn.cli, "load_dataset", counted)
    assert run_cli("probe", *TINY, "--augmenter", "identity", "--pretrain-epochs", "1") == 0
    assert calls == ["toy"]


def test_checkpoint_matching_config_loads(tmp_path, tiny_checkpoint):
    out = str(tmp_path / "ft")
    assert run_cli("finetune", *TINY, "--epochs", "1", "--checkpoint", tiny_checkpoint,
                   "--out", out) == 0
    assert read_json(os.path.join(out, "result.json"))["config"]["hidden_dim"] == 8


def test_pretrain_reports_certified_rank0_share(capsys):
    # toy graphs have 3 nodes and row sums <= 2 < 2.02 * sqrt(3)
    assert run_cli("pretrain", *TINY, "--epochs", "1", "--augmenter", "lga") == 0
    captured = capsys.readouterr()
    assert "lga tau=2.02: 8 of 8 graphs (100%) certified rank 0" in captured.out
    assert "every LGA positive is the empty graph" in captured.err
    assert run_cli("pretrain", *TINY, "--epochs", "1", "--augmenter", "lga",
                   "--tau", "0.5") == 0
    captured = capsys.readouterr()
    assert "lga tau=0.5: 0 of 8 graphs (0%) certified rank 0" in captured.out
    assert "warning" not in captured.err


def test_ablate_tau_reports_certified_rank0_share(capsys):
    assert run_cli("ablate", *TINY, "--epochs", "1", "--pretrain-epochs", "1",
                   "--param", "tau", "--values", "0.5,2.02") == 0
    captured = capsys.readouterr()
    assert "lga tau=0.5: 0 of 8 graphs (0%) certified rank 0" in captured.out
    assert "lga tau=2.02: 8 of 8 graphs (100%) certified rank 0" in captured.out
    assert captured.err.count("every LGA positive is the empty graph") == 1


@pytest.mark.parametrize("argv", [
    ["probe", *TINY, "--pretrain-epochs", "1"],
    ["finetune", *TINY, "--pretrain-epochs", "1"],
    ["ablate", *TINY, "--pretrain-epochs", "1", "--param", "num_hidden", "--values", "2,3"]],
    ids=lambda argv: argv[0])
def test_every_lga_pretraining_run_reports_certified_rank0_share(tmp_path, capsys, argv):
    # ablate takes the mode from the config file; probe and finetune set their own
    config = tmp_path / "finetune.json"
    config.write_text(json.dumps({"mode": "finetune"}))
    assert run_cli(*argv, "--config", str(config), "--augmenter", "lga") == 0
    captured = capsys.readouterr()
    assert captured.out.count("lga tau=2.02: 8 of 8 graphs (100%) certified rank 0") == 1
    assert captured.err.count("every LGA positive is the empty graph") == 1


@pytest.mark.parametrize("argv", [
    ["train", *TINY],
    ["probe", *TINY, "--checkpoint"],
    ["pretrain", *TINY, "--pretrain-epochs", "0"],
    ["finetune", *TINY, "--pretrain-epochs", "0"],
    ["ablate", *TINY, "--pretrain-epochs", "0", "--param", "tau", "--values", "2.02"]],
    ids=["train", "probe-checkpoint", "pretrain-0", "finetune-0", "ablate-tau-0"])
def test_a_run_without_lga_pretraining_reports_nothing(capsys, tiny_checkpoint, argv):
    if argv[-1] == "--checkpoint":
        argv = [*argv, tiny_checkpoint]
    assert run_cli(*argv, "--augmenter", "lga") == 0
    captured = capsys.readouterr()
    assert "certified rank 0" not in captured.out
    assert captured.err == ""


def test_ablate_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "ab")
    assert run_cli("ablate", *TINY, "--epochs", "2", "--param", "num_hidden",
                   "--values", "2,3", "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "num_hidden=2" in stdout and "num_hidden=3" in stdout
    with open(os.path.join(out, "ablation.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "value,mean_accuracy,std_accuracy"
    assert len(lines) == 3


def test_ablate_bad_values(capsys):
    assert run_cli("ablate", *TINY, "--param", "tau", "--values", "a,b") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("param, values", [("num_hidden", "2,0"), ("num_hidden", "2,x"),
                                           ("tau", "0.5,-1"), ("tau", ",")])
def test_ablate_checks_every_value_before_any_work(tmp_path, capsys, param, values):
    out = tmp_path / "ab"
    assert run_cli("ablate", *TINY, "--param", param, "--values", values,
                   "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["probe", "finetune", "ablate"])
def test_negative_pretrain_epochs_is_a_diagnostic(tmp_path, capsys, command):
    sweep = ["--param", "tau", "--values", "0.5"] if command == "ablate" else []
    out = tmp_path / "run"
    assert run_cli(command, *TINY, *sweep, "--pretrain-epochs", "-3", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "-3" in err
    assert not out.exists()


def test_augment_identity(tmp_path):
    out = str(tmp_path / "aug")
    assert run_cli("augment", *TINY, "--augmenter", "identity",
                   "--out", out) == 0
    assert os.path.isfile(os.path.join(out, "toy_A.txt"))
    manifest = read_json(os.path.join(out, "toy_augmentation.json"))
    assert manifest["augmenter"] == "identity"


@pytest.mark.parametrize("augmenter", ["lga", "edge-drop", "identity"])
def test_augment_reports_the_certified_rank0_share_of_lga_only(tmp_path, capsys, augmenter):
    # the toy set at the default --folds 10: augment splits nothing, so checks no fold
    out = tmp_path / "aug"
    assert run_cli("augment", "--dataset", "toy", "--augmenter", augmenter, "--out", str(out)) == 0
    captured = capsys.readouterr()
    lga = augmenter == "lga"
    assert ("lga tau=2.02: 8 of 8 graphs (100%) certified rank 0\n" in captured.out) == lga
    assert ("every LGA positive is the empty graph" in captured.err) == lga
    assert captured.out.endswith(f"wrote {out}/toy_augmentation.json\n")
    # without --out it prints its error line and nothing else
    assert run_cli("augment", "--dataset", "toy", "--augmenter", augmenter) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: augment_dataset: an output directory is required\n"


def test_augment_requires_out(capsys):
    assert run_cli("augment", *TINY, "--augmenter", "identity") == 1
    assert "output directory" in capsys.readouterr().err


def test_augment_without_out_stops_before_loading(tmp_path, capsys):
    data = write_tu(tmp_path / "BAD", "1, 2\nx, y\n")
    argv = ["augment", "--dataset", "BAD", "--data-dir", data, "--augmenter", "identity"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == "error: augment_dataset: an output directory is required\n"
    # with --out the set is loaded, and its malformed line is the error
    assert run_cli(*argv, "--out", str(tmp_path / "aug")) == 1
    assert "BAD_A.txt:2: expected 'u, v', got 'x, y'" in capsys.readouterr().err


def test_export_hidden(tmp_path):
    run_dir = str(tmp_path / "run")
    run_cli("train", *TINY, "--out", run_dir)
    out = str(tmp_path / "hidden")
    assert run_cli("export-hidden", "--checkpoint",
                   os.path.join(run_dir, "checkpoint.npz"),
                   "--threshold", "0.4", "--out", out) == 0
    assert os.path.isfile(os.path.join(out, "hidden_0.json"))
    assert os.path.isfile(os.path.join(out, "hidden_1.dot"))


def test_export_hidden_bad_fold(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    run_cli("train", *TINY, "--out", run_dir)
    assert run_cli("export-hidden", "--checkpoint",
                   os.path.join(run_dir, "checkpoint.npz"), "--fold", "9") == 1
    assert "out of range" in capsys.readouterr().err


def test_report_round_trip(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    run_cli("train", *TINY, "--out", run_dir)
    capsys.readouterr()
    csv_path = str(tmp_path / "folds.csv")
    assert run_cli("report", os.path.join(run_dir, "result.json"),
                   "--csv", csv_path) == 0
    assert "accuracy" in capsys.readouterr().out
    with open(csv_path) as fh:
        assert fh.readline().startswith("fold,accuracy")


def test_report_missing_file(tmp_path, capsys):
    assert run_cli("report", str(tmp_path / "nope.json")) == 1
    assert "error:" in capsys.readouterr().err


def test_report_malformed_json_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "result.json"
    path.write_text('{"mode": "supervised",')
    assert run_cli("report", str(path)) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not a JSON file")


@pytest.mark.parametrize("field, value, message", [
    ("mean_accuracy", "high", "mean_accuracy must be a number, got 'high'"),
    ("wall_time", True, "wall_time must be a number, got True"),
    ("fold_accuracies", "x", "fold_accuracies must be a list of numbers, got 'x'"),
    ("fold_accuracies", None, "fold_accuracies must be a list of numbers, got None"),
    ("train_accuracies", [1.0, "x"], "train_accuracies must be a list of numbers"),
    ("loss_curves", [[0.5], 0.5], "loss_curves must be a list of lists of numbers"),
    ("config", [], "config must be a JSON object, got []"),
    ("mode", 1, "mode must be a string, got 1"),
    ("best_epochs", [], "best_epochs has 0 entries but fold_accuracies has 2"),
    ("fold_accuracies", [1.0], "loss_curves has 2 entries but fold_accuracies has 1")],
    ids=["text-mean", "bool-wall-time", "text-folds", "null-folds", "text-in-list",
         "number-curve", "list-config", "number-mode", "no-best-epochs", "one-fold-of-two"])
def test_report_on_a_malformed_result_field_is_a_load_error(tmp_path, capsys, field, value,
                                                           message):
    result = RunResult([1.0, 0.5], 0.75, 0.25, 0.1, {}, "supervised", [[0.5], [0.6]],
                       [[1.0], [0.5]], [1.0, 0.5], [1.0, 1.0], [0, 0], [0.1, 0.1])
    path = tmp_path / "result.json"
    save_result(result, str(path))
    path.write_text(json.dumps({**read_json(path), field: value}))
    assert run_cli("report", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: {message}")
    assert captured.out == ""


def test_report_on_a_json_list_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "result.json"
    path.write_text("[1, 2]")
    assert run_cli("report", str(path)) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: expected a JSON object of result fields")


def write_not_npz(path, checkpoint):
    path.write_text("not an archive\n")


def write_without_config(path, checkpoint):
    np.savez(path, weights=np.ones(3))


def write_npy(path, checkpoint):
    with open(path, "wb") as fh:  # np.save would append .npy to the name
        np.save(fh, np.ones(3))


def write_config_list(path, checkpoint):
    np.savez(path, __config__=np.array("[1, 2]"))


def write_foreign_fold_key(path, checkpoint):
    np.savez(path, __config__=np.array("{}"), **{"foldx/enc/fm_weight": np.ones(2)})


def rewriting(key, change):
    """A writer that copies the checkpoint with entry ``key`` changed to
    ``change(value)``, or dropped when ``change`` is None."""
    def write(path, checkpoint):
        with np.load(checkpoint) as archive:
            entries = {key: archive[key] for key in archive.files}
        if change is None:
            del entries[key]
        else:
            entries[key] = change(entries[key])
        np.savez(path, **entries)
    return write


@pytest.mark.parametrize("write, message", [
    pytest.param(write_not_npz, "not a readable npz archive", id="not-npz"),
    pytest.param(write_npy, "not an npz archive", id="npy"),
    pytest.param(write_without_config, "no __config__ entry", id="no-config"),
    pytest.param(write_config_list, "__config__ is not a JSON object", id="config-not-object"),
    pytest.param(write_foreign_fold_key, "no fold parameters found", id="foreign-fold-key"),
    pytest.param(rewriting("fold0/enc/hg0_features", None),
                 "fold 0 has no 'hg0_features' entry", id="no-hidden-features"),
    pytest.param(rewriting("fold0/enc/fm_weight", np.ravel),
                 "fold 0: entry 'fm_weight' has shape (8,), expected (n, n)",
                 id="1d-feature-map-weight"),
    pytest.param(rewriting("fold0/enc/fm_bias", lambda v: v[0]),
                 "fold 0: entry 'fm_bias' has shape (), expected (8,)", id="0d-feature-map-bias"),
    pytest.param(rewriting("fold0/enc/hg0_features", np.ravel),
                 "fold 0: entry 'hg0_features' has shape (32,), expected (4, 8)",
                 id="1d-hidden-features"),
    pytest.param(rewriting("fold1/head/w1", np.ravel),
                 "fold 1: entry 'w1' has shape (128,), expected (n, n)", id="1d-head-weight"),
    pytest.param(rewriting("fold0/enc/hg1_raw", lambda v: v[:3, :3]),
                 "fold 0: entry 'hg1_raw' has shape (3, 3), expected (4, 4)",
                 id="hidden-graphs-of-two-sizes"),
    pytest.param(rewriting("fold0/enc/hg0_raw", lambda v: v.astype(str)),
                 "fold 0: entry 'hg0_raw' holds <U", id="text-raw-weights"),
    pytest.param(rewriting("fold0/enc/fm_bias", lambda v: np.full_like(v, np.inf)),
                 "fold 0: entry 'fm_bias' holds a non-finite value", id="infinite-bias")])
def test_unreadable_checkpoint_is_a_load_error(tmp_path, capsys, tiny_checkpoint,
                                               write, message):
    path = tmp_path / "bad.npz"
    write(path, tiny_checkpoint)
    assert run_cli("export-hidden", "--checkpoint", str(path),
                   "--out", str(tmp_path / "hidden")) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not (tmp_path / "hidden").exists()


def test_a_checkpoint_with_a_gap_in_its_fold_numbers_is_a_load_error(tmp_path, capsys,
                                                                     tiny_checkpoint):
    # fold 1's encoder saved as fold 3: loaded in order, it would adapt fold 1's split
    path = tmp_path / "gap.npz"
    with np.load(tiny_checkpoint) as archive:
        entries = {key.replace("fold1/", "fold3/", 1): archive[key] for key in archive.files}
    np.savez(path, **entries)
    out = tmp_path / "probe"
    assert run_cli("probe", *TINY, "--checkpoint", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"error: {path}: holds folds [0, 3], "
                                       f"not folds 0 to 1\n")
    assert not (out / "result.json").exists()


def test_a_bank_other_than_the_archives_config_is_a_load_error(tmp_path, capsys,
                                                               tiny_checkpoint):
    # fold 0 loses one of its two hidden graphs; the stored config still says two
    path = tmp_path / "bad.npz"
    with np.load(tiny_checkpoint) as archive:
        entries = {key: archive[key] for key in archive.files
                   if not key.startswith("fold0/enc/hg1_")}
    np.savez(path, **entries)
    out = tmp_path / "probe"
    assert run_cli("probe", *TINY, "--checkpoint", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {path}: fold 0 holds 1 hidden graphs of 4 nodes with 8 features, "
        f"not the 2 of 4 with 8 its config gives")
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("tau", ["nan", "-1"])
def test_augment_rejects_a_tau_that_is_nan_or_not_positive(tmp_path, capsys, tau):
    out = tmp_path / "aug"
    assert run_cli("augment", *TINY, "--augmenter", "lga", "--tau", tau,
                   "--out", str(out)) == 1
    assert "tau must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_rejects_a_nan_tau_before_the_rank0_report(capsys):
    assert run_cli("ablate", *TINY, "--param", "tau", "--values", "0.5,nan") == 1
    captured = capsys.readouterr()
    assert "tau must be positive" in captured.err
    assert captured.out == ""


# every field but mode is a flag; mode is the subcommand's
FLAG_FIELDS = [f for f in dataclasses.fields(TrainConfig) if f.name != "mode"]
CHOICE_VALUES = [(name, value) for name, allowed in CHOICES.items() if name != "mode"
                 for value in allowed]


def flag(name):
    return "--" + name.replace("_", "-")


def other_value(field):
    """A valid value of ``field`` other than its default."""
    if field.name in CHOICES:
        return next(value for value in CHOICES[field.name] if value != field.default)
    if field.type == "int":
        return field.default + 1
    if field.type == "int | None":
        return 1
    if field.type == "float":
        return field.default / 2
    return "elsewhere"


def config_by_flags(*argv):
    return build_config(build_parser().parse_args(["train", *argv]))


def config_by_file(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return config_by_flags("--config", str(path))


@pytest.mark.parametrize("field", FLAG_FIELDS, ids=lambda field: field.name)
def test_every_config_field_is_a_flag(tmp_path, field):
    value = other_value(field)
    by_flag = config_by_flags(flag(field.name), str(value))
    assert by_flag == config_by_file(tmp_path, {field.name: value})
    assert getattr(by_flag, field.name) == value != field.default


@pytest.mark.parametrize("name, value", CHOICE_VALUES)
def test_every_choice_is_accepted_by_flag_and_by_file(tmp_path, name, value):
    by_flag = config_by_flags(flag(name), value)
    assert by_flag == config_by_file(tmp_path, {name: value})
    assert getattr(by_flag, name) == value


@pytest.mark.parametrize("name", sorted({name for name, _ in CHOICE_VALUES}))
def test_an_unknown_choice_is_refused_by_flag_and_by_file(tmp_path, capsys, name):
    with pytest.raises(SystemExit) as err:
        main(["train", flag(name), "bogus"])
    assert err.value.code == 2
    capsys.readouterr()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({name: "bogus"}))
    assert run_cli("train", "--config", str(cfg_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg_path}: TrainConfig: unknown {name} 'bogus'"), err


@pytest.fixture
def afile(tmp_path):
    path = tmp_path / "afile"
    path.write_text("a file, not a directory\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["train", *TINY],
    ["pretrain", *TINY],
    ["probe", *TINY, "--pretrain-epochs", "1"],
    ["finetune", *TINY, "--pretrain-epochs", "1"],
    ["ablate", *TINY, "--param", "tau", "--values", "0.5"],
    ["augment", *TINY]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_an_out_that_cannot_be_a_directory_fails_before_the_run(monkeypatch, capsys, afile,
                                                                argv, below):
    import swagnn.cli

    def refuse(*args, **kwargs):
        raise AssertionError("the run started")
    for name in ("cross_validate", "pretrain_ssl", "augment_dataset"):
        monkeypatch.setattr(swagnn.cli, name, refuse)
    out = os.path.join(afile, "sub") if below else afile
    assert run_cli(*argv, "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot create output directory {out}: ")
    assert captured.out == ""


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_export_hidden_to_an_out_that_cannot_be_a_directory(capsys, tiny_checkpoint, afile,
                                                            below):
    out = os.path.join(afile, "sub") if below else afile
    assert run_cli("export-hidden", "--checkpoint", tiny_checkpoint, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot create output directory {out}: ")


@pytest.mark.parametrize("where", ["below-file", "directory"])
def test_report_to_a_csv_that_cannot_be_written(tmp_path, capsys, afile, where):
    result = RunResult([1.0], 1.0, 0.0, 0.1, {}, "supervised", [[0.5]], [[1.0]], [1.0], [1.0],
                       [0], [0.1])
    save_result(result, str(tmp_path / "result.json"))
    csv_path = os.path.join(afile, "folds.csv") if where == "below-file" else str(tmp_path)
    assert run_cli("report", str(tmp_path / "result.json"), "--csv", csv_path) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {csv_path}: ")


def readme_commands() -> list:
    """The arguments of every ``swagnn ...`` line in README's shell blocks,
    lines that end in ``\\`` joined to the next."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("swagnn ")]


README_COMMANDS = readme_commands()


def test_readme_has_swagnn_examples():
    assert {argv[0] for argv in README_COMMANDS} >= {"train", "pretrain", "probe", "finetune",
                                                     "ablate", "augment", "export-hidden",
                                                     "report"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: " ".join(argv[:3]))
def test_readme_examples_parse(argv):
    # parsed only: an unknown or renamed flag exits with status 2
    build_parser().parse_args(argv)


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_ablate_requires_param():
    with pytest.raises(SystemExit) as err:
        main(["ablate", "--values", "1,2"])
    assert err.value.code == 2


@pytest.mark.skipif(shutil.which("swagnn") is None,
                    reason="console script not on PATH")
def test_console_script_help():
    proc = subprocess.run(["swagnn", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "export-hidden" in proc.stdout


def test_module_entry_point_runs_without_warnings():
    # the package must not import swagnn.cli itself, or runpy warns that
    # the module was already imported before ``-m`` ran it
    import swagnn
    src = os.path.dirname(os.path.dirname(swagnn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "swagnn.cli",
                           "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "augment" in proc.stdout
    assert proc.stderr == ""
