import json
import os
import shutil
import subprocess

import numpy as np
import pytest

from swagnn.cli import build_config, main

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
    assert "error:" in capsys.readouterr().err


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
    cfg = build_config(Args(), mode="supervised")
    assert (cfg.lr, cfg.seed, cfg.folds, cfg.out) == (1, 2, 2, None)


@pytest.mark.parametrize("flag, value", [("--lr", "inf"), ("--seed", "-1")])
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
    cfg = build_config(Args(), mode="supervised")
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


def test_augment_identity(tmp_path):
    out = str(tmp_path / "aug")
    assert run_cli("augment", *TINY, "--augmenter", "identity",
                   "--out", out) == 0
    assert os.path.isfile(os.path.join(out, "toy_A.txt"))
    manifest = read_json(os.path.join(out, "toy_augmentation.json"))
    assert manifest["augmenter"] == "identity"


def test_augment_requires_out(capsys):
    assert run_cli("augment", *TINY, "--augmenter", "identity") == 1
    assert "output directory" in capsys.readouterr().err


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


def write_not_npz(path, checkpoint):
    path.write_text("not an archive\n")


def write_without_config(path, checkpoint):
    np.savez(path, weights=np.ones(3))


def write_foreign_fold_key(path, checkpoint):
    np.savez(path, __config__=np.array("{}"), **{"foldx/enc/fm_weight": np.ones(2)})


def write_without_hidden_features(path, checkpoint):
    with np.load(checkpoint) as archive:
        entries = {key: archive[key] for key in archive.files}
    del entries["fold0/enc/hg0_features"]
    np.savez(path, **entries)


@pytest.mark.parametrize("write, message", [
    pytest.param(write_not_npz, "not a readable npz archive", id="not-npz"),
    pytest.param(write_without_config, "no __config__ entry", id="no-config"),
    pytest.param(write_foreign_fold_key, "no fold parameters found", id="foreign-fold-key"),
    pytest.param(write_without_hidden_features, "fold 0 has no 'hg0_features' entry",
                 id="no-hidden-features")])
def test_unreadable_checkpoint_is_a_load_error(tmp_path, capsys, tiny_checkpoint,
                                               write, message):
    path = tmp_path / "bad.npz"
    write(path, tiny_checkpoint)
    assert run_cli("export-hidden", "--checkpoint", str(path),
                   "--out", str(tmp_path / "hidden")) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not (tmp_path / "hidden").exists()


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
    assert "every tau must be positive" in captured.err
    assert captured.out == ""


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
