"""Property tests of the command line's other inputs: a mutated ``--config``
file and a mutated checkpoint end in a run or in an ``error:`` line, never
in a traceback.  (The TU directory is fuzzed in test_graph_properties.)"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swagnn.cli import main  # noqa: E402
from swagnn.kernel import SwagParams  # noqa: E402
from swagnn.reporting import save_checkpoint  # noqa: E402
from swagnn.ssl import ProjectionHead  # noqa: E402
from swagnn.training import TrainConfig, make_toy_dataset  # noqa: E402

# a tiny valid run on the built-in toy set
BASE = {"dataset": "toy", "hidden_graphs": 2, "hidden_nodes": 3, "hidden_dim": 2,
        "walk_len": 2, "epochs": 2, "folds": 2, "batch_size": 4, "seed": 0}
FLAGS = ["--dataset", "toy", "--hidden-graphs", "2", "--hidden-nodes", "3", "--hidden-dim",
         "2", "--walk-len", "2", "--epochs", "1", "--folds", "2", "--batch-size", "4",
         "--seed", "0"]


def run(argv, cwd):
    """main(argv) from ``cwd``, where a mutated config may write its
    ``out``: (exit code, standard error)."""
    stderr, before = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(before)
    return code, stderr.getvalue()


def assert_ran_or_stopped(code, stderr):
    """Exit 0, or exit 1 on a last line starting ``error:``; any other line
    on standard error is a ``warning:`` (the LGA rank-0 report), never a
    traceback or a numpy RuntimeWarning."""
    lines = stderr.splitlines()
    assert code in (0, 1)
    if code == 1:
        assert lines and lines[-1].startswith("error: ")
        lines = lines[:-1]
    assert all(line.startswith("warning: ") for line in lines), stderr


# every value is small: no mutation can ask for a large encoder or a long run
VALUES = st.sampled_from([-1, 0, 1, 2, 3, 5, 0.0, 0.5, 1.5, -0.5, 1e300, float("nan"),
                          float("inf"), -float("inf"), "", "x", "toy", "lga", "edge-drop",
                          "identity", "simsiam", "probe", None, True, [1], {"a": 1}])
FIELDS = st.sampled_from(sorted(TrainConfig().to_dict()) + ["bogus"])
CONFIG_EDITS = st.one_of(st.tuples(st.just("set"), FIELDS, VALUES),
                         st.tuples(st.just("drop"), FIELDS, st.none()))
TEXT_EDITS = st.one_of(st.tuples(st.just("cut"), st.integers(0, 200)),
                       st.tuples(st.sampled_from(["\xff", "{", "]", ",", "\x00"]),
                                 st.integers(0, 200)))


@settings(max_examples=40, deadline=None)
@given(st.lists(CONFIG_EDITS, max_size=3), st.lists(TEXT_EDITS, max_size=1),
       st.sampled_from(["train", "pretrain", "finetune"]))
def test_mutated_config_file_ends_in_a_run_or_an_error_line(edits, text_edits, command):
    values = dict(BASE)
    for kind, field, value in edits:
        if kind == "set":
            values[field] = value
        else:
            values.pop(field, None)
    data = json.dumps(values).encode("utf-8")
    for kind, at in text_edits:
        at %= len(data) + 1
        data = data[:at] if kind == "cut" else data[:at] + kind.encode("latin-1") + data[at:]
    with tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, "config.json"), "wb") as fh:
            fh.write(data)
        assert_ran_or_stopped(*run([command, "--config", "config.json"], directory))


# how an entry changes: removed, reshaped, of another rank, length or dtype
ENTRY_EDITS = {
    "drop": None,
    "ravel": lambda v: v.reshape(-1),
    "transpose": lambda v: v.T,
    "add-axis": lambda v: v[None],
    "first": lambda v: v.reshape(-1)[0],
    "empty": lambda v: v.reshape(-1)[:0],
    "grow": lambda v: np.concatenate([v, v]),
    "int": lambda v: v.astype(np.int64),
    "bool": lambda v: v.astype(bool),
    "float32": lambda v: v.astype(np.float32),
    "complex": lambda v: v.astype(np.complex128),
    "text": lambda v: v.astype(str),
    "nan": lambda v: np.where(np.arange(v.size).reshape(v.shape) == 0, np.nan, v),
}


@pytest.fixture(scope="module")
def checkpoint_entries():
    """The entries of a valid two-fold checkpoint for ``FLAGS``."""
    cfg = TrainConfig(**{**BASE, "epochs": 1})
    kcfg, rng = cfg.kernel_config(), np.random.default_rng(0)
    d = make_toy_dataset().feature_dim
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ckpt.npz")
        save_checkpoint(path, [SwagParams.init(kcfg, d, rng) for _ in range(2)],
                        [ProjectionHead.for_encoder(kcfg.output_dim, rng) for _ in range(2)],
                        cfg.to_dict())
        with np.load(path) as archive:
            return {key: archive[key] for key in archive.files}


@settings(max_examples=40, deadline=None)
@given(st.data(), st.lists(st.sampled_from(sorted(ENTRY_EDITS)), min_size=1, max_size=2),
       st.sampled_from(["export-hidden", "finetune"]))
def test_mutated_checkpoint_ends_in_a_run_or_an_error_line(checkpoint_entries, data, edits,
                                                           command):
    entries = dict(checkpoint_entries)
    for edit in edits:
        key = data.draw(st.sampled_from(sorted(entries)))
        if ENTRY_EDITS[edit] is None:
            del entries[key]
            continue
        try:
            with warnings.catch_warnings():  # e.g. "int" after "nan", "float32" after "complex"
                warnings.simplefilter("ignore")
                entries[key] = ENTRY_EDITS[edit](entries[key])
        except (ValueError, IndexError, TypeError):
            pass  # an edit that does not apply to this entry (e.g. "int" on the config text)
    with tempfile.TemporaryDirectory() as directory:
        np.savez(os.path.join(directory, "ckpt.npz"), **entries)
        if command == "export-hidden":
            argv = [command, "--checkpoint", "ckpt.npz", "--out", "hidden"]
        else:
            argv = [command, *FLAGS, "--checkpoint", "ckpt.npz"]
        assert_ran_or_stopped(*run(argv, directory))
