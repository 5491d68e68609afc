"""Golden runs: the same config and seed give the same reported numbers.

Each run below drives the ``swagnn`` command on the toy set, or on a
small seeded MUTAG-shaped set that ``write_tu_set`` writes in the TU text
layout, and collects every number it reports (each ``result.json`` field
but ``wall_time``, ``fold_seconds`` and ``config``, the per-fold table but
its seconds, the pretraining loss curves, the ablation table, the
augmentation manifest), every checkpoint array and every TU file
``augment`` writes, as its SHA-256 digest and its values.  The ablation
sweeps also keep each swept run's full result from ``training.ablate``.
The values are compared with ``fixtures/golden_runs.json``: exactly,
digests included, on the build that recorded it (same numpy version,
BLAS, BLAS kernel core and enabled CPU features), to 1e-12 relative and
without the digests on any other, since another BLAS or CPU may round
differently.

A change meant to move these bits records the fixture again, and names
the values that moved in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_runs.py
"""

import csv
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest

from swagnn.cli import main
from swagnn.training import TrainConfig, ablate, load_dataset

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden_runs.json")
RELATIVE = 1e-12

SETTINGS = ["--hidden-graphs", "2", "--hidden-nodes", "4", "--hidden-dim", "8",
            "--walk-len", "2", "--epochs", "3", "--folds", "2", "--batch-size", "8",
            "--seed", "0"]
BASE = ["--dataset", "toy", *SETTINGS]
LGA = ["--augmenter", "lga", "--tau", "0.5", "--objective", "infonce"]
EDGE_DROP = ["--augmenter", "edge-drop", "--drop-rate", "0.3", "--objective", "infonce"]
RUNS = {
    "train": ["train"],
    "pretrain": ["pretrain", *LGA],
    "pretrain-simsiam": ["pretrain", "--augmenter", "lga", "--tau", "0.5",
                         "--objective", "simsiam"],
    "pretrain-edge-drop": ["pretrain", *EDGE_DROP],
    "probe-edge-drop": ["probe", *EDGE_DROP, "--pretrain-epochs", "2"],
    "probe": ["probe", *LGA, "--pretrain-epochs", "2"],
    "finetune": ["finetune", *LGA, "--pretrain-epochs", "2"],
    "ablate-tau": ["ablate", "--param", "tau", "--values", "0.5,2.02",
                   "--pretrain-epochs", "2"],
    "ablate-num_hidden": ["ablate", "--param", "num_hidden", "--values", "2,3"],
}
# runs on the TU sets that write_tu_set writes: node labels only (GOLD), and
# node labels plus two attribute columns (GOLDATTR)
TU_RUNS = {f"{name.lower()}-{run}": (name, args)
           for name in ("GOLD", "GOLDATTR")
           for run, args in (("train", ["train"]),
                             ("augment-edge-drop", ["augment", "--augmenter", "edge-drop",
                                                    "--drop-rate", "0.3"]),
                             ("augment-lga", ["augment", "--augmenter", "lga", "--tau", "0.5"]))}
# the library sweeps behind the two ablate runs, with the same settings
SWEEPS = {"ablate-tau": ("tau", [0.5, 2.02], 2),
          "ablate-num_hidden": ("num_hidden", [2, 3], None)}
SWEEP_CONFIG = dict(dataset="toy", hidden_graphs=2, hidden_nodes=4, hidden_dim=8,
                    walk_len=2, epochs=3, folds=2, batch_size=8, seed=0)
UNREPORTED = ("wall_time", "fold_seconds", "config")


def build() -> dict:
    """The numpy version and BLAS library these numbers came from, and the
    CPU-dependent parts of them: the configuration OpenBLAS reports at run
    time (with DYNAMIC_ARCH it names the kernel core picked for this CPU)
    and the CPU features numpy's dispatch enabled here."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its config only
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    name = f"{blas['name']} {blas.get('version', '')}".strip() if "name" in blas else "unknown"
    return {"numpy": np.__version__, "blas": name,
            "blas_config": blas.get("openblas configuration", "unknown"),
            "cpu_dispatch": config.get("SIMD Extensions", {}).get("found", "unknown")}


def write_tu_set(directory: str, name: str, attributes: bool, seed: int = 0,
                 graphs: int = 24):
    """A MUTAG-shaped set: ``graphs`` molecules of 10-28 nodes with 7 node
    labels and graph labels 1 and -1; class 1 graphs carry two fused
    6-rings, class -1 graphs a tree.  With ``attributes``, two float columns
    of node attributes as well."""
    rng = np.random.default_rng(seed)
    edges, indicator, glabels, nlabels = [], [], [], []
    offset = 0
    for gi in range(1, graphs + 1):
        n, positive = int(rng.integers(10, 29)), gi % 3 != 0
        # rings 0..5 and 3, 4, 6, 7, 8, 9 share the bond 3-4
        bonds = ([(v, (v + 1) % 6) for v in range(6)] + [(4, 6), (6, 7), (7, 8), (8, 9), (9, 3)]
                 if positive else [])
        for v in range(10 if positive else 1, n):
            bonds.append((int(rng.integers(0, v)), v))
        for u, v in bonds:
            edges += [f"{offset + u + 1}, {offset + v + 1}", f"{offset + v + 1}, {offset + u + 1}"]
        indicator += [str(gi)] * n
        glabels.append("1" if positive else "-1")
        nlabels += [str(x) for x in rng.choice(7, size=n, p=[0.6, 0.1, 0.15, 0.05, 0.04, 0.03,
                                                              0.03])]
        offset += n
    files = {"A": edges, "graph_indicator": indicator, "graph_labels": glabels,
             "node_labels": nlabels}
    if attributes:
        files["node_attributes"] = [f"{a!r}, {b!r}"
                                    for a, b in rng.normal(size=(offset, 2)).tolist()]
    os.makedirs(directory, exist_ok=True)
    for suffix, lines in files.items():
        with open(os.path.join(directory, f"{name}_{suffix}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _number(token: str):
    try:
        return int(token)
    except ValueError:
        return float(token)


def _arrays(path: str) -> dict:
    with np.load(path) as archive:
        return {key: archive[key].tolist() for key in archive.files if key != "__config__"}


def _reported(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key not in UNREPORTED}


def _collect(out: str) -> dict:
    """Every reported number and checkpoint array that a run wrote to ``out``."""
    values = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name == "result.json":
            with open(path, encoding="utf-8") as fh:
                values[name] = _reported(json.load(fh))
        elif name == "loss_curves.json":
            with open(path, encoding="utf-8") as fh:
                values[name] = json.load(fh)
        elif name == "folds.csv":  # fold, accuracy, best_epoch; the seconds vary
            with open(path, encoding="utf-8", newline="") as fh:
                values[name] = [[_number(cell) for cell in row[:3]]
                                for row in list(csv.reader(fh))[1:]]
        elif name == "ablation.csv":
            with open(path, encoding="utf-8", newline="") as fh:
                values[name] = [[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]]
        elif name.endswith(".npz"):
            values[name] = _arrays(path)
        elif name.endswith("_augmentation.json"):
            with open(path, encoding="utf-8") as fh:
                values[name] = json.load(fh)
        elif name.endswith(".txt"):
            with open(path, "rb") as fh:
                data = fh.read()
            values[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                            "values": [[_number(t) for t in line.split(",")]
                                       for line in data.decode().splitlines()]}
    return values


def _without_digests(values):
    if isinstance(values, dict):
        return {k: _without_digests(v) for k, v in values.items() if k != "sha256"}
    if isinstance(values, list):
        return [_without_digests(v) for v in values]
    return values


def _sweep(run: str) -> list:
    parameter, swept, pretrain_epochs = SWEEPS[run]
    cfg = TrainConfig(**SWEEP_CONFIG, pretrain_epochs=pretrain_epochs)
    results = ablate(cfg, parameter, swept, load_dataset(cfg))
    records = []
    for result in results:
        record = _reported({name: value for name, value in vars(result).items()
                            if name != "fold_states"})
        record["fold_states"] = [{"enc": {k: v.tolist() for k, v in params.to_state().items()},
                                  "head": {k: v.tolist() for k, v in head.to_state().items()}}
                                 for params, head in result.fold_states]
        records.append(record)
    return records


def golden_run(run: str, out: str) -> dict:
    if run in TU_RUNS:
        name, args = TU_RUNS[run]
        data = out + "-data"
        write_tu_set(data, name, attributes=name == "GOLDATTR")
        assert main([*args, "--dataset", name, "--data-dir", data, *SETTINGS,
                     "--out", out]) == 0
        return _collect(out)
    assert main([*RUNS[run], *BASE, "--out", out]) == 0
    values = _collect(out)
    if run in SWEEPS:
        values["ablate()"] = _sweep(run)
    return values


def mismatch(stored, got, path: str, exact: bool):
    """The path and values of the first difference, or None."""
    if isinstance(stored, dict) or isinstance(got, dict):
        if not (isinstance(stored, dict) and isinstance(got, dict)) or stored.keys() != got.keys():
            return f"{path}: keys {sorted(stored)} != {sorted(got)}"
        return next(filter(None, (mismatch(stored[k], got[k], f"{path}/{k}", exact)
                                  for k in stored)), None)
    if isinstance(stored, list) or isinstance(got, list):
        if not (isinstance(stored, list) and isinstance(got, list)) or len(stored) != len(got):
            return f"{path}: {stored!r} != {got!r}"
        return next(filter(None, (mismatch(s, g, f"{path}/{i}", exact)
                                  for i, (s, g) in enumerate(zip(stored, got)))), None)
    if isinstance(stored, float) or isinstance(got, float):
        same = stored == got if exact else math.isclose(stored, got, rel_tol=RELATIVE)
    else:
        same = stored == got and type(stored) is type(got)
    return None if same else f"{path}: recorded {stored!r}, got {got!r}"


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("run", sorted([*RUNS, *TU_RUNS]))
def test_golden_run(tmp_path, capsys, golden, run):
    here = build()
    exact = here == golden["build"]
    stored, got = golden["runs"][run], golden_run(run, str(tmp_path / run))
    if not exact:
        stored, got = _without_digests(stored), _without_digests(got)
    diff = mismatch(stored, got, run, exact)
    capsys.readouterr()
    how = ("compared exactly: this is the recording build" if exact else
           f"compared to {RELATIVE:g} relative: this build {here} is not the recording "
           f"build {golden['build']}")
    assert diff is None, f"{diff} ({how})"


def record(path: str = FIXTURE):
    with tempfile.TemporaryDirectory() as tmp:
        runs = {run: golden_run(run, os.path.join(tmp, run))
                for run in sorted([*RUNS, *TU_RUNS])}
    # one line per artefact, so that a diff of the fixture names what moved
    lines = [f"  {json.dumps(run)}: {{\n" + ",\n".join(
                 f"    {json.dumps(name)}: {json.dumps(value)}" for name, value in values.items())
             + "\n  }" for run, values in runs.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"build": {json.dumps(build())},\n "runs": {{\n' + ",\n".join(lines)
                 + "\n }\n}\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    record()
