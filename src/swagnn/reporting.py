"""Result files, checkpoints and exports.

Everything here is plain JSON, CSV, npz or DOT so runs can be inspected
and compared without the package installed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import reprlib
import zipfile

import numpy as np

from .errors import ConfigError, ContractError, LoadError
from .graphs import Dataset, write_tu_dataset
from .kernel import SwagParams, hidden_adjacencies
from .ssl import TwoLayerMLP
from .training import ENCODER_FIELDS, RunResult, TrainConfig, load_dataset

_RESULT_FIELDS = [f.name for f in dataclasses.fields(RunResult)
                  if f.name != "fold_states"]


def _number(value) -> bool:
    # bool is not a number here, although Python counts it as an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value) -> bool:
    return isinstance(value, list) and all(map(_number, value))


# what each result field must hold in JSON; every list has one entry per fold
_RESULT_TYPES = {
    "config": ("a JSON object", lambda value: isinstance(value, dict)),
    "mode": ("a string", lambda value: isinstance(value, str)),
    **dict.fromkeys(("mean_accuracy", "std_accuracy", "wall_time"), ("a number", _number)),
    **dict.fromkeys(("fold_accuracies", "val_accuracies", "train_accuracies", "best_epochs",
                     "fold_seconds"), ("a list of numbers", _numbers)),
    **dict.fromkeys(("loss_curves", "val_curves"),
                    ("a list of lists of numbers",
                     lambda value: isinstance(value, list) and all(map(_numbers, value))))}


# ---------------------------------------------------------------------------
# run results
# ---------------------------------------------------------------------------

def save_result(result: RunResult, path: str):
    payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def load_result(path: str) -> RunResult:
    """The RunResult that ``save_result`` wrote to ``path``, without fold
    states.  A file that cannot be read, is not JSON, lacks a field or
    holds a field of the wrong JSON type (``_RESULT_TYPES``), or per-fold
    lists of different lengths, raises LoadError naming the file and field."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise LoadError(f"{path}: not a JSON file: {exc}") from exc
    if not isinstance(payload, dict):
        raise LoadError(f"{path}: expected a JSON object of result fields")
    missing = set(_RESULT_FIELDS) - set(payload)
    if missing:
        raise LoadError(f"{path}: missing result fields {sorted(missing)}")
    for name, (kind, check) in _RESULT_TYPES.items():
        if not check(payload[name]):
            raise LoadError(f"{path}: {name} must be {kind}, got {reprlib.repr(payload[name])}")
    folds = len(payload["fold_accuracies"])
    for name in _RESULT_FIELDS:
        if isinstance(payload[name], list) and len(payload[name]) != folds:
            raise LoadError(f"{path}: {name} has {len(payload[name])} entries "
                            f"but fold_accuracies has {folds}")
    return RunResult(**{name: payload[name] for name in _RESULT_FIELDS})


def fold_csv(result: RunResult, path: str):
    """One row per fold: fold, accuracy, epochs-to-best, seconds."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "accuracy", "best_epoch", "seconds"])
        rows = zip(result.fold_accuracies, result.best_epochs, result.fold_seconds)
        for fold, (acc, best, secs) in enumerate(rows):
            writer.writerow([fold, repr(acc), best, repr(secs)])


def ablation_csv(values: list, results: list, path: str):
    """One row per swept value with its accuracy statistics."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "mean_accuracy", "std_accuracy"])
        for value, result in zip(values, results):
            writer.writerow([value, repr(result.mean_accuracy),
                             repr(result.std_accuracy)])


def summarize(result: RunResult) -> str:
    lines = [f"mode: {result.mode}",
             f"folds: {len(result.fold_accuracies)}",
             f"accuracy: {result.mean_accuracy:.4f} +/- {result.std_accuracy:.4f}",
             f"wall time: {result.wall_time:.1f}s"]
    for fold, acc in enumerate(result.fold_accuracies):
        lines.append(f"  fold {fold}: accuracy {acc:.4f}, "
                     f"best epoch {result.best_epochs[fold]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path: str, fold_params: list, fold_heads: list, config: dict):
    """Per-fold encoder and head parameters in one npz archive."""
    arrays = {"__config__": np.array(json.dumps(config))}
    for fold, params in enumerate(fold_params):
        for key, value in params.to_state().items():
            arrays[f"fold{fold}/enc/{key}"] = value
        if fold_heads is not None:
            for key, value in fold_heads[fold].to_state().items():
                arrays[f"fold{fold}/head/{key}"] = value
    np.savez(path, **arrays)


def load_checkpoint(path: str, expect: TrainConfig = None):
    """Returns (fold_params, fold_heads, config); heads may be None.  With
    ``expect``, the stored config must agree with it on every encoder
    field and on the seed and fold count that fix the splits (so no test
    graph of the new run was a training graph of the old one), or
    ConfigError names the first that differs.  A file that is not such an
    archive, an entry that is missing or malformed, fold numbers other than
    0 to K-1 (a gap), or (with ``expect``) a hidden-graph bank of another
    size raises LoadError naming the file and fold."""
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise LoadError(f"{path}: not an npz archive")
        with archive:
            entries = {key: archive[key] for key in archive.files}
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise LoadError(f"{path}: not a readable npz archive: {exc}") from exc
    if "__config__" not in entries:
        raise LoadError(f"{path}: no __config__ entry, so not a swagnn checkpoint")
    try:
        config = json.loads(str(entries["__config__"]))
    except ValueError as exc:
        raise LoadError(f"{path}: __config__ is not JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise LoadError(f"{path}: __config__ is not a JSON object")
    if expect is not None:
        for name in ENCODER_FIELDS + ("seed", "folds"):
            stored, wanted = config.get(name), getattr(expect, name)
            if stored != wanted:
                raise ConfigError(f"{path}: the checkpoint was saved with {name}={stored!r} "
                                  f"but the config asks for {name}={wanted!r}")
    folds = set()
    for key in entries:
        name = key.split("/", 1)[0]
        if name.startswith("fold") and name[4:].isdigit():
            folds.add(int(name[4:]))
    if sorted(folds) != list(range(len(folds))):
        raise LoadError(f"{path}: holds folds {sorted(folds)}, not folds 0 to {len(folds) - 1}")
    fold_params, fold_heads = [], []
    for fold in range(len(folds)):
        enc_prefix, head_prefix = f"fold{fold}/enc/", f"fold{fold}/head/"
        enc_state = {key[len(enc_prefix):]: value
                     for key, value in entries.items() if key.startswith(enc_prefix)}
        head_state = {key[len(head_prefix):]: value
                      for key, value in entries.items() if key.startswith(head_prefix)}
        try:
            params = SwagParams.from_state(enc_state)
            fold_heads.append(TwoLayerMLP.from_state(head_state) if head_state else None)
        except KeyError as exc:
            raise LoadError(f"{path}: fold {fold} has no {exc.args[0]!r} entry") from exc
        except ContractError as exc:
            raise LoadError(f"{path}: fold {fold}: {exc}") from exc
        bank = params.features.data.shape
        if expect is not None and bank != (expect.hidden_graphs, expect.hidden_nodes,
                                           expect.hidden_dim):
            raise LoadError(f"{path}: fold {fold} holds {bank[0]} hidden graphs of {bank[1]} "
                            f"nodes with {bank[2]} features, not the {expect.hidden_graphs} of "
                            f"{expect.hidden_nodes} with {expect.hidden_dim} its config gives")
        fold_params.append(params)
    if not fold_params:
        raise LoadError(f"{path}: no fold parameters found")
    if any(h is None for h in fold_heads):
        fold_heads = None
    return fold_params, fold_heads, config


# ---------------------------------------------------------------------------
# hidden-graph export
# ---------------------------------------------------------------------------

def export_hidden_graphs(params: SwagParams, threshold: float, out: str) -> list:
    """For every hidden graph, write its effective adjacency as JSON and a
    DOT file keeping edges with weight >= threshold.  Returns the paths."""
    os.makedirs(out, exist_ok=True)
    written = []
    for i, weights in enumerate(hidden_adjacencies(params.raw.data)):
        m = weights.shape[0]
        json_path = os.path.join(out, f"hidden_{i}.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump({"index": i, "threshold": threshold,
                       "weights": weights.tolist()}, fh, indent=2)
        dot_path = os.path.join(out, f"hidden_{i}.dot")
        lines = [f"graph hidden_{i} {{"]
        lines.extend(f"  {u};" for u in range(m))
        for u in range(m):
            for v in range(u + 1, m):
                if weights[u, v] >= threshold:
                    lines.append(f"  {u} -- {v};")
        lines.append("}")
        with open(dot_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        written.extend([json_path, dot_path])
    return written


# ---------------------------------------------------------------------------
# offline dataset augmentation
# ---------------------------------------------------------------------------

def augment_out(cfg: TrainConfig, out: str = None) -> str:
    """The directory ``augment_dataset`` writes to: ``out``, else ``cfg.out``."""
    out = out or cfg.out
    if out is None:
        raise ConfigError("augment_dataset: an output directory is required")
    return out


def augment_dataset(cfg: TrainConfig, dataset: Dataset = None,
                    out: str = None) -> str:
    """Write one augmented draw of the dataset in TU text format plus a
    JSON manifest describing how it was produced."""
    out = augment_out(cfg, out)
    ds = dataset if dataset is not None else load_dataset(cfg)
    augmenter = cfg.make_augmenter()
    augmented, kept_ranks = [], []
    for index, g in enumerate(ds.graphs):
        augmented.append(augmenter.augment(g, index, epoch=0))
        kept_ranks.append(augmenter.kept_rank(g)
                          if hasattr(augmenter, "kept_rank") else None)
    write_tu_dataset(augmented, out, ds.name)
    manifest = {"dataset": ds.name,
                "augmenter": cfg.augmenter,
                "seed": cfg.seed,
                "tau": cfg.tau if cfg.augmenter == "lga" else None,
                "drop_rate": cfg.drop_rate if cfg.augmenter == "edge-drop" else None,
                "kept_ranks": kept_ranks}
    manifest_path = os.path.join(out, f"{ds.name}_augmentation.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest_path
