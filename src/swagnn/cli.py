"""Command-line experiment driver.

Subcommands cover the full workflow: supervised training, self-supervised
pretraining, probe/finetune adaptation, ablation sweeps, offline dataset
augmentation, hidden-graph export and report inspection.  Every
TrainConfig field but ``mode`` is a flag of the same name, with its type
and choices; a JSON config file supplies defaults and explicit flags
override it.  A run's output directory is made before the run starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .augment import rank0_certified
from .errors import ConfigError, SwagError
from .graphs import Dataset, stratified_folds
from .reporting import (ablation_csv, augment_dataset, augment_out, export_hidden_graphs,
                        fold_csv, load_checkpoint, load_result, save_checkpoint,
                        save_result, summarize)
from .training import (ABLATIONS, ADAPT_MODES, CHOICES, FIELD_TYPES, FIELDS, PretrainResult,
                       TrainConfig, ablate, adapt, cross_validate, load_dataset,
                       pretrain_ssl, sweep_configs)


def _config_parent() -> argparse.ArgumentParser:
    """``--config`` and one flag per TrainConfig field but ``mode``, which
    the subcommand sets."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="FILE",
                   help="JSON file with TrainConfig fields; flags override it")
    for name, annotation in FIELDS.items():
        if name != "mode":
            p.add_argument("--" + name.replace("_", "-"), type=FIELD_TYPES[annotation][1],
                           choices=CHOICES.get(name))
    return p


def build_config(args: argparse.Namespace) -> TrainConfig:
    """Config file values, overridden by every field ``args`` sets (flags and
    the subcommand's mode); ``TrainConfig.from_dict`` defaults the rest.

    An invalid config whose flags alone make a valid one has a bad value
    from the file, and its error names the file; otherwise the error is
    the flags' own, and names no file."""
    path, loaded = getattr(args, "config", None), {}
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path}: expected a JSON object")
    flags = {name: getattr(args, name) for name in FIELDS
             if getattr(args, name, None) is not None}
    try:
        return TrainConfig.from_dict({**loaded, **flags})
    except ConfigError as exc:
        if not loaded:
            raise
        TrainConfig.from_dict(flags)  # a bad flag raises its own error here
        raise ConfigError(f"config {path}: {exc}") from exc


def _make_out(path: str):
    """Create the output directory ``path``, if one is given, so that a
    path that cannot be a directory fails before any work is done."""
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


def _save_run(result, cfg: TrainConfig):
    if not cfg.out:
        return
    save_result(result, os.path.join(cfg.out, "result.json"))
    fold_csv(result, os.path.join(cfg.out, "folds.csv"))
    save_checkpoint(os.path.join(cfg.out, "checkpoint.npz"),
                    [s[0] for s in result.fold_states],
                    [s[1] for s in result.fold_states],
                    cfg.to_dict())
    print(f"wrote {cfg.out}/result.json, folds.csv, checkpoint.npz")


def _prepare(cfg: TrainConfig, runs: list) -> Dataset:
    """Create ``cfg.out`` and load the dataset once for ``runs``.  For each
    distinct tau at which a run pretrains with LGA, check that the folds split
    the dataset and report its rank-0 share (``_report_rank0``).  ``augment``
    passes no run: it needs no folds, and reports after it has written."""
    _make_out(cfg.out)
    dataset = load_dataset(cfg)
    taus = dict.fromkeys(run.tau for run in runs if run.augmenter == "lga"
                         and run.mode != "supervised" and run.pretrain_epochs != 0)
    if taus:  # this also makes the dataset non-empty
        stratified_folds(dataset, cfg.folds, cfg.seed)
    for tau in taus:
        _report_rank0(dataset, tau)
    return dataset


def _report_rank0(dataset: Dataset, tau: float):
    """Print the share of graphs certified LGA rank 0 at ``tau`` (their
    positives are empty graphs) and warn when that is all of them."""
    certified = sum(rank0_certified(g.adjacency, tau) for g in dataset.graphs)
    print(f"lga tau={tau:g}: {certified} of {len(dataset.graphs)} graphs "
          f"({certified / len(dataset.graphs):.0%}) certified rank 0")
    if certified == len(dataset.graphs):
        print(f"warning: at tau={tau:g} every LGA positive is the empty graph; "
              f"a smaller tau keeps spectral components", file=sys.stderr)


def cmd_pretrain(args) -> int:
    cfg = build_config(args)
    pre = pretrain_ssl(cfg, _prepare(cfg, [cfg]))
    for fold, curve in enumerate(pre.loss_curves):
        print(f"fold {fold}: " + (f"final loss {curve[-1]:.6f}" if curve else
                                  "no epoch ran (pretrain_epochs=0); the encoder is untrained"))
    if cfg.out:
        ckpt = os.path.join(cfg.out, "pretrained.npz")
        save_checkpoint(ckpt, pre.fold_params, pre.fold_heads, cfg.to_dict())
        with open(os.path.join(cfg.out, "loss_curves.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(pre.loss_curves, fh)
        print(f"wrote {ckpt} and loss_curves.json")
    return 0


def cmd_run(args) -> int:
    """train, probe and finetune: one cross-validated run of the
    subcommand's mode, adapting the encoders of ``--checkpoint`` if given."""
    cfg = build_config(args)
    # with --checkpoint nothing is pretrained here, so there is no LGA to report
    dataset = _prepare(cfg, [] if args.checkpoint else [cfg])
    if args.checkpoint:
        fold_params, fold_heads, config = load_checkpoint(args.checkpoint, expect=cfg)
        result = adapt(PretrainResult(fold_params, fold_heads, [], config), cfg, dataset)
    else:
        result = cross_validate(cfg, dataset)
    print(summarize(result))
    _save_run(result, cfg)
    return 0


def cmd_ablate(args) -> int:
    cfg = build_config(args)
    values = [part for part in args.values.split(",") if part.strip()]
    # every run's config is built, so checked, before any work
    runs = sweep_configs(cfg, args.param, values)
    results = ablate(cfg, args.param, values, _prepare(cfg, runs))
    swept = [getattr(run_cfg, ABLATIONS[args.param]) for run_cfg in runs]
    for value, result in zip(swept, results):
        print(f"{args.param}={value}: accuracy {result.mean_accuracy:.4f} "
              f"+/- {result.std_accuracy:.4f}")
    if cfg.out:
        path = os.path.join(cfg.out, "ablation.csv")
        ablation_csv(swept, results, path)
        print(f"wrote {path}")
    return 0


def cmd_augment(args) -> int:
    cfg = build_config(args)
    augment_out(cfg)  # without an output directory, stop before loading anything
    dataset = _prepare(cfg, [])
    manifest = augment_dataset(cfg, dataset)
    if cfg.augmenter == "lga":
        _report_rank0(dataset, cfg.tau)
    print(f"wrote {manifest}")
    return 0


def cmd_export_hidden(args) -> int:
    fold_params, _, _ = load_checkpoint(args.checkpoint)
    if not (0 <= args.fold < len(fold_params)):
        raise ConfigError(f"--fold {args.fold} out of range "
                          f"(checkpoint has {len(fold_params)} folds)")
    _make_out(args.out)
    written = export_hidden_graphs(fold_params[args.fold],
                                   threshold=args.threshold, out=args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_report(args) -> int:
    result = load_result(args.result)
    print(summarize(result))
    if args.csv:
        try:
            fold_csv(result, args.csv)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.csv}: {exc}") from exc
        print(f"wrote {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swagnn",
        description="Random-walk kernel graph networks with latent graph "
                    "augmentation: training, pretraining and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _config_parent()

    # train, pretrain, probe and finetune pin the mode; ablate and augment
    # take it from the config file
    p = sub.add_parser("train", parents=[common],
                       help="supervised cross-validated training")
    p.set_defaults(run=cmd_run, mode="supervised", checkpoint=None)

    p = sub.add_parser("pretrain", parents=[common],
                       help="self-supervised pretraining, one encoder per fold")
    p.set_defaults(run=cmd_pretrain, mode="pretrain")

    for mode in ADAPT_MODES:
        p = sub.add_parser(mode, parents=[common],
                           help=f"pretrain (or load --checkpoint) then {mode}")
        p.add_argument("--checkpoint", metavar="NPZ",
                       help="pretrained encoder archive; skips pretraining")
        p.set_defaults(run=cmd_run, mode=mode)

    p = sub.add_parser("ablate", parents=[common],
                       help="sweep tau or the hidden-graph count")
    p.add_argument("--param", required=True, choices=tuple(ABLATIONS))
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values, e.g. 0.3,2.02,4.2")
    p.set_defaults(run=cmd_ablate)

    p = sub.add_parser("augment", parents=[common],
                       help="write one augmented draw of the dataset to --out")
    p.set_defaults(run=cmd_augment)

    p = sub.add_parser("export-hidden",
                       help="dump hidden graphs from a checkpoint as JSON and DOT")
    p.add_argument("--checkpoint", required=True, metavar="NPZ")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default=".")
    p.set_defaults(run=cmd_export_hidden)

    p = sub.add_parser("report", help="print a saved result file")
    p.add_argument("result", help="path to a result.json")
    p.add_argument("--csv", help="also write the per-fold CSV here")
    p.set_defaults(run=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except SwagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
