"""Command-line experiment driver.

Subcommands cover the full workflow: supervised training, self-supervised
pretraining, probe/finetune adaptation, ablation sweeps, offline dataset
augmentation, hidden-graph export and report inspection.  Training flags
mirror TrainConfig; a JSON config file supplies defaults and explicit
flags override it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .augment import rank0_certified
from .errors import ConfigError, SwagError
from .reporting import (ablation_csv, augment_dataset, export_hidden_graphs,
                        fold_csv, load_checkpoint, load_result, save_checkpoint,
                        save_result, summarize)
from .training import (PretrainResult, TrainConfig, ablate, adapt, cross_validate,
                       load_dataset, pretrain_ssl, train_supervised)

_CONFIG_FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]


def _config_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="FILE",
                   help="JSON file with TrainConfig fields; flags override it")
    p.add_argument("--dataset")
    p.add_argument("--data-dir")
    p.add_argument("--hidden-graphs", type=int, metavar="M")
    p.add_argument("--hidden-nodes", type=int, metavar="m")
    p.add_argument("--hidden-dim", type=int, metavar="d_h")
    p.add_argument("--walk-len", type=int, metavar="P")
    p.add_argument("--diff-steps", type=int, metavar="J")
    p.add_argument("--alpha", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--drop-rate", type=float)
    p.add_argument("--augmenter", choices=["lga", "edge-drop", "identity"])
    p.add_argument("--objective", choices=["infonce", "simsiam"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    return p


def build_config(args: argparse.Namespace, mode: str = None) -> TrainConfig:
    """Defaults, then config file values, then explicit flags; the
    subcommand finally pins the mode."""
    values = TrainConfig().to_dict()
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config}: expected a JSON object")
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"config {args.config}: unknown fields {sorted(unknown)}")
        values.update(loaded)
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if mode is not None:
        values["mode"] = mode
    return TrainConfig.from_dict(values)


def _save_run(result, cfg: TrainConfig):
    if not cfg.out:
        return
    os.makedirs(cfg.out, exist_ok=True)
    save_result(result, os.path.join(cfg.out, "result.json"))
    fold_csv(result, os.path.join(cfg.out, "folds.csv"))
    if result.fold_states:
        save_checkpoint(os.path.join(cfg.out, "checkpoint.npz"),
                        [s[0] for s in result.fold_states],
                        [s[1] for s in result.fold_states],
                        cfg.to_dict())
    print(f"wrote {cfg.out}/result.json, folds.csv, checkpoint.npz")


def _report_rank0(dataset, tau: float):
    """Print how many graphs the row-sum certificate puts at LGA rank 0
    (their positives are empty graphs); warn when that is all of them."""
    certified = sum(rank0_certified(g.adjacency, tau) for g in dataset.graphs)
    total = len(dataset.graphs)
    print(f"lga tau={tau:g}: {certified} of {total} graphs "
          f"({certified / max(total, 1):.0%}) certified rank 0")
    if total and certified == total:
        print(f"warning: at tau={tau:g} every LGA positive is the empty graph; "
              f"a smaller tau keeps spectral components", file=sys.stderr)


def _parse_values(parameter: str, text: str) -> list:
    cast = float if parameter == "tau" else int
    try:
        values = [cast(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values: cannot parse {text!r} as {cast.__name__}s") from exc
    if parameter == "tau" and not all(value > 0 for value in values):
        raise ConfigError(f"--values: every tau must be positive, got {text!r}")
    return values


def cmd_train(args) -> int:
    cfg = build_config(args, mode="supervised")
    result = train_supervised(cfg)
    print(summarize(result))
    _save_run(result, cfg)
    return 0


def cmd_pretrain(args) -> int:
    cfg = build_config(args, mode="pretrain")
    dataset = load_dataset(cfg)
    if cfg.augmenter == "lga":
        _report_rank0(dataset, cfg.tau)
    pre = pretrain_ssl(cfg, dataset)
    for fold, curve in enumerate(pre.loss_curves):
        print(f"fold {fold}: final loss {curve[-1]:.6f}")
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        ckpt = os.path.join(cfg.out, "pretrained.npz")
        save_checkpoint(ckpt, pre.fold_params, pre.fold_heads, cfg.to_dict())
        with open(os.path.join(cfg.out, "loss_curves.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(pre.loss_curves, fh)
        print(f"wrote {ckpt} and loss_curves.json")
    return 0


def cmd_adapt(args, mode: str) -> int:
    cfg = build_config(args, mode=mode)
    if args.checkpoint:
        fold_params, fold_heads, config = load_checkpoint(args.checkpoint, expect=cfg)
        result = adapt(PretrainResult(fold_params, fold_heads, [], config), cfg)
    else:
        result = cross_validate(cfg, pretrain_epochs=args.pretrain_epochs)
    print(summarize(result))
    _save_run(result, cfg)
    return 0


def cmd_ablate(args) -> int:
    cfg = build_config(args)
    values = _parse_values(args.param, args.values)
    dataset = load_dataset(cfg)
    if args.param == "tau":
        for tau in values:
            _report_rank0(dataset, tau)
    results = ablate(cfg, args.param, values, dataset,
                     pretrain_epochs=args.pretrain_epochs)
    for value, result in zip(values, results):
        print(f"{args.param}={value}: accuracy {result.mean_accuracy:.4f} "
              f"+/- {result.std_accuracy:.4f}")
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        path = os.path.join(cfg.out, "ablation.csv")
        ablation_csv(values, results, path)
        print(f"wrote {path}")
    return 0


def cmd_augment(args) -> int:
    cfg = build_config(args)
    manifest = augment_dataset(cfg)
    print(f"wrote {manifest}")
    return 0


def cmd_export_hidden(args) -> int:
    fold_params, _, _ = load_checkpoint(args.checkpoint)
    if not (0 <= args.fold < len(fold_params)):
        raise ConfigError(f"--fold {args.fold} out of range "
                          f"(checkpoint has {len(fold_params)} folds)")
    written = export_hidden_graphs(fold_params[args.fold],
                                   threshold=args.threshold, out=args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_report(args) -> int:
    result = load_result(args.result)
    print(summarize(result))
    if args.csv:
        fold_csv(result, args.csv)
        print(f"wrote {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swagnn",
        description="Random-walk kernel graph networks with latent graph "
                    "augmentation: training, pretraining and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = _config_parent()

    sub.add_parser("train", parents=[common],
                   help="supervised cross-validated training")

    sub.add_parser("pretrain", parents=[common],
                   help="self-supervised pretraining, one encoder per fold")

    for mode in ("probe", "finetune"):
        p = sub.add_parser(mode, parents=[common],
                           help=f"pretrain (or load --checkpoint) then {mode}")
        p.add_argument("--checkpoint", metavar="NPZ",
                       help="pretrained encoder archive; skips pretraining")
        p.add_argument("--pretrain-epochs", type=int,
                       help="epoch budget for the internal pretraining")

    p = sub.add_parser("ablate", parents=[common],
                       help="sweep tau or the hidden-graph count")
    p.add_argument("--param", required=True, choices=["tau", "num_hidden"])
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values, e.g. 0.3,2.02,4.2")
    p.add_argument("--pretrain-epochs", type=int)

    sub.add_parser("augment", parents=[common],
                   help="write one augmented draw of the dataset to --out")

    p = sub.add_parser("export-hidden",
                       help="dump hidden graphs from a checkpoint as JSON and DOT")
    p.add_argument("--checkpoint", required=True, metavar="NPZ")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default=".")

    p = sub.add_parser("report", help="print a saved result file")
    p.add_argument("result", help="path to a result.json")
    p.add_argument("--csv", help="also write the per-fold CSV here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"train": cmd_train,
                "pretrain": cmd_pretrain,
                "probe": lambda a: cmd_adapt(a, "probe"),
                "finetune": lambda a: cmd_adapt(a, "finetune"),
                "ablate": cmd_ablate,
                "augment": cmd_augment,
                "export-hidden": cmd_export_hidden,
                "report": cmd_report}
    try:
        return handlers[args.command](args)
    except SwagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
