"""The benchmark's workloads: set-up, timed rounds and output checks.

Every round runs the same four stages on fresh copies of the input
graphs, so the diffusion cache and the LGA estimate cache start cold as
they do for a user's run:

* augment -- ``reporting.augment_dataset`` (TU files written out);
* train   -- ``training.train_supervised`` or ``training.pretrain_ssl``;
* adapt   -- ``training.adapt`` in probe mode on the trained encoders;
* eval    -- repeated ``kernel.encode_numpy`` passes with a trained encoder.

A workload fixes the input set and the settings of each stage so that one
layer dominates it (see README.md).  Each library call is one operation;
an operation fails when it raises or when a check on its output fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import numpy as np

import checks
import inputs
from clock import Clock
from tracing import PER_LAYER, Tracer

from swagnn import augment, autodiff as ad, graphs, kernel, reporting, ssl, training
from swagnn.training import PretrainResult, TrainConfig

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_graphs_per_s", "graphs/s", "higher"),
    ("adapt_graphs_per_s", "graphs/s", "higher"),
    ("eval_graphs_per_s", "graphs/s", "higher"),
    ("augment_graphs_per_s", "graphs/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
STAGES = ("train", "adapt", "eval", "augment")
SETUP_FIRST = 5      # set-ups before the first round
SETUP_PER_ROUND = 3  # more set-ups interleaved with each round's samples
CHECK_GRAPHS = 3     # graphs per round that the encoder and LGA checks look at
FD_BATCH = 6


@dataclasses.dataclass(frozen=True)
class Spec:
    data: str                 # "MUTAG" or "SBM" (see inputs.py)
    fit: str                  # "supervised" or "pretrain"
    epochs: int
    folds: int
    probe_epochs: int
    augmenter: str            # "edge-drop" keeps LGA out; "lga" brings it in
    train_on_augmented: bool  # train on the originals plus their augmented draws
    # (stage, timed samples per round, library calls per sample), the
    # primary stage first; the others get 5-7 s of samples per run each
    plan: tuple
    lr: float = TrainConfig.lr

    @property
    def ops_per_round(self) -> int:
        return sum(samples * calls for _, samples, calls in self.plan)


SPECS = {
    "supervised-small": Spec("MUTAG", "supervised", epochs=2, folds=10, probe_epochs=20,
                             augmenter="edge-drop", train_on_augmented=False,
                             plan=(("train", 2, 1), ("adapt", 4, 1), ("eval", 6, 20),
                                   ("augment", 5, 10))),
    # At the default tau 2.02 the threshold lies above every eigenvalue of a
    # 10-28 node molecule graph: LGA pays for the full estimate but keeps
    # rank 0.  Any tau that keeps a component (0.3-0.6 tried) makes the
    # InfoNCE loss overflow to inf in the first epoch (CHANGES.md, FOUND).
    "pretrain-small": Spec("MUTAG", "pretrain", epochs=1, folds=10, probe_epochs=20,
                           augmenter="edge-drop", train_on_augmented=False,
                           plan=(("train", 1, 1), ("adapt", 5, 1), ("eval", 8, 20),
                                 ("augment", 8, 10))),
    # lr 0.001: at 60-120 nodes the default 0.01 drives logit gaps to ~700
    # within 10 epochs, close to where softmax_cross_entropy returns inf
    "augment-large": Spec("SBM", "supervised", epochs=30, folds=2, probe_epochs=100,
                          augmenter="lga", train_on_augmented=True, lr=0.001,
                          plan=(("augment", 1, 1), ("train", 5, 1), ("adapt", 12, 3),
                                ("eval", 14, 40))),
}


def _fresh(ds, graphs_=None):
    """New Graph objects: caches keyed by graph identity start cold."""
    return graphs.Dataset([g.copy() for g in (graphs_ or ds.graphs)],
                          ds.num_classes, ds.feature_dim, ds.name)


def _pick(n: int, round_no: int, k: int) -> list:
    return [(round_no * k + j) % n for j in range(k)]


class Workload:
    def __init__(self, name: str, seed: int, root: str, tracer: Tracer = None):
        self.name, self.spec, self.seed, self.tracer = name, SPECS[name], seed, tracer
        self.work = tempfile.mkdtemp(prefix=f"{name}-{seed}-",
                                     dir=_ensure(os.path.join(root, ".bench_work")))
        self.attempted = self.failed = self.wrong = 0
        self.clock = Clock()
        self.setup_ranges = []
        # stage -> (samples, calls), primary stage first
        self.plan = {stage: (samples, calls) for stage, samples, calls in self.spec.plan}
        self.rng = np.random.default_rng([seed, 3])

    # -- set-up ---------------------------------------------------------
    def write_inputs(self):
        if self.spec.data == "MUTAG":
            raw, self.probs = inputs.mutag_like(self.seed), None
        else:
            raw, self.probs = inputs.sbm_set(self.seed)
        self.in_dir = os.path.join(self.work, "in")
        inputs.write_tu(raw, self.in_dir, self.spec.data)

    def setup(self):
        """Load the TU files and split folds; timed as one set-up sample."""
        def load():
            ds = graphs.load_tu_dataset(self.in_dir, self.spec.data)
            return ds, graphs.stratified_folds(ds, self.spec.folds, self.seed)

        gc.collect()
        mark = self.tracer.mark() if self.tracer else 0
        self.ds, self.folds = self.clock.measure("setup", 1, load)
        if self.tracer:
            self.setup_ranges.append((mark, self.tracer.mark()))

    def config(self, **kw) -> TrainConfig:
        return TrainConfig(dataset=self.spec.data, data_dir=self.in_dir, lr=self.spec.lr,
                           folds=self.spec.folds, seed=self.seed, **kw)

    # -- bookkeeping ----------------------------------------------------
    def _checked(self, ops: int, reasons: list):
        """Count ``ops`` operations; each failed check fails one of them."""
        bad = [r for r in reasons if r is not None]
        for r in bad:
            print(f"bench: check failed in {self.name}: {r}", file=sys.stderr)
        self.attempted += ops
        self.failed += min(ops, len(bad))
        self.wrong += len(bad)

    def _ops(self, stage: str) -> int:
        samples, calls = self.plan[stage]
        return samples * calls

    def _checking(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    # -- one round ------------------------------------------------------
    def round(self, r: int):
        """The stages' samples interleaved one by one, in plan order (noise
        on this machine is correlated over a second or two, so a stage's
        samples should not sit together), then the checks on each stage's
        last output."""
        spec = self.spec
        try:
            self.r, self.out = r, {}
            self.originals = _fresh(self.ds)
            self.data, self.round_folds = self.originals, self.folds
            for i in range(max(samples for samples, _ in self.plan.values())):
                for stage, (samples, _) in self.plan.items():
                    if i < samples:
                        self._sample(stage)
                if i < SETUP_PER_ROUND:
                    self.setup()
            for stage in self.plan:
                with self._checking():
                    reasons = getattr(self, f"_check_{stage}")()
                self._checked(self._ops(stage), reasons)
        except Exception:  # a failing call fails the round; the run goes on
            traceback.print_exc()
            done = self.attempted % spec.ops_per_round
            self.attempted += spec.ops_per_round - done
            self.failed += spec.ops_per_round - done

    def _sample(self, stage: str):
        """One timed sample: ``calls`` library calls of the stage."""
        calls = self.plan[stage][1]
        work, call = getattr(self, f"_{stage}_call")()
        outs = self.clock.measure(stage, work * calls, lambda: [call() for _ in range(calls)])
        self.out[stage] = outs
        if stage == "augment" and self.spec.train_on_augmented:
            self.data = _fresh(self.ds, self.originals.graphs + self._load_augmented())
            self.round_folds = graphs.stratified_folds(self.data, self.spec.folds, self.seed)
        if stage == "train":
            result = outs[-1]
            self.encoders = ([s[0] for s in result.fold_states] if self.spec.fit == "supervised"
                             else result.fold_params)

    def _n_train(self) -> int:
        return sum(len(f.train_idx) for f in self.round_folds)

    def _augment_call(self):
        cfg = self.config(augmenter=self.spec.augmenter)
        ds, out = self.originals, os.path.join(self.work, "aug")
        return len(ds), lambda: reporting.augment_dataset(cfg, ds, out=out)

    def _train_call(self):
        cfg, data = self.config(epochs=self.spec.epochs), self.data
        fit = training.train_supervised if self.spec.fit == "supervised" else training.pretrain_ssl
        return self._n_train() * self.spec.epochs, lambda: fit(cfg, data)

    def _adapt_call(self):
        pretrained, data = PretrainResult(self.encoders, [], [], {}), self.data
        cfg = self.config(mode="probe", epochs=self.spec.probe_epochs)
        return self._n_train() * self.spec.probe_epochs, lambda: training.adapt(pretrained, cfg, data)

    def _eval_call(self):
        params, graphs_, kcfg = self.encoders[0], self.data.graphs, self.config().kernel_config()
        return len(graphs_), lambda: kernel.encode_numpy(graphs_, params, kcfg)

    # -- checks on each stage's output ------------------------------------
    def _load_augmented(self) -> list:
        with self._checking():
            return graphs.load_tu_dataset(os.path.join(self.work, "aug"), self.ds.name).graphs

    def _check_augment(self) -> list:
        ds, loaded = self.originals, self._load_augmented()
        path = os.path.join(self.work, "aug", f"{ds.name}_augmentation.json")
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        reasons, expected = [], []
        if self.spec.augmenter == "edge-drop":
            drop = augment.EdgeDropAugmenter(TrainConfig.drop_rate, self.seed)
            for i, g in enumerate(ds.graphs):
                expected.append(drop.augment(g, i, 0))
                if i < len(loaded):
                    reasons.append(checks.check_positive(loaded[i].adjacency, g.adjacency > 0))
        else:
            tau = TrainConfig.tau
            for i, g in enumerate(ds.graphs):
                est = checks.usvt_eigh(g.adjacency, tau)
                theta = est[0] if est else augment.usvt_estimate(g.adjacency, tau)
                if est:
                    reasons.append(checks.check_usvt(g.adjacency, tau, None,
                                                     manifest["kept_ranks"][i]))
                expected.append(graphs.Graph(g.n, augment.sample_augmentation(
                    theta, [self.seed, i, 0]), g.features, g.label))
                if i < len(loaded):
                    reasons.append(checks.check_positive(loaded[i].adjacency, theta > 1e-9))
            # one graph a round through the program's own estimate
            i = _pick(len(ds), self.r, 1)[0]
            g = ds.graphs[i]
            theta, rank = augment.usvt_with_rank(g.adjacency, tau)
            reasons.append(checks.check_usvt(g.adjacency, tau, theta, rank))
            reasons.append(checks.check_sbm_estimate(theta, g.adjacency, self.probs[i]))
        reasons.append(checks.check_roundtrip(loaded, expected))
        return reasons

    def _check_train(self) -> list:
        result, split = self.out["train"][-1], self.round_folds[0]
        supervised = self.spec.fit == "supervised"
        reasons = [checks.check_losses(result.loss_curves, must_decrease=supervised),
                   checks.check_partition(self.round_folds, len(self.data))]
        if supervised:
            reasons.append(self._check_gradient(split, result.fold_states[0]))
        else:
            reasons.extend(self._check_pretraining(split, result))
        return reasons

    def _check_gradient(self, split, state):
        params, predictor = state[0].copy(), state[1].copy()
        kcfg = self.config().kernel_config()
        idx = split.train_idx[:FD_BATCH]
        batch, labels = [self.data.graphs[i] for i in idx], self.data.labels()[idx]
        leaves = params.parameters() + predictor.parameters()

        def loss():
            enc = kernel.encode_batch(batch, params, kcfg)
            return training.softmax_cross_entropy(predictor(enc), labels)

        for p in leaves:
            p.grad = None
        ad.backward(loss())
        grads = [p.grad.copy() for p in leaves]
        return checks.check_directional_derivative(lambda: loss().item(), leaves, grads,
                                                   self.rng)

    def _check_pretraining(self, split, result) -> list:
        tau, reasons = TrainConfig.tau, []
        lga = augment.LgaAugmenter(tau, self.seed)
        positions = [split.train_idx[j]
                     for j in _pick(len(split.train_idx), self.r, CHECK_GRAPHS)]
        for i in positions:
            g = self.data.graphs[i]
            theta, rank = augment.usvt_with_rank(g.adjacency, tau)
            reasons.append(checks.check_usvt(g.adjacency, tau, theta, rank))
            reasons.append(checks.check_positive(lga.augment(g, i, 0).adjacency, theta > 0))
        params, head = result.fold_params[0], result.fold_heads[0]
        batch = ssl.make_ssl_batch([self.data.graphs[i] for i in positions], lga, params,
                                   self.config().kernel_config(), 0, indices=positions)
        reasons.append(checks.check_infonce(ssl.infonce_loss(batch, head).item(),
                                            batch.anchors.data, batch.positives.data,
                                            head.to_state()))
        return reasons

    def _check_adapt(self) -> list:
        before = [p.to_state() for p in self.encoders]
        reasons = []
        for res in self.out["adapt"]:
            reasons.append(checks.check_losses(res.loss_curves, must_decrease=False))
            reasons.append(checks.check_unchanged(
                before, [s[0].to_state() for s in res.fold_states]))
        return reasons

    def _check_eval(self) -> list:
        params, kcfg = self.encoders[0], self.config().kernel_config()
        idx = _pick(len(self.data), self.r, CHECK_GRAPHS)
        picked, mine = [self.data.graphs[i] for i in idx], self.out["eval"][-1][idx]
        state = params.to_state()
        permuted = [g.permuted(self.rng.permutation(g.n)) for g in picked]
        return [checks.check_encoder_oracle(picked, mine, state, kcfg),
                checks.check_encoder_oracle(
                    picked, kernel.encode_batch(picked, params, kcfg).data, state, kcfg),
                checks.check_permutation(mine, kernel.encode_numpy(permuted, params, kcfg))]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _ensure(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One run: inputs, set-up, whole rounds for about ``seconds``, result."""
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    wl = Workload(name, seed, root, tracer)
    try:
        wl.write_inputs()
        for _ in range(SETUP_FIRST):
            wl.setup()
        first = tracer.mark() if tracer else 0
        start = time.perf_counter()
        rounds = 0
        while True:
            gc.collect()
            wl.round(rounds)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        wl.close()

    clock = wl.clock
    e2e, raw = {}, {}
    for scaled, out in ((True, e2e), (False, raw)):
        out["setup_s"] = clock.seconds_per_unit("setup", scaled)
        for stage in STAGES:
            per_graph = clock.seconds_per_unit(stage, scaled)
            out[f"{stage}_graphs_per_s"] = 1.0 / per_graph if per_graph else 0.0
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"bench: {rounds} rounds; machine speed {clock.speed():.4f} of reference; "
          f"wall-clock figures {json.dumps(raw)}", file=sys.stderr)
    if tracer:
        path = os.path.join(_ensure(os.path.join(root, ".bench_work", "traces")),
                            f"{name}-seed{seed}.jsonl")
        tracer.write(path)
        print(f"bench: traced end-to-end {json.dumps(e2e)}; spans in {path}", file=sys.stderr)
        values = tracer.per_layer(wl.setup_ranges, (first, tracer.mark()), rounds, clock.speed())
        units = {m: u for m, u, _ in PER_LAYER}
    else:
        values, units = e2e, {m: u for m, u, _ in END_TO_END}
    return {"correct": wl.wrong == 0, "attempted": wl.attempted, "failed": wl.failed,
            "metrics": {m: {"value": values[m], "unit": units[m]} for m in units}}
