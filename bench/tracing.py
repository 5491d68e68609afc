"""Spans around the library's public calls, recorded from outside it.

``Tracer.install`` replaces each traced function with a wrapper in every
``swagnn`` module namespace that holds it -- the defining module and any
module that imported it by name -- so calls between modules are caught
without touching the program's source.  Each call appends a span
(name, start, end, parent) to an in-memory list; ``write`` dumps the
list as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute); "Class.method" patches a method
TRACED = {
    "graphs.load_tu_dataset": ("swagnn.graphs", "load_tu_dataset"),
    "graphs.diffuse": ("swagnn.graphs", "diffuse"),
    "graphs.write_tu_dataset": ("swagnn.graphs", "write_tu_dataset"),
    "kernel.encode_batch": ("swagnn.kernel", "encode_batch"),
    "kernel.encode_numpy": ("swagnn.kernel", "encode_numpy"),
    "autodiff.backward": ("swagnn.autodiff", "backward"),
    "autodiff.adam_step": ("swagnn.autodiff", "Adam.step"),
    "augment.symmetric_eig": ("swagnn.augment", "symmetric_eig"),
    "augment.usvt_with_rank": ("swagnn.augment", "usvt_with_rank"),
    "augment.sample_augmentation": ("swagnn.augment", "sample_augmentation"),
    "ssl.make_ssl_batch": ("swagnn.ssl", "make_ssl_batch"),
    "ssl.infonce_loss": ("swagnn.ssl", "infonce_loss"),
    "training.train_supervised": ("swagnn.training", "train_supervised"),
    "training.pretrain_ssl": ("swagnn.training", "pretrain_ssl"),
    "training.adapt": ("swagnn.training", "adapt"),
    "reporting.augment_dataset": ("swagnn.reporting", "augment_dataset"),
}
TOP_LEVEL_TRAINING = ("training.train_supervised", "training.pretrain_ssl", "training.adapt")

# (metric, unit, better) -- every per-layer metric the traced run prints
PER_LAYER = [
    ("graphs.load_tu_dataset.s", "s", "lower"),
    ("graphs.diffuse.calls", "calls/round", "lower"),
    ("graphs.diffuse.self_s", "s/round", "lower"),
    ("graphs.write_tu_dataset.self_s", "s/round", "lower"),
    ("kernel.encode_batch.graphs", "graphs/round", "lower"),
    ("kernel.encode_batch.self_s", "s/round", "lower"),
    ("kernel.encode_numpy.graphs", "graphs/round", "lower"),
    ("kernel.encode_numpy.self_s", "s/round", "lower"),
    ("autodiff.backward.calls", "calls/round", "lower"),
    ("autodiff.backward.self_s", "s/round", "lower"),
    ("autodiff.tape_nodes.mean", "nodes", "lower"),
    ("autodiff.adam_step.calls", "calls/round", "lower"),
    ("autodiff.adam_step.self_s", "s/round", "lower"),
    ("augment.symmetric_eig.calls", "calls/round", "lower"),
    ("augment.symmetric_eig.self_s", "s/round", "lower"),
    ("augment.usvt_with_rank.self_s", "s/round", "lower"),
    ("augment.sample_augmentation.calls", "calls/round", "lower"),
    ("augment.sample_augmentation.self_s", "s/round", "lower"),
    ("augment.kept_rank.mean", "rank", "lower"),
    ("ssl.make_ssl_batch.self_s", "s/round", "lower"),
    ("ssl.infonce_loss.self_s", "s/round", "lower"),
    ("training.self_s", "s/round", "lower"),
    ("reporting.augment_dataset.self_s", "s/round", "lower"),
]

_HIDDEN = "bench.tape_count"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index]
        self.values = []     # per span: graphs, kept rank or tape nodes, else None
        self._stack = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks record no spans."""
        before, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = before

    # -- recording ------------------------------------------------------
    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self.values.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                if name == "autodiff.backward":
                    tracer.values[idx] = tracer._tape_nodes(args[0])
                out = fn(*args, **kwargs)
                if name in ("kernel.encode_batch", "kernel.encode_numpy"):
                    tracer.values[idx] = len(args[0])
                elif name == "augment.usvt_with_rank":
                    tracer.values[idx] = out[1]
                return out
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _tape_nodes(self, loss):
        # counted in a child span, so the count's cost leaves backward's self time
        from swagnn import autodiff
        idx = self._open(_HIDDEN)
        try:
            return sum(1 for n in autodiff.Tape(loss).nodes if n._parents)
        finally:
            self._close(idx)

    def install(self):
        """Patch every traced function in each swagnn namespace holding it.
        A function the program no longer has is skipped; its metrics read 0."""
        modules = [m for k, m in sys.modules.items() if k.startswith("swagnn") and m]
        for name, (modname, attr) in TRACED.items():
            owner = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and hasattr(cls, meth):
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def mark(self) -> int:
        return len(self.spans)

    # -- reporting ------------------------------------------------------
    def _self_times(self, lo, hi):
        covered = defaultdict(float)
        for i in range(lo, hi):
            name, start, end, parent = self.spans[i]
            if parent >= 0:
                covered[parent] += end - start
        return {i: self.spans[i][2] - self.spans[i][1] - covered[i] for i in range(lo, hi)}

    def per_layer(self, setup_ranges: list, round_range: tuple, rounds: int,
                  speed: float) -> dict:
        """Per-layer metrics: load time per set-up (median), and counts and
        self times per timed round; times are multiplied by ``speed``, the
        run's reference-second factor."""
        loads = [sum(self.spans[i][2] - self.spans[i][1] for i in range(lo, hi)
                     if self.spans[i][0] == "graphs.load_tu_dataset")
                 for lo, hi in setup_ranges]
        lo, hi = round_range
        self_s = self._self_times(lo, hi)
        calls, own, vals = defaultdict(int), defaultdict(float), defaultdict(list)
        for i in range(lo, hi):
            name = self.spans[i][0]
            if name in TOP_LEVEL_TRAINING:
                name = "training"
            calls[name] += 1
            own[name] += self_s[i]
            if self.values[i] is not None:
                vals[name].append(self.values[i])

        def mean(xs):
            return float(np.mean(xs)) if xs else 0.0

        out = {"graphs.load_tu_dataset.s": statistics.median(loads) * speed}
        for metric, _, _ in PER_LAYER[1:]:
            layer, kind = metric.rsplit(".", 1)
            if kind == "calls":
                out[metric] = calls[layer] / rounds
            elif kind == "self_s":
                out[metric] = own[layer] / rounds * speed
            elif kind == "graphs":
                out[metric] = sum(vals[layer]) / rounds
        out["autodiff.tape_nodes.mean"] = mean(vals["autodiff.backward"])
        out["augment.kept_rank.mean"] = mean(vals["augment.usvt_with_rank"])
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, parent), value in zip(self.spans, self.values):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "value": value}) + "\n")
