"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check must accept a correct output and reject a deliberately
perturbed one.  The test also confirms that BENCHMARK.json names the
metrics and workloads the benchmark prints.  Exits non-zero on any
mismatch.
"""

import json
import os
import sys

from run import HERE, ROOT  # importing run pins BLAS to one thread before numpy loads

sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from swagnn import augment, autodiff as ad, graphs, kernel, ssl, training  # noqa: E402

failures = []


def expect(name: str, good, bad):
    ok = good is None and bad is not None
    print(f"{'ok  ' if ok else 'FAIL'} {name}: accepts correct output"
          f"{'' if good is None else ' -- NO: ' + good}; rejects perturbed"
          f"{'' if bad is not None else ' -- NO'}")
    if not ok:
        failures.append(name)


def bump(x: np.ndarray) -> np.ndarray:
    y = x.copy()
    y.flat[0] = np.nextafter(y.flat[0], np.inf)
    return y


def main() -> int:
    rng = np.random.default_rng(0)
    raw = inputs.mutag_like(0)[:12]
    gs = [graphs.Graph(a.shape[0], a, np.eye(inputs.MUTAG_NODE_LABELS)[lab], c)
          for a, lab, c in raw]
    ds = graphs.Dataset(gs, 2, inputs.MUTAG_NODE_LABELS, "MUTAG")
    cfg = training.TrainConfig(hidden_graphs=3, hidden_nodes=4, hidden_dim=5, folds=2)
    kcfg = cfg.kernel_config()
    params = kernel.SwagParams.init(kcfg, ds.feature_dim, rng)
    state = params.to_state()

    rows = kernel.encode_numpy(gs[:3], params, kcfg)
    expect("encoder oracle", checks.check_encoder_oracle(gs[:3], rows, state, kcfg),
           checks.check_encoder_oracle(gs[:3], rows * (1 + 1e-6), state, kcfg))
    batch_rows = kernel.encode_batch(gs[:3], params, kcfg).data
    bad_rows = batch_rows.copy()
    bad_rows[1, 2] *= 1.001
    expect("encode_batch oracle", checks.check_encoder_oracle(gs[:3], batch_rows, state, kcfg),
           checks.check_encoder_oracle(gs[:3], bad_rows, state, kcfg))
    permuted = kernel.encode_numpy([g.permuted(rng.permutation(g.n)) for g in gs[:3]],
                                   params, kcfg)
    expect("permutation invariance", checks.check_permutation(rows, permuted),
           checks.check_permutation(rows, bad_rows))

    predictor = training.Predictor.for_task(kcfg.output_dim, 2, rng)
    leaves = params.parameters() + predictor.parameters()
    labels = ds.labels()[:4]

    def loss():
        return training.softmax_cross_entropy(
            predictor(kernel.encode_batch(gs[:4], params, kcfg)), labels)

    ad.backward(loss())
    grads = [p.grad.copy() for p in leaves]
    expect("directional derivative",
           checks.check_directional_derivative(lambda: loss().item(), leaves, grads,
                                               np.random.default_rng(1)),
           checks.check_directional_derivative(lambda: loss().item(), leaves,
                                               [1.1 * g for g in grads],
                                               np.random.default_rng(1)))

    expect("finite losses", checks.check_losses([[2.0, 1.0], [3.0, 1.5]], True),
           checks.check_losses([[2.0, 1.0], [3.0, np.inf]], False))
    expect("falling losses", checks.check_losses([[2.0, 1.0], [3.0, 1.5]], True),
           checks.check_losses([[2.0, 1.0], [1.0, 2.5]], True))

    folds = graphs.stratified_folds(ds, 2, 0)
    broken = [graphs.FoldSplit(f.train_idx, f.val_idx, list(f.test_idx)) for f in folds]
    broken[1].test_idx[0] = broken[0].test_idx[0]
    expect("fold partition", checks.check_partition(folds, len(ds)),
           checks.check_partition(broken, len(ds)))

    nudged = dict(state, fm_bias=bump(state["fm_bias"]))
    expect("probe leaves encoder unchanged", checks.check_unchanged([state], [params.to_state()]),
           checks.check_unchanged([state], [nudged]))

    sbm, probs = inputs.sbm_set(0)
    adj, p = sbm[0][0], probs[0]
    theta, rank = augment.usvt_with_rank(adj, training.TrainConfig.tau)
    expect("USVT kept rank", checks.check_usvt(adj, training.TrainConfig.tau, theta, rank),
           checks.check_usvt(adj, training.TrainConfig.tau, theta, rank + 1))
    expect("USVT theta", checks.check_usvt(adj, training.TrainConfig.tau, theta, rank),
           checks.check_usvt(adj, training.TrainConfig.tau, theta + 1e-7, rank))
    expect("estimate nearer the SBM matrix", checks.check_sbm_estimate(theta, adj, p),
           checks.check_sbm_estimate(adj, adj, p))

    positive = augment.sample_augmentation(theta, [0, 0, 0])
    support = theta > 0
    asym = positive.copy()
    i, j = np.argwhere(positive > 0)[0]
    asym[i, j] = 0.0
    loop = positive.copy()
    loop[0, 0] = 1.0
    outside = positive.copy()
    u, v = np.argwhere(~support)[0]
    outside[u, v] = outside[v, u] = 1.0
    for name, bad in (("symmetric", asym), ("zero diagonal", loop), ("0/1", positive * 0.5),
                      ("inside support", outside)):
        expect(f"positive is {name}", checks.check_positive(positive, support),
               checks.check_positive(bad, support))

    head = ssl.ProjectionHead.for_encoder(kcfg.output_dim, rng)
    lga = augment.LgaAugmenter(0.3, 0)
    batch = ssl.make_ssl_batch(gs[:4], lga, params, kcfg, 0)
    value = ssl.infonce_loss(batch, head).item()
    expect("infonce log-sum-exp",
           checks.check_infonce(value, batch.anchors.data, batch.positives.data, head.to_state()),
           checks.check_infonce(value * (1 + 1e-6), batch.anchors.data, batch.positives.data,
                                head.to_state()))

    flipped = [g.copy() for g in gs]
    a = flipped[2].adjacency
    a[0, 1] = a[1, 0] = 1.0 - a[0, 1]
    expect("TU round trip", checks.check_roundtrip([g.copy() for g in gs], gs),
           checks.check_roundtrip(flipped, gs))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
              [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
              [w["name"] for w in spec["workloads"]])
    printed = (workloads.END_TO_END, tracing.PER_LAYER, list(workloads.SPECS))
    for what, a_, b_ in zip(("end-to-end metrics", "per-layer metrics", "workloads"),
                            listed, printed):
        ok = list(a_) == list(b_)
        print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json lists the {what} the benchmark prints")
        if not ok:
            failures.append(what)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
