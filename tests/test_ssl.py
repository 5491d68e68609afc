import numpy as np
import pytest

from swagnn import autodiff as ad
from swagnn.augment import IdentityAugmenter, LgaAugmenter
from swagnn.errors import ContractError
from swagnn.graphs import FoldSplit, Graph, degree_features
from swagnn.kernel import KernelConfig, SwagParams
from swagnn.ssl import (
    ProjectionHead,
    SSLBatch,
    TwoLayerMLP,
    cosine_rows,
    infonce_from_similarities,
    infonce_loss,
    make_ssl_batch,
    noncontrastive_loss,
    softmax_cross_entropy,
)
from swagnn.training import TrainConfig, _run_fold, make_toy_dataset

identity = lambda x: x  # noqa: E731 - stub head for arithmetic checks


def batch_of(anchors, positives):
    return SSLBatch(ad.constant(np.asarray(anchors, dtype=float)),
                    ad.constant(np.asarray(positives, dtype=float)))


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------

def test_infonce_uniform_similarities():
    v = [1.0, 2.0]
    batch = batch_of([v, v], [v, v])
    assert abs(infonce_loss(batch, identity).item() - np.log(2)) < 1e-12
    big = batch_of([v] * 5, [v] * 5)
    assert abs(infonce_loss(big, identity).item() - np.log(5)) < 1e-12


def test_infonce_softmax_arithmetic():
    batch = batch_of([[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]])
    expected = np.log(1.0 + np.exp(-2.0))
    assert abs(infonce_loss(batch, identity).item() - expected) < 1e-9
    assert abs(expected - 0.126928) < 1e-6


def test_infonce_dominant_positive_drives_loss_to_zero():
    batch = batch_of([[1.0, 0.0], [0.0, 1.0]], [[50.0, 0.0], [0.0, 50.0]])
    assert infonce_loss(batch, identity).item() < 1e-8


def test_infonce_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b = int(rng.integers(2, 7))
        batch = batch_of(rng.standard_normal((b, 3)), rng.standard_normal((b, 3)))
        assert infonce_loss(batch, identity).item() >= -1e-12


def test_infonce_requires_negatives():
    batch = batch_of([[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ContractError):
        infonce_loss(batch, identity)


def test_infonce_shift_invariance():
    rng = np.random.default_rng(1)
    sim = rng.standard_normal((4, 4))
    base = infonce_from_similarities(ad.constant(sim)).item()
    shifted = infonce_from_similarities(ad.constant(sim + 7.3)).item()
    assert abs(base - shifted) < 1e-10


def test_infonce_survives_a_large_similarity_gap():
    sim = ad.constant([[0.0, 800.0], [800.0, 0.0]])
    assert infonce_from_similarities(sim).item() == 800.0


@pytest.mark.parametrize("seed", range(3))
def test_infonce_finite_differences(seed):
    rng = np.random.default_rng(10 + seed)
    head = TwoLayerMLP.init(3, 5, 4, rng)
    za = ad.parameter(rng.standard_normal((3, 3)))
    zp = ad.parameter(rng.standard_normal((3, 3)))

    def loss():
        return infonce_loss(SSLBatch(za, zp), head)

    assert ad.finite_diff_check(loss, head.parameters() + [za, zp]) <= 1e-4


# ---------------------------------------------------------------------------
# non-contrastive loss
# ---------------------------------------------------------------------------

def test_noncontrastive_identical_pairs():
    batch = batch_of([[1.0, 2.0], [3.0, -1.0]], [[1.0, 2.0], [3.0, -1.0]])
    assert abs(noncontrastive_loss(batch, identity).item() - (-1.0)) < 1e-12


def test_noncontrastive_orthogonal_pairs():
    batch = batch_of([[1.0, 0.0]], [[0.0, 5.0]])
    assert abs(noncontrastive_loss(batch, identity).item()) < 1e-12


def test_noncontrastive_cosine_value():
    batch = batch_of([[1.0, 0.0]], [[1.0, 1.0]])
    got = noncontrastive_loss(batch, identity).item()
    assert abs(got - (-0.7071067811865475)) < 1e-9


def test_noncontrastive_bounded():
    rng = np.random.default_rng(2)
    for _ in range(10):
        b = int(rng.integers(1, 6))
        batch = batch_of(rng.standard_normal((b, 4)), rng.standard_normal((b, 4)))
        val = noncontrastive_loss(batch, identity).item()
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_noncontrastive_zero_norm_pair_contributes_zero():
    batch = batch_of([[0.0, 0.0]], [[1.0, 2.0]])
    assert noncontrastive_loss(batch, identity).item() == 0.0


def test_stop_gradient_blocks_positive_branch():
    rng = np.random.default_rng(3)
    anchors = ad.parameter(rng.standard_normal((3, 4)))
    positives = ad.parameter(rng.standard_normal((3, 4)))
    loss = noncontrastive_loss(SSLBatch(anchors, positives), identity)
    ad.backward(loss)
    assert anchors.grad is not None and np.any(anchors.grad != 0)
    assert positives.grad is None


def test_noncontrastive_gradients_match_frozen_branch():
    rng = np.random.default_rng(4)
    head = TwoLayerMLP.init(3, 5, 4, rng)
    a = rng.standard_normal((4, 3))
    p = rng.standard_normal((4, 3))

    loss = noncontrastive_loss(batch_of(a, p), head)
    ad.backward(loss)
    grads_real = [w.grad.copy() for w in head.parameters()]
    for w in head.parameters():
        w.zero_grad()

    frozen = head(ad.constant(p)).data.copy()

    def f():
        z_a = head(ad.constant(a))
        return ad.scale(cosine_rows(z_a, ad.constant(frozen)).mean(), -1.0)

    assert ad.finite_diff_check(f, head.parameters()) <= 1e-4
    ad.backward(f())
    for w, g in zip(head.parameters(), grads_real):
        np.testing.assert_allclose(w.grad, g, atol=1e-12)


# ---------------------------------------------------------------------------
# heads and batch construction
# ---------------------------------------------------------------------------

def test_head_widths():
    rng = np.random.default_rng(5)
    proj = ProjectionHead.for_encoder(24, rng)
    pred = ProjectionHead.for_encoder(24, rng)
    assert proj.w1.data.shape[0] == 24 and proj.w2.data.shape[1] == 32
    assert pred.w1.data.shape == (24, 32) and pred.w2.data.shape == (32, 32)


def test_mlp_state_round_trip():
    rng = np.random.default_rng(6)
    head = TwoLayerMLP.init(3, 4, 2, rng)
    clone = TwoLayerMLP.from_state(head.to_state())
    x = ad.constant(rng.standard_normal((5, 3)))
    np.testing.assert_array_equal(head(x).data, clone(x).data)


def test_mlp_shape_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ContractError):
        TwoLayerMLP(ad.parameter(np.zeros((3, 4))), ad.parameter(np.zeros(4)),
                    ad.parameter(np.zeros((5, 2))), ad.parameter(np.zeros(2)))


def test_mlp_rejects_a_bias_of_another_width():
    with pytest.raises(ContractError, match="bias lengths must match layer widths"):
        TwoLayerMLP(ad.parameter(np.zeros((3, 4))), ad.parameter(np.zeros(5)),
                    ad.parameter(np.zeros((4, 2))), ad.parameter(np.zeros(2)))


def test_mlp_copy_is_equal_and_shares_no_memory():
    head = ProjectionHead.for_encoder(6, np.random.default_rng(9))
    clone = head.copy()
    assert type(clone) is ProjectionHead
    for orig, copied in zip(head.parameters(), clone.parameters()):
        assert copied is not orig and copied.requires_grad
        np.testing.assert_array_equal(copied.data, orig.data)
        assert not np.shares_memory(copied.data, orig.data)
    clone.w1.data[...] = 0.0
    assert head.w1.data.any()


def test_noncontrastive_rejects_an_empty_batch():
    with pytest.raises(ContractError, match="noncontrastive_loss: empty batch"):
        noncontrastive_loss(batch_of(np.zeros((0, 2)), np.zeros((0, 2))), identity)


def test_ssl_batch_shape_check():
    with pytest.raises(ContractError):
        batch_of([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


def small_setup():
    rng = np.random.default_rng(8)
    cfg = KernelConfig(num_hidden=2, hidden_nodes=3, hidden_dim=2, max_walk=2)
    params = SwagParams.init(cfg, 1, rng)
    graphs = []
    for n in (4, 5, 4):
        a = np.ones((n, n)) - np.eye(n)
        g = Graph(n, a, np.zeros((n, 1)))
        g.features = degree_features(g)
        graphs.append(g)
    return cfg, params, graphs


def test_make_batch_identity_augmenter():
    cfg, params, graphs = small_setup()
    batch = make_ssl_batch(graphs, IdentityAugmenter(), params, cfg, epoch=0)
    np.testing.assert_array_equal(batch.anchors.data, batch.positives.data)
    assert batch.size == 3


def test_make_batch_deterministic():
    cfg, params, graphs = small_setup()
    aug = LgaAugmenter(tau=1.0, seed=9)
    one = make_ssl_batch(graphs, aug, params, cfg, epoch=2)
    two = make_ssl_batch(graphs, aug, params, cfg, epoch=2)
    np.testing.assert_array_equal(one.positives.data, two.positives.data)


def test_make_batch_lga_fixed_point_on_complete_graphs():
    # small tau keeps the full spectrum of a complete graph, so the
    # estimate reproduces it exactly and every draw returns the anchor
    cfg, params, graphs = small_setup()
    batch = make_ssl_batch(graphs, LgaAugmenter(tau=0.3, seed=1), params, cfg, epoch=0)
    np.testing.assert_allclose(batch.positives.data, batch.anchors.data, atol=1e-10)


# ---------------------------------------------------------------------------
# the fused head and cross-entropy against the primitive chains they replace
# ---------------------------------------------------------------------------

def composed_head(head, x):
    """relu(x W1 + b1) W2 + b2 as matmul, bias add, relu, matmul, bias add."""
    return ad.add(ad.matmul(ad.relu(ad.add(ad.matmul(x, head.w1), head.b1)), head.w2), head.b2)


def composed_cross_entropy(logits, labels):
    onehot = np.zeros(logits.data.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    picked = ad.reduce_sum(ad.log_softmax(logits) * ad.constant(onehot), axis=1)
    return ad.scale(picked.mean(), -1.0)


def oracle_case(name):
    """(head, inputs, loss) for one oracle case: ``loss(mlp, ce)`` builds the
    case's loss from a head function and a cross-entropy function."""
    rng = np.random.default_rng(sum(map(ord, name)))
    # probe-sized, so that a change of memory layout changes BLAS's rounding
    head = TwoLayerMLP.init(48, 32, 3, rng)
    n = 1 if name == "batch-1" else 16
    x = ad.constant(rng.standard_normal((n, 48)))
    labels = rng.integers(0, 3, size=n)
    inputs = [x]

    def loss(mlp, ce):
        return ce(mlp(x), labels)

    if name == "relu-at-zero":
        # every pre-activation of hidden unit 1, and all of row 0, is exactly 0
        head.w1.data[:, 1] = 0.0
        head.b1.data[1] = 0.0
        head.b1.data[2:] = 0.0
        x.data[0] = 0.0
    elif name == "logit-gap-800":
        # class 0 leads by 800 on every row: the others' probabilities underflow
        head.b2.data[:] = [800.0, 0.0, -1.0]
        labels[:3] = [1, 2, 0]
    elif name == "input-requires-grad":
        inputs = [ad.parameter(x.data.copy())]
        x = inputs[0]
    elif name == "infonce":
        a, p = (ad.parameter(rng.standard_normal((n, 48))) for _ in range(2))
        inputs = [a, p]

        def loss(mlp, ce):
            return ce(mlp(a) @ mlp(p).transpose(), np.arange(n))
    elif name == "upstream-weights":
        # an upstream gradient with zeros and signs of both kinds, and a
        # scaled cross-entropy
        weights = rng.standard_normal((n, 3))
        weights[::2] = -np.abs(weights[::2])
        weights[1] = 0.0

        def loss(mlp, ce):
            return ad.scale(ce(mlp(x), labels), 2.5) + (mlp(x) * ad.constant(weights)).sum()
    return head, inputs, loss


ORACLE_CASES = ["batch-1", "relu-at-zero", "logit-gap-800", "input-requires-grad",
                "infonce", "upstream-weights"]


def loss_and_gradients(loss, leaves):
    for leaf in leaves:
        leaf.grad = None
    value = loss()
    ad.backward(value)
    return [value.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_fused_head_and_cross_entropy_equal_the_composed_chain_byte_for_byte(name):
    head, inputs, loss = oracle_case(name)
    leaves = head.parameters() + [t for t in inputs if t.requires_grad]
    want = loss_and_gradients(lambda: loss(lambda x: composed_head(head, x),
                                           composed_cross_entropy), leaves)
    got = loss_and_gradients(lambda: loss(head, softmax_cross_entropy), leaves)
    assert len(got) == len(want)
    for what, g, w in zip(["loss"] + [f"grad {i}" for i in range(len(leaves))], got, want):
        assert g is not None and w is not None, what
        assert (g.shape, g.dtype) == (w.shape, w.dtype), what
        assert g.tobytes() == w.tobytes(), f"{name}: {what} differs from the composed chain"


def test_oracle_cases_reach_the_branches_they_name():
    head, (x,), _ = oracle_case("relu-at-zero")
    assert np.sum((x.data @ head.w1.data + head.b1.data) == 0.0) >= x.data.shape[0] + 3
    head, (x,), _ = oracle_case("logit-gap-800")
    logits = head(x).data
    assert np.all(np.exp(logits[:, 1:] - logits[:, :1]) == 0.0)


def test_fused_nodes_pass_finite_differences():
    rng = np.random.default_rng(21)
    head = TwoLayerMLP.init(4, 6, 3, rng)
    x = ad.parameter(rng.standard_normal((5, 4)))
    weights = ad.constant(rng.standard_normal((5, 3)))
    assert ad.finite_diff_check(lambda: (head(x) * weights).sum(),
                                head.parameters() + [x]) <= 1e-6
    logits = ad.parameter(rng.standard_normal((5, 3)) * 3.0)
    labels = np.array([0, 2, 1, 1, 0])
    assert ad.finite_diff_check(lambda: softmax_cross_entropy(logits, labels), [logits]) <= 1e-6


def test_a_probe_loss_records_two_tape_nodes(monkeypatch):
    rng = np.random.default_rng(22)
    head = TwoLayerMLP.init(48, 32, 2, rng)
    loss = softmax_cross_entropy(head(ad.constant(rng.standard_normal((16, 48)))),
                                 rng.integers(0, 2, size=16))
    assert sum(1 for node in ad.Tape(loss).nodes if node._parents) == 2
    # a whole probe epoch: two op nodes per optimizer step, and none for the
    # validation, train and test accuracies
    events = []
    node, step = ad._node, ad.Adam.step
    monkeypatch.setattr(ad, "_node", lambda *args: events.append(args[3]) or node(*args))
    monkeypatch.setattr(ad.Adam, "step", lambda self: events.append("step") or step(self))
    cfg = TrainConfig(mode="probe", epochs=1, batch_size=2, folds=2, hidden_graphs=3,
                      hidden_nodes=3, hidden_dim=3, walk_len=2)
    split = FoldSplit(train_idx=[0, 1, 4, 5], val_idx=[2, 6], test_idx=[3, 7])
    _run_fold(make_toy_dataset(), split, cfg, 0)
    assert events == ["mlp", "softmax_cross_entropy", "step"] * 2


@pytest.mark.parametrize("labels, row, value", [
    ([0, -1, 1], 1, "-1"),
    ([0, 1, 3], 2, "3"),
    ([2, 1, 3], 2, "3"),
    ([0.5, 1, 0], 0, "0.5"),
    (np.array([1, 0, 2], dtype=float), 0, "1.0"),
])
def test_softmax_cross_entropy_rejects_labels_that_are_not_class_indices(labels, row, value):
    # a label of -1 used to score the last class, and 3 of 3 classes ended
    # in a bare IndexError
    logits = ad.parameter(np.random.default_rng(24).standard_normal((3, 3)))
    with pytest.raises(ContractError) as exc:
        softmax_cross_entropy(logits, labels)
    assert f"row {row}: label {value} is not an integer class index in [0, 3)" in str(exc.value)


def test_fused_head_and_loss_reject_bad_shapes():
    rng = np.random.default_rng(23)
    head = TwoLayerMLP.init(4, 5, 3, rng)
    for x in (np.zeros((2, 5)), np.zeros(4), np.zeros((2, 4, 1))):
        with pytest.raises(ContractError):
            head(ad.constant(x))
    with pytest.raises(ContractError):
        softmax_cross_entropy(ad.constant(np.zeros((3, 2))), np.array([0, 1]))
    with pytest.raises(ContractError):
        softmax_cross_entropy(ad.constant(np.zeros(3)), np.array([0]))
    # zero rows: labels [] ended in a bare IndexError, empty int64 labels in a NaN loss
    for labels in ([], np.array([], dtype=np.int64)):
        with pytest.raises(ContractError, match="no rows"):
            softmax_cross_entropy(ad.constant(np.zeros((0, 2))), labels)
