import numpy as np
import pytest

from swagnn import autodiff as ad
from swagnn.augment import IdentityAugmenter, LgaAugmenter
from swagnn.errors import ContractError
from swagnn.graphs import Graph, degree_features
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
)

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
    assert proj.input_dim == 24 and proj.output_dim == 32
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
