import numpy as np
import pytest

from swagnn import autodiff as ad
from swagnn.errors import ContractError, TapeError


def fd_scalar(f, params, step=1e-6):
    """Central-difference gradients of a scalar function of Tensors."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat_p = p.data.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up = f()
            flat_p[i] = orig - step
            down = f()
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2 * step)
        grads.append(g)
    return grads


def check_grads(build_loss, params, tol=1e-6):
    for p in params:
        p.zero_grad()
    loss = build_loss()
    ad.backward(loss)
    fd = fd_scalar(lambda: build_loss().item(), params)
    for p, g in zip(params, fd):
        assert p.grad is not None
        np.testing.assert_allclose(p.grad, g, rtol=tol, atol=tol)


def test_sigmoid_gradient_at_zero():
    x = ad.parameter(np.zeros(()))
    y = x.sigmoid()
    ad.backward(y)
    assert abs(y.item() - 0.5) < 1e-15
    assert abs(x.grad - 0.25) < 1e-12


def test_sigmoid_extreme_inputs_stable():
    x = ad.parameter(np.array([-800.0, 800.0]))
    y = x.sigmoid().sum()
    ad.backward(y)
    assert np.all(np.isfinite(x.grad))
    assert abs(y.item() - 1.0) < 1e-12


def test_sum_gradient_is_ones():
    x = ad.parameter(np.array([1.0, 2.0, 3.0]))
    ad.backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_requires_scalar():
    x = ad.parameter(np.array([1.0, 2.0]))
    with pytest.raises(ContractError):
        ad.backward(x * x)


def test_backward_twice_raises():
    x = ad.parameter(np.array(2.0))
    y = x * x
    ad.backward(y)
    with pytest.raises(TapeError):
        ad.backward(y)


def test_backward_on_stale_interior_node_raises():
    x = ad.parameter(np.array(2.0))
    y = x * x
    z = y * x
    ad.backward(z)
    with pytest.raises(TapeError):
        ad.backward(y)


def test_gradients_accumulate_across_backwards_on_fresh_graphs():
    x = ad.parameter(np.array(3.0))
    ad.backward(x * x)
    first = float(x.grad)
    ad.backward(x * x)
    assert abs(float(x.grad) - 2 * first) < 1e-12
    x.zero_grad()
    assert x.grad is None


def test_stop_gradient_blocks_ancestors():
    x = ad.parameter(np.array([1.0, 2.0]))
    y = ad.stop_gradient(x * x).sum()
    z = (x.sum() + y) if y.requires_grad else x.sum() + y
    ad.backward(z)
    np.testing.assert_array_equal(x.grad, np.ones(2))


def test_stop_gradient_shares_values():
    x = ad.parameter(np.array([1.0, -2.0]))
    y = ad.stop_gradient(x)
    np.testing.assert_array_equal(y.data, x.data)
    assert not y.requires_grad


@pytest.mark.parametrize("seed", range(6))
def test_matmul_chain_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = ad.parameter(rng.standard_normal((3, 4)))
    b = ad.parameter(rng.standard_normal((4, 2)))
    check_grads(lambda: (a @ b).sum(), [a, b])


@pytest.mark.parametrize("seed", range(6))
def test_trace_product_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = ad.parameter(rng.standard_normal((3, 4)))
    b = ad.parameter(rng.standard_normal((4, 3)))
    check_grads(lambda: ad.trace_product(a, b), [a, b])


def test_trace_product_value():
    a = ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = ad.constant(np.array([[5.0, 6.0], [7.0, 8.0]]))
    expected = np.trace(a.data @ b.data)
    assert abs(ad.trace_product(a, b).item() - expected) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_elementwise_and_reduction_primitives(seed):
    rng = np.random.default_rng(100 + seed)
    x = ad.parameter(rng.standard_normal((4, 3)) * 2 + 0.3)
    w = ad.parameter(rng.standard_normal((4, 3)))

    check_grads(lambda: (x * w).mean(), [x, w])
    check_grads(lambda: ad.scale(x, -1.7).sum(), [x])
    check_grads(lambda: x.sigmoid().sum(), [x])
    check_grads(lambda: x.transpose().sum(), [x])
    check_grads(lambda: ad.reduce_sum(x * w, axis=0).sum(), [x, w])
    check_grads(lambda: ad.reduce_mean(x, axis=1).sum(), [x])


@pytest.mark.parametrize("seed", range(4))
def test_relu_away_from_kink(seed):
    rng = np.random.default_rng(200 + seed)
    data = rng.standard_normal((5, 3))
    data[np.abs(data) < 0.1] += 0.2  # keep clear of the nondifferentiable point
    x = ad.parameter(data)
    check_grads(lambda: x.relu().sum(), [x])


@pytest.mark.parametrize("seed", range(4))
def test_log_softmax(seed):
    rng = np.random.default_rng(450 + seed)
    x = ad.parameter(rng.standard_normal((3, 5)))
    w = rng.standard_normal((3, 5))
    assert ad.finite_diff_check(lambda: (ad.log_softmax(x) * ad.constant(w)).sum(), [x]) <= 1e-6
    e = np.exp(x.data - x.data.max(axis=1, keepdims=True))
    np.testing.assert_array_equal(ad.log_softmax(x).data, np.log(e / e.sum(axis=1, keepdims=True)))


def test_log_softmax_keeps_large_gaps_finite():
    y = ad.log_softmax(ad.constant([[0.0, 800.0], [-1e300, 1e300]]))
    np.testing.assert_array_equal(y.data, [[-800.0, 0.0], [-2e300, 0.0]])


@pytest.mark.parametrize("seed", range(4))
def test_l2_normalize(seed):
    rng = np.random.default_rng(500 + seed)
    x = ad.parameter(rng.standard_normal((3, 4)) + 0.5)
    w = rng.standard_normal((3, 4))
    check_grads(lambda: (ad.l2_normalize(x) * ad.constant(w)).sum(), [x])


def test_l2_normalize_zero_row():
    x = ad.parameter(np.array([[0.0, 0.0], [3.0, 4.0]]))
    y = ad.l2_normalize(x)
    ad.backward(y.sum())
    np.testing.assert_array_equal(y.data[0], np.zeros(2))
    np.testing.assert_allclose(np.linalg.norm(y.data[1]), 1.0, atol=1e-12)
    np.testing.assert_array_equal(x.grad[0], np.zeros(2))


def test_add_broadcast_bias():
    rng = np.random.default_rng(7)
    x = ad.parameter(rng.standard_normal((4, 3)))
    b = ad.parameter(rng.standard_normal(3))
    check_grads(lambda: (x + b).sum(), [x, b])


def test_shape_mismatch_raises():
    a = ad.parameter(np.ones((2, 3)))
    b = ad.parameter(np.ones((2, 3)))
    with pytest.raises(ContractError):
        a @ b
    with pytest.raises(ContractError):
        a + ad.parameter(np.ones((3, 2)))
    with pytest.raises(ContractError):
        a * ad.parameter(np.ones((3, 2)))


def test_gradient_linearity():
    rng = np.random.default_rng(11)
    data = rng.standard_normal(5)

    def grad_of(coeff_a, coeff_b):
        x = ad.parameter(data.copy())
        f = ad.scale(x.sum(), coeff_a)
        g = ad.scale((x * x).sum(), coeff_b)
        ad.backward(f + g)
        return x.grad.copy()

    lhs = grad_of(2.0, 3.0)
    rhs = 2.0 * grad_of(1.0, 0.0) + 3.0 * grad_of(0.0, 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_first_step_default_lr():
    p = ad.parameter(np.array(1.0))
    opt = ad.Adam([p], lr=0.01)
    p.grad = np.array(0.5)
    opt.step()
    # bias-corrected first step moves by almost exactly lr
    assert abs(p.data - 0.99) < 1e-9


def test_adam_zero_gradient_keeps_params():
    p = ad.parameter(np.array([1.0, -2.0]))
    opt = ad.Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, np.array([1.0, -2.0]))


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(42)
        p = ad.parameter(rng.standard_normal(4))
        opt = ad.Adam([p], lr=0.05)
        for _ in range(25):
            opt.zero_grad()
            loss = (p * p).sum()
            ad.backward(loss)
            opt.step()
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_reduces_quadratic():
    p = ad.parameter(np.array([5.0, -3.0]))
    opt = ad.Adam([p], lr=0.1)
    for _ in range(400):
        opt.zero_grad()
        ad.backward((p * p).sum())
        opt.step()
    assert np.all(np.abs(p.data) < 0.05)


# ---------------------------------------------------------------------------
# finite_diff_check utility
# ---------------------------------------------------------------------------

def test_finite_diff_check_quadratic():
    x = ad.parameter(np.array([1.0, 2.0, -0.5]))
    err = ad.finite_diff_check(lambda: (x * x).sum(), [x])
    assert err <= 1e-8


def test_finite_diff_check_constant_function():
    x = ad.parameter(np.array([1.0, 2.0]))
    err = ad.finite_diff_check(lambda: ad.constant(np.array(3.0)) + 0.0 * x.sum(), [x])
    assert err == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_finite_diff_check_composite_pipeline(seed):
    rng = np.random.default_rng(700 + seed)
    w1 = ad.parameter(rng.standard_normal((4, 3)) * 0.5)
    w2 = ad.parameter(rng.standard_normal((3, 2)) * 0.5)
    x = ad.constant(rng.standard_normal((5, 4)))

    def loss():
        h = (x @ w1).sigmoid() @ w2
        return (h * h).mean()

    assert ad.finite_diff_check(loss, [w1, w2]) <= 1e-4
