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


def test_backward_through_a_stale_segment_marks_nothing():
    x = ad.parameter(np.array(2.0))
    y = x * x
    ad.backward(y * x)
    fresh = x + x
    loss = fresh * y
    with pytest.raises(TapeError):
        ad.backward(loss)
    assert not fresh._consumed and not loss._consumed and x.grad == 12.0
    # the fresh segment is still usable on its own
    ad.backward(fresh * x)
    assert x.grad == 12.0 + 8.0


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


def guarded_log_softmax(x):
    """The guarded form of ``ad._log_softmax_rows``, for every matrix."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    probs = e / total
    normal = probs >= np.finfo(np.float64).tiny
    return np.where(normal, np.log(np.where(normal, probs, 1.0)), shifted - np.log(total))


@pytest.mark.parametrize("shape, spread, fast", [
    ((64, 2), 1.0, True), ((64, 64), 5.0, True), ((1, 3), 30.0, True),
    ((8, 3), 400.0, False)])
def test_log_softmax_fast_path_is_the_guarded_form_byte_for_byte(shape, spread, fast):
    x = np.random.default_rng(460).standard_normal(shape) * spread
    logp, probs = ad._log_softmax_rows(x)
    # the fast path is taken exactly when every probability is a normal float
    assert bool(np.all(probs >= np.finfo(np.float64).tiny)) == fast
    assert logp.tobytes() == guarded_log_softmax(x).tobytes()


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


@pytest.mark.parametrize("call, message", [
    (lambda: ad.transpose(ad.parameter(np.ones(3))), "transpose: expected a matrix"),
    (lambda: ad.trace_product(ad.parameter(np.ones((2, 3))), ad.parameter(np.ones((2, 3)))),
     r"trace_product: incompatible shapes \(2, 3\) x \(2, 3\)"),
    (lambda: ad.log_softmax(ad.parameter(np.ones(3))), "log_softmax: expected a matrix"),
    (lambda: ad.l2_normalize(ad.parameter(np.ones(3))), "l2_normalize: expected a matrix"),
    (lambda: ad.backward(np.float64(1.0)), "backward: loss must be a Tensor"),
    (lambda: ad.finite_diff_check(lambda: ad.constant(np.array(1.0)),
                                  [ad.constant(np.ones(2))]),
     "finite_diff_check: all params must require grad")],
    ids=["transpose", "trace_product", "log_softmax", "l2_normalize", "backward",
         "finite_diff_check"])
def test_an_input_outside_the_contract_is_a_contract_error(call, message):
    with pytest.raises(ContractError, match=message):
        call()


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


def per_tensor_adam(values, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The update ``Adam.step`` must give bit for bit, one tensor at a time;
    a gradient of None counts as zero."""
    out = [np.array(x, dtype=float) for x in values]
    m = [np.zeros_like(x) for x in out]
    v = [np.zeros_like(x) for x in out]
    for t, step_grads in enumerate(grads, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for i, g in enumerate(step_grads):
            g = np.zeros_like(out[i]) if g is None else g
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
            out[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)
    return out


def test_adam_flat_buffer_matches_the_per_tensor_update_bit_for_bit():
    rng = np.random.default_rng(12)
    shapes = [(3, 4), (5,), (), (2, 3)]
    values = [rng.standard_normal(shape) for shape in shapes]
    params = [ad.parameter(x.copy()) for x in values]
    opt = ad.Adam(params, lr=0.05)
    grads = []
    for step in range(8):
        step_grads = [rng.standard_normal(shape) for shape in shapes]
        how = step % 3
        if how == 0:  # through backward, into the buffer's gradient views
            opt.zero_grad()
            loss = ad.constant(np.array(0.0))
            for p, g in zip(params, step_grads):
                loss = loss + ad.multiply(p, ad.constant(g)).sum()
            ad.backward(loss)
        elif how == 1:  # assigned directly
            for p, g in zip(params, step_grads):
                p.grad = g.copy()
        else:  # one set to None and one assigned; the rest keep the last step's
            step_grads = [None, step_grads[1], grads[-1][2], grads[-1][3]]
            params[0].grad = None
            params[1].grad = step_grads[1].copy()
        grads.append(step_grads)
        opt.step()
    for p, want in zip(params, per_tensor_adam(values, grads, lr=0.05)):
        assert p.data.shape == want.shape and p.data.tobytes() == want.tobytes()


def test_adam_parameters_are_views_of_its_buffers():
    def run(rebind: bool):
        rng = np.random.default_rng(13)
        params = [ad.parameter(rng.standard_normal((2, 3))),
                  ad.parameter(rng.standard_normal(3))]
        opt = ad.Adam(params)
        opt.zero_grad()
        ad.backward((params[0] @ ad.constant(np.ones((3, 1)))).sum() + params[1].sum())
        opt.step()
        for p in params:
            assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)
        # a value rebound by the caller is copied in and bound to its view again
        if rebind:
            params[1].data = np.array([1.0, 2.0, 3.0])
        else:
            params[1].data[...] = [1.0, 2.0, 3.0]
        opt.step()
        assert all(np.shares_memory(p.data, opt.data) for p in params)
        return [p.data.copy() for p in params]

    for got, want in zip(run(rebind=True), run(rebind=False)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("grad", [np.array([0.5]), np.zeros((4, 1)), np.array(0.5)])
def test_adam_rejects_a_gradient_of_another_shape(grad):
    params = [ad.parameter(np.ones(2)), ad.parameter(np.ones(4))]
    opt = ad.Adam(params)
    params[1].grad = grad
    with pytest.raises(ContractError) as exc:
        opt.step()
    assert "parameter 1" in str(exc.value)
    assert "(4,)" in str(exc.value) and str(grad.shape) in str(exc.value)
    np.testing.assert_array_equal(params[1].data, np.ones(4))


def test_adam_rejects_a_parameter_listed_twice():
    p = ad.parameter(np.ones(3))
    with pytest.raises(ContractError):
        ad.Adam([p, p])


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
