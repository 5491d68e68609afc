"""Property tests of the fused encoder on random small graphs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swagnn import autodiff as ad  # noqa: E402
from swagnn.graphs import Graph  # noqa: E402
from swagnn.kernel import KernelConfig, SwagParams, encode_batch  # noqa: E402
from test_kernel import assert_grads_close, leaf_grads, tape_encode_batch  # noqa: E402

CFG = KernelConfig(num_hidden=3, hidden_nodes=4, hidden_dim=3, max_walk=3)
DIM = 2
VALUES = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)


@st.composite
def graphs(draw, max_nodes=7):
    n = draw(st.integers(1, max_nodes))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n, k=1)] = bits
    feats = draw(st.lists(VALUES, min_size=n * DIM, max_size=n * DIM))
    return Graph(n, a + a.T, np.array(feats).reshape(n, DIM))


def params_for(seed: int) -> SwagParams:
    return SwagParams.init(CFG, DIM, np.random.default_rng(seed))


@settings(max_examples=40, deadline=None)
@given(st.data(), graphs(), st.integers(0, 2**16))
def test_encoding_is_permutation_invariant(data, g, seed):
    perm = np.array(data.draw(st.permutations(range(g.n))))
    rows = encode_batch([g, g.permuted(perm)], params_for(seed), CFG).data
    scale = max(1.0, float(np.max(np.abs(rows[0]))))
    assert float(np.max(np.abs(rows[0] - rows[1]))) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(st.lists(graphs(), min_size=1, max_size=4), st.integers(0, 2**16))
def test_vjp_matches_the_tape(batch, seed):
    params = params_for(seed)
    weights = ad.constant(np.random.default_rng(seed).standard_normal(
        (len(batch), CFG.output_dim)))
    results = []
    for encode in (encode_batch, tape_encode_batch):
        for p in params.parameters():
            p.grad = None
        out = encode(batch, params, CFG)
        ad.backward((out * weights).sum())
        results.append((out.data, leaf_grads(params)))
    (fused, fused_grads), (tape, tape_grads) = results
    np.testing.assert_array_equal(fused, tape)
    assert_grads_close(fused_grads, tape_grads)
