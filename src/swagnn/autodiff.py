"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every operation records its inputs and a vector-Jacobian closure on the
output node; ``backward`` replays the recorded graph once in reverse
topological order.  Training calls matrix multiplication, same-shape
and bias-broadcast addition, elementwise multiplication, scalar scaling,
relu, transpose, row-wise log-softmax, sum/mean reductions, row-wise L2
normalization and stop-gradient; the encoder itself is one fused node
built with ``_node``.  Sigmoid and the trace of a matrix product serve
``kernel.hidden_adjacency`` and ``kernel.smoothed_kernel``, the tape form
of the kernel that hidden-graph export and the kernel oracles use.  All
arithmetic is double precision.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, TapeError

_TINY = np.finfo(np.float64).tiny


class Tensor:
    """Dense float64 array with an optional gradient slot.

    ``requires_grad`` is transitive: an op output requires grad whenever
    any input does.  Gradients accumulate into ``grad`` during
    ``backward`` and are never cleared implicitly.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op",
                 "_consumed", "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None, _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._vjp = _vjp
        self._op = _op
        self._consumed = False

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    # -- sugar ---------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return multiply(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        return reduce_sum(self, axis)

    def mean(self, axis=None):
        return reduce_mean(self, axis)

    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)

    def transpose(self):
        return transpose(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    """Wrap an array as a non-trainable leaf."""
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    """Wrap an array as a trainable leaf."""
    return Tensor(data, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _node(data, parents, vjp, op) -> Tensor:
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, _parents=tuple(parents),
                  _vjp=vjp if req else None, _op=op)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ContractError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _node(out_data, (a, b), vjp, "matmul")


def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape == b.data.shape:
        def vjp_same(g):
            if a.requires_grad:
                _accumulate(a, g)
            if b.requires_grad:
                _accumulate(b, g)
        return _node(a.data + b.data, (a, b), vjp_same, "add")

    # matrix + row vector (bias broadcast)
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        def vjp_bias(g):
            if a.requires_grad:
                _accumulate(a, g)
            if b.requires_grad:
                _accumulate(b, g.sum(axis=0))
        return _node(a.data + b.data, (a, b), vjp_bias, "add")

    raise ContractError(f"add: incompatible shapes {a.data.shape} + {b.data.shape}")


def multiply(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ContractError(f"multiply: shape mismatch {a.data.shape} vs {b.data.shape}")

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _node(a.data * b.data, (a, b), vjp, "multiply")


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def vjp(g):
        _accumulate(a, g * c)

    return _node(a.data * c, (a,), vjp, "scale")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split formulation avoids overflow for large |x|
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = _sigmoid(a.data)

    def vjp(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), vjp, "sigmoid")


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def vjp(g):
        _accumulate(a, g * (a.data > 0))

    return _node(out_data, (a,), vjp, "relu")


def transpose(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ContractError(f"transpose: expected a matrix, got shape {a.data.shape}")

    def vjp(g):
        _accumulate(a, g.T)

    return _node(a.data.T, (a,), vjp, "transpose")


def trace_product(a: Tensor, b: Tensor) -> Tensor:
    """Scalar trace(a @ b) without materializing the product."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.data.ndim != 2 or b.data.ndim != 2
            or a.data.shape[1] != b.data.shape[0] or a.data.shape[0] != b.data.shape[1]):
        raise ContractError(f"trace_product: incompatible shapes {a.data.shape} x {b.data.shape}")
    out_data = np.asarray(np.sum(a.data * b.data.T))

    def vjp(g):
        if a.requires_grad:
            _accumulate(a, g * b.data.T)
        if b.requires_grad:
            _accumulate(b, g * a.data.T)

    return _node(out_data, (a, b), vjp, "trace_product")


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax that stays finite wherever the logits are.

    An entry whose probability ``exp(x - max) / sum`` over its row is a
    normal float gets ``log`` of that probability, bit for bit; an entry
    so far below its row maximum that the probability underflows gets the
    shifted log-sum-exp, which keeps the gap instead of returning log(0).
    """
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ContractError(f"log_softmax: expected a matrix, got shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    probs = e / total
    normal = probs >= _TINY
    out_data = np.where(normal, np.log(np.where(normal, probs, 1.0)),
                        shifted - np.log(total))

    def vjp(g):
        _accumulate(a, g - probs * g.sum(axis=1, keepdims=True))

    return _node(out_data, (a,), vjp, "log_softmax")


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            _accumulate(a, g * np.ones_like(a.data))
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _node(out_data, (a,), vjp, "sum")


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    a = _as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    out_data = a.data.mean(axis=axis)

    def vjp(g):
        if axis is None:
            _accumulate(a, g * np.ones_like(a.data) / count)
        else:
            _accumulate(a, np.broadcast_to(np.expand_dims(g, axis), a.data.shape) / count)

    return _node(out_data, (a,), vjp, "mean")


def l2_normalize(a: Tensor) -> Tensor:
    """Normalize each row to unit L2 norm; all-zero rows stay zero."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ContractError(f"l2_normalize: expected a matrix, got shape {a.data.shape}")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    out_data = a.data / safe

    def vjp(g):
        inner = (g * out_data).sum(axis=1, keepdims=True)
        grad = (g - inner * out_data) / safe
        grad[norms[:, 0] == 0] = 0.0
        _accumulate(a, grad)

    return _node(out_data, (a,), vjp, "l2_normalize")


def stop_gradient(a: Tensor) -> Tensor:
    """Forward identity that contributes zero gradient to its ancestors."""
    a = _as_tensor(a)
    return Tensor(a.data, requires_grad=False, _op="stop_gradient")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

class Tape:
    """Topologically ordered schedule of the op nodes reachable from a root.

    Execution order equals recording order, so ``reversed(tape.nodes)`` is a
    valid backward schedule that visits every node exactly once.
    """

    def __init__(self, root: Tensor):
        order = []
        visited = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.nodes = order


def backward(loss: Tensor):
    """Propagate d(loss)/d(leaf) into every requires-grad leaf.

    The graph below ``loss`` is consumed: invoking backward a second time
    through any of its op nodes raises ``TapeError``.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward: loss must be a Tensor")
    if loss.data.ndim != 0:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")

    tape = Tape(loss)
    if loss._consumed:
        raise TapeError("backward: already invoked on this loss")
    for node in tape.nodes:
        if node._parents and node._consumed:
            raise TapeError("backward: stale tape (graph segment already consumed)")

    loss._consumed = True
    for node in tape.nodes:
        if node._parents:
            node._consumed = True

    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)


# ---------------------------------------------------------------------------
# optimization and verification
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction over a fixed list of parameter tensors."""

    def __init__(self, params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def finite_diff_check(f, params, step=1e-5, zero_tol=1e-8) -> float:
    """Worst relative error between backward-mode and central differences.

    ``f`` must be a deterministic zero-argument callable returning a scalar
    Tensor rebuilt from the current parameter values.  Coordinates where
    both gradients are below ``zero_tol`` in magnitude count as exact.
    """
    for p in params:
        if not p.requires_grad:
            raise ContractError("finite_diff_check: all params must require grad")
        p.grad = None
    backward(f())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(f().data)
            flat[i] = orig - step
            fm = float(f().data)
            flat[i] = orig
            fd = (fp - fm) / (2.0 * step)
            denom = max(abs(gflat[i]), abs(fd))
            if denom > zero_tol:
                worst = max(worst, abs(gflat[i] - fd) / denom)
    for p in params:
        p.grad = None
    return worst
