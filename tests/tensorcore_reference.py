"""Bit-equality oracles for tensorcore's optimizer, backward pass,
single-node reductions and single-node network forward.

``OptimState``, ``step`` and ``backward`` below are the per-tensor Adam
and the unpruned backward pass that ``driftlab.tensorcore`` shipped
before its flat-buffer Adam and its path-pruned backward. ``step`` is
copied verbatim; ``backward`` is too, except that it sums gradient
arrays, as the shipped first-order vjps return them, where it once
summed Tensor nodes. ``logsumexp`` and ``tmean`` are the chains of
nodes that the shipped single nodes replaced, with the ``exp``, ``log``
and ``reshape`` ops only they used. :func:`mlp_chain` is the per-layer
chain of ``matmul``, ``add`` and ``leaky_relu`` nodes (``linear`` was
``Linear.apply``) that ``MLP.forward``'s single node replaced. The
shipped versions must give the same bits: tests compare them with
:func:`same_bits`, and the criterion-7 guard trains with the reference
``step``, ``backward`` and ``mlp_chain`` in place of the shipped ones.
"""

import numpy as np

from driftlab.errors import ContractError, DimensionError, NumericError
from driftlab.tensorcore import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LEAKY_SLOPE,
    Tensor,
    add,
    as_tensor,
    div,
    matmul,
    sub,
    topo_order,
    tsum,
)


def same_bits(a, b):
    """Equal shapes and equal bytes: stricter than ``np.array_equal``,
    which takes -0.0 for 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class OptimState:
    """Adam state for a fixed parameter list."""

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]


def step(state, grads):
    """Apply one Adam update in place. Returns the state."""
    if len(grads) != len(state.params):
        raise ContractError("gradient count mismatch")
    state.t += 1
    for i, (p, g) in enumerate(zip(state.params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.value.shape:
            raise DimensionError(f"gradient shape mismatch for {p.name or i}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {p.name or i}")
        state.m[i] = ADAM_BETA1 * state.m[i] + (1 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1 - ADAM_BETA2) * g * g
        mhat = state.m[i] / (1 - ADAM_BETA1 ** state.t)
        vhat = state.v[i] / (1 - ADAM_BETA2 ** state.t)
        p.value = p.value - state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return state


def backward(root, wrt):
    """Gradients of a scalar ``root`` with respect to each tensor in
    ``wrt``, as numpy arrays. Tensors not reachable from ``root`` get
    exact zeros.
    """
    if root.value.size != 1:
        raise ContractError("backward seed must be scalar")
    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(topo_order(root)):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            contrib = vjp(g)
            prev = grads.get(id(parent))
            grads[id(parent)] = contrib if prev is None else prev + contrib
    out = []
    for p in wrt:
        g = grads.get(id(p))
        if g is None:
            g = np.zeros_like(p.value)
        out.append(np.asarray(g))
    return out


def exp(a):
    a = as_tensor(a)
    e = np.exp(a.value)
    return Tensor(e, parents=((a, lambda g: g * e),), op="exp")


def log(a):
    a = as_tensor(a)
    return Tensor(np.log(a.value), parents=((a, lambda g: g / a.value),), op="log")


def reshape(a, shape):
    a = as_tensor(a)
    orig = a.value.shape
    return Tensor(
        a.value.reshape(shape),
        parents=((a, lambda g: g.reshape(orig)),),
        op="reshape",
    )


def tmean(a):
    a = as_tensor(a)
    return div(tsum(a), float(a.value.size))


def logsumexp(a, axis):
    """Stable log-sum-exp along ``axis``, which is reduced away."""
    a = as_tensor(a)
    m = np.max(a.value, axis=axis, keepdims=True)
    shifted = sub(a, m)
    s = log(tsum(exp(shifted), axis=axis, keepdims=True))
    newshape = list(a.value.shape)
    del newshape[axis]
    return reshape(add(s, m), tuple(newshape))


def leaky_relu(a):
    a = as_tensor(a)
    return Tensor(
        np.where(a.value > 0, a.value, LEAKY_SLOPE * a.value),
        parents=((a, lambda g: g * np.where(a.value > 0, 1.0, LEAKY_SLOPE)),),
        op="leaky_relu",
    )


def linear(layer, x):
    return add(matmul(x, layer.w), layer.b)


def mlp_chain(net, x):
    """``net.forward(x)`` as one node per op; a drop-in ``MLP.forward``."""
    h = as_tensor(x)
    net._check_input(h.value)
    for i, layer in enumerate(net.layers):
        h = linear(layer, h)
        if i < len(net.layers) - 1:
            h = leaky_relu(h)
    return h
