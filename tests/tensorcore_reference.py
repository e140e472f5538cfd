"""Bit-equality oracles for tensorcore's optimizer and backward pass.

``OptimState``, ``step`` and ``backward`` below are the per-tensor Adam
and the unpruned backward pass that ``driftlab.tensorcore`` shipped
before its flat-buffer Adam and its path-pruned backward. ``step`` is
copied verbatim; ``backward`` is too, except that it sums gradient
arrays, as the shipped first-order vjps return them, where it once
summed Tensor nodes. The shipped versions must give the same bits:
tests compare them with :func:`same_bits`, and the criterion-7 guard
trains with these in place of the shipped ones.
"""

import numpy as np

from driftlab.errors import ContractError, DimensionError, NumericError
from driftlab.tensorcore import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    topo_order,
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
