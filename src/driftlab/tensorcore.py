"""Dense float64 numerics with reverse-mode automatic differentiation.

The engine is deliberately small: enough to train small multilayer
perceptrons, to state the dual critic's slope penalty as a graph, and to
validate everything against central finite differences. It is
first-order: gradients are plain arrays.

Design notes
------------
* Every value is a ``numpy`` float64 array wrapped in a :class:`Tensor`
  node. A node remembers the parent nodes it was computed from together
  with one vector-Jacobian-product (vjp) closure per parent, which maps
  the gradient array at the node to the parent's contribution array.
  The node graph in topological order is the tape: :func:`backward`
  walks it once in reverse, summing the gradients per node, and builds
  no node itself.
* ``backward`` first marks the nodes with a path to a ``wrt`` tensor and
  runs a vjp only into a marked parent. This cannot change a bit: every
  child of a marked node is itself marked, so each marked node gets the
  same contributions, summed in the same order, as an unpruned pass
  would give it. The nodes skipped are those whose gradients nobody
  asked for (the helper networks' weights and the constants in the
  descent step).
* Graphs are built by calling the primitives (``add``, ``mul``, ...);
  ``Tensor`` overloads no arithmetic operator.
* Graphs are acyclic. A vjp closes over its op's input nodes and over
  arrays, never over the node it belongs to: ``sigmoid`` keeps its
  output array, ``div`` recomputes its quotient. Reference counting
  therefore frees a graph as soon as it is dropped, with no work left
  for the cycle collector.
* A network forward is one node, :meth:`MLP.forward`, with the value of
  :func:`mlp_forward` and vjps from :func:`layer_gradients`, as in
  :func:`mlp_backward`. Each vjp is the numpy expression of the
  per-layer chain it replaced (the oracle in the tests), and the merge
  keeps the order of every other node, so ``backward`` keeps its bits.
* The critic and the scorer train through closed forms built on
  :func:`mlp_forward` and :func:`mlp_backward`
  (``dualcritic.training_objective_and_grads``,
  ``cmi.BilinearScorer.objective_and_grads``). They mirror the graph's
  vjps op for op, on operands of the same memory layout, and sum each
  gradient's contributions in the order ``backward`` does, so they are
  equal to it bit for bit. Rounding differences are not harmless here:
  the training outcome depends on the helpers' last bits. The graphs
  stay as their oracles and serve the descent step. Both helpers train
  through one loop, :func:`ascend`, which owns the step count, the
  divergence message and the negated step, and returns every step's
  objective value.
* Finiteness is checked once, where a value is made: a node checks
  itself, each :func:`mlp_forward` checks its output, scores are
  checked where products of finite features can overflow, and
  gradients and Adam's moments in :func:`step`. A node holding a NaN
  or an infinity raises ``NumericError`` naming its op, unless the op
  keeps finite inputs finite or its value is checked (``_UNCHECKED``).
* Adam keeps its moments as one flat vector each (:class:`OptimState`)
  and updates them with one run of numpy calls per step, not one per
  parameter. The update is elementwise, with the same expressions in
  the same order, so each element gets the bits a per-tensor update
  would give. Parameters stay separate arrays: each gets a fresh
  ``p.value - delta[a:b].reshape(shape)``, never a view into a shared
  buffer, whose alignment could change the BLAS path of a matmul.
* Randomness comes from :class:`SplitMix64`, a counter-based 64-bit
  generator (algorithm documented on the class) so that golden fixtures
  do not depend on any library's RNG internals.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import ContractError, DimensionError, NumericError, allocating, prefixed

LEAKY_SLOPE = 0.01  # negative-side slope of every leaky ReLU

# Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Ops whose nodes skip the finite check in Tensor.__init__ (see the
# design notes). The first four give finite outputs whenever their
# inputs are finite. An 'mlp' node holds mlp_forward's output, which
# mlp_forward has checked, naming the layer op that went non-finite.
_UNCHECKED = frozenset(("transpose", "gather", "sigmoid", "softplus", "mlp"))


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation.

    ``parents`` is a tuple of ``(parent, vjp)`` pairs where ``vjp`` maps
    the gradient flowing into this node to the gradient contribution for
    that parent. Leaf tensors (parameters, constants) have no parents.
    """

    __slots__ = ("value", "parents", "op", "name")

    def __init__(self, value, parents=(), op="leaf", name=None):
        self.value = np.asarray(value, dtype=np.float64)
        if op not in _UNCHECKED and not np.isfinite(self.value).all():
            raise NumericError(f"non-finite values produced by op '{op}'")
        self.parents = tuple(parents)
        self.op = op
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        return float(self.value)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x, op="const")


def parameter(x, name):
    return Tensor(np.array(x, dtype=np.float64, copy=True), op="param", name=name)


# ---------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------

def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    if grad.shape != shape:
        grad = grad.reshape(shape)
    return grad


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.value + b.value,
        parents=(
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(g, b.value.shape)),
        ),
        op="add",
    )


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.value - b.value,
        parents=(
            (a, lambda g: _unbroadcast(g, a.value.shape)),
            (b, lambda g: _unbroadcast(g * -1.0, b.value.shape)),
        ),
        op="sub",
    )


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.value * b.value,
        parents=(
            (a, lambda g: _unbroadcast(g * b.value, a.value.shape)),
            (b, lambda g: _unbroadcast(g * a.value, b.value.shape)),
        ),
        op="mul",
    )


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.value / b.value,
        parents=(
            (a, lambda g: _unbroadcast(g / b.value, a.value.shape)),
            (b, lambda g: _unbroadcast(
                (g * -1.0) * ((a.value / b.value) / b.value), b.value.shape)),
        ),
        op="div",
    )


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul inner extents differ: {a.value.shape} vs {b.value.shape}"
        )
    return Tensor(
        a.value @ b.value,
        parents=(
            (a, lambda g: g @ b.value.T),
            (b, lambda g: a.value.T @ g),
        ),
        op="matmul",
    )


def transpose(a):
    a = as_tensor(a)
    return Tensor(a.value.T, parents=((a, lambda g: g.T),), op="transpose")


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    orig = a.value.shape

    def vjp(g):
        if axis is not None and not keepdims:
            kshape = list(orig)
            kshape[axis] = 1
            g = g.reshape(tuple(kshape))
        # A contiguous copy, not numpy's zero-stride view, so that a
        # matmul on it takes the same BLAS path as on any other array.
        return np.broadcast_to(g, orig).copy()

    return Tensor(a.value.sum(axis=axis, keepdims=keepdims), parents=((a, vjp),), op="sum")


def tmean(a):
    """Mean of all entries as one node: their sum over their count."""
    a = as_tensor(a)
    orig, n = a.value.shape, float(a.value.size)
    return Tensor(a.value.sum() / n,
                  parents=((a, lambda g: np.broadcast_to(g / n, orig).copy()),),
                  op="mean")


def square(a):
    a = as_tensor(a)
    return Tensor(
        a.value * a.value,
        parents=((a, lambda g: g * (a.value * 2.0)),),
        op="square",
    )


def sigmoid_value(v):
    """Logistic function of an array, split at 0 so neither side overflows."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a):
    a = as_tensor(a)
    s = sigmoid_value(a.value)
    return Tensor(s, parents=((a, lambda g: g * (s * (1.0 - s))),), op="sigmoid")


def softplus(a):
    """log(1 + e^x), computed without overflow."""
    a = as_tensor(a)
    v = a.value
    sv = np.where(v > 30.0, v, np.log1p(np.exp(np.minimum(v, 30.0))))
    return Tensor(sv, parents=((a, lambda g: g * sigmoid_value(a.value)),), op="softplus")


def logsumexp(a, axis):
    """Stable log-sum-exp along ``axis``, which is reduced away.

    The row max ``m`` is subtracted as a constant; the value and every
    derivative are unaffected by that choice of shift. One node with
    the value and vjp of the chain exp(a - m), sum, log, + m, so a row
    spanning more than the float range keeps its finite value.
    """
    a = as_tensor(a)
    m = np.max(a.value, axis=axis, keepdims=True)
    e = np.exp(a.value - m)
    total = e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return np.broadcast_to(g.reshape(m.shape) / total, a.value.shape).copy() * e

    return Tensor((np.log(total) + m).squeeze(axis), parents=((a, vjp),),
                  op="logsumexp")


def select_rows(a, indices):
    """Select rows of a 2-D tensor.

    The value is a gather; the vjp multiplies by the transposed 0/1
    selection matrix, so repeated rows accumulate their gradients.
    """
    a = as_tensor(a)
    if a.value.ndim != 2:
        raise DimensionError("select_rows expects a 2-D tensor")
    indices = np.asarray(indices, dtype=int)

    def vjp(g):
        sel = np.zeros((indices.size, a.value.shape[0]))
        sel[np.arange(indices.size), indices] = 1.0
        return sel.T @ g

    return Tensor(a.value[indices], parents=((a, vjp),), op="gather")


# ---------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------

def topo_order(root):
    """Nodes reachable from ``root`` in topological order (parents first)."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root, wrt):
    """Gradients of a scalar ``root`` with respect to each tensor in
    ``wrt``, as numpy arrays.

    Tensors not reachable from ``root`` get exact zeros. Only nodes with
    a path to some ``wrt`` tensor receive a gradient; no vjp runs off
    those paths. No Tensor is built, so nothing checks that a gradient
    is finite: :func:`step` does, before it changes anything.
    """
    if root.value.size != 1:
        raise ContractError("backward seed must be scalar")
    order = topo_order(root)
    live = {id(p) for p in wrt}
    for node in order:
        for parent, _ in node.parents:
            if id(parent) in live:
                live.add(id(node))
                break
    grads = {id(root): np.ones_like(root.value)}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            if id(parent) not in live:
                continue
            contrib = vjp(g)
            prev = grads.get(id(parent))
            grads[id(parent)] = contrib if prev is None else prev + contrib
    return [np.asarray(grads.get(id(p), np.zeros_like(p.value))) for p in wrt]


# ---------------------------------------------------------------------
# counter-based RNG
# ---------------------------------------------------------------------

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Words per block of SplitMix64._raw. The mix runs in place on two
# uint64 buffers of this length, 512 KiB together, which stay in cache
# where temporaries as long as the whole draw would not.
_BLOCK = 2 ** 15


class SplitMix64:
    """Counter-based 64-bit generator (SplitMix64).

    Output ``i`` for seed ``s`` is ``mix(s + (i+1) * 0x9E3779B97F4A7C15)``
    where ``mix(z)`` is::

        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31

    all modulo 2^64. Uniform doubles take the top 53 bits:
    ``(z >> 11) * 2^-53`` in [0, 1). Normals pair uniforms through the
    Box-Muller transform. The counter advances by the number of raw
    64-bit words consumed, so any sequence can be reproduced from
    (seed, counter) alone. The words are made in blocks of ``_BLOCK``
    and each block is written straight into the output; every word is a
    function of (seed, counter) alone, so the blocks change no bit.
    """

    def __init__(self, seed):
        self.seed = np.uint64(int(seed) & _MASK64)
        self.counter = 0

    def _raw(self, n, dtype=np.uint64):
        """The next ``n`` words as a new array: the words themselves as
        uint64, or the uniform doubles they give as float64."""
        n = operator.index(n)
        with allocating():
            if n >= 2 ** 63 - 1:
                raise ValueError(f"{n} random words are past numpy's index range")
            out = np.empty(n, dtype=dtype)
        m = min(n, _BLOCK)
        steps = np.arange(1, m + 1, dtype=np.uint64)
        steps *= np.uint64(_GAMMA)
        z = np.empty(m, dtype=np.uint64)
        t = np.empty(m, dtype=np.uint64)
        for a in range(0, n, _BLOCK):
            b = min(a + _BLOCK, n)
            zb, tb = z[:b - a], t[:b - a]
            # word counter + a + i is seed + (counter + a + i + 1) * gamma
            base = (int(self.seed) + (self.counter + a) * _GAMMA) & _MASK64
            np.add(steps[:b - a], np.uint64(base), out=zb)
            np.right_shift(zb, 30, out=tb)
            np.bitwise_xor(zb, tb, out=zb)
            np.multiply(zb, _MIX1, out=zb)
            np.right_shift(zb, 27, out=tb)
            np.bitwise_xor(zb, tb, out=zb)
            np.multiply(zb, _MIX2, out=zb)
            np.right_shift(zb, 31, out=tb)
            np.bitwise_xor(zb, tb, out=zb)
            if out.dtype == np.uint64:
                out[a:b] = zb
            else:
                np.right_shift(zb, 11, out=zb)
                np.multiply(zb, 2.0 ** -53, out=out[a:b])
        self.counter += n
        return out

    def uniform(self, shape):
        """Uniform doubles in [0, 1), an array of the ``shape`` tuple.
        Entry counts are products of Python ints, so no count wraps."""
        n = math.prod(map(operator.index, shape))
        return self._raw(n, np.float64).reshape(shape)

    def normal(self, shape):
        """Standard normals, an array of the ``shape`` tuple."""
        n = math.prod(map(operator.index, shape))
        m = (n + 1) // 2
        u1 = 1.0 - self.uniform((m,))
        u2 = self.uniform((m,))
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        return z.reshape(shape)

    def permutation(self, n):
        """Fisher-Yates shuffle of range(n). Memoryviews give each word
        and entry as a Python int, so the modulus is exact and the swaps
        hold no more than the words and the output."""
        with allocating():
            perm = np.arange(n)
        if n > 1:
            p = memoryview(perm)
            for i, w in zip(range(n - 1, 0, -1), memoryview(self._raw(n - 1))):
                j = w % (i + 1)
                p[i], p[j] = p[j], p[i]
        return perm

    def spawn(self, salt):
        """Independent stream keyed by (seed, salt). Deterministic."""
        return SplitMix64(int(self.seed) ^ (_GAMMA * (salt + 1) & _MASK64))


# ---------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------

class Linear:
    """Affine layer x @ w + b with Glorot-uniform init."""

    def __init__(self, n_in, n_out, rng, name):
        bound = np.sqrt(6.0 / (n_in + n_out))
        w0 = (rng.uniform((n_in, n_out)) * 2.0 - 1.0) * bound
        self.w = parameter(w0, name=f"{name}.w")
        self.b = parameter(np.zeros(n_out), name=f"{name}.b")


class MLP:
    """Perceptron with leaky-ReLU hidden layers; its output is the last
    layer's pre-activation (features, logits, or a logit the caller
    squashes)."""

    def __init__(self, sizes, rng, name="mlp"):
        if len(sizes) < 2:
            raise ContractError("MLP needs at least input and output sizes")
        self.sizes = list(sizes)
        self.name = name
        self.layers = [
            Linear(sizes[i], sizes[i + 1], rng, name=f"{name}.layer{i}")
            for i in range(len(sizes) - 1)
        ]

    def _check_input(self, x):
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise DimensionError(
                f"{self.name}: expected input width {self.sizes[0]}, got shape {x.shape}"
            )

    def forward(self, x):
        """One node; each vjp computes only its own parent's share."""
        x = as_tensor(x)
        out, inputs, masks = mlp_forward(self, x.value)
        memo = [None, None]  # the last incoming gradient and its pass
        def pre(g):
            if memo[0] is not g:
                memo[:] = g, layer_gradients(self, masks, g)
            return memo[1]
        parents = [(x, lambda g: pre(g)[0] @ self.layers[0].w.value.T)]
        for i, layer in enumerate(self.layers):
            parents += [(layer.w, lambda g, i=i: inputs[i].T @ pre(g)[i]),
                        (layer.b, lambda g, i=i: pre(g)[i].sum(axis=0))]
        return Tensor(out, parents, op="mlp")

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend([layer.w, layer.b])
        return out

    def weights(self):
        return [layer.w for layer in self.layers]


def mlp_forward(net, x):
    """``net.forward``'s value on an array, with what the backward needs.

    Returns ``(out, inputs, masks)``: the last layer's pre-activation,
    the input of every layer and the leaky-ReLU slope (1 or
    ``LEAKY_SLOPE``) of every hidden unit, bit for bit the chain's. Only
    the output is checked: a NaN or infinity in any layer reaches it, as
    leaky ReLU keeps ±inf and a matmul makes inf·0 NaN. A non-finite
    output replays the layers to name the op the chain would name.
    """
    net._check_input(x)
    inputs, masks = [], []
    h = x
    for i, layer in enumerate(net.layers):
        if i:
            # a * slope equals the chain's where(a > 0, a, LEAKY_SLOPE * a)
            # bit for bit: a * 1.0 is a, and the product commutes.
            masks.append(np.where(a > 0, 1.0, LEAKY_SLOPE))
            h = a * masks[-1]
        inputs.append(h)
        a = h @ layer.w.value + layer.b.value
    if not np.isfinite(a).all():
        for h, layer in zip(inputs, net.layers):
            z = h @ layer.w.value
            if not np.isfinite(z + layer.b.value).all():
                op = "add" if np.isfinite(z).all() else "matmul"
                raise NumericError(f"non-finite values produced by op '{op}'")
    return a, inputs, masks


def layer_gradients(net, masks, g):
    """Gradients at every pre-activation, first layer first, from ``g`` at the last."""
    out = [g]
    for i in range(len(net.layers) - 1, 0, -1):
        out.append((out[-1] @ net.layers[i].w.value.T) * masks[i - 1])
    return out[::-1]


def mlp_backward(net, inputs, masks, g):
    """First-order gradients in ``net.parameters()`` order, given the
    gradient ``g`` at the last pre-activation.

    Each line is the vjp the per-layer chain of nodes runs, on operands
    of the same memory layout, so the result equals ``backward`` on
    that chain bit for bit.
    """
    grads = []
    for h, d in zip(inputs, layer_gradients(net, masks, g)):
        grads += [h.T @ d, d.sum(axis=0)]
    return grads


# ---------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------

class OptimState:
    """Adam state for a fixed parameter list.

    The moments ``m`` and ``v`` are flat vectors over all parameters in
    list order; parameter ``i`` owns ``offsets[i]:offsets[i + 1]`` and
    has shape ``shapes[i]``.
    """

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.shapes = [p.value.shape for p in self.params]
        self.offsets = [0]
        for p in self.params:
            self.offsets.append(self.offsets[-1] + p.value.size)
        self.m = np.zeros(self.offsets[-1])
        self.v = np.zeros(self.offsets[-1])


def _raise_non_finite(state, arrays, what="gradient"):
    """NumericError naming the first parameter whose array is not finite."""
    for i, a in enumerate(arrays):
        if not np.isfinite(a).all():
            name = state.params[i].name or i
            raise NumericError(f"non-finite {what} for parameter {name}")


def step(state, grads):
    """Apply one Adam update in place. Returns the state.

    The gradients and the new moments are checked before anything
    changes, so a step that raises leaves the parameters, the moments
    and ``t`` as they were.
    The update then runs once on the concatenated gradient with the
    per-element expressions of a per-tensor Adam, so each parameter
    gets the same bits.
    """
    if len(grads) != len(state.params):
        raise ContractError("gradient count mismatch")
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    for i, (g, shape) in enumerate(zip(grads, state.shapes)):
        if g.shape != shape:
            _raise_non_finite(state, grads[:i])
            name = state.params[i].name or i
            raise DimensionError(f"gradient shape mismatch for {name}")
    g = np.concatenate([g.ravel() for g in grads] or [np.zeros(0)])
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * g * g
    # v is finite only if g is and no g * g overflowed (past about
    # 1.3e154); a finite v bounds every |g| so far, and so m
    if not np.isfinite(v).all():
        _raise_non_finite(state, grads)
        _raise_non_finite(state, np.split(v, state.offsets[1:-1]), "Adam second moment")
    state.t += 1
    state.m, state.v = m, v
    mhat = state.m / (1 - ADAM_BETA1 ** state.t)
    vhat = state.v / (1 - ADAM_BETA2 ** state.t)
    delta = state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    bounds = zip(state.params, state.shapes, state.offsets, state.offsets[1:])
    for p, shape, a, b in bounds:
        p.value = p.value - delta[a:b].reshape(shape)  # a fresh array, not a view
    return state


def ascend(state, objective, steps, what):
    """Take ``steps`` Adam steps up ``objective()``, which gives
    ``(value, grads)`` at the current parameters; :func:`step` gets the
    negated grads. Returns each step's value, taken before its update.
    A numeric failure is raised again naming ``what`` and its step.
    """
    if steps < 0:
        raise ContractError("steps must be nonnegative")
    values = []
    for k in range(steps):
        with prefixed(f"{what} training diverged at step {k}"):
            value, grads = objective()
            step(state, [-g for g in grads])
        values.append(value)
    return values


# ---------------------------------------------------------------------
# finite-difference harness
# ---------------------------------------------------------------------

def finite_diff_check(loss_fn, params, eps=1e-5):
    """Max relative disagreement between backprop and central differences.

    ``loss_fn`` must rebuild the loss graph from the current parameter
    values on every call. The relative error for one entry is
    |analytic - central| / max(1, |central|); the max over all entries
    of all parameters is returned.
    """
    analytic = backward(loss_fn(), params)
    worst = 0.0
    for p, g in zip(params, analytic):
        flat_v = p.value.reshape(-1)
        flat_g = np.asarray(g).reshape(-1)
        for j in range(flat_v.size):
            keep = flat_v[j]
            flat_v[j] = keep + eps
            hi = float(loss_fn().value)
            flat_v[j] = keep - eps
            lo = float(loss_fn().value)
            flat_v[j] = keep
            central = (hi - lo) / (2 * eps)
            err = abs(flat_g[j] - central) / max(1.0, abs(central))
            worst = max(worst, err)
    return worst
