"""Neural dual estimator for the relaxed transport distance.

A bounded critic f: R^M -> [0, 1] is trained to separate source from
target feature batches under asymmetric weighting: constants do not
cancel, so a critic stuck at 1 contributes exactly beta. The slope
penalty anchors the critic's input gradients to the scale the nested
ground metric implies. Its graph writes that input gradient out as
ordinary nodes, so a first-order backward through it gives the weight
gradients; training runs a closed form that reproduces that graph bit
for bit. Feature rows become measures through ``ot.measure_normalize``;
this module keeps only its graph twin, ``measure_normalize_graph``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensorcore import (
    MLP,
    add,
    ascend,
    backward,  # unused here; benchmark tracing and a test reach it by this name
    div,
    layer_gradients,
    matmul,
    mlp_backward,
    mlp_forward,
    mul,
    sigmoid,
    sigmoid_value,
    softplus,
    square,
    step,  # unused here; benchmark tracing reaches it by this name
    sub,
    tmean,
    transpose,
    tsum,
)


class Critic:
    """Critic ``sigmoid(net.forward(z))`` with its penalty weight and relaxation."""

    def __init__(self, dim, rng, hidden=(32, 32, 32), lam=10.0, beta=0.4):
        if lam < 0:
            raise ContractError("penalty weight must be nonnegative")
        if not (0 < beta < 1):
            raise ContractError("beta must lie strictly between 0 and 1")
        self.net = MLP([dim, *hidden, 1], rng, name="critic")
        self.lam = float(lam)
        self.beta = float(beta)

    def parameters(self):
        return self.net.parameters()


def _features(batch):
    f = np.asarray(batch, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] == 0:
        raise ContractError("need a nonempty 2-D feature batch")
    return f


def measure_normalize_graph(z):
    """Rowwise softplus + L1 normalization as a differentiable graph: the
    twin of ``ot.measure_normalize``. Its softplus is log1p(exp(.)),
    not ``np.logaddexp``, and the two differ in the last bit on about
    16% of entries, so merging them would change every training
    report."""
    w = softplus(z)
    return div(w, tsum(w, axis=1, keepdims=True))


# ---------------------------------------------------------------------
# objective pieces
# ---------------------------------------------------------------------

def dual_objective_graph(critic, zs, zt):
    """mean f(source) - (1-beta) mean f(target), as a Tensor."""
    fs = tmean(sigmoid(critic.net.forward(zs)))
    ft = tmean(sigmoid(critic.net.forward(zt)))
    return sub(fs, mul(ft, 1.0 - critic.beta))


def dual_objective(critic, Zs, Zt):
    """Numeric dual value on two feature batches, bit for bit the graph's."""
    fs, ft = (sigmoid_value(mlp_forward(critic.net, z)[0]).sum() / z.shape[0]
              for z in (_features(Zs), _features(Zt)))
    return float(fs - ft * (1.0 - critic.beta))


def _input_gradient_graph(critic, z):
    """The critic's input gradients on the rows of a batch Tensor ``z``
    as graph nodes, one per vjp of the forward pass: the sigmoid's
    slope, then per layer, last first, the transposed weights and the
    leaky-ReLU slopes that ``mlp_forward`` returns."""
    _, _, masks = mlp_forward(critic.net, z.value)
    s = sigmoid(critic.net.forward(z))
    gz = mul(s, sub(1.0, s))
    for i in range(len(critic.net.layers) - 1, -1, -1):
        gz = matmul(gz, transpose(critic.net.layers[i].w))
        if i:
            gz = mul(gz, masks[i - 1])
    return gz


def gradient_penalty_graph(critic, z):
    """Slope penalty on one batch, differentiable in the critic weights.

    Per sample i and dimension j the term is
    ((df/dz_ij)^2 * z_ij - 1)^2, averaged over the batch and scaled by
    lam/2. The input gradient is itself a graph, so a first-order
    backward through the penalty gives the weight gradients.
    """
    gz = _input_gradient_graph(critic, z)
    term = square(sub(mul(square(gz), z), 1.0))
    return mul(tmean(term), critic.lam / 2.0)


def training_objective_graph(critic, zs, zt):
    """Dual value minus the slope penalty on both batches."""
    dual = dual_objective_graph(critic, zs, zt)
    pen = add(gradient_penalty_graph(critic, zs),
              gradient_penalty_graph(critic, zt))
    return sub(dual, pen)


def _penalty_and_grads(critic, z, masks, s, slope):
    """One batch's slope penalty, its gradient at the critic's
    pre-activation, and the weight gradients of the input-gradient pass.

    The graph builds the input gradient as Tensors (the pass ``d``,
    ``e`` below), squares it into the penalty, then backpropagates
    through that pass. Each line mirrors one vjp of that graph.
    """
    weights = [layer.w.value for layer in critic.net.layers]
    depth = len(weights)
    d = layer_gradients(critic.net, masks, slope)
    e = d[0] @ weights[0].T
    sq = e * e
    r = sq * z - 1.0
    half = critic.lam / 2.0
    value = ((r * r).sum() / z.size) * half
    g = ((-1.0 * half) / z.size) * (r * 2.0) * z * (e * 2.0)
    through = []
    for i in range(depth):
        through.append((d[i].T @ g).T)
        g = g @ weights[i].T.T
        if i < depth - 1:
            g = g * masks[i]
    # the pass's seed is s * (1 - s), so both factors send gradient
    # back into s, and from there through the sigmoid's own vjp
    g = g * (1.0 - s) + (g * s) * -1.0
    return value, g * slope, through


def training_objective_and_grads(critic, zs, zt):
    """``training_objective_graph`` and its parameter gradients, without
    the graph.

    Returns the value and the gradients in ``critic.parameters()``
    order, equal bit for bit to ``backward`` on the graph: every vjp is
    mirrored on operands of the same layout, and per weight the six
    contributions are summed in the graph's order, the two dual
    forwards, then per batch its penalty forward and its input-gradient
    pass. Raises ``NumericError`` where the graph's values go non-finite.
    """
    net = critic.net
    seeds = (1.0 / zs.shape[0], (-1.0 * (1.0 - critic.beta)) / zt.shape[0])
    passes, duals, grads = [], [], []
    for z, seed in zip((zs, zt), seeds):
        a, inputs, masks = mlp_forward(net, z)
        s = sigmoid_value(a)
        slope = s * (1.0 - s)
        passes.append((z, inputs, masks, s, slope))
        duals.append(s.sum() / z.shape[0])
        grads.append(mlp_backward(net, inputs, masks, seed * slope))
    total = [x + y for x, y in zip(*grads)]
    pens = []
    for z, inputs, masks, s, slope in passes:
        pen, g, through = _penalty_and_grads(critic, z, masks, s, slope)
        pens.append(pen)
        grads = mlp_backward(net, inputs, masks, g)
        for i, w in enumerate(through):
            total[2 * i] = (total[2 * i] + grads[2 * i]) + w
            total[2 * i + 1] = total[2 * i + 1] + grads[2 * i + 1]
    value = (duals[0] - duals[1] * (1.0 - critic.beta)) - (pens[0] + pens[1])
    if not np.isfinite(value):
        raise NumericError("objective not finite")
    return float(value), total


# ---------------------------------------------------------------------
# training
# ---------------------------------------------------------------------

def train_critic(critic, Zs, Zt, steps, optim):
    """Ascend the penalized dual objective for `steps` full-batch steps
    on :func:`~driftlab.tensorcore.ascend`. Returns its value at each
    step, taken before that step's update."""
    fs, ft = _features(Zs), _features(Zt)
    if np.any(fs < 0) or np.any(ft < 0):
        raise ContractError("critic training expects measure-normalized features")
    return ascend(optim, lambda: training_objective_and_grads(critic, fs, ft),
                  steps, "critic")


def estimate_alignment_residual(critic, Zs, Zt):
    """Trained dual value minus beta.

    Under containment the optimum sits at f identically 1, where the
    asymmetric weighting contributes exactly beta, so the residual is
    near zero; larger residuals track larger primal distances.
    """
    return dual_objective(critic, Zs, Zt) - critic.beta
