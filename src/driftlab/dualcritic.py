"""Neural dual estimator for the relaxed transport distance.

A bounded critic f: R^M -> [0, 1] is trained to separate source from
target feature batches under asymmetric weighting: constants do not
cancel, so a critic stuck at 1 contributes exactly beta. The slope
penalty anchors the critic's input gradients to the scale the nested
ground metric implies, using second-order gradients from tensorcore.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensorcore import (
    MLP,
    OptimState,
    add,
    as_tensor,
    backward,
    constant,
    div,
    mul,
    softplus,
    square,
    step,
    sub,
    tmean,
    tsum,
)


class Critic:
    """Bounded critic network with its penalty weight and relaxation."""

    def __init__(self, dim, rng, hidden=(32, 32, 32), lam=10.0, beta=0.4,
                 name="critic"):
        if lam < 0:
            raise ContractError("penalty weight must be nonnegative")
        if not (0 < beta < 1):
            raise ContractError("beta must lie strictly between 0 and 1")
        self.net = MLP([dim, *hidden, 1], rng, head="sigmoid", name=name)
        self.lam = float(lam)
        self.beta = float(beta)

    def parameters(self):
        return self.net.parameters()


def _features(batch):
    f = np.asarray(batch, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] == 0:
        raise ContractError("need a nonempty 2-D feature batch")
    return f


def measure_normalize(features):
    """Rowwise softplus + L1 normalization (numeric path)."""
    f = np.asarray(features, dtype=np.float64)
    w = np.logaddexp(0.0, f)
    return w / w.sum(axis=1, keepdims=True)


def measure_normalize_graph(z):
    """Rowwise softplus + L1 normalization as a differentiable graph."""
    w = softplus(z)
    return div(w, tsum(w, axis=1, keepdims=True))


# ---------------------------------------------------------------------
# objective pieces
# ---------------------------------------------------------------------

def dual_objective_graph(critic, zs, zt):
    """mean f(source) - (1-beta) mean f(target), as a Tensor."""
    fs = tmean(critic.net.forward(zs))
    ft = tmean(critic.net.forward(zt))
    return sub(fs, mul(ft, constant(1.0 - critic.beta)))


def dual_objective(critic, Zs, Zt):
    """Numeric dual value on two feature batches."""
    zs = as_tensor(_features(Zs))
    zt = as_tensor(_features(Zt))
    return float(dual_objective_graph(critic, zs, zt).value)


def gradient_penalty_graph(critic, z):
    """Slope penalty on one batch, differentiable in the critic weights.

    Per sample i and dimension j the term is
    ((df/dz_ij)^2 * z_ij - 1)^2, averaged over the batch and scaled by
    lam/2. Rows pass through the network independently, so the gradient
    of the summed output recovers every per-sample input gradient.
    """
    out = critic.net.forward(z)
    (gz,) = backward(tsum(out), wrt=[z], build_graph=True)
    term = square(sub(mul(square(gz), z), constant(1.0)))
    return mul(tmean(term), constant(critic.lam / 2.0))


def gradient_penalty(critic, batch):
    """Numeric slope penalty on one nonnegative feature batch."""
    f = _features(batch)
    if np.any(f < 0):
        raise ContractError("penalty expects measure-normalized features")
    return float(gradient_penalty_graph(critic, as_tensor(f)).value)


def training_objective_graph(critic, zs, zt):
    """Dual value minus the slope penalty on both batches."""
    dual = dual_objective_graph(critic, zs, zt)
    pen = add(gradient_penalty_graph(critic, zs),
              gradient_penalty_graph(critic, zt))
    return sub(dual, pen)


# ---------------------------------------------------------------------
# training
# ---------------------------------------------------------------------

def train_critic(critic, Zs, Zt, steps, optim=None):
    """Ascend the penalized dual objective for `steps` full-batch steps.

    steps=0 leaves the critic untouched. Divergence raises a numeric
    error naming the step at which values left the finite range.
    """
    if steps < 0:
        raise ContractError("steps must be nonnegative")
    if steps == 0:
        return critic
    fs = _features(Zs)
    ft = _features(Zt)
    if np.any(fs < 0) or np.any(ft < 0):
        raise ContractError("critic training expects measure-normalized features")
    if optim is None:
        optim = OptimState(critic.parameters(), lr=1e-3)
    params = critic.parameters()
    for k in range(steps):
        try:
            obj = training_objective_graph(critic, as_tensor(fs), as_tensor(ft))
            if not np.isfinite(obj.value):
                raise NumericError("objective not finite")
            grads = backward(obj, wrt=params)
            step(optim, [-g for g in grads])
        except NumericError as exc:
            raise NumericError(f"critic training diverged at step {k}: {exc}")
    return critic


def estimate_alignment_residual(critic, Zs, Zt):
    """Trained dual value minus beta.

    Under containment the optimum sits at f identically 1, where the
    asymmetric weighting contributes exactly beta, so the residual is
    near zero; larger residuals track larger primal distances.
    """
    return dual_objective(critic, Zs, Zt) - critic.beta
