"""Losses, prediction and the flat-text checkpoint writer for the
adaptation model's two networks, the feature extractor phi and the
classifier head psi, both plain :class:`~driftlab.tensorcore.MLP`
perceptrons.

The classification loss is a numerically safe mean negative
log-softmax; the weight penalty is a plain L2 sum over weight matrices
with biases excluded.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensorcore import (
    add,
    logsumexp,
    mlp_forward,
    mul,
    square,
    sub,
    tmean,
    tsum,
)

CHECKPOINT_MAGIC = "driftlab-checkpoint"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------

def extract(phi, X):
    """The extractor's (N, M) feature array for the rows of X."""
    return mlp_forward(phi, np.asarray(X, dtype=np.float64))[0]


def _onehot(labels, n_classes):
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ContractError("labels must be a flat vector")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ContractError(
            f"label outside [0, {n_classes}): {labels.min()}..{labels.max()}")
    eye = np.zeros((labels.shape[0], n_classes))
    eye[np.arange(labels.shape[0]), labels] = 1.0
    return eye


def cross_entropy_loss(psi, features, labels):
    """Mean negative log-softmax of the true-class logits (a scalar
    Tensor; use .item() for the value). ``features`` is an array or a
    Tensor, through which gradients then flow."""
    logits = psi.forward(features)
    true_logit = tsum(mul(logits, _onehot(labels, psi.sizes[-1])), axis=1)
    return tmean(sub(logsumexp(logits, axis=1), true_logit))


def regularizer(networks, alpha):
    """alpha times half the squared L2 norm of the weight matrices of
    every network in the list (biases excluded); a scalar Tensor."""
    if alpha < 0:
        raise ContractError("alpha must be nonnegative")
    total = 0.0
    for net in networks:
        for w in net.weights():
            total = add(total, tsum(square(w)))
    return mul(total, 0.5 * alpha)


def predict(psi, features):
    """Class labels for extracted features; ties in the argmax resolve
    to the lowest class index."""
    logits = mlp_forward(psi, np.asarray(features, dtype=np.float64))[0]
    return np.argmax(logits, axis=1)


# ---------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------

def collect_params(nets):
    """Named parameter arrays from a dict of networks, prefixed by key."""
    out = {}
    for prefix, net in nets.items():
        for p in net.parameters():
            out[f"{prefix}/{p.name}"] = p.value.copy()
    return out


def save_checkpoint(path, params):
    """Write named arrays as flat text: a version header, then per
    parameter a shape line followed by one row-major value line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n")
        for name in sorted(params):
            arr = np.asarray(params[name], dtype=np.float64)
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"param {name} {arr.ndim} {dims}\n".rstrip() + "\n")
            fh.write(" ".join(repr(float(v)) for v in arr.reshape(-1)) + "\n")
