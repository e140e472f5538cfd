"""Losses, prediction and flat-text checkpoints for the adaptation
model's two networks, the feature extractor phi and the classifier head
psi, both plain :class:`~driftlab.tensorcore.MLP` perceptrons.

The classification loss is a numerically safe mean negative
log-softmax; the weight penalty is a plain L2 sum over weight matrices
with biases excluded.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, ParseError
from .tensorcore import (
    constant,
    logsumexp,
    mul,
    square,
    sub,
    tmean,
    tsum,
)
from .textio import records

CHECKPOINT_MAGIC = "driftlab-checkpoint"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------

def extract(phi, X):
    """The extractor's (N, M) feature array for the rows of X."""
    return phi.forward(X).value


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
    onehot = constant(_onehot(labels, psi.sizes[-1]))
    true_logit = tsum(mul(logits, onehot), axis=1)
    return tmean(sub(logsumexp(logits, axis=1), true_logit))


def regularizer(networks, alpha):
    """alpha times half the squared L2 norm of all weight matrices
    (biases excluded); a scalar Tensor."""
    if alpha < 0:
        raise ContractError("alpha must be nonnegative")
    if not isinstance(networks, (list, tuple)):
        networks = [networks]
    total = constant(0.0)
    for net in networks:
        for w in net.weights():
            total = total + tsum(square(w))
    return mul(total, constant(0.5 * alpha))


def predict(psi, features):
    """Class labels and softmax probabilities for extracted features.

    Ties in the argmax resolve to the lowest class index. Probability
    rows sum to 1 within 1e-9.
    """
    logits = psi.forward(features).value
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    labels = np.argmax(logits, axis=1)
    return labels, probs


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


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint back into a dict."""
    lines = records(path)
    lineno, header = next(lines, (1, ""))
    parts = header.split()
    if len(parts) != 2 or parts[0] != CHECKPOINT_MAGIC:
        raise ParseError(f"not a checkpoint file: {header!r}", line=lineno)
    if parts[1] != f"v{CHECKPOINT_VERSION}":
        raise ParseError(f"unsupported checkpoint version {parts[1]}",
                         line=lineno)
    params = {}
    for lineno, head in lines:
        fields = head.split()
        if fields[0] != "param" or len(fields) < 3:
            raise ParseError(f"expected a param header, got {head!r}",
                             line=lineno)
        name = fields[1]
        try:
            ndim = int(fields[2])
            shape = tuple(int(d) for d in fields[3:3 + ndim])
        except ValueError:
            raise ParseError("malformed shape header", line=lineno)
        if len(shape) != ndim:
            raise ParseError("shape header shorter than declared rank",
                             line=lineno)
        lineno, data = next(lines, (lineno + 1, ""))
        try:
            values = np.array([float(v) for v in data.split()])
        except ValueError:
            raise ParseError("non-numeric parameter data", line=lineno)
        expected = int(np.prod(shape)) if shape else 1
        if values.size != expected:
            raise ParseError(
                f"expected {expected} values for {name}, got {values.size}",
                line=lineno)
        params[name] = values.reshape(shape)
    return params


def restore_params(nets, params):
    """Load checkpoint arrays back into the networks, strict on names."""
    for prefix, net in nets.items():
        for p in net.parameters():
            key = f"{prefix}/{p.name}"
            if key not in params:
                raise ContractError(f"checkpoint missing parameter {key}")
            arr = np.asarray(params[key], dtype=np.float64)
            if arr.shape != p.value.shape:
                raise DimensionError(
                    f"checkpoint shape {arr.shape} for {key}, "
                    f"expected {p.value.shape}")
            p.value[...] = arr
