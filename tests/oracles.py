"""Test-side oracles: independent statements of rules and formats that
the package implements in a faster or write-only form."""

from pathlib import Path

import numpy as np

from driftlab.errors import ContractError, DimensionError, InfeasibleError
from driftlab.tensorcore import as_tensor
from driftlab.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION


def build_negatives(i, n):
    """The in-batch negatives of anchor i: the other n-1 batch indices,
    in increasing order."""
    if n < 2:
        raise ContractError("batch of size 1 has no negatives")
    if not (0 <= i < n):
        raise ContractError(f"index {i} outside batch of size {n}")
    return np.concatenate([np.arange(0, i), np.arange(i + 1, n)])


def dense_pair_positive(Zt, Zs):
    """``cmi.pair_positive`` on one (N_t, N_s, M) difference array."""
    Zt = np.asarray(Zt, dtype=np.float64)
    Zs = np.asarray(Zs, dtype=np.float64)
    return ((Zt[:, None, :] - Zs[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def gathered_score_matrix(scorer, batch):
    """``BilinearScorer.score_matrix`` on the gathered (N, K, M) array of
    candidate embeddings."""
    anchors = np.asarray(batch.anchors, dtype=np.float64)
    gs = scorer.net.forward(as_tensor(batch.sources)).value
    ga = scorer.net.forward(as_tensor(anchors)).value
    own = (gs * anchors).sum(axis=1)
    cross = (ga[batch.candidates] * anchors[:, None, :]).sum(axis=2)
    return 0.5 * (own[:, None] + cross)


def load_checkpoint(path):
    """Read a file written by ``model.save_checkpoint`` back into a dict
    of arrays. The reader is strict: a header, then per parameter a
    ``param <name> <ndim> <dims...>`` line and one line of values."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    assert lines[0] == f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}"
    assert len(lines) % 2 == 1, "a parameter header has no value line"
    params = {}
    for head, data in zip(lines[1::2], lines[2::2]):
        tag, name, ndim, *dims = head.split()
        assert tag == "param" and len(dims) == int(ndim), head
        values = np.array([float(v) for v in data.split()])
        params[name] = values.reshape(tuple(int(d) for d in dims))
    return params


def w2_dimension(zA, zB):
    """``ot.w2_dimension`` in numpy float64 scalar arithmetic: both
    measures are sorted per call and the quantile merge steps through
    numpy scalars."""
    if zA.atoms.ndim != 1 or zB.atoms.ndim != 1:
        raise DimensionError("w2_dimension expects 1-D measures")
    if abs(zA.total_mass - zB.total_mass) > 1e-9:
        raise InfeasibleError("mass mismatch between dimension measures")
    mass = zA.total_mass
    oa = np.argsort(zA.atoms, kind="stable")
    ob = np.argsort(zB.atoms, kind="stable")
    pa, wa = zA.atoms[oa], zA.weights[oa]
    pb, wb = zB.atoms[ob], zB.weights[ob]
    ia = ib = 0
    remaining_a, remaining_b = wa[0], wb[0]
    done = 0.0
    total = 0.0
    while done < mass - 1e-15:
        while remaining_a <= 1e-15 and ia + 1 < len(wa):
            ia += 1
            remaining_a = wa[ia]
        while remaining_b <= 1e-15 and ib + 1 < len(wb):
            ib += 1
            remaining_b = wb[ib]
        step = min(remaining_a, remaining_b, mass - done)
        if step <= 1e-15:
            break
        total += step * (pa[ia] - pb[ib]) ** 2
        remaining_a -= step
        remaining_b -= step
        done += step
    return float(np.sqrt(total))
