"""Model tests: golden extractor fixture, scalar cross-entropy oracle,
regularizer arithmetic, prediction tie rules, checkpoint roundtrips."""

import math

import numpy as np
import pytest

from driftlab.errors import ContractError, DimensionError
from driftlab.model import (
    cross_entropy_loss,
    extract,
    predict,
    regularizer,
    save_checkpoint,
)
from driftlab.tensorcore import MLP, SplitMix64, finite_diff_check, parameter
from oracles import load_checkpoint

GOLDEN_INPUT = np.array([[0.5, -0.25], [1.0, 2.0]])
GOLDEN_FEATURES = np.array([
    [-0.010634940756898277, -0.0129231009967843, -0.012905622551755105],
    [0.23419012751356452, 0.1679944398946925, -0.19704320437050563],
])


def golden_extractor():
    return MLP([2, 4, 4, 3], SplitMix64(77), name="phi")


# ---------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------

def test_identity_extractor():
    phi = MLP([2, 2], SplitMix64(0), name="phi")
    phi.layers[0].w.value[...] = np.eye(2)
    phi.layers[0].b.value[...] = 0.0
    X = np.array([[1.5, -2.0], [0.0, 3.0]])
    assert np.allclose(extract(phi, X), X)


def test_zero_weight_extractor_returns_bias():
    phi = MLP([2, 3], SplitMix64(1), name="phi")
    phi.layers[0].w.value[...] = 0.0
    phi.layers[0].b.value[...] = np.array([0.5, -1.0, 2.0])
    out = extract(phi, np.random.default_rng(2).normal(size=(4, 2)))
    assert np.allclose(out, [0.5, -1.0, 2.0])


def test_golden_fixture_frozen():
    features = extract(golden_extractor(), GOLDEN_INPUT)
    assert np.allclose(features, GOLDEN_FEATURES, atol=1e-15)


def test_extract_shape_mismatch():
    with pytest.raises(DimensionError):
        extract(golden_extractor(), np.zeros((3, 5)))


def test_extract_deterministic():
    a = extract(golden_extractor(), GOLDEN_INPUT)
    b = extract(golden_extractor(), GOLDEN_INPUT)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------
# cross_entropy_loss
# ---------------------------------------------------------------------

def zeroed_classifier(d_in=3, n_classes=2):
    psi = MLP([d_in, 4, n_classes], SplitMix64(5), name="psi")
    for p in psi.parameters():
        p.value[...] = 0.0
    return psi


def test_uniform_logits_give_ln2():
    psi = zeroed_classifier()
    feats = np.random.default_rng(1).normal(size=(6, 3))
    loss = cross_entropy_loss(psi, feats, np.array([0, 1, 0, 1, 1, 0]))
    assert loss.item() == pytest.approx(math.log(2), abs=1e-14)


def test_large_margin_correct_logits_near_zero():
    psi = MLP([2, 2], SplitMix64(9), name="psi")
    psi.layers[0].w.value[...] = np.array([[40.0, -40.0], [0.0, 0.0]])
    psi.layers[0].b.value[...] = 0.0
    feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
    loss = cross_entropy_loss(psi, feats, np.array([0, 1]))
    assert loss.item() == pytest.approx(0.0, abs=1e-10)


def test_matches_scalar_reference():
    # independent reference: per-row softmax written out longhand
    psi = MLP([2, 5, 3], SplitMix64(13), name="psi")
    feats = np.random.default_rng(3).normal(size=(4, 2))
    labels = np.array([2, 0, 1, 2])
    loss = cross_entropy_loss(psi, feats, labels).item()

    from driftlab.tensorcore import as_tensor
    logits = psi.forward(as_tensor(feats)).value
    ref = 0.0
    for i in range(4):
        row = logits[i]
        denom = sum(math.exp(v) for v in row)
        ref += -math.log(math.exp(row[labels[i]]) / denom)
    ref /= 4
    assert loss == pytest.approx(ref, abs=1e-12)


def test_out_of_range_label_rejected():
    psi = zeroed_classifier()
    feats = np.zeros((2, 3))
    with pytest.raises(ContractError):
        cross_entropy_loss(psi, feats, np.array([0, 2]))
    with pytest.raises(ContractError):
        cross_entropy_loss(psi, feats, np.array([0, -1]))


def test_cross_entropy_nonnegative_random():
    rng = np.random.default_rng(7)
    psi = MLP([3, 6, 4], SplitMix64(21), name="psi")
    for _ in range(10):
        feats = rng.normal(size=(5, 3))
        labels = rng.integers(0, 4, size=5)
        assert cross_entropy_loss(psi, feats, labels).item() >= 0.0


# ---------------------------------------------------------------------
# regularizer
# ---------------------------------------------------------------------

class SingleWeight:
    def __init__(self, v):
        self._w = parameter(np.array([[v]]), name="w")

    def weights(self):
        return [self._w]

    def parameters(self):
        return [self._w]


def test_regularizer_alpha_zero():
    assert regularizer([SingleWeight(3.0)], 0.0).item() == 0.0


def test_regularizer_single_weight():
    assert regularizer([SingleWeight(3.0)], 1.0).item() == pytest.approx(4.5, abs=1e-15)


def test_regularizer_excludes_biases():
    psi = MLP([2, 4, 2], SplitMix64(3), name="psi")
    base = regularizer([psi], 1.0).item()
    for layer in psi.layers:
        layer.b.value[...] = 100.0
    assert regularizer([psi], 1.0).item() == pytest.approx(base, abs=1e-12)


def test_regularizer_gradient_is_alpha_times_weight():
    net = SingleWeight(3.0)
    alpha = 0.7
    err = finite_diff_check(lambda: regularizer([net], alpha), net.parameters())
    assert err < 1e-6
    from driftlab.tensorcore import backward
    (g,) = backward(regularizer([net], alpha), wrt=net.parameters())
    assert g[0, 0] == pytest.approx(alpha * 3.0, abs=1e-12)


def test_regularizer_convex_second_differences():
    rng = np.random.default_rng(11)
    phi = MLP([2, 3, 2], SplitMix64(4), name="phi")
    for _ in range(5):
        direction = [rng.normal(size=w.value.shape) for w in phi.weights()]
        vals = []
        for t in (-0.1, 0.0, 0.1):
            for w, d in zip(phi.weights(), direction):
                w.value[...] = w.value + t * d
            vals.append(regularizer([phi], 1.0).item())
            for w, d in zip(phi.weights(), direction):
                w.value[...] = w.value - t * d
        assert vals[0] + vals[2] - 2 * vals[1] > 0.0


# ---------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------

def test_predict_confident_logits():
    psi = MLP([2, 2], SplitMix64(2), name="psi")
    psi.layers[0].w.value[...] = np.array([[10.0, -10.0], [0.0, 0.0]])
    psi.layers[0].b.value[...] = 0.0
    phi = MLP([2, 2], SplitMix64(0), name="phi")
    phi.layers[0].w.value[...] = np.eye(2)
    phi.layers[0].b.value[...] = 0.0
    labels = predict(psi, extract(phi, np.array([[1.0, 0.0]])))
    assert labels[0] == 0


def test_predict_tie_breaks_lowest_index():
    psi = zeroed_classifier(d_in=2, n_classes=3)
    phi = MLP([2, 2], SplitMix64(0), name="phi")
    phi.layers[0].w.value[...] = np.eye(2)
    phi.layers[0].b.value[...] = 0.0
    labels = predict(psi, extract(phi, np.array([[0.3, 0.7]])))
    assert labels[0] == 0


def test_predict_invariant_to_constant_logit_shift():
    psi = MLP([3, 3], SplitMix64(8), name="psi")
    phi = golden_extractor()
    X = np.random.default_rng(9).normal(size=(6, 2))
    labels_a = predict(psi, extract(phi, X))
    psi.layers[-1].b.value[...] = psi.layers[-1].b.value + 7.5
    labels_b = predict(psi, extract(phi, X))
    assert np.array_equal(labels_a, labels_b)


def test_predict_golden_fixture():
    psi = zeroed_classifier(d_in=3, n_classes=2)
    labels = predict(psi, extract(golden_extractor(), GOLDEN_INPUT))
    assert np.array_equal(labels, [0, 0])


# ---------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------

def test_checkpoint_roundtrip_exact(tmp_path):
    nets = {"phi": golden_extractor(),
            "psi": MLP([3, 4, 2], SplitMix64(5), name="psi")}
    params = {f"{key}/{p.name}": p.value
              for key, net in nets.items() for p in net.parameters()}
    path = tmp_path / "ck.txt"
    save_checkpoint(path, nets)
    back = load_checkpoint(path)
    assert set(back) == set(params)
    assert "psi/psi.layer1.b" in back
    for k in params:
        assert np.array_equal(back[k], params[k])


def test_checkpoint_version_field(tmp_path):
    path = tmp_path / "ck.txt"
    save_checkpoint(path, {"psi": MLP([1, 1], SplitMix64(0), name="psi")})
    first = path.read_text().splitlines()[0]
    assert first == "driftlab-checkpoint v1"
