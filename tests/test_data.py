"""Generator tests: distributional equality at zero shift, exact class
ratios, and the shared-labeling contract."""

import numpy as np
import pytest

from driftlab.cmi import mutual_information
from driftlab.data import LabeledDomain, gen_two_moons_shift, two_moons_label_rule
from driftlab.errors import ContractError


def energy_statistic(a, b):
    def mean_cross(x, y):
        return np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(-1)).mean()

    return 2 * mean_cross(a, b) - mean_cross(a, a) - mean_cross(b, b)


def energy_permutation_pvalue(a, b, n_perm=200, seed=0):
    rng = np.random.default_rng(seed)
    observed = energy_statistic(a, b)
    pooled = np.concatenate([a, b])
    n = len(a)
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(len(pooled))
        pa, pb = pooled[perm[:n]], pooled[perm[n:]]
        if energy_statistic(pa, pb) >= observed:
            hits += 1
    return (hits + 1) / (n_perm + 1)


# ---------------------------------------------------------------------
# two moons
# ---------------------------------------------------------------------

def test_zero_rotation_same_law():
    src, tgt = gen_two_moons_shift(n=150, rotation_deg=0, noise_sigma=0.1, seed=9)
    p = energy_permutation_pvalue(src.X, tgt.X, n_perm=200, seed=1)
    assert p > 0.01


def test_rotation_moves_the_cloud():
    src, tgt = gen_two_moons_shift(n=200, rotation_deg=30, seed=4)
    assert np.linalg.norm(src.X.mean(0) - tgt.X.mean(0)) > 0.0
    p = energy_permutation_pvalue(src.X[:120], tgt.X[:120], n_perm=200, seed=2)
    assert p < 0.05


def test_target_class_ratio_exact():
    _, tgt = gen_two_moons_shift(n=500, rotation_deg=30, class_ratio_t="3:7", seed=4)
    counts = np.bincount(tgt.labels)
    assert counts[0] == 150 and counts[1] == 350


def test_source_stays_balanced():
    src, _ = gen_two_moons_shift(n=400, rotation_deg=30, class_ratio_t="2:8", seed=4)
    assert np.bincount(src.labels).tolist() == [200, 200]


def test_shared_label_rule_relabels_exactly():
    src, tgt = gen_two_moons_shift(n=300, rotation_deg=40, noise_sigma=0.15,
                                   class_ratio_t="4:6", seed=11)
    assert np.array_equal(two_moons_label_rule(src.X), src.labels)
    assert np.array_equal(two_moons_label_rule(tgt.X, 40), tgt.labels)


def test_generator_is_pure():
    a = gen_two_moons_shift(n=80, rotation_deg=15, seed=3)
    b = gen_two_moons_shift(n=80, rotation_deg=15, seed=3)
    for x, y in zip(a, b):
        assert np.array_equal(x.X, y.X)
        assert np.array_equal(x.labels, y.labels)


def test_two_moons_contract_errors():
    with pytest.raises(ContractError):
        gen_two_moons_shift(n=2)
    with pytest.raises(ContractError):
        gen_two_moons_shift(rotation_deg=90)
    with pytest.raises(ContractError):
        gen_two_moons_shift(class_ratio_t="0:7")
    with pytest.raises(ContractError):
        gen_two_moons_shift(class_ratio_t="7:0")


# ---------------------------------------------------------------------
# the shared-label mode feeds the assumption-1 check
# ---------------------------------------------------------------------

def test_shared_label_mode_passes_assumption1():
    src, tgt = gen_two_moons_shift(n=200, rotation_deg=30, seed=13)
    # pair one source sample to each target sample with a shared label,
    # then tabulate (source symbol, target symbol, label) frequencies
    # using the deterministic rule labels as the discrete symbols
    sym_s = two_moons_label_rule(src.X)
    sym_t = two_moons_label_rule(tgt.X, 30)
    table = np.zeros((2, 2, 2))
    by_label = {c: np.where(sym_s == c)[0] for c in (0, 1)}
    for i, y in enumerate(tgt.labels):
        j = by_label[y][i % len(by_label[y])]
        table[sym_s[j], sym_t[i], y] += 1
    t = table / table.sum()
    # Assumption 1: either side determines the label, I(X_s;Y) = I(X_t;Y)
    # = H(Y); H(Y) is I(Y;Y), the information of the diagonal table
    h = mutual_information(np.diag(t.sum(axis=(0, 1))))
    assert h > 0
    assert mutual_information(t.sum(axis=1)) == pytest.approx(h, abs=1e-9)
    assert mutual_information(t.sum(axis=0)) == pytest.approx(h, abs=1e-9)


def test_labeled_domain_validation():
    with pytest.raises(ContractError):
        LabeledDomain(np.zeros((3, 2)), np.array([0, 1]))
    with pytest.raises(ContractError):
        LabeledDomain(np.zeros((2, 2)), np.array([0, -1]))
