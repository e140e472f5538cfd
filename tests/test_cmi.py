"""Conditional-MI tests: triple-loop oracle, bound properties of the
contrastive estimator, sampling-rule checks."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftlab.cmi import (
    BilinearScorer,
    ContrastiveBatch,
    DiscreteJoint,
    TabularScorer,
    cnce_estimate,
    cnce_terms,
    contrastive_from_features,
    exact_cmi,
    load_joint,
    optimal_scorer,
    pair_positive,
    sample_contrastive,
    train_scorer,
)
from driftlab.errors import ContractError, NumericError, ParseError
from driftlab.tensorcore import OptimState, SplitMix64, as_tensor, backward
import oracles
from oracles import build_negatives, dense_pair_positive, gathered_score_matrix
from tensorcore_reference import same_bits


def triple_loop_cmi(table):
    """Independent oracle: literal sum over all (x_s, x_t, z) cells."""
    a, b, c = table.shape
    total = 0.0
    for k in range(c):
        pz = sum(table[i][j][k] for i in range(a) for j in range(b))
        if pz == 0:
            continue
        for i in range(a):
            p_sz = sum(table[i][jj][k] for jj in range(b))
            for j in range(b):
                p = table[i][j][k]
                if p == 0:
                    continue
                p_tz = sum(table[ii][j][k] for ii in range(a))
                # P(xt | xs, z) / P(xt | z)
                ratio = (p / p_sz) / (p_tz / pz)
                total += p * math.log(ratio)
    return total


def ln2_joint():
    t = np.zeros((2, 2, 2))
    for z in range(2):
        for x in range(2):
            t[x, x, z] = 0.25
    return DiscreteJoint(t)


def pooled_estimate(scorer, batches):
    """The estimate over sampled chunks, pooled as ``cmi --joint`` does."""
    return float(np.concatenate([cnce_terms(scorer, b) for b in batches]).mean())


def random_joint(rng, shape=(3, 3, 3)):
    t = rng.random(shape) + 1e-3
    return DiscreteJoint(t / t.sum())


def cond_independent_joint(rng, a=3, b=3, c=3):
    pz = rng.random(c) + 0.1
    pz /= pz.sum()
    ps = rng.random((c, a)) + 0.1
    ps /= ps.sum(axis=1, keepdims=True)
    pt = rng.random((c, b)) + 0.1
    pt /= pt.sum(axis=1, keepdims=True)
    return DiscreteJoint(np.einsum("z,za,zb->abz", pz, ps, pt))


# ---------------------------------------------------------------------
# exact_cmi
# ---------------------------------------------------------------------

def test_conditionally_independent_gives_zero():
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert exact_cmi(cond_independent_joint(rng)) == pytest.approx(0.0, abs=1e-12)


def test_perfect_copy_given_z():
    assert exact_cmi(ln2_joint()) == pytest.approx(math.log(2), abs=1e-14)


def test_matches_triple_loop_oracle():
    rng = np.random.default_rng(14)
    for _ in range(20):
        j = random_joint(rng)
        assert exact_cmi(j) == pytest.approx(triple_loop_cmi(j.table), abs=1e-12)


def test_cmi_nonnegative_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        assert exact_cmi(random_joint(rng, (2, 4, 3))) >= 0.0


def test_joint_validation():
    with pytest.raises(ContractError):
        DiscreteJoint(np.full((2, 2, 2), 0.2))
    with pytest.raises(ContractError):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 1.5
        t[0, 0, 1] = -0.5
        DiscreteJoint(t)


# ---------------------------------------------------------------------
# optimal_scorer
# ---------------------------------------------------------------------

def test_optimal_scorer_cond_independent_is_zero_table():
    rng = np.random.default_rng(4)
    sc = optimal_scorer(cond_independent_joint(rng))
    assert np.allclose(sc.table, 0.0, atol=1e-12)


def test_optimal_scorer_ln2_closed_form():
    sc = optimal_scorer(ln2_joint())
    for z in range(2):
        for x in range(2):
            assert sc.table[x, x, z] == pytest.approx(math.log(2), abs=1e-14)
            assert sc.table[x, 1 - x, z] == -30.0


def test_optimal_scorer_converges_to_exact():
    rng = np.random.default_rng(33)
    j = random_joint(rng)
    target = exact_cmi(j)
    batches = sample_contrastive(j, 60000, 512, seed=5, chunk=4000)
    est = pooled_estimate(optimal_scorer(j), batches)
    assert abs(est - target) < 0.05


# ---------------------------------------------------------------------
# cnce_estimate
# ---------------------------------------------------------------------

def test_k1_returns_exact_zero():
    j = ln2_joint()
    batches = sample_contrastive(j, 500, 1, seed=9, chunk=500)
    assert pooled_estimate(optimal_scorer(j), batches) == 0.0


def test_constant_scorer_is_zero():
    j = ln2_joint()
    for k in (2, 7, 64):
        batches = sample_contrastive(j, 2000, k, seed=11, chunk=2000)
        sc = TabularScorer(np.full((2, 2, 2), 1.3))
        assert pooled_estimate(sc, batches) == pytest.approx(0.0, abs=1e-9)


def test_ln2_estimate_within_003():
    j = ln2_joint()
    batches = sample_contrastive(j, 100000, 256, seed=42, chunk=5000)
    est = pooled_estimate(optimal_scorer(j), batches)
    assert abs(est - math.log(2)) < 0.03


def test_pointwise_bound_exact():
    rng = np.random.default_rng(17)
    j = random_joint(rng)
    for k in (2, 16, 128):
        batches = sample_contrastive(j, 4000, k, seed=13, chunk=1000)
        sc = TabularScorer(rng.normal(scale=4.0, size=(3, 3, 3)))
        for b in batches:
            assert np.all(cnce_terms(sc, b) <= math.log(k))


def test_random_scorers_stay_below_exact():
    rng = np.random.default_rng(41)
    j = random_joint(rng)
    target = exact_cmi(j)
    batches = list(sample_contrastive(j, 20000, 64, seed=19, chunk=5000))
    for _ in range(20):
        sc = TabularScorer(rng.normal(size=(3, 3, 3)))
        pooled = np.concatenate([cnce_terms(sc, b) for b in batches])
        se = pooled.std(ddof=1) / math.sqrt(pooled.size)
        assert pooled.mean() <= target + 3 * se


def test_gap_tightens_with_k():
    j = ln2_joint()
    sc = optimal_scorer(j)
    gaps = []
    for k in (2, 8, 32, 128):
        batches = sample_contrastive(j, 40000, k, seed=23, chunk=8000)
        gaps.append(abs(pooled_estimate(sc, batches) - math.log(2)))
    # allow small MC noise between adjacent K values
    for tighter, looser in zip(gaps[1:], gaps[:-1]):
        assert tighter <= looser + 0.01


@pytest.mark.parametrize("n_samples, k, chunk, message", [
    (10, 4, 0, "chunk"), (10, 4, -1, "chunk"),
    (10, 0, 5, "k >= 1"), (0, 4, 5, "at least one sample")])
def test_sampler_checks_arguments_when_called(n_samples, k, chunk, message):
    # the draw is a generator: nothing here iterates it
    with pytest.raises(ContractError, match=message):
        sample_contrastive(ln2_joint(), n_samples, k, seed=0, chunk=chunk)


def test_sampling_and_scoring_memory_stays_below_64_mib():
    # the cmi-joint benchmark's sizes; one (n, k) draw peaked at 93 MiB
    j = random_joint(np.random.default_rng(61))
    sc = optimal_scorer(j)
    tracemalloc.start()
    try:
        pooled_estimate(sc, sample_contrastive(j, 10_000, 512, seed=3, chunk=4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_empty_batches_rejected():
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(ContractError, match="at least one row"):
        cnce_estimate(TabularScorer(np.zeros((2, 2, 2))), ContrastiveBatch(
            sources=empty, anchors=empty,
            candidates=np.zeros((0, 1), dtype=np.int64), z=empty))


def test_contrastive_batch_invariants():
    with pytest.raises(ContractError, match="column 0"):
        ContrastiveBatch(
            sources=np.zeros((2, 3)),
            anchors=np.zeros((2, 3)),
            candidates=np.array([[1, 0], [1, 0]]),
        )
    with pytest.raises(ContractError, match="among negatives"):
        ContrastiveBatch(
            sources=np.zeros((2, 3)),
            anchors=np.zeros((2, 3)),
            candidates=np.array([[0, 0], [1, 0]]),
        )


def test_contrastive_batch_candidates_are_the_indexed_anchors():
    rng = SplitMix64(21)
    zs = rng.normal((4, 3))
    zt = rng.normal((4, 3))
    batch = contrastive_from_features(zs, zt)
    idx = batch.candidates
    for bad in (-3, 4):  # anchors[-3] is anchor 1, the row it replaced
        moved = idx.copy()
        moved[0, 1] = bad
        with pytest.raises(ContractError, match="outside"):
            ContrastiveBatch(sources=batch.sources, anchors=zt,
                             candidates=moved)
    ContrastiveBatch(sources=batch.sources, anchors=zt, candidates=idx.copy())


# ---------------------------------------------------------------------
# pairing rules
# ---------------------------------------------------------------------

def test_identity_pairing():
    z = np.random.default_rng(1).normal(size=(5, 3))
    assert np.array_equal(pair_positive(z, z), np.arange(5))


def test_single_source_row():
    zt = np.random.default_rng(2).normal(size=(4, 3))
    zs = np.zeros((1, 3))
    assert np.array_equal(pair_positive(zt, zs), np.zeros(4, dtype=int))


def test_pairing_matches_exhaustive_table():
    zt = np.array([[0.0, 0.0], [1.0, 1.0], [0.4, 0.6]])
    zs = np.array([[0.0, 0.1], [1.1, 0.9], [0.5, 0.5]])
    expect = []
    for t in zt:
        dists = [((t - s) ** 2).sum() for s in zs]
        expect.append(int(np.argmin(dists)))
    assert np.array_equal(pair_positive(zt, zs), expect)


def test_pairing_tie_breaks_low_index():
    zt = np.array([[0.0, 0.0]])
    zs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert pair_positive(zt, zs)[0] == 0


def test_build_negatives_small_cases():
    assert np.array_equal(build_negatives(0, 2), [1])
    assert np.array_equal(build_negatives(2, 4), [0, 1, 3])


def test_build_negatives_counting_sweep():
    n = 7
    counts = np.zeros(n, dtype=int)
    for i in range(n):
        negs = build_negatives(i, n)
        assert i not in negs
        assert len(negs) == n - 1
        counts[negs] += 1
    assert np.all(counts == n - 1)


def test_build_negatives_rejects_singleton():
    with pytest.raises(ContractError):
        build_negatives(0, 1)


def test_contrastive_from_features_k_equals_n():
    rng = SplitMix64(6)
    zs = rng.normal((5, 3))
    zt = rng.normal((5, 3))
    batch = contrastive_from_features(zs, zt)
    assert batch.candidates.shape == (5, 5)
    assert np.issubdtype(batch.candidates.dtype, np.integer)
    assert np.array_equal(zt[batch.candidates[:, 0]], zt)
    expected = np.stack([np.concatenate([[i], build_negatives(i, 5)])
                         for i in range(5)])
    assert np.array_equal(batch.candidates, expected)
    with pytest.raises(ContractError):
        contrastive_from_features(zs[:1], zt[:1])


# ---------------------------------------------------------------------
# neural scorer
# ---------------------------------------------------------------------

def test_bilinear_graph_matches_numeric():
    rng = SplitMix64(3)
    sc = BilinearScorer(4, rng.spawn(1), hidden=(8,))
    zs = rng.normal((6, 4))
    zt = rng.normal((6, 4))
    batch = contrastive_from_features(zs, zt)
    numeric = cnce_estimate(sc, batch)
    graph = sc.objective_graph(as_tensor(zs[pair_positive(zt, zs)]), as_tensor(zt))
    assert numeric == pytest.approx(float(graph.value), abs=1e-10)
    grads = backward(graph, wrt=sc.parameters())
    assert all(np.all(np.isfinite(g)) for g in grads)


def test_bilinear_terms_respect_bound():
    rng = SplitMix64(15)
    sc = BilinearScorer(3, rng.spawn(2), hidden=(5,))
    zs = rng.normal((8, 3))
    zt = rng.normal((8, 3))
    batch = contrastive_from_features(zs, zt)
    assert np.all(cnce_terms(sc, batch) <= math.log(8))


def nk_row_scores(scorer, batch):
    """Reference scores: the network run on all N*K candidate rows."""
    rows = batch.anchors[batch.candidates]
    n, k, m = rows.shape
    gs = scorer.net.forward(as_tensor(batch.sources)).value
    gc = scorer.net.forward(as_tensor(rows.reshape(n * k, m))).value
    own = (gs * batch.anchors).sum(axis=1)
    cross = (gc.reshape(n, k, -1) * batch.anchors[:, None, :]).sum(axis=2)
    return 0.5 * (own[:, None] + cross)


@given(st.integers(2, 40), st.integers(1, 8),
       st.lists(st.integers(1, 16), min_size=1, max_size=3),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_score_matrix_matches_nk_row_reference(n, m, hidden, seed):
    rng = SplitMix64(seed)
    sc = BilinearScorer(m, rng.spawn(1), hidden=tuple(hidden))
    batch = contrastive_from_features(rng.normal((n, m)), rng.normal((n, m)))
    scores = sc.score_matrix(batch)
    assert np.array_equal(scores, gathered_score_matrix(sc, batch))
    ref = nk_row_scores(sc, batch)
    # A GEMM over N*K rows may round an embedding differently in the last
    # ulp than one over N rows; where own and cross terms cancel, that ulp
    # is large next to the score, so the 1e-12 is relative to the largest.
    np.testing.assert_allclose(scores, ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())


def test_score_matrix_needs_candidate_indices():
    # A feature batch holds candidates as anchor indices; candidate rows
    # (the old (N, K, M) layout) or float indices are refused.
    rng = SplitMix64(22)
    zs = rng.normal((4, 3))
    zt = rng.normal((4, 3))
    idx = contrastive_from_features(zs, zt).candidates
    for bad in (zt[idx], idx.astype(np.float64)):
        with pytest.raises(ContractError, match="indices"):
            ContrastiveBatch(sources=zs, anchors=zt, candidates=bad)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 4),
       st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_pair_positive_equals_dense_oracle(nt, ns, m, seed):
    # Half-unit grid values make exact distance ties common.
    rng = np.random.default_rng(seed)
    zt = rng.integers(-2, 3, size=(nt, m)) / 2
    zs = rng.integers(-2, 3, size=(ns, m)) / 2
    assert np.array_equal(pair_positive(zt, zs), dense_pair_positive(zt, zs))


@pytest.mark.parametrize("m", [1, 3, 8, 16])
@pytest.mark.parametrize("nt,ns", [(257, 190), (700, 333)])
def test_blocked_forms_equal_dense_oracles_across_blocks(nt, ns, m):
    rng = np.random.default_rng([nt, m])
    zt = rng.integers(-4, 5, size=(nt, m)) / 4
    zs = rng.integers(-4, 5, size=(ns, m)) / 4
    assert np.array_equal(pair_positive(zt, zs), dense_pair_positive(zt, zs))
    sc = BilinearScorer(m, SplitMix64(m))
    batch = contrastive_from_features(zs, zt)
    assert np.array_equal(sc.score_matrix(batch),
                          gathered_score_matrix(sc, batch))


def test_cnce_estimate_equals_dense_oracle_at_default_size():
    rng = SplitMix64(24)
    sc = BilinearScorer(8, rng.spawn(1))
    zs = rng.normal((500, 8))
    zt = rng.normal((500, 8))
    idx = np.stack([np.concatenate([[i], build_negatives(i, 500)])
                    for i in range(500)])
    dense = ContrastiveBatch(sources=zs[dense_pair_positive(zt, zs)],
                             anchors=zt, candidates=idx)
    gathered = SimpleNamespace(
        score_matrix=lambda batch: gathered_score_matrix(sc, batch))
    assert (cnce_estimate(sc, contrastive_from_features(zs, zt))
            == cnce_estimate(gathered, dense))


def test_cnce_estimate_memory_stays_below_one_nnm_array():
    n, m = 1000, 8
    rng = SplitMix64(25)
    sc = BilinearScorer(m, rng.spawn(1))
    zs = rng.normal((n, m))
    zt = rng.normal((n, m))
    tracemalloc.start()
    try:
        cnce_estimate(sc, contrastive_from_features(zs, zt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * m * 8


def scorer_batch(seed):
    rng = SplitMix64(seed)
    sc = BilinearScorer(3, rng.spawn(1), hidden=(5,))
    zs = rng.normal((8, 3))
    zt = rng.normal((8, 3))
    return sc, zs[pair_positive(zt, zs)], zt


def test_train_scorer_zero_steps_is_identity():
    sc, paired, zt = scorer_batch(9)
    before = [p.value.copy() for p in sc.parameters()]
    train_scorer(sc, paired, zt, 0, OptimState(sc.parameters()))
    assert all(np.array_equal(a, p.value)
               for a, p in zip(before, sc.parameters()))
    with pytest.raises(ContractError):
        train_scorer(sc, paired, zt, -1, OptimState(sc.parameters()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_scorer_divergence_names_the_step():
    sc, paired, zt = scorer_batch(10)
    with pytest.raises(NumericError, match="step 1"):
        train_scorer(sc, paired, zt, 3,
                     OptimState(sc.parameters(), lr=1e160))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_scorer_gradient_names_its_parameter_and_changes_nothing():
    # A first layer scaled down by 1e-300 and the rest scaled up by
    # 1e78 keep the scores and the objective finite; the first layer's
    # gradient, which the other layers multiply, overflows.
    rng = SplitMix64(5)
    sc = BilinearScorer(3, rng.spawn(1), hidden=(4, 4, 4, 4))
    zs = rng.normal((6, 3))
    zt = rng.normal((6, 3))
    paired = zs[pair_positive(zt, zs)]
    optim = OptimState(sc.parameters())
    train_scorer(sc, paired, zt, 1, optim)
    weights = sc.net.weights()
    weights[0].value = weights[0].value * 1e-300
    for w in weights[1:]:
        w.value = w.value * 1e78
    before = [p.value.copy() for p in sc.parameters()] + [optim.m.copy(), optim.v.copy()]
    with pytest.raises(NumericError, match=r"^scorer training diverged at step 0: "
                       r"non-finite gradient for parameter scorer\.layer0\.w$"):
        train_scorer(sc, paired, zt, 1, optim)
    after = [p.value for p in sc.parameters()] + [optim.m, optim.v]
    assert optim.t == 1
    assert all(map(same_bits, after, before))


# ---------------------------------------------------------------------
# property-based
# ---------------------------------------------------------------------

@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_estimate_below_logk_property(seed):
    rng = np.random.default_rng(seed)
    j = random_joint(rng, (2, 3, 2))
    k = int(rng.integers(2, 12))
    batches = sample_contrastive(j, 200, k, seed=seed, chunk=200)
    sc = TabularScorer(rng.normal(size=(2, 3, 2)))
    assert pooled_estimate(sc, batches) <= math.log(k)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_sampler_hits_only_supported_cells(seed):
    rng = np.random.default_rng(seed)
    t = rng.random((2, 2, 3))
    t[t < 0.5] = 0.0
    if t.sum() == 0:
        t[0, 0, 0] = 1.0
    j = DiscreteJoint(t / t.sum())
    (batch,) = sample_contrastive(j, 300, 4, seed=seed, chunk=300)
    for i in range(300):
        assert j.table[batch.sources[i], batch.anchors[i], batch.z[i]] > 0


@given(st.integers(0, 10 ** 6), st.integers(1, 300), st.integers(1, 8),
       st.integers(1, 400))
@example(seed=0, n_samples=1, k=1, chunk=1)
@example(seed=1, n_samples=1, k=5, chunk=3)
@example(seed=2, n_samples=250, k=1, chunk=100)
@example(seed=4, n_samples=300, k=8, chunk=64)  # a 10-symbol x_t
@settings(max_examples=60, deadline=None)
def test_streamed_draw_equals_one_draw(seed, n_samples, k, chunk):
    rng = np.random.default_rng(seed)
    # x_t alphabets of up to 10 symbols
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 11)), int(rng.integers(1, 4)))
    t = rng.random(shape)
    t[rng.random(shape) < 0.3] = 0.0
    t[:, :, int(rng.integers(shape[2]))] = 0.0  # a z value never drawn
    if t.sum() == 0:
        t[0, 0, -1] = 1.0
    j = DiscreteJoint(t / t.sum())
    streamed = list(sample_contrastive(j, n_samples, k, seed=seed, chunk=chunk))
    whole = oracles.sample_contrastive(j, n_samples, k, seed=seed, chunk=chunk)
    assert len(streamed) == len(whole)
    for got, want in zip(streamed, whole):
        for field in ("sources", "anchors", "candidates", "z"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field
    sc = optimal_scorer(j)
    assert (pooled_estimate(sc, streamed)
            == float(np.concatenate([oracles.cnce_terms(sc, b) for b in whole]).mean()))


def assert_draws_equal(j, n_samples, k, seed, chunk):
    streamed = list(sample_contrastive(j, n_samples, k, seed=seed, chunk=chunk))
    whole = oracles.sample_contrastive(j, n_samples, k, seed=seed, chunk=chunk)
    for got, want in zip(streamed, whole, strict=True):
        assert np.array_equal(got.candidates, want.candidates)
    return np.concatenate([b.candidates[:, 1:] for b in streamed])


def test_counted_draw_where_the_cdf_rounds_above_one():
    # P(x_t | z) = (0.7, 0.2, 0.1, 0) sums to 0.9999999999999999, so the
    # normalized CDF is (0.7, 0.9, 1.0000000000000002, 1.0): not
    # monotone at its last entry
    t = np.zeros((1, 4, 1))
    t[0, :, 0] = [0.7, 0.2, 0.1, 0.0]
    j = DiscreteJoint(t)
    cdf = np.cumsum(t[0, :, 0] / t.sum())
    assert cdf[-2] > 1.0
    negatives = assert_draws_equal(j, 2000, 16, seed=5, chunk=512)
    assert set(np.unique(negatives).tolist()) == {0, 1, 2}


@pytest.mark.parametrize("symbols", [256, 257])
def test_counted_draw_either_side_of_the_uint8_count(symbols):
    # 256 symbols count to at most 255, one more needs a wider count
    t = np.random.default_rng(symbols).random((2, symbols, 3))
    t[:, -1, :] += 1.0  # so that the last symbol is drawn
    j = DiscreteJoint(t / t.sum())
    negatives = assert_draws_equal(j, 200, 128, seed=symbols, chunk=150)
    assert negatives.max() == symbols - 1


@given(st.integers(0, 10 ** 6), st.integers(1, 200), st.integers(1, 12))
@example(seed=0, n=129, k=5)  # two full row blocks and one row
@settings(max_examples=40, deadline=None)
def test_flat_gather_equals_indexed_table(seed, n, k):
    rng = np.random.default_rng(seed)
    a, b, c = (int(d) for d in rng.integers(1, 6, size=3))
    table = rng.normal(size=(a, b, c))
    batch = ContrastiveBatch(sources=rng.integers(a, size=n), anchors=rng.integers(b, size=n),
                             candidates=rng.integers(b, size=(n, k)), z=rng.integers(c, size=n))
    assert np.array_equal(TabularScorer(table).score_matrix(batch),
                          oracles.indexed_table_scores(table, batch))


@pytest.mark.parametrize("field, value, axis", [
    ("candidates", 3, "x_t"), ("candidates", -1, "x_t"), ("z", 4, "z"),
    ("sources", 2, "x_s"), ("sources", -1, "x_s")])
def test_tabular_scores_refuse_symbols_outside_the_table(field, value, axis):
    # a flat index would read another cell instead of raising IndexError
    fields = dict(sources=np.array([0, 1]), anchors=np.array([0, 2]),
                  candidates=np.array([[0, 1], [2, 0]]), z=np.array([0, 3]))
    fields[field] = fields[field].copy()
    fields[field].flat[-1] = value
    with pytest.raises(ContractError, match=f"^{axis} symbol"):
        TabularScorer(np.zeros((2, 3, 4))).score_matrix(ContrastiveBatch(**fields))


@given(st.integers(0, 10 ** 6), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
@settings(max_examples=60, deadline=None)
def test_in_place_exp_keeps_the_terms(seed, rows, k, scale):
    rng = np.random.default_rng(seed)
    s = rng.normal(scale=scale, size=(rows, k))
    s[rng.random((rows, k)) < 0.4] = -30.0  # the optimal scorer's floor
    s[rng.random(rows) < 0.3] = -30.0
    fixed = SimpleNamespace(score_matrix=lambda batch: s)
    assert np.array_equal(cnce_terms(fixed, None), oracles.cnce_terms(fixed, None))


# ---------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------

def test_joint_roundtrip(tmp_path):
    rng = np.random.default_rng(51)
    j = random_joint(rng)
    path = tmp_path / "joint.txt"
    path.write_text("".join(f"{i},{k},{v},{float(p)!r}\n"
                            for (i, k, v), p in np.ndenumerate(j.table)
                            if p > 0))
    back = load_joint(path)
    assert np.allclose(back.table, j.table, atol=1e-15)


def test_joint_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0,0,0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_joint(bad)
    neg = tmp_path / "neg.txt"
    neg.write_text("0,-1,0,1.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_joint(neg)
    unnorm = tmp_path / "unnorm.txt"
    unnorm.write_text("0,0,0,0.4\n")
    with pytest.raises(ContractError):
        load_joint(unnorm)


# ---------------------------------------------------------------------
# closed-form scorer step against the graph
# ---------------------------------------------------------------------

def graph_objective_and_grads(scorer, paired, anchors):
    obj = scorer.objective_graph(as_tensor(paired), as_tensor(anchors))
    return float(obj.value), backward(obj, wrt=scorer.parameters())


def random_scorer_batch(n, m, hidden, seed, zero_units=False):
    """A scorer with nonzero biases and a paired batch; ``zero_units``
    zeroes the first unit of every layer, so its pre-activation is
    exactly 0."""
    rng = SplitMix64(seed)
    sc = BilinearScorer(m, rng.spawn(1), hidden=hidden)
    for p in sc.parameters():
        p.value = p.value + 0.5 * rng.normal(p.value.shape)
        if zero_units:
            p.value[..., 0] = 0.0
    zs = rng.normal((n, m))
    zt = rng.normal((n, m))
    return sc, zs[pair_positive(zt, zs)], zt


@given(st.integers(2, 40), st.integers(1, 16),
       st.lists(st.integers(1, 16), max_size=2), st.booleans(),
       st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_scorer_closed_form_equals_graph_bit_for_bit(n, m, hidden, zero_units, seed):
    sc, paired, zt = random_scorer_batch(n, m, tuple(hidden), seed, zero_units)
    value, grads = sc.objective_and_grads(paired, zt)
    ref_value, ref_grads = graph_objective_and_grads(sc, paired, zt)
    assert value == ref_value
    assert len(grads) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_scorer_closed_form_raises_exactly_when_the_graph_does():
    outcomes = []
    for seed in range(6):
        sc, paired, zt = random_scorer_batch(6, 3, (5, 4), seed)
        base = [p.value.copy() for p in sc.parameters()]
        for k in range(0, 308, 7):
            for p, b in zip(sc.parameters(), base):
                p.value = b * 10.0 ** k
            raised = []
            for fn in (graph_objective_and_grads, BilinearScorer.objective_and_grads):
                try:
                    fn(sc, paired, zt)
                    raised.append(False)
                except NumericError:
                    raised.append(True)
            assert raised[0] == raised[1], (seed, k)
            outcomes.append(raised[0])
    assert any(outcomes) and not all(outcomes)


def test_scorer_closed_form_gradient_matches_finite_differences():
    sc, paired, zt = random_scorer_batch(5, 3, (4,), 12)
    _, grads = sc.objective_and_grads(paired, zt)
    eps, worst = 1e-5, 0.0
    for p, g in zip(sc.parameters(), grads):
        flat = p.value.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + eps
            hi, _ = sc.objective_and_grads(paired, zt)
            flat[j] = keep - eps
            lo, _ = sc.objective_and_grads(paired, zt)
            flat[j] = keep
            central = (hi - lo) / (2 * eps)
            worst = max(worst, abs(g.reshape(-1)[j] - central) / max(1.0, abs(central)))
    assert worst < 1e-4
