"""Acceptance gate: one test per shipped guarantee, pinned tolerances.

Each test below is a single pass/fail line for one release criterion.
They exercise the public API ends-to-end, compare against independent
oracles (scipy LP, scipy rank correlation, longhand scalar references),
and enforce the stated runtime budgets.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.stats import spearmanr

import tensorcore_reference as ref
from driftlab.cmi import (
    DiscreteJoint,
    TabularScorer,
    cnce_terms,
    exact_cmi,
    optimal_scorer,
    pair_positive,
    sample_contrastive,
    BilinearScorer,
)
from driftlab.data import LabeledDomain
from driftlab.dualcritic import (
    Critic,
    dual_objective_graph,
    estimate_alignment_residual,
    gradient_penalty_graph,
    train_critic,
    training_objective_graph,
)
from driftlab.evalstats import (
    BoundInputs,
    bayes_bound,
    emit_report,
    friedman,
    load_ranks,
)
from driftlab.model import cross_entropy_loss, regularizer
from driftlab.ot import (
    CostMatrix,
    DiscreteMeasure,
    ar_wwd_primal,
    containment_check,
    measure_normalize,
    nested_cost,
    w2_dimension,
    wasserstein_exact,
)
from driftlab import dualcritic, pipeline
from driftlab.pipeline import TrainConfig, TrainState, rlglc_objective, run_experiment, train
from driftlab.tensorcore import (
    MLP,
    OptimState,
    SplitMix64,
    as_tensor,
    finite_diff_check,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"

# chi-square form, F form, and F degrees of freedom per benchmark table
PUBLISHED_STATS = {
    "office31": (83.58, 3.97, (30, 180)),
    "officehome": (254.62, 31.7, (27, 324)),
    "visda": (244.69, 36.56, (25, 300)),
    "domainnet": (249.94, 83.17, (22, 264)),
    "digits": (69.77, 11.48, (22, 66)),
}


def test_criterion_1_rank_statistics_reproduction():
    t0 = time.perf_counter()
    for name, (chi2, f_stat, dof) in PUBLISHED_STATS.items():
        rnk = load_ranks(FIXTURES / f"{name}_ranks.csv")
        fr = friedman(rnk, averages="reported")
        assert fr["chi2"] == pytest.approx(chi2, abs=1.0), name
        assert fr["f_stat"] == pytest.approx(f_stat, abs=0.5), name
        assert (fr["dof_between"], fr["dof_residual"]) == dof, name
    assert time.perf_counter() - t0 < 1.0


def _pinned_joint():
    table = np.random.default_rng(7).random((3, 3, 3))
    return DiscreteJoint(table / table.sum())


def _pooled_terms(scorer, joint, n_samples, k, seed):
    batches = sample_contrastive(joint, n_samples, k, seed, chunk=4096)
    return np.concatenate([cnce_terms(scorer, b) for b in batches])


def test_criterion_2_contrastive_bound_properties():
    t0 = time.perf_counter()
    joint = _pinned_joint()
    exact = exact_cmi(joint)
    scorer = optimal_scorer(joint)

    # (a) optimal scorer, many candidates: estimate lands on the true value
    terms_big = _pooled_terms(scorer, joint, 100_000, 512, seed=11)
    assert abs(terms_big.mean() - exact) <= 0.05
    assert np.all(terms_big <= math.log(512))

    # (b) the candidate-count gap shrinks monotonically, up to sampling noise
    gaps, ses = [], []
    for k in (2, 8, 32, 128):
        terms = _pooled_terms(scorer, joint, 20_000, k, seed=100 + k)
        assert np.all(terms <= math.log(k))
        gaps.append(exact - terms.mean())
        ses.append(terms.std(ddof=1) / math.sqrt(terms.size))
    gaps.append(exact - terms_big.mean())
    ses.append(terms_big.std(ddof=1) / math.sqrt(terms_big.size))
    for i in range(len(gaps) - 1):
        slack = 2.0 * math.hypot(ses[i], ses[i + 1])
        assert gaps[i + 1] <= gaps[i] + slack

    # (c) arbitrary scorers never beat the true value beyond noise
    rng = np.random.default_rng(33)
    for i in range(100):
        rough = TabularScorer(rng.normal(size=(3, 3, 3)))
        terms = _pooled_terms(rough, joint, 4_000, 32, seed=200 + i)
        se = terms.std(ddof=1) / math.sqrt(terms.size)
        assert terms.mean() <= exact + 3.0 * se

    assert time.perf_counter() - t0 < 60.0


def _lp_relaxed(supplies, demands, costs):
    """Independent oracle: scipy HiGHS on row sums <= supplies,
    column sums == demands."""
    n, m = costs.shape
    A_ub = np.zeros((n, n * m))
    for i in range(n):
        A_ub[i, i * m:(i + 1) * m] = 1.0
    A_eq = np.zeros((m, n * m))
    for j in range(m):
        A_eq[j, j::m] = 1.0
    res = linprog(costs.reshape(-1), A_ub=A_ub, b_ub=supplies,
                  A_eq=A_eq, b_eq=demands, bounds=[(0, None)] * (n * m),
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def _contained_weights(source, beta, rng):
    """A simplex vector dominated by source/(1-beta), by water-filling."""
    caps = source / (1.0 - beta)
    target = rng.dirichlet(np.ones(source.size))
    for _ in range(200):
        clipped = np.minimum(target, caps * (1.0 - 1e-9))
        deficit = 1.0 - clipped.sum()
        if deficit <= 1e-15:
            return clipped / clipped.sum()
        room = caps - clipped
        target = clipped + deficit * room / room.sum()
    raise AssertionError("water-filling failed to converge")


def test_criterion_3_relaxed_transport_containment():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    for case in range(100):
        n = int(rng.integers(2, 9))
        beta = float(rng.uniform(0.05, 0.9))
        source = rng.dirichlet(np.ones(n))
        if case % 2 == 0:
            target = _contained_weights(source, beta, rng)
        else:
            target = rng.dirichlet(np.ones(n))
        costs = rng.random((n, n)) + 0.1
        np.fill_diagonal(costs, 0.0)
        atoms = np.arange(n, dtype=np.float64).reshape(-1, 1)
        mu = DiscreteMeasure(atoms, source)
        nu = DiscreteMeasure(atoms, target)
        value, plan = ar_wwd_primal(mu, nu, CostMatrix(costs), beta)
        contained = containment_check(mu, nu, beta)
        assert (value <= 1e-12) == contained, f"case {case}"
        if value > 1e-12:
            oracle = _lp_relaxed(source / (1.0 - beta), target, costs)
            assert abs(value - oracle) <= 1e-6, f"case {case}"
    assert time.perf_counter() - t0 < 30.0


def test_criterion_4_nested_metric_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    for case in range(200):
        na = int(rng.integers(1, 13))
        nb = int(rng.integers(1, 13))
        a = rng.normal(size=na)
        b = rng.normal(size=nb)
        mu = DiscreteMeasure(a, rng.dirichlet(np.ones(na)))
        nu = DiscreteMeasure(b, rng.dirichlet(np.ones(nb)))
        fast = w2_dimension(mu, nu)
        cost = CostMatrix(np.abs(a[:, None] - b[None, :]))
        generic, _ = wasserstein_exact(mu, nu, cost, p=2.0)
        assert abs(fast - generic) <= 1e-8, f"case {case}"
    assert time.perf_counter() - t0 < 10.0


def _index_measure(n):
    atoms = np.arange(n, dtype=np.float64).reshape(-1, 1)
    return DiscreteMeasure(atoms, np.full(n, 1.0 / n))


def test_criterion_5_dual_primal_consistency():
    beta = 0.4
    rng = np.random.default_rng(0)
    base = rng.normal(size=(12, 5))
    instances = []
    # containment instances: the target cloud is a permuted copy
    for perm_seed in (1, 2):
        prm = np.random.default_rng(perm_seed).permutation(12)
        instances.append((base.copy(), base[prm].copy()))
    # graded profile shifts along one feature dimension
    for t in (1.0, 1.5, 2.0, 2.6, 3.3, 4.2, 5.3, 6.5):
        zt = base.copy()
        zt[:, 0] += t
        instances.append((base.copy(), zt))

    primal, residual = [], []
    for idx, (zs, zt) in enumerate(instances):
        cost = nested_cost(zs, zt)
        value, _ = ar_wwd_primal(_index_measure(12), _index_measure(12),
                                 cost, beta)
        primal.append(float(value))
        fs = measure_normalize(zs)
        ft = measure_normalize(zt)
        critic = Critic(5, SplitMix64(100 + idx), lam=0.5, beta=beta)
        optim = OptimState(critic.parameters(), lr=5e-3)
        train_critic(critic, fs, ft, 150, optim)
        residual.append(float(estimate_alignment_residual(critic, fs, ft)))

    rho = float(spearmanr(primal, residual).statistic)
    assert rho >= 0.9
    assert abs(residual[0]) <= 0.05
    assert abs(residual[1]) <= 0.05


def test_criterion_6_gradient_integrity():
    rng = SplitMix64(61)

    psi = MLP([3, 3, 2], rng.spawn(1), name="psi")
    feats = np.array([[0.2, -0.4, 1.1], [0.9, 0.3, -0.7]])
    labels = np.array([0, 1])
    err = finite_diff_check(
        lambda: cross_entropy_loss(psi, as_tensor(feats), labels),
        psi.parameters())
    assert err < 1e-4

    critic = Critic(3, rng.spawn(2), hidden=(4,), lam=0.7, beta=0.4)
    zs = measure_normalize(np.random.default_rng(3).normal(size=(4, 3)))
    zt = measure_normalize(np.random.default_rng(4).normal(size=(4, 3)))
    err = finite_diff_check(
        lambda: dual_objective_graph(critic, as_tensor(zs), as_tensor(zt)),
        critic.parameters())
    assert err < 1e-4

    err = finite_diff_check(
        lambda: gradient_penalty_graph(critic, as_tensor(zs)),
        critic.parameters())
    assert err < 1e-4

    scorer = BilinearScorer(3, rng.spawn(5), hidden=(4,))
    anchors = np.random.default_rng(6).normal(size=(4, 3))
    paired = np.random.default_rng(8).normal(size=(4, 3))
    err = finite_diff_check(
        lambda: scorer.objective_graph(as_tensor(paired), as_tensor(anchors)),
        scorer.parameters())
    assert err < 1e-4

    net = MLP([2, 4, 3], rng.spawn(9), name="phi")
    err = finite_diff_check(lambda: regularizer([net], 0.7), net.parameters())
    assert err < 1e-4

    # composed objective on a two-sample fixture
    cfg = TrainConfig(n_per_domain=8, batch_size=2, feature_dim=3,
                      epochs=0, target_ratio="5:5")
    state = TrainState(
        phi=MLP([2, 4, 3], rng.spawn(10), name="phi"),
        psi=MLP([3, 3, 2], rng.spawn(11), name="psi"),
        critic=Critic(3, rng.spawn(12), hidden=(4,), lam=cfg.lam,
                      beta=cfg.beta),
        scorer=BilinearScorer(3, rng.spawn(13), hidden=(4,)),
        optim_model=None, optim_critic=None, optim_scorer=None,
        rng=rng.spawn(14),
    )
    bs = LabeledDomain(np.array([[0.0, 1.0], [2.0, -1.0]]),
                       np.array([0, 1]))
    bt = LabeledDomain(np.array([[1.5, 0.5], [-0.5, -1.5]]),
                       np.array([0, 1]))
    params = state.phi.parameters() + state.psi.parameters()

    def objective():
        zs, zt = state.phi.forward(bs.X), state.phi.forward(bt.X)
        pairing = pair_positive(zt.value, zs.value)
        return rlglc_objective(state, zs, zt, pairing, bs.labels, cfg)[0]

    err = finite_diff_check(objective, params)
    assert err < 1e-3


# training setup for the desk-scale adaptation check; frozen after a
# small screening study, see notes in the repository history
ADAPT_SETTINGS = dict(
    n_per_domain=200, batch_size=20, epochs=60, rotation_deg=30.0,
    target_ratio="3:7", alpha=0.01, lam=10.0, feature_dim=4,
    lr_model=1e-3, lr_scorer=5e-3, lr_critic=3e-3,
    critic_steps=5, scorer_steps=15,
)

ADAPT_VARIANTS = {
    "full": {},
    "global_only": {"use_local": False},
    "source_only": {"use_global": False, "use_local": False},
}


@pytest.fixture(scope="module")
def adaptation_runs():
    t0 = time.perf_counter()
    accs = {name: [] for name in ADAPT_VARIANTS}
    seed0_full = None
    for seed in range(5):
        for name, toggles in ADAPT_VARIANTS.items():
            cfg = TrainConfig(seed=seed, **ADAPT_SETTINGS, **toggles)
            report = run_experiment(cfg)
            accs[name].append(report["final"]["target_acc"])
            if name == "full" and seed == 0:
                seed0_full = report
    return {
        "accs": accs,
        "seed0_full": seed0_full,
        "elapsed": time.perf_counter() - t0,
    }


def graph_ascend(params, optim, steps, objective_graph):
    """Reference helper loop: the unpruned backward on the Tensor graph
    and the per-tensor Adam each step."""
    for _ in range(steps):
        ref.step(optim, [-g for g in ref.backward(objective_graph(), wrt=params)])


def graph_train_critic(critic, Zs, Zt, steps, optim):
    graph_ascend(critic.parameters(), optim, steps,
                 lambda: training_objective_graph(critic, as_tensor(Zs), as_tensor(Zt)))


def graph_train_scorer(scorer, paired, anchors, steps, optim):
    graph_ascend(scorer.parameters(), optim, steps,
                 lambda: scorer.objective_graph(as_tensor(paired), as_tensor(anchors)))


def test_criterion_7_closed_forms_train_like_the_graph(monkeypatch):
    # Criterion 7's margins depend on the last bits of every update, so
    # the closed-form helper steps, the flat-buffer Adam, the pruned
    # backward and the one-node network forward must reproduce the graph
    # loops on the reference optimizer, backward and per-layer chain
    # exactly; a drift fails here in seconds instead of moving the
    # 600 s fixture. The chain keeps the two sides from sharing any
    # network gradient code.
    cfg = TrainConfig(seed=0, **{**ADAPT_SETTINGS, "epochs": 2})
    fast, report = train(cfg)
    monkeypatch.setattr(pipeline, "train_critic", graph_train_critic)
    monkeypatch.setattr(pipeline, "train_scorer", graph_train_scorer)
    monkeypatch.setattr(pipeline, "OptimState", ref.OptimState)
    monkeypatch.setattr(pipeline, "step", ref.step)
    monkeypatch.setattr(pipeline, "backward", ref.backward)
    monkeypatch.setattr(dualcritic, "backward", ref.backward)
    monkeypatch.setattr(MLP, "forward", ref.mlp_chain)
    slow, ref_report = train(cfg)
    assert isinstance(slow.optim_model, ref.OptimState)
    for name in ("phi", "psi", "critic", "scorer"):
        got = getattr(fast, name).parameters()
        want = getattr(slow, name).parameters()
        for p, q in zip(got, want):
            assert np.array_equal(p.value, q.value), p.name
    assert emit_report(report) == emit_report(ref_report)


def test_criterion_7_desk_scale_adaptation(adaptation_runs):
    means = {name: float(np.mean(vals))
             for name, vals in adaptation_runs["accs"].items()}
    assert means["full"] >= means["source_only"] + 10.0, means
    assert means["full"] >= means["global_only"] + 2.0, means
    assert adaptation_runs["elapsed"] < 600.0


def test_criterion_8_bayes_bound_calculator():
    h2 = math.log(2.0)
    out = bayes_bound(BoundInputs(h2, 0.0, 0.0, 0.0, 0.0, 0.0, 2))
    for value in out.values():
        assert value == pytest.approx(0.5, abs=1e-9)

    out = bayes_bound(BoundInputs(h2, h2, h2, h2, h2, 0.0, 2))
    for value in out.values():
        assert value == pytest.approx(0.0, abs=1e-9)

    out = bayes_bound(BoundInputs(math.log(3.0), 0.2, 0.2, 0.2, 0.2, 0.0, 3))
    for value in out.values():
        assert value == pytest.approx(0.5928657472799435, abs=1e-9)

    rng = np.random.default_rng(41)
    for _ in range(1000):
        inputs = BoundInputs(
            label_entropy=float(rng.uniform(0.0, 2.0)),
            source_specific_info=float(rng.uniform(0.0, 3.0)),
            target_specific_info=float(rng.uniform(0.0, 3.0)),
            cross_info_given_source=float(rng.uniform(0.0, 3.0)),
            cross_info_given_target=float(rng.uniform(0.0, 3.0)),
            delta=float(rng.uniform(0.0, 0.5)),
            num_classes=int(rng.integers(2, 11)),
        )
        out = bayes_bound(inputs)
        unified = out["unified"]
        for key in ("source_specific", "target_specific",
                    "cross_given_source", "cross_given_target"):
            assert unified <= out[key]


def test_criterion_9_determinism(adaptation_runs):
    first = adaptation_runs["seed0_full"]
    cfg = TrainConfig(seed=0, **ADAPT_SETTINGS)
    again = run_experiment(cfg)
    assert emit_report(again) == emit_report(first)
