"""Critic tests: closed-form objective values, the slope-penalty
finite-difference oracle, and training behavior."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tensorcore_reference as ref
from driftlab.dualcritic import (
    _input_gradient_graph,
    Critic,
    dual_objective,
    dual_objective_graph,
    estimate_alignment_residual,
    gradient_penalty_graph,
    measure_normalize,
    measure_normalize_graph,
    train_critic,
    training_objective_and_grads,
    training_objective_graph,
)
from driftlab.errors import ContractError, NumericError
from driftlab.tensorcore import (
    OptimState,
    SplitMix64,
    as_tensor,
    backward,
    finite_diff_check,
    sigmoid,
    tsum,
)


def zeroed_critic(dim, beta, lam=10.0, hidden=(4,)):
    c = Critic(dim, SplitMix64(0), hidden=hidden, lam=lam, beta=beta)
    for p in c.parameters():
        p.value[...] = 0.0
    return c


@pytest.fixture
def batches():
    rng = SplitMix64(11)
    return (measure_normalize(rng.normal((5, 3))),
            measure_normalize(rng.normal((7, 3))))


# ---------------------------------------------------------------------
# dual_objective
# ---------------------------------------------------------------------

def test_constant_critic_gives_beta_scaled_constant(batches):
    # all-zero weights squash to f = 0.5 everywhere
    c = zeroed_critic(3, beta=0.4)
    assert dual_objective(c, *batches) == pytest.approx(0.4 * 0.5, abs=1e-12)


def test_constant_critic_beta_zero_cancels(batches):
    c = zeroed_critic(3, beta=0.5)
    c.beta = 0.0
    assert dual_objective(c, *batches) == pytest.approx(0.0, abs=1e-15)


def test_hand_evaluated_first_coordinate_fixture():
    # single linear layer picking the first coordinate, then the squash
    c = Critic(2, SplitMix64(3), hidden=(), lam=0.0, beta=0.25)
    c.net.layers[0].w.value[...] = np.array([[1.0], [0.0]])
    c.net.layers[0].b.value[...] = 0.0
    A = np.array([[0.2, 0.8], [0.6, 0.4]])
    B = np.array([[0.9, 0.1], [0.5, 0.5]])
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    expect = (sig(0.2) + sig(0.6)) / 2 - 0.75 * (sig(0.9) + sig(0.5)) / 2
    assert dual_objective(c, A, B) == pytest.approx(expect, abs=1e-12)


def test_dual_invariant_under_permutation(batches):
    rng = SplitMix64(21)
    c = Critic(3, rng, hidden=(6,), lam=1.0, beta=0.3)
    Zs, Zt = batches
    base = dual_objective(c, Zs, Zt)
    perm_s = Zs[rng.permutation(len(Zs))]
    perm_t = Zt[rng.permutation(len(Zt))]
    assert dual_objective(c, perm_s, perm_t) == pytest.approx(base, abs=1e-12)


def test_critic_output_bounded():
    rng = SplitMix64(5)
    c = Critic(4, rng, hidden=(8, 8), lam=1.0, beta=0.2)
    wild = rng.normal((50, 4)) * 100.0
    out = sigmoid(c.net.forward(as_tensor(wild))).value
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_critic_parameter_validation():
    with pytest.raises(ContractError):
        Critic(3, SplitMix64(0), lam=-1.0)
    with pytest.raises(ContractError):
        Critic(3, SplitMix64(0), beta=1.0)


# ---------------------------------------------------------------------
# gradient_penalty_graph
# ---------------------------------------------------------------------

def test_constant_critic_penalty_is_half_lambda(batches):
    c = zeroed_critic(3, beta=0.4, lam=10.0)
    pen = gradient_penalty_graph(c, as_tensor(batches[0])).item()
    assert pen == pytest.approx(5.0, abs=1e-12)


def test_linear_slope_matches_closed_form():
    # One sigmoid unit with every weight s and bias -s: on the uniform
    # batch its pre-activation is 0, where the sigmoid's slope is 1/4,
    # so every input gradient is s/4.
    M = 4
    uni = as_tensor(np.full((3, M), 1.0 / M))
    for s in (1.0, 2.0, 4.0 * np.sqrt(M)):
        c = Critic(M, SplitMix64(2), hidden=(), lam=2.0, beta=0.3)
        c.net.layers[0].w.value[...] = s
        c.net.layers[0].b.value[...] = -s
        expect = 1.0 * ((s / 4.0) ** 2 / M - 1.0) ** 2  # lam/2 times the mean term
        pen = gradient_penalty_graph(c, uni).item()
        assert pen == pytest.approx(expect, abs=1e-10)
    # the 4 sqrt(M) slope is exactly the zero of the penalty
    assert pen == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("row", [[-1000.0, -800.0], [-746.0, -746.0],
                                 [1e308, 1e308]])
def test_measure_normalize_refuses_a_row_without_a_measure(row):
    # Softplus underflows to 0 below about -745, so the first two rows
    # would divide 0 by 0 into NaN; the last sums to inf and would
    # normalize to a measure of mass 0.
    with pytest.raises(NumericError, match="^measure normalization: "
                       "a row's weights sum to 0 or overflow$"):
        measure_normalize(np.array([[0.5, 1.0], row]))


def test_penalty_nonnegative_random():
    rng = SplitMix64(7)
    for i in range(5):
        c = Critic(3, rng.spawn(i), hidden=(6, 5), lam=3.0, beta=0.4)
        batch = measure_normalize(rng.normal((6, 3)))
        assert gradient_penalty_graph(c, as_tensor(batch)).item() >= 0.0


def test_penalty_gradient_matches_finite_differences():
    rng = SplitMix64(11)
    c = Critic(3, rng.spawn(4), hidden=(5, 4), lam=3.0, beta=0.4)
    batch = measure_normalize(rng.normal((4, 3)))
    err = finite_diff_check(
        lambda: gradient_penalty_graph(c, as_tensor(batch)), c.parameters())
    assert err < 1e-4


def test_full_objective_gradient_matches_finite_differences():
    rng = SplitMix64(11)
    c = Critic(3, rng.spawn(4), hidden=(5, 4), lam=3.0, beta=0.4)
    b1 = measure_normalize(rng.normal((4, 3)))
    b2 = measure_normalize(rng.normal((3, 3)))
    err = finite_diff_check(
        lambda: training_objective_graph(c, as_tensor(b1), as_tensor(b2)),
        c.parameters())
    assert err < 1e-4


# ---------------------------------------------------------------------
# train_critic
# ---------------------------------------------------------------------

def test_zero_steps_leaves_parameters_untouched(batches):
    c = Critic(3, SplitMix64(9), hidden=(6,), lam=1.0, beta=0.3)
    before = [p.value.copy() for p in c.parameters()]
    train_critic(c, *batches, steps=0,
                 optim=OptimState(c.parameters(), lr=1e-3))
    for p, b in zip(c.parameters(), before):
        assert np.array_equal(p.value, b)


def test_identical_batches_beta_zero_stays_near_zero():
    for seed in range(5):
        rng = SplitMix64(seed)
        Z = measure_normalize(rng.normal((16, 3)))
        c = Critic(3, rng.spawn(99), hidden=(8,), lam=1.0, beta=0.5)
        c.beta = 0.0
        train_critic(c, Z, Z, steps=25,
                     optim=OptimState(c.parameters(), lr=3e-3))
        assert -0.05 <= dual_objective(c, Z, Z) <= 0.05


def test_separated_batches_objective_increases():
    rng = SplitMix64(13)
    S = measure_normalize(rng.normal((20, 2)) + np.array([3.0, 0.0]))
    T = measure_normalize(rng.normal((20, 2)) + np.array([-3.0, 0.0]))
    c = Critic(2, rng.spawn(5), hidden=(8, 8), lam=1.0, beta=0.3)
    before = float(training_objective_graph(c, as_tensor(S), as_tensor(T)).value)
    train_critic(c, S, T, steps=40, optim=OptimState(c.parameters(), lr=5e-3))
    after = float(training_objective_graph(c, as_tensor(S), as_tensor(T)).value)
    assert after > before


def test_training_is_deterministic():
    def run():
        rng = SplitMix64(31)
        S = measure_normalize(rng.normal((10, 3)))
        T = measure_normalize(rng.normal((10, 3)) + 1.0)
        c = Critic(3, rng.spawn(1), hidden=(6,), lam=2.0, beta=0.4)
        train_critic(c, S, T, steps=15,
                     optim=OptimState(c.parameters(), lr=1e-3))
        return [p.value.copy() for p in c.parameters()]

    a, b = run(), run()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reports_step_index(batches):
    c = Critic(3, SplitMix64(17), hidden=(4,), lam=1.0, beta=0.3)
    with pytest.raises(NumericError, match="step"):
        train_critic(c, *batches, steps=3,
                     optim=OptimState(c.parameters(), lr=1e160))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_gradient_names_its_parameter_and_changes_nothing():
    # A penalty weight of 1e308 keeps the objective finite but overflows
    # the weight gradients; step names the first and moves nothing.
    rng = SplitMix64(3)
    c = Critic(3, rng.spawn(1), hidden=(4, 4), lam=10.0)
    for w in c.net.weights():
        w.value = w.value * 3.0
    zs = measure_normalize(rng.normal((6, 3)))
    zt = measure_normalize(rng.normal((5, 3)))
    optim = OptimState(c.parameters())
    train_critic(c, zs, zt, steps=1, optim=optim)
    before = [p.value.copy() for p in c.parameters()] + [optim.m.copy(), optim.v.copy()]
    c.lam = 1e308
    with pytest.raises(NumericError, match=r"^critic training diverged at step 0: "
                       r"non-finite gradient for parameter critic\.layer0\.w$"):
        train_critic(c, zs, zt, steps=1, optim=optim)
    after = [p.value for p in c.parameters()] + [optim.m, optim.v]
    assert optim.t == 1
    assert all(map(ref.same_bits, after, before))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_squared_gradient_fails_the_critic_step():
    # A feature of 1e300 under a zero weight row keeps every gradient
    # finite, but the first layer's weight gradient squares past the
    # float range; Adam's second moment once went inf there for good
    # and froze the weight, with no error.
    c = Critic(2, SplitMix64(3), hidden=(4, 4))
    c.net.layers[0].w.value[0] = 0.0
    zs = np.abs(SplitMix64(4).normal((6, 2)))
    zs[0, 0] = 1e300
    zt = np.abs(SplitMix64(5).normal((6, 2)))
    optim = OptimState(c.parameters(), lr=3e-3)
    before = [p.value.copy() for p in c.parameters()]
    with pytest.raises(NumericError, match=r"^critic training diverged at step 0: "
                       r"non-finite Adam second moment for parameter critic\.layer0\.w$"):
        train_critic(c, zs, zt, steps=3, optim=optim)
    assert optim.t == 0
    assert all(map(ref.same_bits, [p.value for p in c.parameters()], before))
    assert not optim.m.any() and not optim.v.any()


def test_negative_steps_rejected(batches):
    c = Critic(3, SplitMix64(1), hidden=(4,), lam=1.0, beta=0.3)
    with pytest.raises(ContractError):
        train_critic(c, *batches, steps=-1,
                     optim=OptimState(c.parameters(), lr=1e-3))


# ---------------------------------------------------------------------
# residual diagnostic
# ---------------------------------------------------------------------

def test_constant_one_critic_gives_zero_residual(batches):
    c = zeroed_critic(3, beta=0.35)
    # push the output bias far positive so the squash saturates at 1
    c.net.layers[-1].b.value[...] = 60.0
    assert estimate_alignment_residual(c, *batches) == pytest.approx(0.0, abs=1e-12)


def test_measure_normalize_graph_matches_numeric():
    rng = SplitMix64(19)
    raw = rng.normal((6, 4))
    graph = measure_normalize_graph(as_tensor(raw))
    assert np.allclose(graph.value, measure_normalize(raw), atol=1e-12)
    assert np.allclose(graph.value.sum(axis=1), 1.0, atol=1e-12)


def test_dual_graph_matches_numeric(batches):
    c = Critic(3, SplitMix64(23), hidden=(5,), lam=1.0, beta=0.45)
    Zs, Zt = batches
    g = dual_objective_graph(c, as_tensor(Zs), as_tensor(Zt))
    assert float(g.value) == pytest.approx(dual_objective(c, Zs, Zt), abs=1e-14)


# ---------------------------------------------------------------------
# closed form against the graph
# ---------------------------------------------------------------------

def graph_objective_and_grads(critic, zs, zt):
    obj = training_objective_graph(critic, as_tensor(zs), as_tensor(zt))
    return float(obj.value), backward(obj, wrt=critic.parameters())


def random_critic(m, hidden, lam, seed, zero_units=False):
    """A critic with nonzero biases; ``zero_units`` zeroes the first unit
    of every layer, so its pre-activation is exactly 0."""
    rng = SplitMix64(seed)
    c = Critic(m, rng.spawn(1), hidden=hidden, lam=lam, beta=0.05 + 0.9 * rng.uniform())
    for p in c.parameters():
        p.value = p.value + 0.5 * rng.normal(p.value.shape)
        if zero_units:
            p.value[..., 0] = 0.0
    return c


@given(st.integers(1, 16), st.lists(st.integers(1, 16), max_size=2),
       st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([0.0, 10.0]) | st.floats(0.0, 20.0),
       st.booleans(), st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_closed_form_equals_graph_bit_for_bit(m, hidden, ns, nt, lam, zero_units, seed):
    c = random_critic(m, tuple(hidden), lam, seed, zero_units)
    rng = SplitMix64(seed).spawn(2)
    zs = measure_normalize(rng.normal((ns, m)))
    zt = measure_normalize(rng.normal((nt, m)))
    value, grads = training_objective_and_grads(c, zs, zt)
    ref_value, ref_grads = graph_objective_and_grads(c, zs, zt)
    assert value == ref_value
    assert len(grads) == len(ref_grads)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g, ref)


@given(st.integers(1, 8), st.lists(st.integers(1, 8), max_size=2),
       st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 20.0),
       st.booleans(), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_backward_equals_reference_on_critic_graphs(m, hidden, ns, nt, lam,
                                                    zero_units, seed):
    # The pruned backward against the unpruned one: the input gradient
    # of the critic, then the critic gradients of the penalty and of the
    # full objective.
    c = random_critic(m, tuple(hidden), lam, seed, zero_units)
    params = c.parameters()
    rng = SplitMix64(seed).spawn(2)
    zs = measure_normalize(rng.normal((ns, m)))
    zt = measure_normalize(rng.normal((nt, m)))
    z = as_tensor(zs)
    out = tsum(sigmoid(c.net.forward(z)))
    assert ref.same_bits(backward(out, wrt=[z])[0], ref.backward(out, wrt=[z])[0])
    for graph in (gradient_penalty_graph(c, as_tensor(zt)),
                  training_objective_graph(c, as_tensor(zs), as_tensor(zt))):
        got = backward(graph, wrt=params)
        want = ref.backward(graph, wrt=params)
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert ref.same_bits(g, r)


@given(st.integers(1, 8), st.lists(st.integers(1, 8), max_size=3),
       st.integers(1, 40), st.booleans(), st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_input_gradient_graph_equals_backward(m, hidden, n, zero_units, seed):
    # The penalty's explicit input-gradient pass has the bits of a
    # first-order backward of the summed critic output into its input.
    c = random_critic(m, tuple(hidden), 10.0, seed, zero_units)
    z = as_tensor(measure_normalize(SplitMix64(seed).spawn(2).normal((n, m))))
    (want,) = backward(tsum(sigmoid(c.net.forward(z))), [z])
    assert ref.same_bits(_input_gradient_graph(c, z).value, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_closed_form_raises_exactly_when_the_graph_does():
    outcomes = []
    for seed in range(6):
        c = random_critic(3, (5, 4), 10.0, seed)
        rng = SplitMix64(seed).spawn(2)
        zs = measure_normalize(rng.normal((7, 3)))
        zt = measure_normalize(rng.normal((6, 3)))
        base = [p.value.copy() for p in c.parameters()]
        for k in range(0, 308, 7):
            for p, b in zip(c.parameters(), base):
                p.value = b * 10.0 ** k
            raised = []
            for fn in (graph_objective_and_grads, training_objective_and_grads):
                try:
                    fn(c, zs, zt)
                    raised.append(False)
                except NumericError:
                    raised.append(True)
            assert raised[0] == raised[1], (seed, k)
            outcomes.append(raised[0])
    assert any(outcomes) and not all(outcomes)


def test_closed_form_gradient_matches_finite_differences():
    c = random_critic(3, (5, 4), 3.0, 11)
    rng = SplitMix64(11).spawn(2)
    b1 = measure_normalize(rng.normal((4, 3)))
    b2 = measure_normalize(rng.normal((3, 3)))
    _, grads = training_objective_and_grads(c, b1, b2)
    eps, worst = 1e-5, 0.0
    for p, g in zip(c.parameters(), grads):
        flat = p.value.reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + eps
            hi, _ = training_objective_and_grads(c, b1, b2)
            flat[j] = keep - eps
            lo, _ = training_objective_and_grads(c, b1, b2)
            flat[j] = keep
            central = (hi - lo) / (2 * eps)
            worst = max(worst, abs(g.reshape(-1)[j] - central) / max(1.0, abs(central)))
    assert worst < 1e-4


def test_penalty_graph_is_freed_without_the_cycle_collector():
    c = random_critic(3, (5, 4), 10.0, 3)
    z = as_tensor(measure_normalize(SplitMix64(4).normal((6, 3))))
    gc.collect()
    gc.disable()
    try:
        backward(gradient_penalty_graph(c, z), wrt=c.parameters())
        assert gc.collect() == 0
    finally:
        gc.enable()
