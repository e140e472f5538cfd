"""Engine tests: autodiff correctness, optimizers, RNG, finite differences."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import oracles
import tensorcore_reference as ref
from driftlab import tensorcore as tc
from driftlab.cmi import BilinearScorer, pair_positive, train_scorer
from driftlab.dualcritic import Critic, train_critic, training_objective_and_grads
from driftlab.errors import ContractError, DimensionError, NumericError
from driftlab.model import regularizer
from driftlab.ot import measure_normalize

# Frozen output of MLP([2,3,2], SplitMix64(7)) on the fixed input below,
# computed once by the first verified build of the engine.
GOLDEN_SEED7_INPUT = np.array([[0.5, -0.25], [1.0, 2.0]])
GOLDEN_SEED7_OUTPUT = np.array(
    [
        [-0.49635922603520105, 0.5821780197081672],
        [0.00349636896165485, -0.04576195592231848],
    ]
)


def test_forward_identity_net():
    rng = tc.SplitMix64(0)
    net = tc.MLP([3, 3], rng, name="id")
    net.layers[0].w.value = np.eye(3)
    net.layers[0].b.value = np.zeros(3)
    x = np.array([[1.0, 2.0, 3.0]])
    out = net.forward(x)
    np.testing.assert_array_equal(out.value, x)


def test_forward_single_affine_layer():
    rng = tc.SplitMix64(0)
    net = tc.MLP([1, 1], rng, name="aff")
    net.layers[0].w.value = np.array([[2.0]])
    net.layers[0].b.value = np.array([1.0])
    out = net.forward(np.array([[3.0]]))
    assert out.value[0, 0] == 7.0


def test_forward_golden_seed7():
    net = tc.MLP([2, 3, 2], tc.SplitMix64(7), name="g")
    out = net.forward(GOLDEN_SEED7_INPUT)
    np.testing.assert_allclose(out.value, GOLDEN_SEED7_OUTPUT, rtol=0, atol=1e-15)


def test_forward_deterministic():
    net = tc.MLP([2, 4, 2], tc.SplitMix64(3), name="d")
    x = tc.SplitMix64(5).normal((6, 2))
    a = net.forward(x)
    b = net.forward(x)
    np.testing.assert_array_equal(a.value, b.value)


def test_forward_width_mismatch():
    net = tc.MLP([3, 2], tc.SplitMix64(1), name="w")
    with pytest.raises(DimensionError):
        net.forward(np.zeros((2, 4)))


def test_backward_square():
    x = tc.parameter(3.0, "x")
    (g,) = tc.backward(tc.square(x), [x])
    assert g == 6.0


def test_backward_constant_loss_zero_grads():
    x = tc.parameter(np.array([1.0, 2.0]), "x")
    loss = tc.as_tensor(5.0)
    (g,) = tc.backward(loss, [x])
    np.testing.assert_array_equal(g, np.zeros(2))


def test_backward_requires_scalar_seed():
    x = tc.parameter(np.array([1.0, 2.0]), "x")
    with pytest.raises(ContractError):
        tc.backward(tc.square(x), [x])


def test_backward_mlp_matches_finite_differences():
    rng = tc.SplitMix64(21)
    net = tc.MLP([3, 5, 1], rng, name="fd")
    x = rng.normal((4, 3))

    def loss_fn():
        return tc.tmean(tc.square(net.forward(x)))

    assert tc.finite_diff_check(loss_fn, net.parameters()) < 1e-4


def test_gradient_linearity():
    # grad(2*f + 3*g) = 2*grad(f) + 3*grad(g)
    rng = tc.SplitMix64(9)
    x = tc.parameter(rng.normal((3,)), "x")
    f = tc.tsum(tc.square(x))
    g = tc.tsum(tc.softplus(tc.mul(x, 0.1)))
    combined = tc.add(tc.mul(f, 2.0), tc.mul(g, 3.0))
    (gc,) = tc.backward(combined, [x])
    (gf,) = tc.backward(f, [x])
    (gg,) = tc.backward(g, [x])
    np.testing.assert_allclose(gc, 2 * gf + 3 * gg, rtol=1e-12)


def _build_expr(x, y, choice):
    if choice == 0:
        return tc.tsum(tc.mul(tc.sigmoid(x), y))
    if choice == 1:
        return tc.tmean(tc.softplus(tc.sub(x, y)))
    if choice == 2:
        return tc.tsum(tc.logsumexp(tc.add(tc.square(x), y), axis=0))
    if choice == 3:
        return tc.tsum(tc.logsumexp(tc.mul(x, y), axis=1))
    if choice == 4:
        return tc.tsum(tc.mul(tc.sigmoid(tc.mul(y, -1.0)), ref.leaky_relu(x)))
    if choice == 5:
        return tc.tmean(tc.div(x, y))
    return tc.tsum(tc.matmul(x, tc.transpose(y)))


def test_every_primitive_matches_finite_differences_100_instances():
    rng = tc.SplitMix64(77)
    for k in range(100):
        n = 2 + k % 3
        x = tc.parameter(rng.normal((2, n)) * 0.5, f"x{k}")
        y = tc.parameter(np.abs(rng.normal((2, n))) + 0.5, f"y{k}")
        err = tc.finite_diff_check(lambda: _build_expr(x, y, k % 7), [x, y])
        assert err < 1e-4, f"instance {k}"


def test_unused_parameter_gets_exact_zero():
    x = tc.parameter(2.0, "x")
    unused = tc.parameter(np.ones((2, 2)), "unused")
    (gx, gu) = tc.backward(tc.square(x), [x, unused])
    assert gx == 4.0
    np.testing.assert_array_equal(gu, np.zeros((2, 2)))


def test_backward_skips_vjps_off_the_path_to_wrt():
    calls = []

    def spy(name, vjp):
        def wrapped(g):
            calls.append(name)
            return vjp(g)
        return wrapped

    x = tc.parameter(np.array([1.0, 2.0]), "x")
    c = tc.as_tensor(np.array([3.0, 4.0]))
    d = tc.Tensor(c.value * 2.0, parents=((c, spy("c", lambda g: g * 2.0)),),
                  op="mul")
    xd = tc.Tensor(x.value * d.value,
                   parents=((x, spy("x", lambda g: g * d.value)),
                            (d, spy("d", lambda g: g * x.value))),
                   op="mul")
    (gx,) = tc.backward(tc.tsum(xd), [x])
    assert calls == ["x"]
    np.testing.assert_array_equal(gx, d.value)
    calls.clear()
    tc.backward(tc.tsum(xd), [c])
    assert calls == ["d", "c"]


@given(st.integers(0, 6), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_backward_constructs_no_tensor(choice, seed):
    # Gradients are arrays: the backward pass adds no node to any graph.
    rng = tc.SplitMix64(seed)
    x = tc.parameter(rng.normal((2, 3)) * 0.5, "x")
    y = tc.parameter(np.abs(rng.normal((2, 3))) + 0.5, "y")
    root = _build_expr(x, y, choice)
    built = []
    init = tc.Tensor.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tc.Tensor, "__init__", spy)
        grads = tc.backward(root, [x, y])
    assert built == []
    assert all(type(g) is np.ndarray and g.shape == (2, 3) for g in grads)


# Signed zeros, subnormals and magnitudes whose squares underflow or
# overflow, mixed with ordinary values.
GRAD_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e150, -1e150, 1e300, -1e300]
) | st.floats(-1e3, 1e3)
SHAPES = st.lists(st.integers(1, 4), max_size=2).map(tuple)


@given(st.lists(SHAPES, min_size=1, max_size=6), st.integers(1, 20),
       st.floats(1e-4, 1.0), st.data())
@settings(max_examples=80, deadline=None)
def test_step_equals_per_tensor_reference_bit_for_bit(shapes, steps, lr, data):
    init = [data.draw(arrays(np.float64, s, elements=st.floats(-10, 10)))
            for s in shapes]
    ours = [tc.parameter(v, f"p{i}") for i, v in enumerate(init)]
    theirs = [tc.parameter(v, f"p{i}") for i, v in enumerate(init)]
    state, ref_state = tc.OptimState(ours, lr=lr), ref.OptimState(theirs, lr=lr)
    with np.errstate(over="ignore"):
        for _ in range(steps):
            grads = [data.draw(arrays(np.float64, s, elements=GRAD_VALUES))
                     for s in shapes]
            before = copy.deepcopy(ref_state)
            ref.step(ref_state, grads)
            if all(np.isfinite(v).all() for v in ref_state.v):
                tc.step(state, grads)
                continue
            # g * g overflowed, and the reference froze that entry for
            # good; the shipped step refuses the whole step instead
            with pytest.raises(NumericError, match="non-finite Adam second moment"):
                tc.step(state, grads)
            ref_state, theirs = before, before.params
            break
    assert state.t == ref_state.t
    for p, q in zip(ours, theirs):
        assert ref.same_bits(p.value, q.value)
    for flat, parts in ((state.m, ref_state.m), (state.v, ref_state.v)):
        assert ref.same_bits(flat, np.concatenate([np.ravel(x) for x in parts]))


@given(st.lists(SHAPES, min_size=1, max_size=6), st.data())
@settings(max_examples=40, deadline=None)
def test_step_rejects_what_the_reference_rejects(shapes, data):
    # Same exception and message as the per-tensor step, which checks
    # each parameter's shape, then its finiteness, in list order.
    grads = [np.ones(s) for s in shapes]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(shapes) - 1))
        if data.draw(st.booleans()):
            grads[i] = np.ones(shapes[i] + (1,))
        else:
            grads[i] = np.full(shapes[i], data.draw(st.sampled_from(
                [np.nan, np.inf, -np.inf])))
    errors = []
    for module in (tc, ref):
        params = [tc.parameter(np.zeros(s), f"p{i}") for i, s in enumerate(shapes)]
        with pytest.raises((DimensionError, NumericError)) as info:
            module.step(module.OptimState(params), grads)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_failed_step_changes_nothing():
    params = [tc.parameter(np.array([1.0, -2.0]), "a"),
              tc.parameter(np.ones((2, 2)), "b")]
    state = tc.OptimState(params, lr=0.1)
    tc.step(state, [np.full(2, 0.5), np.full((2, 2), -0.25)])
    values = [p.value.copy() for p in params]
    moments = copy.deepcopy((state.m, state.v))
    bad = np.full((2, 2), 0.5)
    bad[1, 1] = np.nan
    with pytest.raises(NumericError, match="parameter b"):
        tc.step(state, [np.full(2, 0.5), bad])
    assert state.t == 1
    for p, before in zip(params, values):
        assert np.array_equal(p.value, before)
    for now, before in zip((state.m, state.v), moments):
        assert all(np.array_equal(a, b) for a, b in zip(now, before))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_second_moment_fails_the_step_and_changes_nothing():
    # a finite 1e160 overflows g * g; committing it would leave v at inf
    # and freeze the entry's parameter at its value for good
    params = [tc.parameter(np.array([1.0, -2.0]), "a"),
              tc.parameter(np.ones((2, 2)), "b")]
    state = tc.OptimState(params, lr=0.1)
    tc.step(state, [np.full(2, 0.5), np.full((2, 2), -0.25)])
    values = [p.value.copy() for p in params]
    m, v = state.m.copy(), state.v.copy()
    huge = np.full((2, 2), 0.5)
    huge[0, 1] = 1e160
    with pytest.raises(NumericError) as info:
        tc.step(state, [np.full(2, 0.5), huge])
    assert str(info.value) == "non-finite Adam second moment for parameter b"
    assert state.t == 1
    assert all(ref.same_bits(p.value, b) for p, b in zip(params, values))
    assert ref.same_bits(state.m, m) and ref.same_bits(state.v, v)


def test_step_zero_gradient_keeps_params():
    p = tc.parameter(np.array([1.0, -2.0]), "p")
    state = tc.OptimState([p], lr=0.1)
    tc.step(state, [np.zeros(2)])
    np.testing.assert_array_equal(p.value, np.array([1.0, -2.0]))


def test_step_adam_matches_scalar_reference():
    # Independent scalar Adam recurrence, written out by hand.
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    theta, m, v = 1.0, 0.0, 0.0
    grads = [0.4, -1.2, 0.7, 0.7, -0.1]
    expected = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        expected.append(theta)

    p = tc.parameter(1.0, "p")
    state = tc.OptimState([p], lr=lr)
    got = []
    for g in grads:
        tc.step(state, [np.array(g)])
        got.append(float(p.value))
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_step_nan_gradient_raises_with_name():
    p = tc.parameter(1.0, "theta_3")
    state = tc.OptimState([p], lr=0.1)
    with pytest.raises(NumericError, match="theta_3"):
        tc.step(state, [np.array(np.nan)])


def critic_case():
    """A critic, its training batches, its trainer and its closed form."""
    rng = tc.SplitMix64(11)
    zs, zt = (measure_normalize(rng.normal(shape)) for shape in ((5, 3), (7, 3)))
    critic = Critic(3, tc.SplitMix64(17), hidden=(4,), lam=1.0, beta=0.3)
    return critic, (zs, zt), train_critic, lambda c: training_objective_and_grads(c, zs, zt)


def scorer_case():
    """A scorer, its paired rows and anchors, its trainer and its closed form."""
    rng = tc.SplitMix64(10)
    scorer = BilinearScorer(3, rng.spawn(1), hidden=(5,))
    zs, zt = rng.normal((8, 3)), rng.normal((8, 3))
    paired = zs[pair_positive(zt, zs)]
    return scorer, (paired, zt), train_scorer, lambda s: s.objective_and_grads(paired, zt)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("what,case", [("critic", critic_case), ("scorer", scorer_case)],
                         ids=["critic", "scorer"])
def test_helper_training_contract(what, case):
    # Both helpers train through tc.ascend. The replay steps a copy of
    # the network with the closed form and the per-tensor reference Adam,
    # so no loop code is shared with what it checks.
    net, data, train, closed_form = case()
    optim = tc.OptimState(net.parameters(), lr=3e-3)

    def state():
        return [p.value.copy() for p in net.parameters()] + [optim.m.copy(), optim.v.copy()]

    before = state()
    assert train(net, *data, 0, optim) == []
    with pytest.raises(ContractError, match="^steps must be nonnegative$"):
        train(net, *data, -1, optim)
    assert optim.t == 0 and all(map(ref.same_bits, state(), before))

    replay = copy.deepcopy(net)
    values = train(net, *data, 4, optim)
    assert len(values) == 4 and optim.t == 4
    replay_optim = ref.OptimState(replay.parameters(), lr=3e-3)
    for k, value in enumerate(values):
        want, grads = closed_form(replay)
        assert ref.same_bits(value, want), k
        ref.step(replay_optim, [-g for g in grads])
    assert all(map(ref.same_bits, [p.value for p in net.parameters()],
                   [p.value for p in replay.parameters()]))

    net, data, train, _ = case()
    optim = tc.OptimState(net.parameters(), lr=1e160)
    with pytest.raises(NumericError, match=rf"^{what} training diverged at step 1: "
                       r"non-finite values produced by op 'matmul'$"):
        train(net, *data, 3, optim)
    assert optim.t == 1


def test_finite_diff_check_quadratic_tight():
    p = tc.parameter(np.array([1.0, -0.5, 2.0]), "p")

    def loss_fn():
        return tc.tsum(tc.square(p))

    assert tc.finite_diff_check(loss_fn, [p]) < 1e-8


def test_logsumexp_matches_numpy_reference():
    rng = tc.SplitMix64(4)
    x = rng.normal((5, 7)) * 10
    got = tc.logsumexp(x, axis=1).value
    m = x.max(axis=1, keepdims=True)
    want = (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))).ravel()
    np.testing.assert_allclose(got, want, rtol=1e-14)


# Entries for the single-node reductions: small integers make ties
# within a row, and every scale keeps each reference node finite.
REDUCE_SHAPES = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
REDUCE_ENTRIES = st.integers(-2, 2).map(float) | st.floats(-3.0, 3.0)
REDUCE_SCALES = st.sampled_from([5e-324, 1e-300, 1e-8, 1.0, 1e8, 1e300])


@given(REDUCE_SHAPES, REDUCE_SCALES, st.data())
@settings(max_examples=150, deadline=None)
def test_single_node_reductions_equal_their_reference_chains(shape, scale, data):
    # logsumexp and tmean are one node each; their values and backward
    # gradients equal the chains of ops they replaced, bit for bit.
    x = tc.parameter(data.draw(arrays(np.float64, shape, elements=REDUCE_ENTRIES))
                     * scale, "x")
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    reduced = shape[:axis % len(shape)] + shape[axis % len(shape) + 1:]
    # upstream gradients for the reduced value and for the mean
    weights = [data.draw(arrays(np.float64, s, elements=st.floats(-2.0, 2.0)))
               for s in (reduced, ())]
    ops = ((lambda a: tc.logsumexp(a, axis), lambda a: ref.logsumexp(a, axis)),
           (tc.tmean, ref.tmean))
    for (ours, theirs), w in zip(ops, weights):
        got, want = ours(x), theirs(x)
        assert ref.same_bits(got.value, want.value)
        (g_got,) = tc.backward(tc.tsum(tc.mul(got, w)), [x])
        (g_want,) = ref.backward(tc.tsum(tc.mul(want, w)), [x])
        assert ref.same_bits(g_got, g_want)


def test_logsumexp_keeps_a_row_wider_than_the_float_range():
    # exp(a - m) underflows to 0 where a - m overflows: the value is
    # finite, and the reference chain stops at its 'sub' node.
    x = np.array([[1.5e308, -1.5e308], [1.0, 1.0]])
    with np.errstate(over="ignore"):
        got = tc.logsumexp(x, axis=1)
        with pytest.raises(NumericError, match="'sub'"):
            ref.logsumexp(x, axis=1)
    assert ref.same_bits(got.value, np.array([1.5e308, 1.0 + np.log(2.0)]))


def test_select_rows_values_and_gradient():
    x = tc.parameter(np.arange(12.0).reshape(4, 3), "x")
    picked = tc.select_rows(x, [2, 0, 2])
    np.testing.assert_array_equal(picked.value, x.value[[2, 0, 2]])
    (g,) = tc.backward(tc.tsum(picked), [x])
    # row 2 used twice, row 0 once, rows 1 and 3 unused
    np.testing.assert_array_equal(g.sum(axis=1), np.array([3.0, 0.0, 6.0, 0.0]))


def test_tensor_rejects_non_finite():
    with pytest.raises(NumericError):
        tc.Tensor(np.array([1.0, np.inf]))


EXTREMES = np.array([[1.79e308, -1.79e308, 5e-324, -5e-324, 0.0, -0.0]])

# Every op whose node skips the finite check, with the reason it may,
# and the op applied to the extreme finite inputs where that reason is
# that the op keeps finite inputs finite. An 'mlp' node's value comes
# from mlp_forward, which checks it and names the layer op that went
# non-finite, as test_mlp_node_equals_the_layer_chain shows.
UNCHECKED = {
    "transpose": ("moves entries", tc.transpose),
    "gather": ("moves entries",
               lambda x: tc.select_rows(tc.transpose(x), [5, 0, 0, 3])),
    "sigmoid": ("maps into [0, 1]", tc.sigmoid),
    "softplus": ("lies in [max(x, 0), max(x, 0) + log 2]", tc.softplus),
    "mlp": ("checked by mlp_forward", None),
}


def test_unchecked_ops_keep_extreme_finite_inputs_finite():
    assert set(UNCHECKED) == tc._UNCHECKED
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for op, (_, apply) in UNCHECKED.items():
            if apply is None:
                continue
            out = apply(EXTREMES)
            assert out.op == op
            assert np.isfinite(out.value).all(), op


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_checked_ops_name_themselves():
    with pytest.raises(NumericError, match="'square'"):
        tc.square(1e200)
    with pytest.raises(NumericError, match="'mean'"):
        tc.tmean([1e308, 1e308])
    with pytest.raises(NumericError, match="'matmul'"):
        tc.matmul([[1e200, 1e200]], [[1e200], [1e200]])


@given(st.integers(0, 2 ** 63), st.integers(1, 64))
@settings(max_examples=50, deadline=None)
def test_rng_uniform_in_unit_interval(seed, n):
    u = tc.SplitMix64(seed).uniform((n,))
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_rng_counter_reproducibility():
    r = tc.SplitMix64(123)
    r.uniform((10,))
    tail = r.uniform((5,))
    r2 = tc.SplitMix64(123)
    r2.uniform((10,))
    np.testing.assert_array_equal(tail, r2.uniform((5,)))


def test_rng_known_first_output():
    # mix(seed + gamma) for seed 0 is the documented SplitMix64 stream head.
    r = tc.SplitMix64(0)
    first = r._raw(1)[0]
    assert int(first) == 0xE220A8397B1DCDAF


def test_rng_permutation_is_permutation():
    perm = tc.SplitMix64(6).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_rng_normal_moments():
    z = tc.SplitMix64(12).normal((20000,))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


# Sizes on both sides of one and three 2**15-word blocks, and seeds and
# counters at the ends of their ranges.
_WORD_SIZES = st.sampled_from([0, 1, 2, 32_767, 32_768, 32_769, 65_536, 100_003])
_SEEDS = st.sampled_from([0, 7, 2 ** 63 + 5, 2 ** 64 - 1]) | st.integers(0, 2 ** 64 - 1)
_COUNTERS = st.sampled_from([0, 12_345, 2 ** 40, 2 ** 63]) | st.integers(0, 2 ** 63)


def _twin_generators(seed, counter):
    new, old = tc.SplitMix64(seed), tc.SplitMix64(seed)
    new.counter = old.counter = counter
    return new, old


@given(_SEEDS, _COUNTERS, _WORD_SIZES, st.integers(1, 3))
@example(seed=2 ** 63 + 5, counter=2 ** 63, n=100_003, rows=1)
@example(seed=0, counter=0, n=32_769, rows=3)
@settings(max_examples=40, deadline=None)
def test_blocked_uniform_equals_one_pass_oracle(seed, counter, n, rows):
    new, old = _twin_generators(seed, counter)
    shape = (rows, n)
    assert np.array_equal(new.uniform(shape), oracles.uniform(old, shape))
    assert new.uniform(()) == oracles.uniform(old, ())
    assert new.counter == old.counter


@given(_SEEDS, _COUNTERS, _WORD_SIZES)
@example(seed=2 ** 63 + 5, counter=2 ** 63, n=100_003)
@example(seed=1, counter=5, n=32_767)
@settings(max_examples=40, deadline=None)
def test_normal_equals_oracle_with_its_own_conversion(seed, counter, n):
    new, old = _twin_generators(seed, counter)
    assert np.array_equal(new.normal((n,)), oracles.normal(old, (n,)))
    assert new.normal(()) == oracles.normal(old, ())
    assert new.counter == old.counter


@given(_SEEDS, _COUNTERS,
       st.sampled_from([0, 1, 2, 3, 500, 32_768, 32_770]) | st.integers(0, 2_000))
@example(seed=2 ** 63 + 5, counter=2 ** 63, n=32_770)
@settings(max_examples=40, deadline=None)
def test_permutation_equals_numpy_oracle(seed, counter, n):
    new, old = _twin_generators(seed, counter)
    got, want = new.permutation(n), oracles.permutation(old, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert new.counter == old.counter


def test_word_count_past_int64_raises_memory_error():
    # 2**80 words: an int64 product would wrap to 0
    rng = tc.SplitMix64(0)
    with pytest.raises(MemoryError, match="past numpy's index range"):
        rng.uniform((2 ** 40, 2 ** 40))
    with pytest.raises(MemoryError, match="past numpy's index range"):
        rng.normal((2 ** 40, 2 ** 40))
    with pytest.raises(MemoryError, match="past numpy's index range"):
        rng.uniform((np.int64(2 ** 40), np.int64(2 ** 40)))
    assert rng.counter == 0


def test_numpy_int_sizes_keep_the_counter_a_python_int():
    # an np.int64 counter would overflow against the uint64 gamma
    new, old = _twin_generators(3, 0)
    assert np.array_equal(new.uniform((np.int64(2), 3)), oracles.uniform(old, (2, 3)))
    assert np.array_equal(new.normal((np.int64(3),)), oracles.normal(old, (3,)))
    assert np.array_equal(new.permutation(np.int64(4)), oracles.permutation(old, 4))
    assert type(new.counter) is int and new.counter == old.counter
    assert new.uniform(()) == oracles.uniform(old, ())


def test_uniform_memory_stays_near_its_output():
    # the 8 MB output and three 2**15-word buffers; one pass over the
    # whole draw peaked at 22.9 MiB
    tracemalloc.start()
    try:
        tc.SplitMix64(0).uniform((1_000_000,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2 ** 20


def test_permutation_memory_stays_near_its_words_and_output():
    # 16 bytes a row, the uint64 words and the int64 output, plus the
    # word path's 768 KiB of block buffers; shuffling through a Python
    # list peaked at 92 bytes a row
    n = 100_000
    tracemalloc.start()
    try:
        tc.SplitMix64(0).permutation(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n + 2 ** 20


def test_mlp_sigmoid_head_bounded():
    net = tc.MLP([3, 4, 1], tc.SplitMix64(8), name="b")
    x = tc.SplitMix64(9).normal((50, 3)) * 20
    out = tc.sigmoid(net.forward(x)).value
    assert np.all(out > 0.0) and np.all(out < 1.0)


def _forward_outcome(forward, net, x):
    """``forward(net, x)``, or the message of the NumericError it raises."""
    try:
        return forward(net, x)
    except NumericError as exc:
        return str(exc)


@given(st.lists(st.integers(1, 24), min_size=2, max_size=5), st.integers(1, 24),
       st.integers(0, 2 ** 32),
       st.sampled_from(["input", "weight", "bias", "overflow", "zero row"]),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
@settings(max_examples=400, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_output_check_raises_what_the_per_layer_check_raises(sizes, n, seed, fault,
                                                             bad, data):
    # The check on the output alone sees every fault that a check after
    # each layer sees, and names the same op: a NaN or an infinity in
    # any layer reaches the output, even through a weight row of exact
    # zeros, since inf * 0 is NaN.
    rng = tc.SplitMix64(seed)
    net = tc.MLP(sizes, rng.spawn(1))
    x = rng.normal((n, sizes[0]))
    depth = len(net.layers)
    hidden = fault == "zero row" and depth > 1
    i = data.draw(st.integers(0, depth - 2 if hidden else depth - 1))
    w, b = net.layers[i].w.value, net.layers[i].b.value
    row = data.draw(st.integers(0, w.shape[0] - 1))
    col = data.draw(st.integers(0, w.shape[1] - 1))
    if fault == "input":
        x[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, sizes[0] - 1))] = bad
    elif fault == "weight":
        w[row, col] = bad
    elif fault == "bias":
        b[col] = bad
    elif fault == "overflow":
        w *= 10.0 ** data.draw(st.integers(150, 308))
    else:
        # a hidden unit goes infinite, by its bias or by a matmul
        # overflow, and the next layer's weights ignore it
        if data.draw(st.booleans()):
            b[col] = bad
        else:
            w[:, col] = 1e308
        if hidden:
            net.layers[i + 1].w.value[col] = 0.0
    got = _forward_outcome(tc.mlp_forward, net, x)
    want = _forward_outcome(oracles.mlp_forward, net, x)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        out, inputs, masks = got
        assert ref.same_bits(out, want[0])
        assert all(map(ref.same_bits, inputs, want[1]))
        assert all(map(ref.same_bits, masks, want[2]))


# Sizes of a network of depth 1 to 4 (depth 1 has no hidden layer).
NET_SIZES = st.lists(st.integers(1, 8), min_size=2, max_size=5)


@given(NET_SIZES, st.integers(1, 40),
       st.sampled_from([1e-3, 1.0, 30.0, 1e3]) | st.floats(1e-3, 1e3),
       st.sampled_from(["one", "two inputs and the regularizer", "stacked"]),
       st.sampled_from([(True, True), (True, False), (False, True)]),
       st.integers(0, 2 ** 32))
@settings(max_examples=200, deadline=None)
def test_mlp_node_equals_the_layer_chain(sizes, n, scale, case, live, seed):
    # One node per forward gives the value and, through the pruned and
    # the unpruned backward, the gradients of the per-layer chain, bit
    # for bit: an input fed as a const or as a live Tensor, parameters
    # live or pruned, three contributions reaching one weight (two
    # forwards and the regularizer), and one net fed another's output.
    x_live, params_live = live
    rng = tc.SplitMix64(seed)
    net = tc.MLP(sizes, rng.spawn(1), name="a")
    head = tc.MLP([sizes[-1], *sizes[1:-1], 3], rng.spawn(2), name="b")
    x0, x1 = (rng.normal((n, sizes[0])) * scale for _ in range(2))
    x = tc.parameter(x0, "x") if x_live else x0
    width = 3 if case == "stacked" else sizes[-1]
    r0, r1 = (rng.normal((n, width)) for _ in range(2))

    def loss():
        if case == "stacked":
            return tc.tsum(tc.mul(head.forward(net.forward(x)), r0))
        out = tc.tsum(tc.mul(net.forward(x), r0))
        if case == "one":
            return out
        out = tc.add(out, tc.tsum(tc.mul(net.forward(x1), r1)))
        return tc.add(out, regularizer([net], 0.3))

    got = loss()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tc.MLP, "forward", ref.mlp_chain)
        want = loss()
    assert ref.same_bits(got.value, want.value)
    params = net.parameters() + (head.parameters() if case == "stacked" else [])
    wrt = [x] * x_live + params * params_live
    expected = ref.backward(want, wrt)
    for grads in (tc.backward(got, wrt), ref.backward(got, wrt),
                  tc.backward(want, wrt)):
        assert all(map(ref.same_bits, grads, expected))


@given(NET_SIZES, st.integers(1, 40), st.integers(0, 2 ** 32),
       st.sampled_from(["input", "weight", "bias", "overflow"]),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mlp_node_raises_what_the_layer_chain_raises(sizes, n, seed, fault, bad,
                                                     data):
    rng = tc.SplitMix64(seed)
    net = tc.MLP(sizes, rng.spawn(1))
    x = rng.normal((n, sizes[0]))
    layer = net.layers[data.draw(st.integers(0, len(net.layers) - 1))]
    row = data.draw(st.integers(0, layer.w.value.shape[0] - 1))
    col = data.draw(st.integers(0, layer.w.value.shape[1] - 1))
    if fault == "input":
        x[data.draw(st.integers(0, n - 1)), row % sizes[0]] = bad
    elif fault == "weight":
        layer.w.value[row, col] = bad
    elif fault == "bias":
        layer.b.value[col] = bad
    else:
        layer.w.value *= 10.0 ** data.draw(st.integers(150, 308))
    got = _forward_outcome(lambda net, x: net.forward(x).value, net, x)
    want = _forward_outcome(lambda net, x: ref.mlp_chain(net, x).value, net, x)
    if isinstance(want, str):
        assert got == want
    else:
        assert ref.same_bits(got, want)


def test_mlp_forward_is_one_node_and_one_layer_pass_per_gradient():
    net = tc.MLP([3, 4, 4, 2], tc.SplitMix64(5))
    x = tc.parameter(tc.SplitMix64(6).normal((5, 3)), "x")
    built, passes = [], []
    init, layer_gradients = tc.Tensor.__init__, tc.layer_gradients

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("op", args[2] if len(args) > 2 else "leaf"))
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tc.Tensor, "__init__", spy)
        mp.setattr(tc, "layer_gradients",
                   lambda *args: passes.append(1) or layer_gradients(*args))
        out = net.forward(x)
        assert built == ["mlp"]
        net.forward(x.value)
        assert built == ["mlp", "const", "mlp"]
        tc.backward(tc.tsum(out), [x, *net.parameters()])
        assert len(passes) == 1
    # a second root through the same node gets a pass of its own
    (got,) = tc.backward(tc.tsum(tc.mul(out, 2.0)), [x])
    (want,) = ref.backward(tc.tsum(tc.mul(ref.mlp_chain(net, x), 2.0)), [x])
    assert ref.same_bits(got, want)
