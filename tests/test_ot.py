"""Exact-transport tests: pinned worked examples, independent LP and
brute-force oracles, and property-based invariants."""

import heapq
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from driftlab.errors import ContractError, InfeasibleError, ParseError
from driftlab.ot import (
    CostMatrix,
    DiscreteMeasure,
    FlowResult,
    TransportPlan,
    ar_wwd_primal,
    containment_check,
    feature_to_measure,
    load_measure,
    min_cost_flow,
    nested_cost,
    save_measure,
    w2_dimension,
    wasserstein_exact,
    wwd,
)


def lp_transport(supplies, demands, costs):
    """Independent LP oracle: scipy HiGHS on the flattened transportation
    program with row sums <= supplies and column sums == demands."""
    n, m = costs.shape
    A_ub, b_ub = [], []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        A_ub.append(row)
        b_ub.append(supplies[i])
    A_eq, b_eq = [], []
    for j in range(m):
        col = np.zeros(n * m)
        col[j::m] = 1.0
        A_eq.append(col)
        b_eq.append(demands[j])
    res = linprog(costs.reshape(-1), A_ub=np.array(A_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(A_eq), b_eq=np.array(b_eq), bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def measure_1d(positions, weights):
    return DiscreteMeasure(np.asarray(positions, float), np.asarray(weights, float))


def random_simplex(rng, n):
    w = rng.random(n) + 1e-3
    return w / w.sum()


# ---------------------------------------------------------------------
# wasserstein_exact
# ---------------------------------------------------------------------

def test_identity_zero():
    mu = measure_1d([0.0, 0.4, 1.0], [0.2, 0.3, 0.5])
    cost = CostMatrix(np.abs(mu.atoms[:, None] - mu.atoms[None, :]))
    value, plan = wasserstein_exact(mu, mu, cost, p=1)
    assert value == 0.0
    assert np.allclose(plan.matrix, np.diag(mu.weights))


def test_single_atom_distance():
    m1 = measure_1d([0.0], [1.0])
    m2 = measure_1d([3.0], [1.0])
    value, _ = wasserstein_exact(m1, m2, CostMatrix(np.array([[3.0]])), p=1)
    assert value == pytest.approx(3.0, abs=1e-12)


def test_two_by_two_vertex_enumeration():
    # For a 2x2 transportation polytope with marginals (a1,a2)/(b1,b2)
    # every vertex is determined by the single free entry x = plan[0,0],
    # clamped to the feasible interval; enumerate both endpoints.
    a = np.array([0.5, 0.5])
    b = np.array([0.25, 0.75])
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    lo = max(0.0, a[0] - b[1])
    hi = min(a[0], b[0])
    best = math.inf
    for x in (lo, hi):
        plan = np.array([[x, a[0] - x], [b[0] - x, b[1] - (a[0] - x)]])
        assert np.all(plan >= -1e-12)
        best = min(best, float((plan * c).sum()))
    value, plan = wasserstein_exact(
        measure_1d([0, 1], a), measure_1d([0, 1], b), CostMatrix(c), p=1)
    assert value == pytest.approx(0.25, abs=1e-12)
    assert value == pytest.approx(best, abs=1e-12)
    assert np.allclose(plan.matrix.sum(axis=1), a)
    assert np.allclose(plan.matrix.sum(axis=0), b)


def test_mass_mismatch_rejected():
    m1 = measure_1d([0.0], [1.0])
    m2 = measure_1d([1.0], [0.5])
    with pytest.raises(InfeasibleError):
        wasserstein_exact(m1, m2, CostMatrix(np.array([[1.0]])), p=1)


def test_empty_measure_rejected():
    with pytest.raises(ContractError):
        DiscreteMeasure(np.zeros((0,)), np.zeros((0,)))


def test_matches_lp_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n, m = rng.integers(2, 7), rng.integers(2, 7)
        mu = measure_1d(np.sort(rng.random(n)), random_simplex(rng, n))
        nu = measure_1d(np.sort(rng.random(m)), random_simplex(rng, m))
        cost = CostMatrix(np.abs(mu.atoms[:, None] - nu.atoms[None, :]))
        for p in (1, 2):
            value, plan = wasserstein_exact(mu, nu, cost, p=p)
            oracle = lp_transport(mu.weights, nu.weights, cost.values ** p)
            assert value == pytest.approx(oracle ** (1 / p), abs=1e-8)
            assert np.allclose(plan.matrix.sum(axis=1), mu.weights, atol=1e-9)
            assert np.allclose(plan.matrix.sum(axis=0), nu.weights, atol=1e-9)


def test_triangle_inequality_w1():
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        atoms = np.sort(rng.random(k))
        ms = [measure_1d(atoms, random_simplex(rng, k)) for _ in range(3)]
        cost = CostMatrix(np.abs(atoms[:, None] - atoms[None, :]))
        d01, _ = wasserstein_exact(ms[0], ms[1], cost, p=1)
        d12, _ = wasserstein_exact(ms[1], ms[2], cost, p=1)
        d02, _ = wasserstein_exact(ms[0], ms[2], cost, p=1)
        assert d02 <= d01 + d12 + 1e-8


# ---------------------------------------------------------------------
# min_cost_flow
# ---------------------------------------------------------------------

def test_single_edge():
    res = min_cost_flow(np.array([1.0]), np.array([1.0]), np.array([[2.0]]))
    assert res.cost == pytest.approx(2.0, abs=1e-12)
    assert res.flows[0, 0] == pytest.approx(1.0)


def test_flow_matches_wasserstein_on_balanced_instance():
    mu = measure_1d([0.0, 1.0], [0.6, 0.4])
    nu = measure_1d([0.0, 1.0], [0.1, 0.9])
    c = np.array([[0.2, 1.3], [0.9, 0.1]])
    value, _ = wasserstein_exact(mu, nu, CostMatrix(c), p=1)
    res = min_cost_flow(mu.weights, nu.weights, c)
    assert res.cost == pytest.approx(value, abs=1e-10)


def test_complementary_slackness_certificate():
    rng = np.random.default_rng(5)
    supplies = random_simplex(rng, 4)
    demands = random_simplex(rng, 5)
    costs = rng.random((4, 5))
    res = min_cost_flow(supplies, demands, costs)
    # with equal total masses every row is fully used, so reduced costs
    # c_ij - (v_j - u_i) must be >= 0 everywhere and 0 on active edges
    u, v = res.row_potentials, res.col_potentials
    reduced = costs - (v[None, :] - u[:, None])
    assert np.all(reduced >= -1e-9)
    active = res.flows > 1e-12
    assert np.all(np.abs(reduced[active]) <= 1e-9)
    oracle = lp_transport(supplies, demands, costs)
    assert res.cost == pytest.approx(oracle, abs=1e-9)


def test_infeasible_names_cut():
    with pytest.raises(InfeasibleError, match="cut"):
        min_cost_flow(np.array([0.5]), np.array([1.0]), np.array([[1.0]]))


def test_negative_cost_rejected():
    with pytest.raises(ContractError):
        min_cost_flow(np.array([1.0]), np.array([1.0]), np.array([[-1.0]]))


def test_unroutable_remainder_names_mass():
    # within the up-front 1e-9 slack, but the last 5e-10 has no route
    with pytest.raises(InfeasibleError, match="remaining 5e-10 mass"):
        min_cost_flow(np.array([0.5 - 5e-10]), np.array([0.5]), np.array([[1.0]]))


# Reference solver: successive shortest paths over adjacency lists with
# a binary heap. Above cost scales of about 1e3 a reduced cost below
# -1e-13 re-opens a settled node, ``prev`` can then hold a cycle and the
# path walk never ends, so it is only run on costs in [0, 4].

class _Graph:
    def __init__(self, n):
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u, v, cap, cost):
        # forward edge and residual reverse edge
        self.adj[u].append([v, cap, cost, 0.0, len(self.adj[v])])
        self.adj[v].append([u, 0.0, -cost, 0.0, len(self.adj[u]) - 1])


def _heap_ssp(graph, s, t, want, n):
    """Deliver ``want`` units s -> t at min cost. Returns total cost.

    Successive shortest paths with Johnson potentials; unit costs must
    be nonnegative so plain Dijkstra applies from the first iteration.
    """
    pot = [0.0] * n
    delivered, total = 0.0, 0.0
    eps = 1e-13
    while want - delivered > 1e-12:
        dist = [np.inf] * n
        prev = [None] * n  # (node, edge index)
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + eps:
                continue
            for ei, e in enumerate(graph.adj[u]):
                v, cap, cost, flow, _ = e
                residual = cap - flow
                if residual <= eps:
                    continue
                nd = d + cost + pot[u] - pot[v]
                if nd < dist[v] - eps:
                    dist[v] = nd
                    prev[v] = (u, ei)
                    heapq.heappush(heap, (nd, v))
        if not np.isfinite(dist[t]):
            reachable = [i for i in range(n) if np.isfinite(dist[i])]
            raise InfeasibleError(
                f"cannot route remaining {want - delivered:.6g} mass; "
                f"saturated cut around nodes {reachable}"
            )
        for i in range(n):
            if np.isfinite(dist[i]):
                pot[i] += dist[i]
        # bottleneck along the path
        push = want - delivered
        v = t
        while v != s:
            u, ei = prev[v]
            e = graph.adj[u][ei]
            push = min(push, e[1] - e[3])
            v = u
        v = t
        while v != s:
            u, ei = prev[v]
            e = graph.adj[u][ei]
            e[3] += push
            graph.adj[v][e[4]][3] -= push
            total += push * e[2]
            v = u
        delivered += push
    return total, pot


def heap_min_cost_flow(supplies, demands, unit_costs):
    n, m = unit_costs.shape
    s, t = n + m, n + m + 1
    g = _Graph(n + m + 2)
    for i in range(n):
        g.add_edge(s, i, float(supplies[i]), 0.0)
    for i in range(n):
        for j in range(m):
            g.add_edge(i, n + j, np.inf, float(unit_costs[i, j]))
    for j in range(m):
        g.add_edge(n + j, t, float(demands[j]), 0.0)

    cost, pot = _heap_ssp(g, s, t, float(demands.sum()), n + m + 2)

    flows = np.zeros((n, m))
    for i in range(n):
        for e in g.adj[i]:
            v, cap, c, flow, _ = e
            if n <= v < n + m and flow > 0:
                flows[i, v - n] += flow
    return FlowResult(
        cost=cost,
        flows=flows,
        row_potentials=np.array(pot[:n]),
        col_potentials=np.array(pot[n:n + m]),
    )


@given(st.integers(1, 12), st.integers(1, 12), st.booleans(),
       st.one_of(st.just(1.0), st.floats(0.1, 1.0, exclude_min=True)),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_dense_solver_bit_equal_to_heap_reference(n, m, integer_costs, factor, seed):
    rng = np.random.default_rng(seed)
    if integer_costs:  # many ties between path lengths
        costs = rng.integers(0, 5, size=(n, m)).astype(np.float64)
    else:
        costs = rng.uniform(0.0, 4.0, size=(n, m))
    supplies = random_simplex(rng, n) / factor
    demands = random_simplex(rng, m)
    got = min_cost_flow(supplies, demands, costs)
    want = heap_min_cost_flow(supplies, demands, costs)
    assert got.cost == want.cost
    np.testing.assert_array_equal(got.flows, want.flows)
    np.testing.assert_array_equal(got.row_potentials, want.row_potentials)
    np.testing.assert_array_equal(got.col_potentials, want.col_potentials)


@contextmanager
def time_limit(seconds):
    """Turn a solver that never returns into a failing test."""
    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("k", range(-6, 7))
def test_scale_safe_against_lp_oracle(k):
    # HiGHS tolerances are absolute, so the oracle solves the unit-scale
    # problem and its optimum is scaled: the LP value is linear in the
    # costs and, with supplies and demands scaled together, in the mass.
    rng = np.random.default_rng([k + 6, 0])
    for _ in range(8):
        n, m = (int(x) for x in rng.integers(2, 11, size=2))
        costs = rng.random((n, m))
        demands = random_simplex(rng, m)
        supplies = random_simplex(rng, n)
        for caps in (supplies, supplies / 0.6):
            oracle = lp_transport(caps, demands, costs) * 10.0 ** k
            with time_limit(20):
                by_cost = min_cost_flow(caps, demands, costs * 10.0 ** k)
                by_mass = min_cost_flow(caps * 10.0 ** k, demands * 10.0 ** k, costs)
            assert by_cost.cost == pytest.approx(oracle, rel=1e-9)
            assert by_mass.cost == pytest.approx(oracle, rel=1e-9)


# ---------------------------------------------------------------------
# feature_to_measure
# ---------------------------------------------------------------------

def test_uniform_vector_gives_uniform_weights():
    m = feature_to_measure(np.ones(4))
    assert np.allclose(m.weights, 0.25)
    assert np.allclose(m.atoms, [0.25, 0.5, 0.75, 1.0])


def test_softplus_scalar_reference():
    # scalar reference: w_j = log(1 + exp(z_j)), then L1-normalize
    z = np.array([2.0, 0.0, 0.0])
    ref = np.array([math.log1p(math.exp(v)) for v in z])
    ref = ref / ref.sum()
    m = feature_to_measure(z)
    assert np.allclose(m.weights, ref, atol=1e-12)
    # frozen fixture of the same computation
    assert m.weights[0] == pytest.approx(0.6054065999054767, abs=1e-12)


def test_relu_one_hot_point_masses():
    positions = np.array([1 / 3, 2 / 3, 1.0])
    onehot = [DiscreteMeasure(positions, row) for row in np.eye(3)]
    d01 = w2_dimension(onehot[0], onehot[1])
    d02 = w2_dimension(onehot[0], onehot[2])
    # point masses at 1/3 vs 2/3 vs 1: distances differ, unlike plain L2
    assert d01 == pytest.approx(1 / 3, abs=1e-12)
    assert d02 == pytest.approx(2 / 3, abs=1e-12)


def test_degenerate_measure_rejected():
    # softplus of both entries underflows to exactly 0
    with pytest.raises(ContractError, match="degenerate"):
        feature_to_measure(np.array([-800.0, -900.0]))


# ---------------------------------------------------------------------
# w2_dimension
# ---------------------------------------------------------------------

def test_w2_identical_zero():
    m = feature_to_measure(np.array([0.3, 1.2, -0.5]))
    assert w2_dimension(m, m) == 0.0


def test_w2_point_masses():
    a = measure_1d([0.0], [1.0])
    b = measure_1d([1.0], [1.0])
    assert w2_dimension(a, b) == pytest.approx(1.0, abs=1e-12)


def test_w2_half_split():
    a = measure_1d([0.0, 1.0], [0.5, 0.5])
    b = measure_1d([0.0, 1.0], [0.0, 1.0])
    got = w2_dimension(a, b)
    assert got == pytest.approx(math.sqrt(0.5), abs=1e-12)
    # cross-check against the generic solver
    cost = CostMatrix(np.abs(a.atoms[:, None] - b.atoms[None, :]))
    oracle, _ = wasserstein_exact(a, b, cost, p=2)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_w2_matches_generic_solver_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n, m = rng.integers(1, 13), rng.integers(1, 13)
        a = measure_1d(rng.random(n), random_simplex(rng, n))
        b = measure_1d(rng.random(m), random_simplex(rng, m))
        cost = CostMatrix(np.abs(a.atoms[:, None] - b.atoms[None, :]))
        oracle, _ = wasserstein_exact(a, b, cost, p=2)
        assert w2_dimension(a, b) == pytest.approx(oracle, abs=1e-8)


def test_w2_handles_zero_weight_atoms():
    a = measure_1d([0.0, 0.5, 1.0], [0.5, 0.0, 0.5])
    b = measure_1d([0.0, 1.0], [0.5, 0.5])
    assert w2_dimension(a, b) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------
# wwd
# ---------------------------------------------------------------------

def test_wwd_self_zero():
    batch = np.array([[1.0, 2.0], [0.5, -0.3], [2.0, 2.0]])
    value, _ = wwd(batch, batch)
    assert value == pytest.approx(0.0, abs=1e-10)


def test_wwd_size_one_batches():
    a = np.array([[1.0, -0.5, 2.0]])
    b = np.array([[0.3, 0.9, -1.0]])
    value, _ = wwd(a, b)
    direct = w2_dimension(feature_to_measure(a[0]), feature_to_measure(b[0]))
    assert value == pytest.approx(direct, abs=1e-12)


def test_wwd_compositional_oracle():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(3, 4))
    value, plan = wwd(A, B)
    ground = nested_cost(A, B)
    mu = measure_1d(np.arange(3), np.full(3, 1 / 3))
    nu = measure_1d(np.arange(3), np.full(3, 1 / 3))
    oracle, _ = wasserstein_exact(mu, nu, ground, p=1)
    assert value == pytest.approx(oracle, abs=1e-10)
    assert np.allclose(plan.matrix.sum(axis=1), 1 / 3)


def test_wwd_symmetric():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 3))
    B = rng.normal(size=(4, 3))
    va, _ = wwd(A, B)
    vb, _ = wwd(B, A)
    assert va == pytest.approx(vb, abs=1e-10)


# ---------------------------------------------------------------------
# ar_wwd_primal / containment_check
# ---------------------------------------------------------------------

def test_containment_gives_zero():
    s = measure_1d([0.0, 1.0], [0.5, 0.5])
    t = measure_1d([0.0, 1.0], [0.3, 0.7])
    value, _ = ar_wwd_primal(s, t, CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])), 0.4)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert containment_check(s, t, 0.4)


def test_detour_value_and_lp_oracle():
    s = measure_1d([0.0, 1.0], [0.9, 0.1])
    t = measure_1d([0.0, 1.0], [0.1, 0.9])
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    value, plan = ar_wwd_primal(s, t, CostMatrix(c), 0.5)
    assert value == pytest.approx(0.7, abs=1e-10)
    oracle = lp_transport(s.weights / 0.5, t.weights, c)
    assert value == pytest.approx(oracle, abs=1e-10)
    assert not containment_check(s, t, 0.5)
    # column marginals exact, rows within capacity
    assert np.allclose(plan.matrix.sum(axis=0), t.weights, atol=1e-9)
    assert np.all(plan.matrix.sum(axis=1) <= s.weights / 0.5 + 1e-9)


def test_beta_to_zero_recovers_balanced_problem():
    rng = np.random.default_rng(13)
    s = measure_1d(np.sort(rng.random(4)), random_simplex(rng, 4))
    t = measure_1d(np.sort(rng.random(4)), random_simplex(rng, 4))
    cost = CostMatrix(np.abs(s.atoms[:, None] - t.atoms[None, :]))
    balanced, _ = wasserstein_exact(s, t, cost, p=1)
    relaxed, _ = ar_wwd_primal(s, t, cost, 1e-9)
    assert relaxed == pytest.approx(balanced, abs=1e-6)


def test_beta_monotone_nonincreasing():
    rng = np.random.default_rng(17)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        atoms = np.sort(rng.random(k))
        s = measure_1d(atoms, random_simplex(rng, k))
        t = measure_1d(atoms, random_simplex(rng, k))
        cost = CostMatrix(np.abs(atoms[:, None] - atoms[None, :]))
        values = [ar_wwd_primal(s, t, cost, b)[0]
                  for b in (0.1, 0.3, 0.5, 0.7, 0.9)]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-10


def test_containment_iff_zero_100_random_pairs():
    rng = np.random.default_rng(19)
    seen_contained = seen_violated = 0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        atoms = np.sort(rng.random(k))
        s = measure_1d(atoms, random_simplex(rng, k))
        t = measure_1d(atoms, random_simplex(rng, k))
        beta = float(rng.uniform(0.05, 0.9))
        cost_values = rng.random((k, k))
        np.fill_diagonal(cost_values, 0.0)
        cost = CostMatrix(cost_values)
        value, _ = ar_wwd_primal(s, t, cost, beta)
        contained = containment_check(s, t, beta)
        if contained:
            seen_contained += 1
            assert value <= 1e-10
        else:
            seen_violated += 1
            assert value > 1e-10
            oracle = lp_transport(s.weights / (1 - beta), t.weights, cost_values)
            assert value == pytest.approx(oracle, abs=1e-6)
    assert seen_contained > 0 and seen_violated > 0


def test_beta_out_of_range_rejected():
    s = measure_1d([0.0], [1.0])
    with pytest.raises(ContractError):
        ar_wwd_primal(s, s, CostMatrix(np.array([[0.0]])), 0.0)
    with pytest.raises(ContractError):
        ar_wwd_primal(s, s, CostMatrix(np.array([[0.0]])), 1.0)
    with pytest.raises(ContractError):
        containment_check(s, s, 1.5)


def test_plan_marginal_invariants_enforced():
    with pytest.raises(ContractError):
        TransportPlan(np.array([[0.5, 0.0], [0.0, 0.5]]),
                      np.array([0.7, 0.3]), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------

@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_feature_measure_is_probability(z):
    m = feature_to_measure(np.array(z))
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(m.weights >= 0)


@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_w1_symmetry(k, seed):
    rng = np.random.default_rng(seed)
    atoms = np.sort(rng.random(k))
    a = measure_1d(atoms, random_simplex(rng, k))
    b = measure_1d(atoms, random_simplex(rng, k))
    cost = CostMatrix(np.abs(atoms[:, None] - atoms[None, :]))
    dab, _ = wasserstein_exact(a, b, cost, p=1)
    dba, _ = wasserstein_exact(b, a, cost.__class__(cost.values.T), p=1)
    assert dab == pytest.approx(dba, abs=1e-9)


@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_w2_nonnegative_and_zero_on_self(k, seed):
    rng = np.random.default_rng(seed)
    a = measure_1d(rng.random(k), random_simplex(rng, k))
    assert w2_dimension(a, a) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------
# measure file I/O
# ---------------------------------------------------------------------

def test_measure_roundtrip(tmp_path):
    m = DiscreteMeasure(np.array([[0.1, 0.2], [0.5, 0.9]]), np.array([0.4, 0.6]))
    path = tmp_path / "m.txt"
    save_measure(m, path)
    back = load_measure(path)
    assert np.allclose(back.atoms, m.atoms)
    assert np.allclose(back.weights, m.weights)


def test_measure_scalar_roundtrip(tmp_path):
    m = measure_1d([0.25, 0.75], [0.5, 0.5])
    path = tmp_path / "m.txt"
    save_measure(m, path)
    back = load_measure(path)
    assert back.atoms.ndim == 1
    assert np.allclose(back.atoms, m.atoms)


def test_measure_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5,0.0\n0.5\n")
    with pytest.raises(ParseError, match="line 2"):
        load_measure(bad)
    nonnum = tmp_path / "nonnum.txt"
    nonnum.write_text("0.5,zero\n")
    with pytest.raises(ParseError, match="line 1"):
        load_measure(nonnum)
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n")
    with pytest.raises(ContractError):
        load_measure(empty)
