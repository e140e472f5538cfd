"""Exact-transport tests: pinned worked examples, independent LP and
brute-force oracles, and property-based invariants."""

import heapq
import itertools
import math
import signal
import warnings
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from driftlab import ot
from driftlab.errors import (
    ContractError, DimensionError, InfeasibleError, NumericError, ParseError)
from driftlab.ot import (
    CostMatrix,
    DiscreteMeasure,
    FlowResult,
    _check_duals,
    _check_plan,
    ar_wwd_primal,
    containment_check,
    feature_to_measure,
    load_measure,
    min_cost_flow,
    nested_cost,
    w2_dimension,
    wasserstein_exact,
)
from oracles import ssp as full_search_ssp
from oracles import w2_dimension as scalar_w2_dimension

OT_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "ot"


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
    assert np.allclose(plan, np.diag(mu.weights))


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
    assert np.allclose(plan.sum(axis=1), a)
    assert np.allclose(plan.sum(axis=0), b)


def test_mass_mismatch_rejected():
    m1 = measure_1d([0.0], [1.0])
    m2 = measure_1d([1.0], [0.5])
    with pytest.raises(InfeasibleError):
        wasserstein_exact(m1, m2, CostMatrix(np.array([[1.0]])), p=1)
    # masses far below 1 are compared relative to themselves too
    tiny1, tiny2 = measure_1d([0.0], [1e-12]), measure_1d([1.0], [2e-12])
    with pytest.raises(InfeasibleError, match="mass mismatch"):
        wasserstein_exact(tiny1, tiny2, CostMatrix(np.array([[1.0]])), p=1)


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
            assert np.allclose(plan.sum(axis=1), mu.weights, atol=1e-9)
            assert np.allclose(plan.sum(axis=0), nu.weights, atol=1e-9)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("arg", ["supplies", "demands", "unit_costs"])
def test_non_finite_input_rejected(arg, bad):
    args = {"supplies": np.ones(2), "demands": np.ones(2),
            "unit_costs": np.ones((2, 2))}
    args[arg].flat[0] = bad
    with pytest.raises(ContractError, match="finite"):
        min_cost_flow(**args)


def test_unroutable_remainder_names_mass():
    # within the up-front 1e-9 slack, but the last 5e-10 has no route
    with pytest.raises(InfeasibleError, match="remaining 5e-10 mass"):
        min_cost_flow(np.array([0.5 - 5e-10]), np.array([0.5]), np.array([[1.0]]))


@st.composite
def search_heavy_instances(draw):
    """Supplies, demands and unit costs of sizes 1..40, at mass and cost
    scales 1e-12..1e12, balanced or relaxed. Costs include the 1-D
    distance powers whose solves cancel the most flow, and tied ones;
    weights include zeros and spans of twelve decades."""
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x, y = rng.random((n, 1)), rng.random(m)
    costs = {
        "uniform": lambda: rng.random((n, m)),
        "tied": lambda: rng.integers(0, 3, (n, m)).astype(np.float64),
        "zero": lambda: np.zeros((n, m)),
        "line": lambda: np.abs(x - y),
        "line-squared": lambda: (x - y) ** 2,
        "line-cubed": lambda: np.abs(x - y) ** 3,
    }[draw(st.sampled_from(["uniform", "tied", "zero", "line", "line-squared",
                            "line-cubed"]))]()

    def weights(k):
        w = {"uniform": lambda: rng.random(k) + 1e-3,
             "decades": lambda: 10.0 ** rng.uniform(-12, 0, k),
             "equal": lambda: np.ones(k),
             "sparse": lambda: np.where(rng.random(k) < 0.4, 0.0, rng.random(k)),
             }[draw(st.sampled_from(["uniform", "decades", "equal", "sparse"]))]()
        w[draw(st.integers(0, k - 1))] += 1.0
        return w / w.sum()

    mass = 10.0 ** draw(st.integers(-12, 12))
    caps = weights(n) / draw(st.sampled_from([1.0, 0.99, 0.6, 0.2]))
    return caps * mass, weights(m) * mass, costs * 10.0 ** draw(st.integers(-12, 12))


@given(search_heavy_instances())
@settings(max_examples=150, deadline=None)
def test_valid_solves_use_under_half_the_search_cap(instance):
    # the cap must never be what ends a valid solve
    cap = ot._search_cap
    with mock.patch.object(ot, "_search_cap", lambda n, m: cap(n, m) // 2):
        min_cost_flow(*instance)


# Reference solver: successive shortest paths over adjacency lists with
# a binary heap, from the same start (column reduction, then each column
# routed to its lowest-index argmin row), with the same root rule (a
# relaxed instance searches from t over reversed edges and stops at s,
# a balanced one from s to t), slacks and cost read off the plan. Above
# cost scales of about 1e3 a reduced cost below -1e-13 re-opens a
# settled node, ``via`` can then hold a cycle and the path walk never
# ends, so it is only run on costs in [0, 4].

class _Graph:
    def __init__(self, n):
        self.adj = [[] for _ in range(n)]

    def add_edge(self, u, v, cap, cost):
        # forward edge and residual reverse edge
        self.adj[u].append([v, cap, cost, 0.0, len(self.adj[v])])
        self.adj[v].append([u, 0.0, -cost, 0.0, len(self.adj[u]) - 1])

    def push(self, u, ei, amount):
        e = self.adj[u][ei]
        e[3] += amount
        self.adj[e[0]][e[4]][3] -= amount


def _heap_ssp(graph, s, t, want, n, eps, delivered, relaxed):
    """Deliver the ``want`` - ``delivered`` units still missing s -> t at
    min cost. Returns the potentials.

    Successive shortest paths with Johnson potentials; reduced unit costs
    must be nonnegative and the start flow tight, so plain Dijkstra
    applies from the first iteration. A balanced search runs from s over
    residual edges and stops once t is popped; a ``relaxed`` one runs
    from t over reversed residual edges and stops once s is popped.
    """
    pot = [0.0] * n
    scale = want if want > 0 else 1.0
    tiny, done = 1e-13 * scale, 1e-12 * scale
    root, goal = (t, s) if relaxed else (s, t)
    while want - delivered > done:
        dist = [np.inf] * n
        via = [None] * n  # (tail, index of the edge in the tail's list)
        dist[root] = 0.0
        heap = [(0.0, root)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x] + eps:
                continue
            if x == goal:
                break
            for ei, e in enumerate(graph.adj[x]):
                if relaxed:  # open the tail of the edge into x, e's twin
                    u, v, edge = e[0], x, e[4]
                    y = u
                    _, cap, cost, flow, _ = graph.adj[u][edge]
                else:  # open the head of the edge e out of x
                    u, v, edge = x, e[0], ei
                    y = v
                    _, cap, cost, flow, _ = e
                if cap - flow <= tiny:
                    continue
                nd = d + cost + pot[u] - pot[v]
                if nd < dist[y] - eps:
                    dist[y] = nd
                    via[y] = (u, edge)
                    heapq.heappush(heap, (nd, y))
        if not np.isfinite(dist[goal]):
            reachable = [i for i in range(n) if np.isfinite(dist[i])]
            raise InfeasibleError(
                f"cannot route remaining {want - delivered:.6g} mass; "
                f"saturated cut around nodes {reachable}"
            )
        path = []  # (tail, edge index) along the augmenting path
        if relaxed:
            for i in range(n):
                pot[i] -= min(dist[i], dist[s])
            x = s
            while x != t:
                path.append(via[x])
                x = graph.adj[x][via[x][1]][0]
        else:
            for i in range(n):
                pot[i] += min(dist[i], dist[t])
            x = t
            while x != s:
                path.append(via[x])
                x = via[x][0]
        push = want - delivered  # bottleneck along the path
        for u, ei in path:
            e = graph.adj[u][ei]
            push = min(push, e[1] - e[3])
        for u, ei in path:
            graph.push(u, ei, push)
        delivered += push
    return pot


def heap_min_cost_flow(supplies, demands, unit_costs):
    n, m = unit_costs.shape
    s, t = n + m, n + m + 1
    floor = unit_costs.min(axis=0)
    g = _Graph(n + m + 2)
    for i in range(n):  # edge s -> i is adj[s][i]
        g.add_edge(s, i, float(supplies[i]), 0.0)
    for i in range(n):  # edge i -> n + j is adj[i][1 + j]
        for j in range(m):
            g.add_edge(i, n + j, np.inf, float(unit_costs[i, j] - floor[j]))
    for j in range(m):  # edge n + j -> t is adj[n + j][n]
        g.add_edge(n + j, t, float(demands[j]), 0.0)

    want = float(demands.sum())
    tiny = 1e-13 * (want if want > 0 else 1.0)
    delivered = 0.0
    for j in range(m):
        i = int(np.argmin(unit_costs[:, j]))
        push = min(demands[j], supplies[i] - g.adj[s][i][3])
        if push > tiny:
            g.push(s, i, push)
            g.push(i, 1 + j, push)
            g.push(n + j, n, push)
            delivered += push
    eps = 1e-13 * min(1.0, float(unit_costs.max()))
    relaxed = float(supplies.sum()) - want > 1e-12 * want
    pot = _heap_ssp(g, s, t, want, n + m + 2, eps, delivered, relaxed)

    flows = np.zeros((n, m))
    for i in range(n):
        for e in g.adj[i]:
            v, cap, c, flow, _ = e
            if n <= v < n + m and flow > 0:
                flows[i, v - n] += flow
    used = flows != 0
    return FlowResult(
        cost=math.fsum((flows[used] * unit_costs[used]).tolist()),
        flows=flows,
        row_potentials=np.array(pot[:n]),
        col_potentials=np.array(pot[n:n + m]) + floor,
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


@st.composite
def transport_instances(draw, divisors=st.sampled_from([1.0, 0.6])):
    """Supplies, demands and unit costs of sizes 1..10. Costs are uniform
    on [0, 4], small integers (many tied paths) or all zero; supply rows
    often weigh zero; capacities are the balanced supplies divided by a
    drawn divisor, 0.6 being the relaxed caps of beta = 0.4."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "integer", "zero"]))
    if kind == "uniform":
        costs = rng.uniform(0.0, 4.0, size=(n, m))
    elif kind == "integer":
        costs = rng.integers(0, 5, size=(n, m)).astype(np.float64)
    else:
        costs = np.zeros((n, m))
    supplies = rng.random(n) + 1e-3
    supplies[rng.random(n) < draw(st.sampled_from([0.0, 0.4]))] = 0.0
    supplies[draw(st.integers(0, n - 1))] += 1.0
    supplies /= supplies.sum()
    return supplies / draw(divisors), random_simplex(rng, m), costs


@given(transport_instances())
@settings(max_examples=300, deadline=None)
def test_cost_matches_full_search_oracle(instance):
    supplies, demands, costs = instance
    got = min_cost_flow(supplies, demands, costs).cost
    want = full_search_ssp(supplies, demands, costs, float(demands.sum()))[0]
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@given(transport_instances(divisors=st.just(0.6)))
@settings(max_examples=300, deadline=None)
def test_relaxed_plan_certified_by_its_potentials(instance):
    supplies, demands, costs = instance
    res = min_cost_flow(supplies, demands, costs)
    u, v = res.row_potentials, res.col_potentials
    reduced = costs - (v[None, :] - u[:, None])
    assert reduced.min() >= -1e-9
    assert np.all(np.abs(reduced[res.flows > 0]) <= 1e-9)
    # a row with spare capacity is never dearer than a row in use
    sent = res.flows.sum(axis=1)
    spare, used = sent < supplies - 1e-9, sent > 0
    if spare.any():
        assert u[spare].max() <= u[used].min() + 1e-9
    cells = res.flows != 0
    assert res.cost == math.fsum((res.flows[cells] * costs[cells]).tolist())


@pytest.mark.parametrize("n,m", [(0, 3), (3, 0), (0, 0)])
def test_empty_instance_costs_zero(n, m):
    res = min_cost_flow(np.full(n, 0.5), np.zeros(m), np.ones((n, m)))
    assert res.cost == 0.0
    assert res.flows.shape == (n, m)


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


@pytest.mark.parametrize("k", range(-12, 13))
def test_scale_safe_against_lp_oracle(k):
    # HiGHS tolerances are absolute, so the oracle solves the unit-scale
    # problem and its optimum is scaled: the LP value is linear in the
    # costs and, with supplies and demands scaled together, in the mass.
    rng = np.random.default_rng([k + 12, 0])
    for _ in range(8):
        n, m = (int(x) for x in rng.integers(2, 11, size=2))
        costs = rng.random((n, m))
        demands = random_simplex(rng, m)
        supplies = random_simplex(rng, n)
        for caps in (supplies, supplies / 0.6):
            unit = lp_transport(caps, demands, costs)
            with time_limit(20):
                by_cost = min_cost_flow(caps, demands, costs * 10.0 ** k)
                by_mass = min_cost_flow(caps * 10.0 ** k, demands * 10.0 ** k, costs)
                # masses and costs scaled apart: the value stays at unit scale
                mixed = min_cost_flow(caps * 10.0 ** k, demands * 10.0 ** k,
                                      costs * 10.0 ** -k)
            # abs=0: pytest.approx's default 1e-12 would pass any value
            # at the small scales
            assert by_cost.cost == pytest.approx(unit * 10.0 ** k, rel=1e-9, abs=0)
            assert by_mass.cost == pytest.approx(unit * 10.0 ** k, rel=1e-9, abs=0)
            assert mixed.cost == pytest.approx(unit, rel=1e-9, abs=0)
            for res in (by_cost, by_mass, mixed):
                assert res.flows.min() >= 0


def assert_certified(res, caps, demands, costs):
    """The returned potentials are dual-feasible and close the duality
    gap, each to 1e-12 relative to the largest unit cost (and the total
    demand): the certificate ``min_cost_flow`` checks, restated."""
    u, v = res.row_potentials, res.col_potentials
    top = float(costs.max())
    assert ((costs + u[:, None]) - v).min() >= -1e-12 * top
    theta = u.min()
    dual = sum(demands * (v - theta)) - sum(caps * (u - theta))
    assert abs(res.cost - dual) <= 1e-12 * demands.sum() * top


@given(st.integers(1, 40), st.integers(1, 40),
       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.integers(-12, 12), st.integers(-12, 12), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_relaxed_solve_matches_lp_oracle_across_scales(n, m, beta, cost_exp,
                                                       mass_exp, seed):
    # The oracle solves at unit scale and its value is scaled (see
    # test_scale_safe_against_lp_oracle); capacities are those of
    # ar_wwd_primal, P_s(i) / (1 - beta).
    rng = np.random.default_rng(seed)
    costs = rng.random((n, m))
    caps, demands = random_simplex(rng, n) / (1.0 - beta), random_simplex(rng, m)
    unit = lp_transport(caps, demands, costs)
    by_cost, by_mass = 10.0 ** cost_exp, 10.0 ** mass_exp
    scaled = (caps * by_mass, demands * by_mass, costs * by_cost)
    with time_limit(20):
        res = min_cost_flow(*scaled)
    assert res.cost == pytest.approx(unit * by_cost * by_mass, rel=1e-9, abs=0)
    assert_certified(res, *scaled)


@pytest.mark.parametrize("cost,u,v,message", [
    (0.25, [0.0, 0.0], [0.1, 0.0], "not dual-feasible: a reduced cost of -0.1"),
    (0.25, [0.0, 0.0], [0.0, 0.0], "duality gap: plan cost 0.25 against dual value 0 "),
    (0.0, [np.nan, 0.0], [0.0, 0.0], "reduced cost of nan"),
    (np.nan, [0.0, 0.0], [0.0, 0.0], "duality gap: plan cost nan"),
], ids=["negative-reduced-cost", "gap", "nan-potential", "nan-cost"])
def test_duality_certificate_enforced(cost, u, v, message):
    # costs [[0, 1], [1, 0]] with unit masses on the diagonal: optimum 0,
    # certified by all-zero potentials
    args = np.array([[0.0, 1.0], [1.0, 0.0]]), np.full(2, 0.5), np.full(2, 0.5)
    _check_duals(0.0, *args, np.zeros(2), np.zeros(2))
    with pytest.raises(NumericError, match=message):
        _check_duals(cost, *args, np.array(u), np.array(v))


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


@pytest.mark.parametrize("z", [[np.nan, 1.0], [np.inf, 1.0], [-np.inf, 0.5]])
def test_non_finite_feature_vector_rejected(z):
    # softplus(nan) once warned and then failed as "weights overflow"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="feature vector is not finite"):
            feature_to_measure(np.array(z))


def test_finite_overflow_keeps_its_message():
    with pytest.raises(ContractError, match="feature weights overflow"):
        feature_to_measure(np.array([1e308, 1e308]))


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


def test_w2_rejects_vector_atoms():
    a = DiscreteMeasure(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    b = measure_1d([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(DimensionError, match="1-D"):
        w2_dimension(a, b)
    with pytest.raises(DimensionError, match="1-D"):
        w2_dimension(b, a)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12], ids=["1e-12", "1", "1e12"])
def test_w2_rejects_mass_mismatch(scale):
    a = measure_1d([0.0, 1.0], [0.5 * scale, 0.5 * scale])
    b = measure_1d([0.0, 1.0], [0.5 * scale, (0.5 + 2e-9) * scale])
    with pytest.raises(InfeasibleError, match="mass mismatch"):
        w2_dimension(a, b)
    with pytest.raises(InfeasibleError, match="mass mismatch"):
        w2_dimension(b, a)
    # within 1e-9 of the mass the masses match
    close = measure_1d([0.0, 1.0], [0.5 * scale, (0.5 + 5e-10) * scale])
    assert w2_dimension(a, close) >= 0.0
    assert w2_dimension(close, a) >= 0.0


@st.composite
def dimension_measure_pairs(draw):
    """Two 1-D measures of sizes 1..12 and equal mass: unsorted atoms,
    often repeated (drawn from a small pool) and signed zeros, and
    weights that are often exactly zero."""
    pool = draw(st.lists(st.floats(-4, 4), min_size=1, max_size=4))
    atom = st.one_of(st.sampled_from(pool + [0.0, -0.0]), st.floats(-4, 4))
    weight = st.one_of(st.just(0.0), st.integers(1, 5).map(float),
                       st.floats(1e-6, 1.0))
    pair = []
    for _ in range(2):
        k = draw(st.integers(1, 12))
        atoms = draw(st.lists(atom, min_size=k, max_size=k))
        w = np.array(draw(st.lists(weight, min_size=k, max_size=k)))
        w[draw(st.integers(0, k - 1))] += 1.0
        pair.append(measure_1d(atoms, w / w.sum()))
    return pair


@given(dimension_measure_pairs())
@settings(max_examples=300, deadline=None)
def test_w2_bit_equal_to_scalar_oracle(pair):
    a, b = pair
    assert w2_dimension(a, b) == scalar_w2_dimension(a, b)
    assert w2_dimension(b, a) == scalar_w2_dimension(b, a)


# ---------------------------------------------------------------------
# the nested distance (ot --nested)
# ---------------------------------------------------------------------

def nested_distance(A, B):
    """What ``ot --nested`` solves at beta 0: exact 1-Wasserstein
    between uniform measures on the batch indices, nested ground cost."""
    mu = measure_1d(np.arange(len(A)), np.full(len(A), 1 / len(A)))
    nu = measure_1d(np.arange(len(B)), np.full(len(B), 1 / len(B)))
    return wasserstein_exact(mu, nu, nested_cost(A, B), p=1.0)


def scalar_nested_grid(A, B):
    return np.array([[scalar_w2_dimension(feature_to_measure(a),
                                          feature_to_measure(b)) for b in B]
                     for a in A])


@pytest.mark.parametrize("seed,n,m,width", [(0, 1, 1, 1), (1, 7, 5, 3),
                                            (2, 20, 30, 8), (3, 12, 12, 2)])
def test_nested_cost_bit_equal_to_scalar_oracle(seed, n, m, width):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, width)) * rng.choice([0.1, 1.0, 5.0], size=(n, 1))
    B = rng.normal(size=(m, width))
    B[:, 0] = 0.0  # every target row has the same first weight
    assert np.array_equal(nested_cost(A, B).values, scalar_nested_grid(A, B))


def test_nested_cost_fixture_bit_equal_to_scalar_oracle():
    A = load_measure(OT_FIXTURES / "nested_a.csv").atoms
    B = load_measure(OT_FIXTURES / "nested_b.csv").atoms
    G = nested_cost(A, B).values
    assert G.shape == (len(A), len(B))
    assert np.array_equal(G, scalar_nested_grid(A, B))


def test_nested_cost_rejects_width_mismatch():
    # dimension k of one batch is not dimension k of the other
    with pytest.raises(DimensionError, match="feature widths differ"):
        nested_cost(np.ones((2, 3)), np.ones((2, 2)))


def test_wwd_self_zero():
    batch = np.array([[1.0, 2.0], [0.5, -0.3], [2.0, 2.0]])
    value, _ = nested_distance(batch, batch)
    assert value == pytest.approx(0.0, abs=1e-10)


def test_wwd_size_one_batches():
    a = np.array([[1.0, -0.5, 2.0]])
    b = np.array([[0.3, 0.9, -1.0]])
    value, _ = nested_distance(a, b)
    direct = w2_dimension(feature_to_measure(a[0]), feature_to_measure(b[0]))
    assert value == pytest.approx(direct, abs=1e-12)


def test_wwd_compositional_oracle():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(3, 4))
    value, plan = nested_distance(A, B)
    # between uniform measures of equal size an optimal plan is a
    # permutation (Birkhoff), so the best matching is the oracle
    ground = np.array([[w2_dimension(feature_to_measure(a),
                                     feature_to_measure(b)) for b in B]
                       for a in A])
    oracle = min(ground[range(3), perm].sum() / 3
                 for perm in itertools.permutations(range(3)))
    assert value == pytest.approx(oracle, abs=1e-10)
    assert np.allclose(plan.sum(axis=1), 1 / 3)


def test_wwd_symmetric():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(4, 3))
    B = rng.normal(size=(4, 3))
    va, _ = nested_distance(A, B)
    vb, _ = nested_distance(B, A)
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
    assert np.allclose(plan.sum(axis=0), t.weights, atol=1e-9)
    assert np.all(plan.sum(axis=1) <= s.weights / 0.5 + 1e-9)


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


@pytest.mark.parametrize("flows,supplies,demands,message", [
    ([[0.5, 0.0], [0.0, 0.5]], [0.7, 0.3], [0.5, 0.5], "a row by 0.2 over"),
    # within numpy.allclose's default rtol of 1e-5
    ([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5 + 4e-6, 0.5 - 4e-6],
     "a column by 4e-06"),
    ([[5e-10]], [1e-12], [1e-12], "a column by 4.99e-10"),
    ([[1.0]], [np.nan], [1.0], "a row by nan"),
], ids=["row-over-supply", "column-off-4e-6", "tiny-marginals", "nan-supply"])
def test_plan_marginal_invariants_enforced(flows, supplies, demands, message):
    with pytest.raises(NumericError, match=message):
        _check_plan(np.array(flows), np.array(supplies), np.array(demands))


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
    path.write_text("0.4,0.1,0.2\n0.6,0.5,0.9\n")
    back = load_measure(path)
    assert np.allclose(back.atoms, m.atoms)
    assert np.allclose(back.weights, m.weights)


def test_measure_scalar_roundtrip(tmp_path):
    m = measure_1d([0.25, 0.75], [0.5, 0.5])
    path = tmp_path / "m.txt"
    path.write_text("0.5,0.25\n0.5,0.75\n")
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
