"""Exact discrete optimal transport with an asymmetric marginal relaxation.

Contents: weighted point-set measures, a successive-shortest-path
min-cost-flow solver used as the exact backend, the p-Wasserstein
distance, the closed-form 1-D 2-Wasserstein distance between feature
dimensions, the accompanying vector-as-distribution conversion, the
nested distance over sample batches, and the relaxed primal problem
whose value vanishes whenever the target measure is contained in the
source measure scaled by 1/(1-beta).

All solvers are deterministic: each shortest-path search settles the
open node of least label, the lowest node index on ties, and a settled
label is final, so returned plans are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, DimensionError, InfeasibleError, ParseError
from .textio import read_rows

_MARGINAL_TOL = 1e-9  # mass slack; the mass checks scale it by max(1, mass)


@dataclass
class DiscreteMeasure:
    """Weighted point set: ``atoms`` (n,) scalars or (n, d) vectors,
    ``weights`` (n,); ``total_mass`` is the weights' sum."""

    atoms: np.ndarray
    weights: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.atoms.shape[0] != self.weights.shape[0]:
            raise ContractError("atom count differs from weight count")
        if self.weights.size == 0:
            raise ContractError("empty measure")
        if not (np.all(np.isfinite(self.atoms))
                and np.all(np.isfinite(self.weights))):
            raise ContractError("atoms and weights must be finite")
        if np.any(self.weights < 0):
            raise ContractError("negative weight")
        with np.errstate(over="ignore"):
            self.total_mass = float(self.weights.sum())
        if not np.isfinite(self.total_mass):
            raise ContractError("weights overflow: their total mass is not finite")

    def __len__(self):
        return self.weights.shape[0]

    @cached_property
    def _quantiles(self):
        """Atoms and weights of a 1-D measure in stable ascending atom
        order, as lists of Python floats; built once per measure."""
        atoms, weights = self.atoms.tolist(), self.weights.tolist()
        order = sorted(range(len(atoms)), key=atoms.__getitem__)
        return [atoms[k] for k in order], [weights[k] for k in order]


@dataclass
class TransportPlan:
    """Nonnegative coupling matrix with its two marginals."""

    matrix: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.row_marginal = np.asarray(self.row_marginal, dtype=np.float64)
        self.col_marginal = np.asarray(self.col_marginal, dtype=np.float64)
        if np.any(self.matrix < -1e-12):
            raise ContractError("negative coupling entry")
        self.matrix = np.maximum(self.matrix, 0.0)
        if not np.allclose(self.matrix.sum(axis=1), self.row_marginal, atol=_MARGINAL_TOL):
            raise ContractError("row sums do not match row marginal")
        if not np.allclose(self.matrix.sum(axis=0), self.col_marginal, atol=_MARGINAL_TOL):
            raise ContractError("column sums do not match column marginal")


@dataclass
class CostMatrix:
    """Ground distances between source and target atoms, with exponent p."""

    values: np.ndarray
    p: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError("cost matrix must be 2-D")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ContractError("cost entries must be finite and nonnegative")
        if self.p <= 0:
            raise ContractError("exponent p must be positive")


# ---------------------------------------------------------------------
# min-cost flow (successive shortest paths with potentials)
# ---------------------------------------------------------------------

@dataclass
class FlowResult:
    cost: float
    flows: np.ndarray
    row_potentials: np.ndarray = field(repr=False, default=None)
    col_potentials: np.ndarray = field(repr=False, default=None)


def _ssp(supplies, demands, costs, want):
    """Deliver ``want`` units s -> t at min cost. Returns (cost, flows, pot).

    Successive shortest paths with Johnson potentials on the complete
    bipartite graph s -> rows -> columns -> t, held densely: ``flows``
    (n, m) on row -> column edges, ``out`` on s -> rows, ``into`` on
    columns -> t. Nodes are rows 0..n-1, columns n..n+m-1, then s, t.
    Unit costs must be nonnegative so plain Dijkstra applies from the
    first iteration. Every label is ((d + cost) + pot[u]) - pot[v] in
    that order; a reverse edge costs -cost, an s or t edge costs ±0.0.
    Labels compare with a fixed slack; masses (the stop test and the
    residual capacities) with tolerances scaled by max(1, want), so a
    large total mass does not strand an ulp-sized remainder.
    """
    n, m = costs.shape
    s, t = n + m, n + m + 1
    rows, cols = slice(0, n), slice(n, s)
    flows, out, into = np.zeros((n, m)), np.zeros(n), np.zeros(m)
    senders = [set() for _ in range(m)]  # rows i with flows[i, j] > tiny
    c = costs.tolist()
    pot = np.zeros(n + m + 2)
    delivered, total, eps = 0.0, 0.0, 1e-13
    scale = max(1.0, want)
    tiny, done = eps * scale, 1e-12 * scale

    def lower(nodes, nd):  # open nodes reached from u at labels nd
        better = nd < lim[nodes]
        np.putmask(key[nodes], better, nd)
        np.putmask(lim[nodes], better, nd - eps)
        np.putmask(prev[nodes], better, u)

    while want - delivered > done:
        # labels of settled nodes; of open nodes; key - eps, -inf once settled
        dist, key, lim = (np.full(n + m + 2, np.inf) for _ in range(3))
        prev = np.zeros(n + m + 2, dtype=np.intp)
        key[s] = 0.0
        p = pot.tolist()
        while True:
            u = int(key.argmin())
            d = float(key[u])
            if d == np.inf:
                break
            dist[u], key[u], lim[u] = d, np.inf, -np.inf
            if u < n:
                nd = costs[u] + d
                nd += p[u]
                nd -= pot[cols]
                lower(cols, nd)
            elif u < s:
                j = u - n
                for i in senders[j]:
                    nd = ((d - c[i][j]) + p[u]) - p[i]
                    if nd < lim[i]:
                        key[i], lim[i], prev[i] = nd, nd - eps, u
                nd = ((d + 0.0) + p[u]) - p[t]
                if demands[j] - into[j] > tiny and nd < lim[t]:
                    key[t], lim[t], prev[t] = nd, nd - eps, u
            elif u == s:
                nd = ((d + 0.0) + p[s]) - pot[rows]
                lower(rows, np.where(supplies - out > tiny, nd, np.inf))
            else:
                nd = ((d + -0.0) + p[t]) - pot[cols]
                lower(cols, np.where(into > tiny, nd, np.inf))
        reached = dist < np.inf
        if not reached[t]:
            raise InfeasibleError(
                f"cannot route remaining {want - delivered:.6g} mass; "
                f"saturated cut around nodes {np.flatnonzero(reached).tolist()}"
            )
        pot[reached] += dist[reached]
        path, v = [], t  # edges (u, v) from t back to s
        while v != s:
            path.append((int(prev[v]), v))
            v = path[-1][0]
        push = min([want - delivered] + [  # row -> column edges are uncapacitated
            demands[u - n] - into[u - n] if v == t else
            supplies[v] - out[v] if u == s else flows[v, u - n]
            for u, v in path if not n <= v < s])
        for u, v in path:
            if v == t:
                into[u - n] += push
            elif u == s:
                out[v] += push
            elif u < n:
                flows[u, v - n] += push
                total += push * c[u][v - n]
                senders[v - n].add(u)
            else:
                flows[v, u - n] -= push
                total += push * -c[v][u - n]
                if flows[v, u - n] <= tiny:
                    senders[u - n].discard(v)
        delivered += push
    return float(total), flows, pot


def min_cost_flow(supplies, demands, unit_costs):
    """Transportation-shaped min-cost flow on the complete bipartite graph.

    Row i may emit at most ``supplies[i]``; column j must receive exactly
    ``demands[j]``; every edge (i, j) is uncapacitated at unit cost
    ``unit_costs[i, j]`` >= 0. Returns a FlowResult whose potentials
    certify optimality through complementary slackness.
    """
    supplies = np.asarray(supplies, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    unit_costs = np.asarray(unit_costs, dtype=np.float64)
    n, m = unit_costs.shape
    if supplies.shape != (n,) or demands.shape != (m,):
        raise DimensionError("supply/demand shapes do not match the cost matrix")
    if np.any(supplies < 0) or np.any(demands < 0):
        raise ContractError("negative supply or demand")
    if np.any(unit_costs < 0):
        raise ContractError("unit costs must be nonnegative")
    total_demand = float(demands.sum())
    if supplies.sum() < total_demand - _MARGINAL_TOL * max(1.0, total_demand):
        raise InfeasibleError(
            f"violated cut: all supply rows saturate at {supplies.sum():.6g}, "
            f"below total demand {total_demand:.6g}"
        )
    cost, flows, pot = _ssp(supplies, demands, unit_costs, total_demand)
    return FlowResult(cost, flows, pot[:n], pot[n:n + m])


# ---------------------------------------------------------------------
# Wasserstein distances
# ---------------------------------------------------------------------

def wasserstein_exact(mu, nu, cost, p=None):
    """p-Wasserstein distance between two equal-mass discrete measures.

    ``cost`` holds ground distances; the solver raises them to the
    power p internally and takes the 1/p root of the optimum.
    """
    if p is None:
        p = cost.p
    if p <= 0:
        raise ContractError("p must be positive")
    if len(mu) == 0 or len(nu) == 0:
        raise ContractError("empty measure")
    mass = max(1.0, mu.total_mass, nu.total_mass)
    if abs(mu.total_mass - nu.total_mass) > _MARGINAL_TOL * mass:
        raise InfeasibleError(
            f"mass mismatch: {mu.total_mass} vs {nu.total_mass}"
        )
    if cost.values.shape != (len(mu), len(nu)):
        raise DimensionError("cost matrix shape does not match the measures")
    res = min_cost_flow(mu.weights, nu.weights, cost.values ** p)
    plan = TransportPlan(res.flows, mu.weights, nu.weights)
    return res.cost ** (1.0 / p), plan


def feature_to_measure(z):
    """View a feature vector as a measure on positions {1/M, ..., 1}.

    The weight of atom j is softplus(z[j]), normalized to total mass 1.
    """
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    M = z.size
    if M < 1:
        raise ContractError("empty feature vector")
    if not np.all(np.isfinite(z)):
        raise ContractError("feature vector is not finite")
    w = np.logaddexp(0.0, z)
    with np.errstate(over="ignore"):
        s = w.sum()
    if not np.isfinite(s):
        raise ContractError("feature weights overflow: their sum is not finite")
    if s <= 0:
        raise ContractError("degenerate measure: all weights vanish after transform")
    positions = np.arange(1, M + 1, dtype=np.float64) / M
    return DiscreteMeasure(positions, w / s)


def w2_dimension(zA, zB):
    """Exact 1-D 2-Wasserstein distance by inverse-CDF matching.

    Merges the two measures' sorted quantiles on Python floats; each
    step moves the least of the two atoms' remaining weights and the
    mass still to match (the first of them on ties).
    """
    if zA.atoms.ndim != 1 or zB.atoms.ndim != 1:
        raise DimensionError("w2_dimension expects 1-D measures")
    if abs(zA.total_mass - zB.total_mass) > 1e-9:
        raise InfeasibleError("mass mismatch between dimension measures")
    mass = zA.total_mass
    pa, wa = zA._quantiles
    pb, wb = zB._quantiles
    last_a, last_b = len(wa) - 1, len(wb) - 1
    ia = ib = 0
    remaining_a, remaining_b = wa[0], wb[0]
    done = 0.0
    total = 0.0
    while done < mass - 1e-15:
        while remaining_a <= 1e-15 and ia < last_a:
            ia += 1
            remaining_a = wa[ia]
        while remaining_b <= 1e-15 and ib < last_b:
            ib += 1
            remaining_b = wb[ib]
        step = remaining_a
        if remaining_b < step:
            step = remaining_b
        if mass - done < step:
            step = mass - done
        if step <= 1e-15:
            break
        total += step * (pa[ia] - pb[ib]) ** 2
        remaining_a -= step
        remaining_b -= step
        done += step
    return math.sqrt(total)


def _batch_features(batch):
    f = np.asarray(batch, dtype=np.float64)
    if f.ndim != 2:
        raise DimensionError("feature batch must be 2-D")
    return f


def nested_cost(batchA, batchB):
    """Pairwise ground-cost matrix of per-sample dimension measures."""
    A = _batch_features(batchA)
    B = _batch_features(batchB)
    if A.shape[1] != B.shape[1]:
        raise DimensionError(
            f"feature widths differ: {A.shape[1]} in the source batch, "
            f"{B.shape[1]} in the target batch"
        )
    measuresA = [feature_to_measure(row) for row in A]
    measuresB = [feature_to_measure(row) for row in B]
    G = np.zeros((len(measuresA), len(measuresB)))
    for i, ma in enumerate(measuresA):
        G[i] = [w2_dimension(ma, mb) for mb in measuresB]
    return CostMatrix(G, p=1.0)


def ar_wwd_primal(source, target, cost, beta):
    """Relaxed primal transport: source atom i may emit up to
    P_s(i)/(1-beta), target atom j receives exactly P_t(j).

    The optimum is zero exactly when the target is contained in the
    scaled source (every P_t(j) <= P_s(j)/(1-beta) with zero self-cost).
    Monotone nonincreasing in beta; reduces to the balanced problem as
    beta -> 0.
    """
    if not (0 < beta < 1):
        raise ContractError("beta must lie strictly between 0 and 1")
    if abs(source.total_mass - 1.0) > 1e-9 or abs(target.total_mass - 1.0) > 1e-9:
        raise ContractError("both measures must have total mass 1")
    if cost.values.shape != (len(source), len(target)):
        raise DimensionError("cost matrix shape does not match the measures")
    caps = source.weights / (1.0 - beta)
    res = min_cost_flow(caps, target.weights, cost.values ** cost.p)
    plan = TransportPlan(res.flows, res.flows.sum(axis=1), target.weights)
    return res.cost ** (1.0 / cost.p), plan


def containment_check(source, target, beta):
    """True iff target weight <= source weight/(1-beta) at every atom."""
    if not (0 < beta < 1):
        raise ContractError("beta must lie strictly between 0 and 1")
    if len(source) != len(target):
        raise ContractError("containment_check needs shared atom indexing")
    return bool(np.all(target.weights <= source.weights / (1.0 - beta) + 1e-12))


# ---------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------

def load_measure(path):
    """Read a measure from delimited text: one atom per line,
    ``weight,coord1[,coord2,...]``, through :func:`textio.read_rows`."""
    rows = read_rows(path)
    if rows.shape[1] < 2:
        raise ParseError(f"{path}: expected weight,coord1[,coord2,...]")
    atoms = rows[:, 1] if rows.shape[1] == 2 else rows[:, 1:]
    return DiscreteMeasure(atoms, rows[:, 0])
