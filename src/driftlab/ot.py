"""Exact discrete optimal transport with an asymmetric marginal relaxation.

Contents: weighted point-set measures, a successive-shortest-path
min-cost-flow solver used as the exact backend, the p-Wasserstein
distance, the closed-form 1-D 2-Wasserstein distance between feature
dimensions, the rowwise softplus + L1 normalization that turns feature
rows into measures over their dimensions (shared with the critic and
the evaluation), the nested distance over sample batches, and the
relaxed primal problem whose value vanishes whenever the target measure
is contained in the source measure scaled by 1/(1-beta).

The min-cost-flow solver starts from a column reduction: each column's
least unit cost is subtracted, and each column is routed to its first
cheapest row as far as that row's supply allows (Jonker & Volgenant,
Computing 38, 1987). Shortest-path searches then route only the rest
(Ahuja, Magnanti & Orlin, Network Flows, 1993, ch. 9). A balanced
solve searches from the source and stops once the sink settles. A
relaxed solve, whose supply exceeds its demand, has many rows with
spare supply and few columns still short, so it searches from the sink
over reversed edges and stops once the source settles. The reported
cost is read off the final plan as an exact sum, so it does not depend
on the augmenting paths. Every solve certifies itself: the returned
potentials must be dual-feasible and their dual value must match the
cost, each to the stop slack relative to the largest unit cost (and the
total demand), or the solve raises NumericError.

Masses follow one rule: two differ when abs(a - b) > rtol * mass, mass
being the mass involved, with no absolute floor. Input masses compare
at rtol ``_MASS_RTOL``. Containment, and the plan checked after every
solve, compare at the solver's stop slack ``_STOP_RTOL``.

All solvers are deterministic: each shortest-path search settles the
open node of least label, the lowest node index on ties, and a settled
label is final, so returned plans are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, DimensionError, InfeasibleError, NumericError, ParseError
from .textio import read_rows

_MASS_RTOL = 1e-9  # input masses differ past this share of the mass
_STOP_RTOL = 1e-12  # the solver stops with at most this share unrouted


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
class CostMatrix:
    """Ground distances between source and target atoms."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError("cost matrix must be 2-D")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ContractError("cost entries must be finite and nonnegative")


# ---------------------------------------------------------------------
# min-cost flow (successive shortest paths with potentials)
# ---------------------------------------------------------------------

@dataclass
class FlowResult:
    cost: float
    flows: np.ndarray
    row_potentials: np.ndarray = field(repr=False, default=None)
    col_potentials: np.ndarray = field(repr=False, default=None)


def _search_cap(n, m):
    """Searches one solve may run before it raises. A search ends at a
    row's spare supply, a column's shortfall, the rest of the mass or
    the flow of an edge it cancels, and only the last recurs without a
    bound. Valid solves of up to 40 x 40 use under half of this cap
    (see the tests). 1-D squared-distance costs took the most searches
    measured: 330 balanced at 40 x 40 and 2454 at 160 x 160, past any
    cap linear in n + m.
    """
    return (n + m) ** 2 + 16


def _ssp(supplies, demands, costs, want):
    """Deliver ``want`` units s -> t at min cost. Returns (cost, flows, pot).

    Successive shortest paths with Johnson potentials on the complete
    bipartite graph s -> rows -> columns -> t, held densely: ``flows``
    (n, m) on row -> column edges, ``out`` on s -> rows, ``into`` on
    columns -> t. Nodes are rows 0..n-1, columns n..n+m-1, then s, t.

    Start: every column must receive exactly its demand, so subtracting
    each column's least unit cost shifts every plan's cost by the same
    constant; the searches run on these reduced costs, all nonnegative
    with a zero in each column. Each column is first routed to its
    lowest-index argmin row, up to that row's remaining supply. This
    partial flow uses only zero-cost edges, so with all potentials at 0
    it is dual-feasible and the searches route only what it left over.

    Search: plain Dijkstra from a root to a goal. A balanced solve
    searches from s along residual edges and stops once t settles;
    every potential then moves by min(dist[v], dist[t]). A relaxed
    solve, whose supply exceeds ``want`` by more than the stop slack,
    leaves most rows with spare supply and few columns short, so it
    searches from t along reversed residual edges and stops once s
    settles; every potential then moves by -min(dist[v], dist[s])
    (Ahuja, Magnanti & Orlin, Network Flows, 1993, sec. 9.7). Both keep
    reduced costs nonnegative. Every label is ((d + cost) + pot[u]) -
    pot[v] for the residual edge (u, v), whichever end is opened; a
    reverse edge costs -cost, an s or t edge costs ±0.0. Labels compare
    with a slack of 1e-13 times min(1, largest unit cost), and masses
    (the stop test and the residual capacities) with tolerances
    relative to ``want``, so neither a small cost scale nor a small
    total mass drowns in an absolute slack.

    Cost: read off the final plan, the exact sum (``math.fsum``) of
    flow times original unit cost over the cells in use, so it does not
    depend on the order of the augmentations. The column minima are
    added back onto the returned column potentials, which therefore
    certify optimality against the original costs
    (:func:`_check_duals`).
    """
    n, m = costs.shape
    s, t = n + m, n + m + 1
    rows, cols = slice(0, n), slice(n, s)
    flows, out, into = np.zeros((n, m)), np.zeros(n), np.zeros(m)
    pot = np.zeros(n + m + 2)
    if n == 0 or m == 0:
        return 0.0, flows, pot
    floor = costs.min(axis=0)
    reduced = costs - floor
    c = reduced.tolist()
    senders = [set() for _ in range(m)]  # rows i with flows[i, j] > tiny
    receivers = [set() for _ in range(n)]  # columns j with flows[i, j] > tiny
    delivered = 0.0
    eps = 1e-13 * min(1.0, float(costs.max()))
    scale = want if want > 0 else 1.0
    tiny, done = 1e-13 * scale, _STOP_RTOL * scale

    for j, i in enumerate(costs.argmin(axis=0).tolist()):
        push = min(demands[j], supplies[i] - out[i])
        if push > tiny:
            flows[i, j] = push
            out[i] += push
            into[j] = push
            senders[j].add(i)
            receivers[i].add(j)
            delivered += push

    # Each search refills: labels of settled nodes; of open nodes; key -
    # eps, -inf once settled. ``via``, the node each label came through,
    # is read only along the path, whose nodes the same search opened.
    dist, key, lim = (np.empty(n + m + 2) for _ in range(3))
    via = np.zeros(n + m + 2, dtype=np.intp)
    at_rows, at_cols = ((key[x], lim[x], via[x]) for x in (rows, cols))
    pot_rows, pot_cols = pot[rows], pot[cols]  # views: pot changes in place

    def lower(nodes, nd, u):  # open nodes (at_rows or at_cols) through u at labels nd
        keys, lims, vias = nodes
        better = nd < lims
        np.putmask(keys, better, nd)
        np.putmask(lims, better, nd - eps)
        np.putmask(vias, better, u)

    def lower_one(v, nd, u):
        if nd < lim[v]:
            key[v], lim[v], via[v] = nd, nd - eps, u

    def forward(u, d):  # open the heads of the residual edges out of u
        if u < n:
            nd = reduced[u] + d
            nd += p[u]
            nd -= pot_cols
            lower(at_cols, nd, u)
        elif u < s:
            j = u - n
            for i in senders[j]:
                lower_one(i, ((d - c[i][j]) + p[u]) - p[i], u)
            if demands[j] - into[j] > tiny:
                lower_one(t, ((d + 0.0) + p[u]) - p[t], u)
        else:  # u == s
            nd = ((d + 0.0) + p[s]) - pot_rows
            lower(at_rows, np.where(supplies - out > tiny, nd, np.inf), u)

    def backward(v, d):  # open the tails of the residual edges into v
        if v < n:
            for j in receivers[v]:
                lower_one(n + j, ((d - c[v][j]) + p[n + j]) - p[v], v)
            if supplies[v] - out[v] > tiny:
                lower_one(s, ((d + 0.0) + p[s]) - p[v], v)
        elif v < s:
            nd = reduced_t[v - n] + d
            nd += pot_rows
            nd -= p[v]
            lower(at_rows, nd, v)
        else:  # v == t
            nd = (d + 0.0) + pot_cols
            nd -= p[t]
            lower(at_cols, np.where(demands - into > tiny, nd, np.inf), v)

    relaxed = float(supplies.sum()) - want > _STOP_RTOL * want
    if relaxed:
        root, goal, expand = t, s, backward
        reduced_t = np.ascontiguousarray(reduced.T)  # a column's costs, contiguous
    else:
        root, goal, expand = s, t, forward
    searches, cap = 0, _search_cap(n, m)
    while want - delivered > done:
        if searches == cap:
            raise NumericError(f"no optimal plan after {cap} shortest-path searches: "
                               f"{want - delivered:.6g} mass unrouted")
        searches += 1
        for x in (dist, key, lim):
            x.fill(np.inf)
        key[root] = 0.0
        p = pot.tolist()
        while True:
            u = int(key.argmin())
            d = float(key[u])
            if d == np.inf:
                break
            dist[u], key[u], lim[u] = d, np.inf, -np.inf
            if u == goal:
                break
            expand(u, d)
        if dist[goal] == np.inf:
            raise InfeasibleError(
                f"cannot route remaining {want - delivered:.6g} mass; "
                f"saturated cut around nodes {np.flatnonzero(dist < np.inf).tolist()}"
            )
        path = []  # edges (u, v)
        if relaxed:
            pot -= np.minimum(dist, dist[s])
            u = s
            while u != t:
                path.append((u, int(via[u])))
                u = path[-1][1]
        else:
            pot += np.minimum(dist, dist[t])
            v = t
            while v != s:
                path.append((int(via[v]), v))
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
                senders[v - n].add(u)
                receivers[u].add(v - n)
            else:
                flows[v, u - n] -= push
                if flows[v, u - n] <= tiny:
                    senders[u - n].discard(v)
                    receivers[v].discard(u - n)
        delivered += push
    pot[cols] += floor
    used = flows != 0
    return math.fsum((flows[used] * costs[used]).tolist()), flows, pot


def min_cost_flow(supplies, demands, unit_costs):
    """Transportation-shaped min-cost flow on the complete bipartite graph.

    Row i may emit at most ``supplies[i]``; column j must receive exactly
    ``demands[j]``; every edge (i, j) is uncapacitated at unit cost
    ``unit_costs[i, j]`` >= 0, and every input is finite. Returns a
    FlowResult whose potentials certify its cost as optimal. A solve
    past its search cap (:func:`_search_cap`), a plan that misses its
    marginals (:func:`_check_plan`), or a cost its potentials do not
    certify (:func:`_check_duals`), raises NumericError.
    """
    supplies = np.asarray(supplies, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    unit_costs = np.asarray(unit_costs, dtype=np.float64)
    n, m = unit_costs.shape
    if supplies.shape != (n,) or demands.shape != (m,):
        raise DimensionError("supply/demand shapes do not match the cost matrix")
    if not all(np.isfinite(x).all() for x in (supplies, demands, unit_costs)):
        raise ContractError("supplies, demands and unit costs must be finite")
    if np.any(supplies < 0) or np.any(demands < 0):
        raise ContractError("negative supply or demand")
    if np.any(unit_costs < 0):
        raise ContractError("unit costs must be nonnegative")
    total_demand = float(demands.sum())
    if total_demand - supplies.sum() > _MASS_RTOL * total_demand:
        raise InfeasibleError(
            f"violated cut: all supply rows saturate at {supplies.sum():.6g}, "
            f"below total demand {total_demand:.6g}"
        )
    cost, flows, pot = _ssp(supplies, demands, unit_costs, total_demand)
    _check_plan(flows, supplies, demands)
    u, v = pot[:n], pot[n:n + m]
    _check_duals(cost, unit_costs, supplies, demands, u, v)
    return FlowResult(cost, flows, u, v)


def _check_plan(flows, supplies, demands):
    """Raise NumericError unless every column of ``flows`` is within the
    stop slack of its demand and no row exceeds its supply by more; a
    NaN anywhere fails the check."""
    slack = _STOP_RTOL * float(demands.sum())
    short = np.abs(flows.sum(axis=0) - demands).max(initial=0.0)
    over = (flows.sum(axis=1) - supplies).max(initial=0.0)
    if not (short <= slack and over <= slack):
        raise NumericError(f"plan misses its marginals: a column by {short:.3g}, "
                           f"a row by {over:.3g} over its supply (slack {slack:.3g})")


def _check_duals(cost, costs, caps, demands, u, v):
    """Raise NumericError unless the row potentials ``u`` and column
    potentials ``v`` certify ``cost`` as the optimum.

    Both tests are relative to the largest unit cost, at the stop slack:
    every reduced cost c_ij + u_i - v_j must be at least -slack times it
    (dual feasibility), and the dual value, with theta the least row
    potential, sum_j d_j (v_j - theta) - sum_i cap_i (u_i - theta), must
    lie within slack times it times the total demand of ``cost`` (no
    duality gap). A NaN anywhere fails the check.
    """
    if costs.size == 0:
        return
    top = float(costs.max())
    worst = float(((costs + u[:, None]) - v).min())
    if not worst >= -_STOP_RTOL * top:
        raise NumericError(f"potentials are not dual-feasible: a reduced cost of "
                           f"{worst:.3g} (slack {_STOP_RTOL * top:.3g})")
    theta = float(u.min())
    dual = (math.fsum((demands * (v - theta)).tolist())
            - math.fsum((caps * (u - theta)).tolist()))
    slack = _STOP_RTOL * float(demands.sum()) * top
    if not abs(cost - dual) <= slack:
        raise NumericError(f"duality gap: plan cost {cost:.17g} against dual value "
                           f"{dual:.17g} (slack {slack:.3g})")


# ---------------------------------------------------------------------
# Wasserstein distances
# ---------------------------------------------------------------------

def wasserstein_exact(mu, nu, cost, p=1.0):
    """p-Wasserstein distance between two equal-mass discrete measures.

    ``cost`` holds ground distances; the solver raises them to the
    power p internally and takes the 1/p root of the optimum. Returns
    the distance and its (n, m) flow plan.
    """
    if p <= 0:
        raise ContractError("p must be positive")
    mass = max(mu.total_mass, nu.total_mass)
    if abs(mu.total_mass - nu.total_mass) > _MASS_RTOL * mass:
        raise InfeasibleError(
            f"mass mismatch: {mu.total_mass} vs {nu.total_mass}"
        )
    res = min_cost_flow(mu.weights, nu.weights, cost.values ** p)
    return res.cost ** (1.0 / p), res.flows


def measure_normalize(features):
    """Rowwise softplus + L1 normalization: row i of an (n, M) batch
    becomes the weights softplus(f_ij) / sum_j softplus(f_ij).

    The numeric path for the critic, the evaluation and the nested cost;
    ``dualcritic.measure_normalize_graph`` is its graph twin. It works
    on a C-contiguous copy of the batch (no copy when the batch already
    is one), so each row sums in the order of a lone row whatever the
    batch's layout. A row whose weights sum to 0 (all entries below
    about -745) or overflow raises NumericError.
    """
    w = np.logaddexp(0.0, np.ascontiguousarray(features, dtype=np.float64))
    with np.errstate(over="ignore"):
        total = w.sum(axis=1, keepdims=True)
    if not ((total > 0) & (total < np.inf)).all():
        raise NumericError("measure normalization: a row's weights sum to 0 or overflow")
    return w / total


def w2_dimension(zA, zB):
    """Exact 1-D 2-Wasserstein distance by inverse-CDF matching.

    Merges the two measures' sorted quantiles on Python floats; each
    step moves the least of the two atoms' remaining weights and the
    mass still to match (the first of them on ties).
    """
    if zA.atoms.ndim != 1 or zB.atoms.ndim != 1:
        raise DimensionError("w2_dimension expects 1-D measures")
    mass = zA.total_mass
    if abs(mass - zB.total_mass) > _MASS_RTOL * mass:
        raise InfeasibleError("mass mismatch between dimension measures")
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


def nested_cost(batchA, batchB):
    """Pairwise ground-cost matrix of per-sample dimension measures.

    Each row of a batch, normalized by :func:`measure_normalize`, is a
    measure on the positions {1/M, ..., 1} of its M dimensions; entry
    (a, b) is :func:`w2_dimension` between row a's and row b's.
    """
    A, B = (np.asarray(x, dtype=np.float64) for x in (batchA, batchB))
    if A.ndim != 2 or B.ndim != 2:
        raise DimensionError("feature batch must be 2-D")
    M = A.shape[1]
    if M != B.shape[1]:
        raise DimensionError(
            f"feature widths differ: {M} in the source batch, "
            f"{B.shape[1]} in the target batch"
        )
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ContractError("feature batch is not finite")
    try:
        WA, WB = measure_normalize(A), measure_normalize(B)
    except NumericError:
        raise ContractError("feature weights vanish or overflow: a row's softplus "
                            "weights must have a finite, positive sum") from None
    positions = np.arange(1, M + 1, dtype=np.float64) / M
    measuresB = [DiscreteMeasure(positions, w) for w in WB]
    G = np.zeros((len(WA), len(WB)))
    for i, w in enumerate(WA):
        ma = DiscreteMeasure(positions, w)
        G[i] = [w2_dimension(ma, mb) for mb in measuresB]
    return CostMatrix(G)


def _caps(source, beta):
    """Relaxed source supplies P_s(i)/(1-beta), for 0 < beta < 1."""
    if not (0 < beta < 1):
        raise ContractError("beta must lie strictly between 0 and 1")
    return source.weights / (1.0 - beta)


def ar_wwd_primal(source, target, cost, beta):
    """Relaxed primal transport with exponent 1: source atom i may emit
    up to P_s(i)/(1-beta), target atom j receives exactly P_t(j).

    The optimum is zero exactly when the target is contained in the
    scaled source (every P_t(j) <= P_s(j)/(1-beta) with zero self-cost).
    Monotone nonincreasing in beta; reduces to the balanced problem as
    beta -> 0. Returns the value and its (n, m) flow plan.
    """
    caps = _caps(source, beta)
    if any(abs(m.total_mass - 1.0) > _MASS_RTOL for m in (source, target)):
        raise ContractError("both measures must have total mass 1")
    res = min_cost_flow(caps, target.weights, cost.values)
    return res.cost, res.flows


def containment_check(source, target, beta):
    """True iff target weight <= source weight/(1-beta) at every atom."""
    caps = _caps(source, beta)
    if len(source) != len(target):
        raise ContractError("containment_check needs shared atom indexing")
    slack = _STOP_RTOL * target.total_mass
    return bool(np.all(target.weights <= caps + slack))


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
