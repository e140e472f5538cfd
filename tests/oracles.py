"""Test-side oracles: independent statements of rules and formats that
the package implements in a faster or write-only form."""

from pathlib import Path

import numpy as np

from tensorcore_reference import mlp_chain
from driftlab.cmi import ContrastiveBatch
from driftlab.errors import (ContractError, DimensionError, InfeasibleError,
                             NumericError, allocating)
from driftlab.tensorcore import (LEAKY_SLOPE, SplitMix64, as_tensor, mul,
                                  sigmoid, sub, tmean)
from driftlab.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION


def raw_words(rng, n):
    """``SplitMix64``'s next n words, each step of the mix done once on
    the whole array."""
    with np.errstate(over="ignore"), allocating():
        idx = np.arange(1, n + 1, dtype=np.uint64)
        if idx.size != n:
            raise ValueError(f"{n} random words are past numpy's index range")
        idx += np.uint64(rng.counter)
        z = rng.seed + idx * np.uint64(0x9E3779B97F4A7C15)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    rng.counter += n
    return z


def uniform(rng, shape=()):
    """``SplitMix64.uniform`` on the whole array of words."""
    n = int(np.prod(shape)) if shape else 1
    u = (raw_words(rng, n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return u.reshape(shape) if shape else float(u[0])


def normal(rng, shape=()):
    """``SplitMix64.normal`` with its own conversion of each half."""
    n = int(np.prod(shape)) if shape else 1
    m = (n + 1) // 2
    u1 = 1.0 - (raw_words(rng, m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    u2 = (raw_words(rng, m) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
    return z.reshape(shape) if shape else float(z[0])


def permutation(rng, n):
    """``SplitMix64.permutation`` on a numpy array, one uint64 modulus
    per swap."""
    perm = np.arange(n)
    if n < 2:
        return perm
    js = raw_words(rng, n - 1)
    for i in range(n - 1, 0, -1):
        j = int(js[n - 1 - i] % np.uint64(i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def build_negatives(i, n):
    """The in-batch negatives of anchor i: the other n-1 batch indices,
    in increasing order."""
    if n < 2:
        raise ContractError("batch of size 1 has no negatives")
    if not (0 <= i < n):
        raise ContractError(f"index {i} outside batch of size {n}")
    return np.concatenate([np.arange(0, i), np.arange(i + 1, n)])


def dense_pair_positive(Zt, Zs):
    """``cmi.pair_positive`` on one (N_t, N_s, M) difference array."""
    Zt = np.asarray(Zt, dtype=np.float64)
    Zs = np.asarray(Zs, dtype=np.float64)
    return ((Zt[:, None, :] - Zs[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def mlp_forward(net, x):
    """``tensorcore.mlp_forward`` with a finite check after every layer,
    raising at the first layer whose output is not finite."""
    net._check_input(x)
    inputs, masks = [], []
    h = x
    for i, layer in enumerate(net.layers):
        if i:
            masks.append(np.where(a > 0, 1.0, LEAKY_SLOPE))
            h = a * masks[-1]
        inputs.append(h)
        z = h @ layer.w.value
        a = z + layer.b.value
        if not np.isfinite(a).all():
            op = "add" if np.isfinite(z).all() else "matmul"
            raise NumericError(f"non-finite values produced by op '{op}'")
    return a, inputs, masks


def extract(phi, X):
    """``model.extract`` through the per-layer graph chain."""
    return mlp_chain(phi, X).value


def predict(psi, features):
    """``model.predict`` through the per-layer graph chain."""
    return np.argmax(mlp_chain(psi, features).value, axis=1)


def dual_objective(critic, Zs, Zt):
    """``dualcritic.dual_objective`` as the value of its graph
    (``dual_objective_graph``), with the critic run as the per-layer
    graph chain."""
    fs, ft = (tmean(sigmoid(mlp_chain(critic.net, z))) for z in (Zs, Zt))
    return float(sub(fs, mul(ft, 1.0 - critic.beta)).value)


def gathered_score_matrix(scorer, batch):
    """``BilinearScorer.score_matrix`` through the per-layer graph
    chain, on the gathered (N, K, M) array of candidate embeddings."""
    anchors = np.asarray(batch.anchors, dtype=np.float64)
    gs = mlp_chain(scorer.net, as_tensor(batch.sources)).value
    ga = mlp_chain(scorer.net, as_tensor(anchors)).value
    own = (gs * anchors).sum(axis=1)
    cross = (ga[batch.candidates] * anchors[:, None, :]).sum(axis=2)
    return 0.5 * (own[:, None] + cross)


def sample_contrastive(joint, n_samples, k, seed, chunk):
    """``cmi.sample_contrastive`` as one draw: every candidate goes
    into one (n_samples, k) array, group by group, and the list of
    chunks holds views into it."""
    if k < 1:
        raise ContractError("need k >= 1 candidates")
    if n_samples < 1:
        raise ContractError("need at least one sample")
    rng = SplitMix64(seed)
    t = joint.table
    a, b, c = t.shape

    flat_cdf = np.cumsum(t.reshape(-1))
    flat_cdf[-1] = 1.0
    u = uniform(rng, (n_samples,))
    cell = np.searchsorted(flat_cdf, u, side="right")
    xs, xt, z = np.unravel_index(cell, t.shape)

    pz = t.sum(axis=(0, 1))
    cond = np.zeros((c, b))
    for v in range(c):
        if pz[v] > 0:
            cond[v] = t[:, :, v].sum(axis=0) / pz[v]
    cond_cdf = np.cumsum(cond, axis=1)

    with allocating():
        neg = np.zeros((n_samples, k - 1), dtype=np.int64)
    if k > 1:
        for v in range(c):
            mask = z == v
            m = int(mask.sum())
            if m == 0:
                continue
            cdf = cond_cdf[v].copy()
            cdf[-1] = 1.0
            draws = uniform(rng, (m, k - 1))
            neg[mask] = np.searchsorted(cdf, draws.reshape(-1),
                                        side="right").reshape(m, k - 1)
    candidates = np.concatenate([xt[:, None], neg], axis=1)

    batches = []
    for start in range(0, n_samples, chunk):
        sl = slice(start, min(start + chunk, n_samples))
        batches.append(ContrastiveBatch(
            sources=xs[sl], anchors=xt[sl], candidates=candidates[sl], z=z[sl]))
    return batches


def indexed_table_scores(table, batch):
    """``TabularScorer.score_matrix`` by numpy's three-axis indexing."""
    xs = np.asarray(batch.sources, dtype=np.int64)
    z = np.asarray(batch.z, dtype=np.int64)
    return table[xs[:, None], np.asarray(batch.candidates, dtype=np.int64), z[:, None]]


def cnce_terms(scorer, batch):
    """``cmi.cnce_terms`` with the shifted exponentials in a new array."""
    s = np.asarray(scorer.score_matrix(batch), dtype=np.float64)
    k = s.shape[1]
    if k == 1:
        return np.zeros(s.shape[0])
    m = s.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(s - m).sum(axis=1))
    return (s[:, 0] - lse) + np.log(k)


def load_checkpoint(path):
    """Read a file written by ``model.save_checkpoint`` back into a dict
    of arrays. The reader is strict: a header, then per parameter a
    ``param <name> <ndim> <dims...>`` line and one line of values."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    assert lines[0] == f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}"
    assert len(lines) % 2 == 1, "a parameter header has no value line"
    params = {}
    for head, data in zip(lines[1::2], lines[2::2]):
        tag, name, ndim, *dims = head.split()
        assert tag == "param" and len(dims) == int(ndim), head
        values = np.array([float(v) for v in data.split()])
        params[name] = values.reshape(tuple(int(d) for d in dims))
    return params


def w2_dimension(zA, zB):
    """``ot.w2_dimension`` in numpy float64 scalar arithmetic: both
    measures are sorted per call and the quantile merge steps through
    numpy scalars."""
    if zA.atoms.ndim != 1 or zB.atoms.ndim != 1:
        raise DimensionError("w2_dimension expects 1-D measures")
    if abs(zA.total_mass - zB.total_mass) > 1e-9:
        raise InfeasibleError("mass mismatch between dimension measures")
    mass = zA.total_mass
    oa = np.argsort(zA.atoms, kind="stable")
    ob = np.argsort(zB.atoms, kind="stable")
    pa, wa = zA.atoms[oa], zA.weights[oa]
    pb, wb = zB.atoms[ob], zB.weights[ob]
    ia = ib = 0
    remaining_a, remaining_b = wa[0], wb[0]
    done = 0.0
    total = 0.0
    while done < mass - 1e-15:
        while remaining_a <= 1e-15 and ia + 1 < len(wa):
            ia += 1
            remaining_a = wa[ia]
        while remaining_b <= 1e-15 and ib + 1 < len(wb):
            ib += 1
            remaining_b = wb[ib]
        step = min(remaining_a, remaining_b, mass - done)
        if step <= 1e-15:
            break
        total += step * (pa[ia] - pb[ib]) ** 2
        remaining_a -= step
        remaining_b -= step
        done += step
    return float(np.sqrt(total))


# ``ot._ssp`` without its column-reduction start and its stop at t: the
# first search starts from zero flow, every search settles every node it
# can reach, and the cost is a running total along the augmenting paths.
def ssp(supplies, demands, costs, want):
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
