"""Conditional mutual information machinery.

Exact computation on small discrete joints (the test oracle), a
noise-contrastive lower-bound estimator with conditioned negatives, the
analytic log-density-ratio scorer that makes the bound tight, and the
positive/negative pairing rules used when the estimator runs on feature
batches instead of tabulated distributions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericError, ParseError, allocating
from .tensorcore import (
    MLP,
    SplitMix64,
    add,
    ascend,
    logsumexp,
    matmul,
    mlp_backward,
    mlp_forward,
    mul,
    sub,
    tmean,
    transpose,
    tsum,
)
from .textio import records

_SCORE_FLOOR = -30.0

# Rows per block in pair_positive and TabularScorer.score_matrix. The
# pairing screen's (rows, N_s) distance block is 250 KB at N_s=500, and
# its direct sums' (rows, N_s, M) block 2 MB at M=8; a tabular block's
# flat index is 256 KiB at K=512, where the whole chunk's would be 16 MB
# at 4096 rows.
_ROW_BLOCK = 64

# Rows per block of BilinearScorer.score_matrix's cross-term passes. A
# block keeps nine (rows, N) arrays: 1.1 MB at N=500, where 64 rows take
# 2.3 MB and fall out of cache. On a 2-vCPU x86-64 guest, the N=500,
# M=8 passes took 3.0 ms at 32 rows against 3.8 ms at 64.
_PASS_BLOCK = 32


@dataclass
class DiscreteJoint:
    """Probability table over three finite alphabets, shape (a, b, c)."""

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.table.ndim != 3:
            raise DimensionError("joint table must have three axes")
        if not np.all(np.isfinite(self.table)):
            raise ContractError("probabilities must be finite")
        if np.any(self.table < 0):
            raise ContractError("negative probability")
        if abs(self.table.sum() - 1.0) > 1e-12:
            raise ContractError(f"probabilities sum to {self.table.sum()}, not 1")


@dataclass
class ContrastiveBatch:
    """One anchor per row with its conditioning input and K candidates.

    ``candidates`` is (N, K) and its column 0 is always the positive.
    What it holds depends on the batch kind:

    - tabulated alphabets (1-D ``anchors``, conditioning symbols in
      ``z``): the candidate symbol values;
    - feature batches ((N, M) ``anchors``): integer anchor row indices,
      so candidate j of row i is ``anchors[candidates[i, j]]``. Every
      candidate is an anchor, so a feature scorer runs its network once
      per anchor and gathers by these indices. Column 0 must be the
      row's own index, no other column may repeat it, and every index
      must lie in the batch.
    """

    sources: np.ndarray
    anchors: np.ndarray
    candidates: np.ndarray
    z: np.ndarray = None

    def __post_init__(self):
        n = self.anchors.shape[0]
        if n == 0:
            raise ContractError("a contrastive batch needs at least one row")
        if self.sources.shape[0] != n or self.candidates.shape[0] != n:
            raise ContractError("batch fields disagree on row count")
        if self.candidates.shape[1] < 1:
            raise ContractError("need at least the positive candidate")
        if self.anchors.ndim == 2:
            idx = self.candidates
            if idx.ndim != 2 or not np.issubdtype(idx.dtype, np.integer):
                raise ContractError(
                    "feature candidates must be an (N, K) array of anchor indices")
            if not np.array_equal(idx[:, 0], np.arange(n)):
                raise ContractError("candidate column 0 must be the positive")
            if np.any(idx[:, 1:] == np.arange(n)[:, None]):
                raise ContractError("positive index found among negatives")
            # read as unsigned, a negative index is 2**(bits - 1) or more
            if idx.view(f"u{idx.itemsize}").max() >= n:
                raise ContractError("candidate index outside the batch")


# ---------------------------------------------------------------------
# exact information quantities
# ---------------------------------------------------------------------

def mutual_information(table2d):
    """I(A;B) in nats for a 2-D probability table, 0 log 0 = 0: the sum
    of t (log t - log P(a) - log P(b)), since the ratio can overflow."""
    t = np.asarray(table2d, dtype=np.float64)
    a, b = np.nonzero(t > 0)
    cells = t[a, b]
    log_ratio = (np.log(cells) - np.log(t.sum(axis=1)[a])
                 - np.log(t.sum(axis=0)[b]))
    return float((cells * log_ratio).sum())


def exact_cmi(joint):
    """I(X_s; X_t | Z) in nats by direct summation over the table."""
    t = joint.table
    pz = t.sum(axis=(0, 1))
    total = 0.0
    for k in range(t.shape[2]):
        if pz[k] <= 0:
            continue
        total += pz[k] * mutual_information(t[:, :, k] / pz[k])
    return max(total, 0.0)


# ---------------------------------------------------------------------
# scorers
# ---------------------------------------------------------------------

class TabularScorer:
    """Analytic scorer over discrete alphabets: a lookup table (a, b, c)."""

    def __init__(self, table):
        table = np.asarray(table, dtype=np.float64)
        if not np.all(np.isfinite(table)):
            raise ContractError("scorer table must be finite")
        self.table = table

    def score_matrix(self, batch):
        """(N, K) scores, gathered from the flattened table with one
        index per entry, a block of rows at a time so that the index
        block stays in cache. A symbol outside its axis would read
        another cell of the flat table, so each axis is checked first, in
        one pass: read as uint64, a negative symbol is 2**63 or more."""
        xs = np.asarray(batch.sources, dtype=np.int64)
        cand = np.asarray(batch.candidates, dtype=np.int64)
        z = np.asarray(batch.z, dtype=np.int64)
        a, b, c = self.table.shape
        for axis, symbols, size in (("x_s", xs, a), ("x_t", cand, b), ("z", z, c)):
            if symbols.size and symbols.view(np.uint64).max() >= size:
                raise ContractError(f"{axis} symbol outside [0, {size})")
        flat_table = self.table.ravel()
        row_base = (xs * (b * c) + z)[:, None]
        scores = np.empty(cand.shape)
        for r in range(0, cand.shape[0], _ROW_BLOCK):
            idx = cand[r:r + _ROW_BLOCK] * c
            idx += row_base[r:r + _ROW_BLOCK]
            scores[r:r + _ROW_BLOCK] = flat_table.take(idx)
        return scores


def _target_given_z(table):
    """P(x_t | z) of a joint table as a (b, c) array, 0 where P(z) = 0."""
    p_tz = table.sum(axis=0)
    pz = table.sum(axis=(0, 1))
    return np.divide(p_tz, pz, out=np.zeros_like(p_tz), where=pz > 0)


def optimal_scorer(joint):
    """Log density ratio log[P(x_t|x_s,z) / P(x_t|z)] as a table, taken
    as (log t - log P(x_s,z)) - (log P(x_t,z) - log P(z)) since the
    ratio itself can overflow where a marginal is subnormal.
    Zero-probability ratios are floored at -30 so log-sums stay finite;
    cells whose conditioning event has probability zero are never
    sampled and score 0.
    """
    t = joint.table
    p_sz = t.sum(axis=1)[:, None, :]        # (a, 1, c)
    p_tz = t.sum(axis=0)[None]              # (1, b, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.maximum((np.log(t) - np.log(p_sz))
                           - (np.log(p_tz) - np.log(t.sum(axis=(0, 1)))),
                           _SCORE_FLOOR)
    return TabularScorer(np.where((p_sz > 0) & (p_tz > 0), score, 0.0))


class BilinearScorer:
    """Feature-space scorer: shared embedding g applied to both the
    paired source row and each candidate row, scored against the anchor.

    score(s, cand, anchor) = 0.5 (<g(s), anchor> + <g(cand), anchor>)
    """

    def __init__(self, dim, rng, hidden=(32, 32, 32)):
        self.net = MLP([dim, *hidden, dim], rng, name="scorer")

    def parameters(self):
        return self.net.parameters()

    def score_matrix(self, batch):
        """(N, K) scores of an in-batch feature batch.

        Every candidate is one of the N anchors, so the network runs
        once on the anchor rows. For a block of anchor rows, a (rows, N)
        array of cross terms against every anchor embedding is summed in
        column passes (see :func:`_cross_terms`), and the candidates are
        then gathered from it by index. Each kept entry has the bits of
        the gathered (N, K, M) form's last-axis sum, and no array larger
        than (rows, N) is built. Products of finite features can
        overflow, so the scores are checked here.
        """
        anchors = np.asarray(batch.anchors, dtype=np.float64)
        sources = np.asarray(batch.sources, dtype=np.float64)
        gs = mlp_forward(self.net, sources)[0]
        ga = mlp_forward(self.net, anchors)[0]
        own = (gs * anchors).sum(axis=1)
        idx = batch.candidates
        gT = np.ascontiguousarray(ga.T)
        cross = np.empty(idx.shape)
        pairs = np.empty((_PASS_BLOCK, ga.shape[0]))
        scratch = np.empty((8, *pairs.shape))
        for a in range(0, idx.shape[0], _PASS_BLOCK):
            b = a + _PASS_BLOCK
            rows = min(b, idx.shape[0]) - a
            _cross_terms(anchors[a:b], gT, pairs[:rows], scratch[:, :rows])
            cross[a:b] = np.take_along_axis(pairs[:rows], idx[a:b], axis=1)
        scores = 0.5 * (own[:, None] + cross)
        if not np.isfinite(scores).all():
            raise NumericError("scorer produced non-finite values")
        return scores

    def objective_graph(self, paired_sources, anchors):
        """Differentiable in-batch estimate (K = N, positive = self).

        Both arguments are Tensors of shape (N, M); gradients flow into
        the scorer weights and into whatever produced the features.
        """
        n = anchors.shape[0]
        u = self.net.forward(paired_sources)
        g = self.net.forward(anchors)
        own = tsum(mul(u, anchors), axis=1, keepdims=True)       # (N,1)
        cross = matmul(anchors, transpose(g))                    # (N,N)
        scores = mul(add(own, cross), 0.5)
        pos = tsum(mul(scores, np.eye(n)), axis=1)               # (N,)
        terms = add(sub(pos, logsumexp(scores, axis=1)), np.log(n))
        return tmean(terms)

    def objective_and_grads(self, paired_sources, anchors):
        """``objective_graph`` on two (N, M) arrays and its gradients in
        ``parameters()`` order, without the graph.

        Each line mirrors one vjp of the graph on operands of the same
        memory layout, so value and gradients equal ``backward`` on the
        graph bit for bit. That includes the own-score path: its
        gradient is zero in exact arithmetic, but not its rounding.
        Raises ``NumericError`` where the graph's values go non-finite.
        """
        n = anchors.shape[0]
        u, u_inputs, u_masks = mlp_forward(self.net, paired_sources)
        g, g_inputs, g_masks = mlp_forward(self.net, anchors)
        own = (u * anchors).sum(axis=1, keepdims=True)
        scores = (own + anchors @ g.T) * 0.5
        eye = np.eye(n)
        top = scores.max(axis=1, keepdims=True)
        e = np.exp(scores - top)
        total = e.sum(axis=1, keepdims=True)
        terms = ((scores * eye).sum(axis=1) - (np.log(total) + top).reshape(n)) + np.log(n)
        value = terms.sum() / n
        if not np.isfinite(value):
            raise NumericError("objective not finite")
        mean = 1.0 / n
        grad = (((mean * -1.0) / total) * e + mean * eye) * 0.5
        own_grad = grad.sum(axis=1, keepdims=True)
        grads = [a + b for a, b in zip(
            mlp_backward(self.net, u_inputs, u_masks, own_grad * anchors),
            mlp_backward(self.net, g_inputs, g_masks, (anchors.T @ grad).T))]
        return float(value), grads


def _cross_terms(x, gT, out, scratch):
    """``out[i, j] = sum_k x[i, k] * gT[k, j]``, with the bits of
    ``(gT.T[None] * x[:, None]).sum(axis=2)``.

    numpy's ``add.reduce`` sums a contiguous axis of n terms in a fixed
    pairwise order (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, §4.2), from a +0.0 start. Here each term is one
    column pass, ``x[:, k, None] * gT[k]``, over the whole (rows, N)
    block, and the passes are added in that order; ``scratch`` holds
    eight (rows, N) arrays. ``tests/test_platform.py`` pins the order.
    """
    _pairwise_columns(x, gT, 0, x.shape[1], out, scratch)
    # the +0.0 start: a sum of -0.0 terms comes out +0.0
    out += 0.0


def _pairwise_columns(x, gT, lo, hi, out, scratch):
    """Columns lo..hi-1 of ``_cross_terms`` in numpy's pairwise order:
    below 8 a left fold; up to 128 eight accumulators fed columns j,
    j+8, ..., combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    columns left over in order; above 128 two halves, split at a
    multiple of 8, summed alone and added."""
    n = hi - lo
    if n > 128:
        n2 = n // 2 - (n // 2) % 8
        _pairwise_columns(x, gT, lo, lo + n2, out, scratch)
        right = np.empty_like(out)
        _pairwise_columns(x, gT, lo + n2, hi, right, scratch)
        out += right
        return
    tmp = scratch[0]
    if n < 8:
        np.multiply(x[:, lo, None], gT[lo], out=out)
        rest = lo + 1
    else:
        acc = [out, *scratch[1:]]
        for j, r in enumerate(acc):
            np.multiply(x[:, lo + j, None], gT[lo + j], out=r)
        rest = hi - n % 8
        for i in range(lo + 8, rest, 8):
            for j, r in enumerate(acc):
                r += np.multiply(x[:, i + j, None], gT[i + j], out=tmp)
        r0, r1, r2, r3, r4, r5, r6, r7 = acc
        r0 += r1
        r2 += r3
        r0 += r2
        r4 += r5
        r6 += r7
        r4 += r6
        r0 += r4
    for k in range(rest, hi):
        out += np.multiply(x[:, k, None], gT[k], out=tmp)


def train_scorer(scorer, paired, anchors, steps, optim):
    """Ascend the in-batch contrastive bound for `steps` full-batch steps
    on :func:`~driftlab.tensorcore.ascend`. ``paired`` holds the positive
    source row for each anchor row; both are (N, M) arrays held fixed.
    Returns the bound at each step, taken before that step's update."""
    paired, anchors = np.asarray(paired, np.float64), np.asarray(anchors, np.float64)
    return ascend(optim, lambda: scorer.objective_and_grads(paired, anchors),
                  steps, "scorer")


# ---------------------------------------------------------------------
# estimator
# ---------------------------------------------------------------------

def cnce_terms(scorer, batch):
    """Per-sample contrastive terms, each exactly <= log K.

    The log-sum-exp shift uses the row maximum, which keeps the bound
    exact in floating point: the shifted sum is >= 1 whenever the
    positive attains the maximum, and >= exp(pos - max) otherwise.
    """
    s = np.asarray(scorer.score_matrix(batch), dtype=np.float64)
    m = s.max(axis=1, keepdims=True)
    e = s - m
    np.exp(e, out=e)
    lse = m[:, 0] + np.log(e.sum(axis=1))
    return (s[:, 0] - lse) + np.log(s.shape[1])


def cnce_estimate(scorer, batch):
    """Monte-Carlo contrastive lower-bound estimate on one batch."""
    return float(cnce_terms(scorer, batch).mean())


# ---------------------------------------------------------------------
# sampling rules
# ---------------------------------------------------------------------

def pair_positive(Zt, Zs):
    """Index of the nearest source row for every target row
    (squared Euclidean; ties go to the lowest index).

    The index is always that of ``_direct_pairing``, which sums
    (a_k - b_k)**2 over the M features of every pair, but it is found
    by screen and verify, at every batch size:

    - Screen. For a block of target rows, d~ = ||a||^2 + ||b||^2 - 2 a.b
      for every source row b, from one matmul, and its argmin j.
    - Bound. d~ and the direct sum each lie within
      gamma_{M+2} (||a|| + ||b||)^2 of the exact squared distance, in
      any summation order and with FMA, where gamma_n = n u / (1 - n u)
      and u = 2**-53 (Higham, *Accuracy and Stability of Numerical
      Algorithms*, 2002, §3.1); products that underflow add at most
      M 2**-1074 more. Row i takes E_i = 4 gamma_{M+2} (||a_i||^2 +
      max ||b||^2) + 4 (M + 2) 2**-1074, at least twice both bounds for
      every source row.
    - Verify. Any index the direct sums could rank first has
      d~ <= d~_ij + 4 E_i. A row with no other index in that window
      takes j; every other row takes ``_direct_pairing``, whose sums in
      a row do not depend on the other rows, so it gives the same
      index, ties included.

    A non-finite norm or bound (NaN, infinity, or an ||a||^2 that
    overflows) sends the whole call to ``_direct_pairing``, so no index
    comes from a non-finite screen.
    """
    Zt = np.asarray(Zt, dtype=np.float64)
    Zs = np.asarray(Zs, dtype=np.float64)
    if Zt.shape[0] == 0 or Zs.shape[0] == 0:
        raise ContractError("empty batch")
    m = Zt.shape[1]
    gamma = (m + 2) * 2.0 ** -53 / (1 - (m + 2) * 2.0 ** -53)
    with np.errstate(over="ignore", invalid="ignore"):
        nt = np.einsum("ij,ij->i", Zt, Zt)
        ns = np.einsum("ij,ij->i", Zs, Zs)
        # 4 (||a||^2 + max ||b||^2) also bounds every term of the screen,
        # so a finite reach means a screen without overflow.
        reach = 4.0 * (nt + ns.max())
    if not np.isfinite(reach).all():
        return _direct_pairing(Zt, Zs)
    window = 4.0 * (gamma * reach + 4 * (m + 2) * 2.0 ** -1074)
    pairing = np.empty(Zt.shape[0], dtype=np.intp)
    open_rows = []
    for a in range(0, Zt.shape[0], _ROW_BLOCK):
        b = a + _ROW_BLOCK
        d = Zt[a:b] @ Zs.T
        d *= -2.0
        d += nt[a:b, None]
        d += ns
        j = d.argmin(axis=1)
        limit = d[np.arange(j.shape[0]), j] + window[a:b]
        pairing[a:b] = j
        open_rows.append(a + np.flatnonzero(
            np.count_nonzero(d <= limit[:, None], axis=1) > 1))
    rows = np.concatenate(open_rows)
    if rows.size:
        pairing[rows] = _direct_pairing(Zt[rows], Zs)
    return pairing


def _direct_pairing(Zt, Zs):
    """``pair_positive`` from every squared distance, summed directly.

    Target rows are taken in blocks. A row's distances, and so its
    argmin, do not depend on the other rows, so the blocks give the same
    bits as one (N_t, N_s, M) difference array without building it.
    """
    pairing = np.empty(Zt.shape[0], dtype=np.intp)
    for a in range(0, Zt.shape[0], _ROW_BLOCK):
        b = a + _ROW_BLOCK
        d = ((Zt[a:b, None, :] - Zs[None]) ** 2).sum(axis=2)
        pairing[a:b] = d.argmin(axis=1)
    return pairing


def contrastive_from_features(Zs, Zt):
    """Build the in-batch contrastive structure from two feature batches."""
    Zs = np.asarray(Zs, dtype=np.float64)
    Zt = np.asarray(Zt, dtype=np.float64)
    n = Zt.shape[0]
    pairing = pair_positive(Zt, Zs)
    if n < 2:
        raise ContractError("batch of size 1 has no negatives")
    # Row i is [i, then every other batch index in increasing order]:
    # negative slot j holds index j below the diagonal and j + 1 from it
    # on, so K equals the batch size.
    idx = np.empty((n, n), dtype=np.intp)
    idx[:, 0] = np.arange(n)
    idx[:, 1:] = np.arange(n - 1)
    idx[:, 1:] += ~np.tri(n, n - 1, -1, dtype=bool)
    return ContrastiveBatch(
        sources=Zs[pairing],
        anchors=Zt,
        candidates=idx,
    )


def sample_contrastive(joint, n_samples, k, seed, chunk):
    """Draw contrastive batches from a discrete joint.

    Anchors are (x_s, x_t, z) triples from the joint; the k-1 negatives
    are fresh draws from P(x_t | z) at the anchor's z. The arguments are
    checked and the n_samples anchors drawn when this is called; it then
    returns a generator of ContrastiveBatch chunks of up to ``chunk``
    samples, each drawn by ``draw_chunk`` only when the caller asks for
    it. A caller that scores each chunk before taking the next never
    holds the whole (n_samples, k) draw: sampling and scoring peak at
    about 49 MiB under tracemalloc at n=10,000, k=512, chunk=4096,
    against 93 MiB for one draw of every candidate.

    The draw does not depend on ``chunk``. Anchors take ``SplitMix64``
    counters 0..n_samples-1; the negatives of each z group follow in
    one contiguous block, in group order, k-1 words per row, and each
    word depends only on (seed, counter).
    """
    if k < 1:
        raise ContractError("need k >= 1 candidates")
    if n_samples < 1:
        raise ContractError("need at least one sample")
    if chunk < 1:
        raise ContractError("need chunk >= 1 samples")
    rng = SplitMix64(seed)
    t = joint.table
    flat_cdf = np.cumsum(t.reshape(-1))
    flat_cdf[-1] = 1.0
    u = rng.uniform((n_samples,))
    cell = np.searchsorted(flat_cdf, u, side="right")
    xs, xt, z = np.unravel_index(cell, t.shape)

    cond_cdf = np.cumsum(_target_given_z(t).T, axis=1)
    cond_cdf[:, -1] = 1.0

    # Python ints: k may lie past the int64 range, and the first chunk's
    # allocation, not this arithmetic, must be what refuses it.
    group_rows = np.bincount(z, minlength=t.shape[2]).tolist()
    counters = [n_samples + (k - 1) * before
                for before in itertools.accumulate([0, *group_rows[:-1]])]
    return (draw_chunk(rng, xs[i:i + chunk], xt[i:i + chunk], z[i:i + chunk],
                       cond_cdf, k, counters)
            for i in range(0, n_samples, chunk))


def draw_chunk(rng, xs, xt, z, cond_cdf, k, counters):
    """One ContrastiveBatch of ``sample_contrastive``: the anchors given,
    with k-1 negatives per row drawn from the rows of ``cond_cdf`` at z.

    ``counters[v]`` is the ``rng`` counter at which the next row of
    group v draws its negatives; each group drawn here advances it past
    the words it took.

    A negative is the number of CDF entries at or below its uniform,
    ``searchsorted(side="right")`` (sequential search: Devroye,
    *Non-Uniform Random Variate Generation*, 1986, §III.2), counted in
    one pass over the draws per entry into the narrowest unsigned type
    that holds the alphabet. The last entry is 1.0, above every uniform,
    so the count runs over the others; an entry rounded above 1.0 counts
    for no uniform either way.

    On 1400 x 511 draws (a 2-vCPU x86 host, numpy 2.4) counting took
    0.8 ms at 3 symbols, 7 ms at 16 and 44 ms at 96, where searchsorted
    took 12, 31 and 52 ms. Counting grows with the alphabet and the
    search with its log: from about 128 symbols on the search is the
    faster one (60 against 58 ms at 128, 112 against 61 ms at 256).
    """
    with allocating():
        candidates = np.empty((xt.shape[0], k), dtype=np.int64)
    candidates[:, 0] = xt
    if k > 1:
        for v in np.unique(z).tolist():
            mask = z == v
            rng.counter = counters[v]
            draws = rng.uniform((int(mask.sum()), k - 1))
            counters[v] = rng.counter
            thresholds = cond_cdf[v, :-1]
            symbols = np.zeros(draws.shape, dtype=np.min_scalar_type(thresholds.size))
            for q in thresholds.tolist():
                symbols += draws >= q
            candidates[mask, 1:] = symbols
    return ContrastiveBatch(sources=xs, anchors=xt, candidates=candidates, z=z)


# ---------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------

def load_joint(path):
    """Read a joint from delimited text: one cell per line,
    ``x_s,x_t,z,probability``. Unlisted cells are zero."""
    cells = []
    for lineno, line in records(path):
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError("expected x_s,x_t,z,probability", line=lineno)
        try:
            i, j, v = int(parts[0]), int(parts[1]), int(parts[2])
            p = float(parts[3])
        except ValueError:
            raise ParseError(f"bad field in {line!r}", line=lineno)
        if i < 0 or j < 0 or v < 0:
            raise ParseError("negative index", line=lineno)
        cells.append((i, j, v, p))
    if not cells:
        raise ContractError(f"no cells in joint file {path}")
    a = max(c[0] for c in cells) + 1
    b = max(c[1] for c in cells) + 1
    cc = max(c[2] for c in cells) + 1
    with allocating():
        table = np.zeros((a, b, cc))
    for i, j, v, p in cells:
        table[i, j, v] += p
    return DiscreteJoint(table)

