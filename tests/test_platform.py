"""The numpy and BLAS behaviour that byte-identical reports rest on.

Each test states one assumption and names the code that relies on it,
so a numpy or BLAS upgrade that breaks one fails here, next to its
cause, and not only as a golden-bytes diff far away from it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import driftlab
from driftlab.dualcritic import Critic
from driftlab.tensorcore import SplitMix64
from test_acceptance import ADAPT_SETTINGS


@given(st.integers(1, 300), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_short_last_axis_sum_is_the_same_for_any_row_count(rows, width, seed):
    # Assumption: numpy sums a short contiguous last axis row by row, in
    # an order fixed by the width alone, so each row's sum has the same
    # bits whether it is reduced alone, in a block or in the whole array.
    # Relied on by cmi._direct_pairing (blocks of target rows against
    # every source row), which promises the bits of one unblocked array.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    whole = a.sum(axis=1)
    alone = np.array([a[i:i + 1].sum(axis=1)[0] for i in range(rows)])
    blocks = np.concatenate([a[lo:lo + 64].sum(axis=1) for lo in range(0, rows, 64)])
    assert whole.tobytes() == alone.tobytes() == blocks.tobytes(), (
        "a row's last-axis sum depends on how many rows are reduced with it")
    # the 3-D form of _direct_pairing: (block, N_s, M) against (N_t, N_s, M)
    zt, zs = a[:, None, :], rng.normal(size=(17, width))[None]
    full = ((zt - zs) ** 2).sum(axis=2)
    blocked = np.concatenate([((zt[lo:lo + 64] - zs) ** 2).sum(axis=2)
                              for lo in range(0, rows, 64)])
    assert full.tobytes() == blocked.tobytes(), (
        "a row block of a 3-D last-axis sum differs from the whole array's")


def pairwise_order_sum(row):
    """One row's sum in the order numpy's add.reduce takes on a
    contiguous axis, one scalar addition at a time."""
    n = len(row)
    if n > 128:
        n2 = n // 2 - (n // 2) % 8
        return pairwise_order_sum(row[:n2]) + pairwise_order_sum(row[n2:])
    if n < 8:
        total = row[0]
        for v in row[1:]:
            total += v
        return total
    r = list(row[:8])
    for i in range(8, n - n % 8, 8):
        for j in range(8):
            r[j] += row[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in row[n - n % 8:]:
        total += v
    return total


@given(st.integers(1, 300), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_short_axis_sum_follows_pairwise_order(width, rows, seed):
    # Assumption: numpy sums a contiguous axis from a +0.0 start, adding
    # a pairwise sum (Higham 2002, section 4.2) whose order is fixed by
    # the width: below 8 terms a left fold; up to 128, eight running
    # sums over columns j, j+8, ..., joined as ((0+1)+(2+3))+((4+5)+(6+7)),
    # then the terms left over in order; above 128, two halves split at
    # a multiple of 8. Relied on by cmi._cross_terms, whose column passes
    # in BilinearScorer.score_matrix add whole (rows, N) arrays in this
    # order to give the bits of the gathered (N, K, M) form's sum.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    a[rng.random(a.shape) < 0.1] = -0.0
    a[0] = -0.0  # sums to +0.0 only through the +0.0 start
    want = np.array([0.0 + pairwise_order_sum([float(v) for v in row]) for row in a])
    assert a.sum(axis=-1).tobytes() == want.tobytes(), (
        "numpy's last-axis sum left the pairwise order with a +0.0 start")


@pytest.mark.parametrize("rows,width,out", [(20, 4, 32), (500, 32, 32)])
@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinity_times_a_zero_weight_row_is_nan_through_matmul(rows, width, out, bad):
    # Assumption: the BLAS matmul multiplies every term, so an infinite
    # input entry whose weight row is all exact zeros gives NaN (inf * 0)
    # in every output column of its row, and never a silent 0. Relied on
    # by tensorcore.mlp_forward, which checks only its output: an
    # infinity in a hidden layer must reach the output even when the
    # next layer ignores that unit.
    rng = np.random.default_rng(rows)
    h = rng.normal(size=(rows, width))
    w = rng.normal(size=(width, out))
    hit = rng.choice(rows, size=max(1, rows // 10), replace=False)
    unit = int(rng.integers(width))
    h[hit, unit] = bad
    w[unit] = 0.0
    with np.errstate(invalid="ignore"):
        z = h @ w
    assert np.isnan(z[hit]).all(), "inf * 0 inside a matmul did not give NaN"
    rest = np.setdiff1d(np.arange(rows), hit)
    assert np.isfinite(z[rest]).all()


def test_stacking_two_batches_changes_their_rows_through_matmul():
    # Assumption: a row of a matmul may change in the last bit when other
    # rows are stacked with it, as the BLAS picks its kernel and blocking
    # from the row count. At the critic's output layer, (n, 32)@(32, 1),
    # rows of np.vstack([A, B]) @ W differed from A @ W in most random
    # instances at n = 10 and n = 50, and in none at n = 20, at one and at
    # two BLAS threads. Relied on by the closed forms that mirror the
    # graph, such as dualcritic.training_objective_and_grads: each batch
    # goes through its own forward, as in the graph, so a closed form
    # must not merge the source and target batches into one matmul.
    w = Critic(4, SplitMix64(0)).net.layers[-1].w.value
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(10, 32)), rng.normal(size=(10, 32))
    assert w.shape == (32, 1)
    assert not np.array_equal((np.vstack([a, b]) @ w)[:10], a @ w), (
        "stacking batches no longer changes their rows; a merged matmul "
        "may now keep the graph's bits")


REPORT_SHA256 = """
import hashlib
from driftlab.evalstats import emit_report
from driftlab.pipeline import TrainConfig, run_experiment
report = run_experiment(TrainConfig(seed=0, **{settings!r}))
print(hashlib.sha256(emit_report(report).encode()).hexdigest())
"""


def test_training_report_is_the_same_at_one_and_two_blas_threads():
    # Assumption: the BLAS calls on training's shapes give the same bits
    # whatever the number of BLAS threads, so a report does not depend
    # on the host's core count. Relied on by every pinned report byte
    # (criterion 9, the toy report hashes, fixtures/golden_stdout.json).
    # Each run starts a fresh interpreter, since the BLAS reads the
    # variable once, at load.
    code = REPORT_SHA256.format(settings={**ADAPT_SETTINGS, "epochs": 2})
    path = os.pathsep.join([str(Path(driftlab.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300, env=env, check=True)
        digests[threads] = proc.stdout.strip()
    assert len(digests["1"]) == 64
    assert digests["1"] == digests["2"], (
        "the training report changes with the number of BLAS threads")
