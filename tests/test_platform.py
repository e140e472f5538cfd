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
from test_acceptance import ADAPT_SETTINGS


@given(st.integers(1, 300), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_short_last_axis_sum_is_the_same_for_any_row_count(rows, width, seed):
    # Assumption: numpy sums a short contiguous last axis row by row, in
    # an order fixed by the width alone, so each row's sum has the same
    # bits whether it is reduced alone, in a block or in the whole array.
    # Relied on by cmi._direct_pairing (blocks of target rows against
    # every source row) and by the row blocks of both score_matrix
    # methods, which promise the bits of one unblocked array.
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
