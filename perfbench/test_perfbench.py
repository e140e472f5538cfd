"""Quick tier of the benchmark's self-tests: every workload at toy size.

Run from the repository root:  python3 -m pytest -q perfbench

These check the output contract (every metric named in BENCHMARK.json
is present with its unit), the output checks and the traced/untraced
digest agreement. They never check timings.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from clock import REFERENCE_S, Clock  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--size", "toy",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, detail, last = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(last)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, last = result(workload, 3, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, detail["problems"]
    assert last["attempted"] >= 2
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert all(v["value"] > 0 for v in last["metrics"].values())
    facts = detail["facts"]
    assert facts["seed"] == 3 and facts["nproc"] >= 1 and facts["blas_threads"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    detail, last = result(workload, 3, 1)
    assert last["correct"] and last["failed"] == 0, detail["problems"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    # both workers start at input 0, and run.py checks every output of
    # the traced worker against the untraced worker's digest for its input
    assert last["attempted"] > detail["samples"]["ops"]


def test_layer_counts_repeat_exactly():
    counts = ("tensorcore.nodes_per_step", "tensorcore.backward_calls_per_step",
              "cmi.score_rows_per_eval")
    runs = [result("train-default", seed, 1)[1]["metrics"] for seed in (1, 2)]
    for name in counts:
        assert runs[0][name]["value"] == runs[1][name]["value"] > 0, name
    ot = result("ot-nested", 1, 1)[1]["metrics"]
    assert ot["ot.w2_dimension_calls"]["value"] == 6**2 + 8**2 + 10**2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cmi-joint", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children():
    spans = []
    for name, start, end, parent in (("root", 0.0, 10.0, -1),
                                     ("a", 1.0, 4.0, 0), ("b", 5.0, 6.0, 0),
                                     ("a.1", 2.0, 3.0, 1)):
        span = Span(name, start, parent, 0, 0, 0.0, None)
        span.end = end
        spans.append(span)
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_clock_scales_by_calibrations_around_a_span():
    clock = Clock()
    ref = REFERENCE_S
    clock.times, clock.samples = [0.0, 1.0, 2.0], [2 * ref, 2 * ref, ref]
    scaled, raw = clock.scaled((0.1, 0.0), (0.9, 0.0))
    assert raw == pytest.approx(0.8) and scaled == pytest.approx(0.4)
    # no calibration inside: the nearest on each side; time spent
    # calibrating inside the span is not counted
    scaled, raw = clock.scaled((1.3, 0.0), (1.7, 0.1))
    assert raw == pytest.approx(0.3) and scaled == pytest.approx(0.3 / 1.5)
