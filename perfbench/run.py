"""driftlab benchmark: closed-loop runs of training, exact OT and CMI sampling.

Run from the root of a source checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|toy]

Each run starts fresh worker processes (perfbench/worker.py) with BLAS
pinned to one thread and ``src/`` on the import path: a few that only
set up, timed to give ``setup_s``, then one that issues operations back
to back for ``--seconds`` (``--trace 0``), or an untraced and a traced
one for half the time each (``--trace 1``). Outputs are checked here,
outside the timed region. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run facts, sample counts and check results.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from clock import Clock  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import SETTINGS, WORKLOADS, ot_batches  # noqa: E402

DEFAULT_SECONDS = 25  # BENCHMARK.json run_seconds
SETUP_RUNS = {"full": 5, "toy": 2}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
OT_TOL = 1e-6     # absolute agreement with the LP oracle
# Standard errors allowed between a draw's estimate and the exact CMI: a
# correct sampler passes a thousand draws with probability 0.9994.
CMI_SE = 5.0
BLAS_THREADS = 1
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in PINNED})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src"), HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker(args, mode, seconds, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode, "--size", args.size,
           *extra]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=seconds + 150)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_facts(args):
    rev = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for name in sorted(os.listdir("src/driftlab")):
        if name.endswith(".py"):
            with open(os.path.join("src/driftlab", name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": BLAS_THREADS,
            "git_revision": rev, "src_sha256": src.hexdigest()}


# ---------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------

def _lp_value(cost, supplies, demands, balanced):
    """min <cost, x> over x >= 0 with row sums = (or <=) supplies and
    column sums = demands; the oracle of acceptance criterion 3."""
    from scipy import sparse
    from scipy.optimize import linprog
    n, m = cost.shape
    rows = sparse.kron(sparse.eye(n), np.ones((1, m)), format="csr")
    cols = sparse.kron(np.ones((1, n)), sparse.eye(m), format="csr")
    if balanced:
        res = linprog(cost.ravel(), A_eq=sparse.vstack([rows, cols]),
                      b_eq=np.concatenate([supplies, demands]),
                      bounds=(0, None), method="highs")
    else:
        res = linprog(cost.ravel(), A_ub=rows, b_ub=supplies, A_eq=cols,
                      b_eq=demands, bounds=(0, None), method="highs")
    if res.status != 0:
        raise BenchError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def ot_oracle(args, round_index):
    from driftlab import ot
    settings = SETTINGS[args.size][args.workload]
    beta = settings["beta"]
    expected = []
    for A, B in ot_batches(args.seed, settings, round_index):
        cost = ot.nested_cost(A, B).values
        a = np.full(len(A), 1.0 / len(A))
        b = np.full(len(B), 1.0 / len(B))
        expected.append((_lp_value(cost, a, b, True),
                         _lp_value(cost, a / (1.0 - beta), b, False)))
    return expected


def check_output(args, op, reference, oracle):
    """Why an operation's output is wrong, or None if it is right.

    ``reference`` maps an input index to the digest its first output
    had; ``oracle`` maps an OT round to its LP values.
    """
    if op["error"]:
        return op["error"]
    digest = reference.setdefault(op["input"], op["digest"])
    if op["digest"] != digest:
        return f"output digest {op['digest'][:12]} differs from {digest[:12]}"
    if args.workload == "ot-nested":
        if op["input"] not in oracle:
            oracle[op["input"]] = ot_oracle(args, op["input"])
        for (bal, rel), (lp_bal, lp_rel) in zip(op["values"], oracle[op["input"]]):
            if abs(bal - lp_bal) > OT_TOL or abs(rel - lp_rel) > OT_TOL:
                return f"OT value ({bal}, {rel}) vs LP ({lp_bal}, {lp_rel})"
            if rel > bal:
                return f"relaxed value {rel} exceeds balanced {bal}"
    if args.workload == "cmi-joint":
        if op["max_term"] > op["log_k"]:
            return f"contrastive term {op['max_term']} above log k"
        if abs(op["estimate"] - op["exact"]) > CMI_SE * op["se"]:
            return (f"estimate {op['estimate']} is more than {CMI_SE} SE "
                    f"({op['se']}) from exact {op['exact']}")
    return None


# ---------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------

def _ok(ops):
    return [op for op in ops if not op["error"]]


def timings(setup_s, wall_s, step_ms):
    if not wall_s or len(step_ms) < 2:
        raise BenchError("too few successful operations to report timings")
    return {"setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(wall_s),
            "step_p50_ms": statistics.median(step_ms),
            "step_p90_ms": statistics.quantiles(step_ms, n=10, method="inclusive")[8]}


def measure_setup(args):
    """Start-to-exit times of workers that only set up, scaled to the
    reference speed by calibrations on both sides of each."""
    clock, spans = Clock(), []
    for _ in range(SETUP_RUNS[args.size]):
        clock.calibrate()
        begin = clock.mark()
        worker(args, "setup", args.seconds)
        spans.append((begin, clock.mark()))
    clock.calibrate()
    return [clock.scaled(*marks) for marks in spans]


def run_one(args):
    setup_s, raw_setup_s = zip(*measure_setup(args))
    if args.trace:
        spans = os.path.join(".perfbench_out",
                             f"spans-{args.workload}-seed{args.seed}.jsonl")
        children = [worker(args, "measure", args.seconds / 2),
                    worker(args, "trace", args.seconds / 2, ["--spans", spans])]
    else:
        children = [worker(args, "measure", args.seconds)]
    measured = children[0]
    ok = _ok(measured["ops"])
    e2e = timings(setup_s, [op["s"] for op in ok], measured["step_ms"])
    e2e["work_per_s"] = statistics.median(op["work_per_s"] for op in ok)
    e2e["peak_rss_mb"] = measured["peak_rss_mb"]

    reference, oracle, problems = {}, {}, []
    attempted = failed = 0
    for child in children:
        for i, op in enumerate(child["ops"]):
            attempted += 1
            why = check_output(args, op, reference, oracle)
            if why:
                failed += 1
                problems.append(f"{child['mode']} op {i}: {why}")

    detail = {
        "facts": dict(run_facts(args), blas=measured["blas"]),
        "samples": {"ops": len(measured["ops"]),
                    "steps": len(measured["step_ms"]),
                    "setup_runs": len(setup_s)},
        "error_rate": {"failed": failed, "attempted": attempted,
                       "rate": failed / attempted},
        "problems": problems,
        "outputs": {"inputs": len(reference), "digest": hashlib.sha256(
            json.dumps(sorted(reference.items())).encode()).hexdigest()},
        "end_to_end": e2e,
        "raw": timings(raw_setup_s, [op["raw_s"] for op in ok],
                       measured["raw_step_ms"]),
    }
    if args.trace:
        traced = children[1]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = statistics.median(
            op["s"] for op in _ok(traced["ops"])) - e2e["wall_s"]
        detail["bases"] = traced["bases"]
        detail["spans_file"] = spans
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = END_TO_END_UNITS
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}
    return detail, line


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(SETTINGS),
                    help="toy sizes run in seconds, for the self-tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "driftlab", "__init__.py")):
        print("run.py: no src/driftlab here; run from the root of a driftlab "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            args.workload = name
            detail, lines[name] = run_one(args)
            print(json.dumps(detail))
            if len(names) > 1:
                print(json.dumps({"workload": name, **lines[name]}))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{w}/{m}": v for w, r in lines.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
