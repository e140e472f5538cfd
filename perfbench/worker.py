"""One process of a benchmark run: build the inputs, run the closed loop.

Usage (run.py starts it with the environment it needs):

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                --mode {setup,measure,trace} --size {full,toy}

``setup`` builds the inputs and exits; ``measure`` runs operations one
after another until the next one would end past ``--seconds``;
``trace`` does the same with spans recorded. The result is one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from time import perf_counter

import numpy as np

import tracing
from clock import Clock
from workloads import SETTINGS, cmi_joint, cmi_sample_seed, ot_batches, train_fields

from driftlab import cmi, dualcritic, model, ot, pipeline, tensorcore

MIN_OPS = 2  # outputs of two operations are compared for determinism


def _digest(obj):
    """sha256 of canonical JSON; refuses NaN and infinities."""
    text = json.dumps(obj, sort_keys=True, allow_nan=False,
                      default=lambda v: v.item())
    return hashlib.sha256(text.encode()).hexdigest()


class TrainLoop:
    """Operation: one ``pipeline.train`` call. Step: an adversarial step."""

    work_per_step = 1

    def __init__(self, seed, settings):
        self.config = pipeline.TrainConfig(**train_fields(seed, settings))

    def setup(self):
        """What train() does before its first step."""
        source, _ = pipeline.make_dataset(self.config)
        pipeline.init_state(self.config, input_dim=source.X.shape[1])

    def start(self, clock, steps):
        """Time each adversarial step."""
        inner = pipeline.adversarial_step

        def timed_step(*args, **kwargs):
            begin = clock.mark()
            try:
                return inner(*args, **kwargs)
            finally:
                steps.append((begin, clock.mark()))
        pipeline.adversarial_step = timed_step

    def op(self):
        _, report = pipeline.train(self.config)
        return report

    def check(self, report):
        return {"input": 0, "digest": _digest(report),
                "target_acc": report["final"]["target_acc"]}


class OTLoop:
    """Operation: a round of nested-OT queries, one per size, on fresh
    batches. Step: one query, which builds the nested cost and solves
    the balanced and relaxed problems."""

    work_per_step = 2  # exact solves per query

    def __init__(self, seed, settings):
        self.seed, self.settings = seed, settings
        self.round = 0

    def setup(self):
        ot_batches(self.seed, self.settings, 0)

    def start(self, clock, steps):
        self.clock, self.steps = clock, steps

    def op(self):
        r, self.round = self.round, self.round + 1
        values = []
        for A, B in ot_batches(self.seed, self.settings, r):
            begin = self.clock.mark()
            mu = ot.DiscreteMeasure(np.arange(len(A), dtype=np.float64),
                                    np.full(len(A), 1.0 / len(A)))
            nu = ot.DiscreteMeasure(np.arange(len(B), dtype=np.float64),
                                    np.full(len(B), 1.0 / len(B)))
            cost = ot.nested_cost(A, B)
            balanced, _ = ot.wasserstein_exact(mu, nu, cost, p=1.0)
            relaxed, _ = ot.ar_wwd_primal(mu, nu, cost, self.settings["beta"])
            self.steps.append((begin, self.clock.mark()))
            values.append([float(balanced), float(relaxed)])
        return r, values

    def check(self, output):
        r, values = output
        return {"input": r, "digest": _digest(values), "values": values}


class CMILoop:
    """Operation and step: one fresh ``sample_contrastive`` draw, scored
    chunk by chunk with ``cnce_terms`` under the optimal scorer."""

    def __init__(self, seed, settings):
        self.seed = seed
        self.joint = cmi.DiscreteJoint(cmi_joint(seed))
        self.n, self.k, self.chunk = (settings["n_samples"], settings["k"],
                                      settings["chunk"])
        self.work_per_step = self.n * self.k  # candidate rows
        self.draw = 0

    def setup(self):
        self.scorer = cmi.optimal_scorer(self.joint)
        self.exact = cmi.exact_cmi(self.joint)

    def start(self, clock, steps):
        self.clock, self.steps = clock, steps

    def op(self):
        r, self.draw = self.draw, self.draw + 1
        sample_seed = cmi_sample_seed(self.seed, r)
        begin = self.clock.mark()
        batches = cmi.sample_contrastive(self.joint, self.n, self.k,
                                         sample_seed, chunk=self.chunk)
        terms = [cmi.cnce_terms(self.scorer, b) for b in batches]
        self.steps.append((begin, self.clock.mark()))
        return r, terms

    def check(self, output):
        r, terms = output
        terms = np.concatenate(terms)
        return {"input": r,
                "digest": hashlib.sha256(terms.tobytes()).hexdigest(),
                "estimate": float(terms.mean()),
                "se": float(terms.std(ddof=1) / np.sqrt(terms.size)),
                "exact": self.exact,
                "max_term": float(terms.max()),
                "log_k": float(np.log(self.k))}


LOOPS = {"train-adapt": TrainLoop, "train-default": TrainLoop,
         "ot-nested": OTLoop, "cmi-joint": CMILoop}


def closed_loop(loop, clock, seconds, run_op):
    """Issue operations back to back until the next would overrun.

    Returns one record per operation, and the scaled and raw step
    durations. Timings are scaled once the loop is over, when the
    calibrations on both sides of every step are known.
    """
    steps, ops = [], []
    loop.start(clock, steps)
    clock.start()
    start = perf_counter()
    while True:
        first, begin = len(steps), clock.mark()
        try:
            output = run_op(loop.op)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, repr(exc)
        ops.append({"marks": (begin, clock.mark()), "steps": (first, len(steps)),
                    "error": error})
        if output is not None:
            try:
                ops[-1].update(loop.check(output))
            except ValueError as exc:  # non-finite output
                ops[-1]["error"] = repr(exc)
        now = perf_counter()
        elapsed, last = now - start, now - begin[0]
        if len(ops) >= MIN_OPS and elapsed + last > seconds:
            break
    clock.stop()

    step_s = [clock.scaled(*marks) for marks in steps]
    for op in ops:
        first, last = op.pop("steps")
        op["s"], op["raw_s"] = clock.scaled(*op.pop("marks"))
        if not op["error"] and last > first:
            op["work_per_s"] = (last - first) * loop.work_per_step / sum(
                s for s, _ in step_s[first:last])
    return ops, [s for s, _ in step_s], [raw for _, raw in step_s]


def peak_rss_mb():
    """High-water resident set of this process since it started.

    VmHWM belongs to the process's own address space, which exec
    replaces; ru_maxrss would also count the parent's resident set at
    the time it spawned this worker.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(LOOPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace"))
    ap.add_argument("--size", default="full", choices=sorted(SETTINGS))
    ap.add_argument("--spans", help="file for the spans of a traced run")
    args = ap.parse_args(argv)

    settings = SETTINGS[args.size][args.workload]
    loop = LOOPS[args.workload](args.seed, settings)
    loop.setup()
    if args.mode == "setup":
        print(json.dumps({"mode": "setup"}))
        return 0

    clock = Clock()
    run_op = lambda op: op()
    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer(f"{args.workload}/seed{args.seed}/trace", clock)
        tracing.instrument(tracer, pipeline, dualcritic, model, cmi, ot,
                           tensorcore)
        run_op = tracer.operation
    ops, step_s, raw_step_s = closed_loop(loop, clock, args.seconds, run_op)
    result = {
        "mode": args.mode,
        "ops": ops,
        "step_ms": [1000.0 * s for s in step_s],
        "raw_step_ms": [1000.0 * s for s in raw_step_s],
        "peak_rss_mb": peak_rss_mb(),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
    }
    if tracer is not None:
        tracer.restore()
        result["layers"], result["bases"] = tracing.layer_metrics(
            tracer, settings.get("sizes", ()))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
