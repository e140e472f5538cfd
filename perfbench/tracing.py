"""Span recording around driftlab's layers, installed from outside.

Nothing under ``src/`` knows about tracing. :func:`instrument` replaces
the module attributes and class methods through which each layer's
public calls resolve (``pipeline.train_critic``, ``dualcritic.backward``,
``BilinearScorer.objective_graph``, ``ot.min_cost_flow``, ...) with
wrappers that record a span per call. Tensor nodes are counted by
wrapping ``Tensor.__init__``; a span per node would cost far more than
the node itself.

A span is a name, a start and an end (``perf_counter`` seconds), the
index of the span that was open when it started (its parent), the
operation it belongs to and the run id. Spans stay in memory and are
written out once, by :meth:`Tracer.write`, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

from workloads import OT_SLOTS


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "nodes", "cal", "size")

    def __init__(self, name, start, parent, op, nodes, cal, size):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.nodes = nodes  # node counter at start; a delta once closed
        self.cal = cal      # calibration time at start; a delta once closed
        self.size = size

    @property
    def duration(self):
        """Seconds inside the span, less the calibrations that ran in it."""
        return self.end - self.start - self.cal


class Tracer:
    def __init__(self, run_id, clock):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.calls = defaultdict(int)
        self.nodes = 0
        self.op = -1
        self._open = []
        self._restore = []

    def _enter(self, name, size=None):
        parent = self._open[-1] if self._open else -1
        span = Span(name, perf_counter(), parent, self.op, self.nodes,
                    self.clock.spent, size)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span.end = perf_counter()
        span.nodes = self.nodes - span.nodes
        span.cal = self.clock.spent - span.cal
        self._open.pop()

    def operation(self, fn):
        """Run one benchmark operation under a root span of its own."""
        self.op += 1
        span = self._enter("bench.op")
        try:
            return fn()
        finally:
            self._exit(span)

    def _replace(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._restore.append((owner, attr, original))

    def span(self, owner, attr, name, size=None):
        """Record a span for every call of ``owner.attr``.

        ``size`` maps the call's positional arguments to a number kept
        on the span, such as a problem size or a row count.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                span = self._enter(name, size(args) if size else None)
                try:
                    return original(*args, **kwargs)
                finally:
                    self._exit(span)
            return wrapper
        self._replace(owner, attr, make)

    def count(self, owner, attr, name):
        """Count calls of ``owner.attr`` without recording spans."""
        calls = self.calls

        def make(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper
        self._replace(owner, attr, make)

    def count_nodes(self, tensor_cls):
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                tracer.nodes += 1
                original(*args, **kwargs)
            return wrapper
        self._replace(tensor_cls, "__init__", make)

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "op": s.op, "id": i,
                    "parent": s.parent, "name": s.name,
                    "start": s.start - t0, "end": s.end - t0,
                    "calibration": s.cal, "nodes": s.nodes, "size": s.size,
                }) + "\n")


def instrument(tracer, pipeline, dualcritic, model, cmi, ot, tensorcore):
    """Wrap the boundaries each layer's public calls pass through.

    Names resolve where the caller looks them up: ``pipeline.train``
    finds its helpers in ``pipeline``'s globals, ``train_critic`` finds
    ``backward`` and ``step`` in ``dualcritic``'s, and so on, so the
    same function is wrapped once per module that calls it.
    """
    t = tracer
    for attr in ("adversarial_step", "evaluate_metrics", "epoch_batches",
                 "rlglc_objective"):
        t.span(pipeline, attr, "pipeline." + attr)
    t.span(pipeline, "gen_two_moons_shift", "data.gen_two_moons_shift")
    t.span(pipeline, "train_critic", "dualcritic.train_critic")
    t.span(dualcritic, "gradient_penalty_graph", "dualcritic.penalty_graph")
    for mod in (pipeline, dualcritic):
        t.span(mod, "backward", "tensorcore.backward")
        t.span(mod, "step", "tensorcore.step")
    for mod in (pipeline, model):
        t.span(mod, "extract", "model.extract")
    t.span(pipeline, "predict", "model.predict")
    t.span(pipeline, "cnce_estimate", "cmi.cnce_estimate")
    t.span(cmi.BilinearScorer, "objective_graph", "cmi.scorer_objective")
    t.span(cmi.BilinearScorer, "score_matrix", "cmi.score_matrix",
           size=lambda a: a[1].candidates.shape[0] * a[1].candidates.shape[1])
    t.span(cmi, "cnce_terms", "cmi.cnce_terms")
    t.span(cmi, "sample_contrastive", "cmi.sample_contrastive")
    t.span(ot, "nested_cost", "ot.nested_cost", size=lambda a: len(a[0]))
    t.span(ot, "wasserstein_exact", "ot.balanced")
    t.span(ot, "ar_wwd_primal", "ot.relaxed")
    t.span(ot, "min_cost_flow", "ot.min_cost_flow", size=lambda a: len(a[0]))
    t.count(ot, "w2_dimension", "ot.w2_dimension")
    t.count_nodes(tensorcore.Tensor)


def self_times(spans):
    """Span duration minus the time its child spans cover.

    Calls run on one thread, so the children of a span are disjoint
    intervals inside it and the time they cover is their summed length.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


# Per-layer metrics: name -> unit. "/step" is per adversarial step,
# "/eval" per evaluate_metrics call; see perfbench/README.md.
LAYER_UNITS = {
    "tensorcore.nodes_per_step": "count",
    "tensorcore.backward_calls_per_step": "count",
    "tensorcore.backward_ms": "ms",
    "tensorcore.optim_step_ms": "ms",
    "dualcritic.train_critic_ms": "ms",
    "dualcritic.penalty_graph_ms": "ms",
    "cmi.scorer_objective_ms": "ms",
    "cmi.cnce_estimate_ms": "ms",
    "cmi.score_rows_per_eval": "count",
    "cmi.sample_contrastive_ms": "ms",
    "cmi.cnce_terms_ms": "ms",
    "model.extract_ms": "ms",
    "model.predict_ms": "ms",
    "pipeline.adversarial_step_ms": "ms",
    "pipeline.descent_ms": "ms",
    "pipeline.evaluate_metrics_ms": "ms",
    "pipeline.epoch_batches_ms": "ms",
    "pipeline.eval_share": "ratio",
    "data.gen_two_moons_shift_ms": "ms",
    **{f"ot.nested_cost_ms.{slot}": "ms" for slot in OT_SLOTS},
    **{f"ot.min_cost_flow_ms.{kind}.{slot}": "ms"
       for kind in ("balanced", "relaxed") for slot in OT_SLOTS},
    "ot.w2_dimension_calls": "count",
    "trace.overhead_s": "s",
}


def _per(total, base):
    return total / base if base else 0.0


def layer_metrics(tracer, sizes):
    """Per-layer values from the recorded spans, plus their bases.

    A layer the workload never reaches reads 0. ``sizes`` lists the OT
    query sizes in slot order. ``trace.overhead_s`` needs the untraced
    run and is filled in by the caller.
    """
    spans = tracer.spans
    own = self_times(spans)

    def within(i, name):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    def pick(name, under=None, parent=None):
        return [i for i, s in enumerate(spans) if s.name == name
                and (under is None or within(i, under))
                and (parent is None or spans[s.parent].name == parent)]

    def ms(idx):
        return 1000.0 * sum(spans[i].duration for i in idx)

    steps = pick("pipeline.adversarial_step")
    evals = pick("pipeline.evaluate_metrics")
    ops = pick("bench.op")
    n_steps, n_evals, n_ops = len(steps), len(evals), len(ops)
    step_ms = lambda name: _per(ms(pick(name, under="pipeline.adversarial_step")), n_steps)
    eval_ms = lambda name: _per(ms(pick(name, under="pipeline.evaluate_metrics")), n_evals)
    call_ms = lambda idx: _per(ms(idx), len(idx))

    # The descent half of a step: building the combined objective, then
    # the backward pass and optimizer update that follow it in the step.
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s.parent].append(i)
    descent = sum(spans[c].duration
                  for j in pick("pipeline.rlglc_objective", parent="pipeline.adversarial_step")
                  for c in children[spans[j].parent] if spans[c].start >= spans[j].start)

    values = {
        "tensorcore.nodes_per_step": _per(sum(spans[i].nodes for i in steps), n_steps),
        "tensorcore.backward_calls_per_step": _per(
            len(pick("tensorcore.backward", under="pipeline.adversarial_step")), n_steps),
        "tensorcore.backward_ms": step_ms("tensorcore.backward"),
        "tensorcore.optim_step_ms": step_ms("tensorcore.step"),
        "dualcritic.train_critic_ms": step_ms("dualcritic.train_critic"),
        "dualcritic.penalty_graph_ms": step_ms("dualcritic.penalty_graph"),
        "cmi.scorer_objective_ms": step_ms("cmi.scorer_objective"),
        "cmi.cnce_estimate_ms": eval_ms("cmi.cnce_estimate"),
        "cmi.score_rows_per_eval": _per(sum(
            spans[i].size for i in pick("cmi.score_matrix", under="pipeline.evaluate_metrics")), n_evals),
        "cmi.sample_contrastive_ms": call_ms(pick("cmi.sample_contrastive", parent="bench.op")),
        "cmi.cnce_terms_ms": _per(ms(pick("cmi.cnce_terms", parent="bench.op")),
                                  len(pick("cmi.sample_contrastive", parent="bench.op"))),
        "model.extract_ms": eval_ms("model.extract"),
        "model.predict_ms": eval_ms("model.predict"),
        "pipeline.adversarial_step_ms": _per(1000.0 * sum(own[i] for i in steps), n_steps),
        "pipeline.descent_ms": _per(1000.0 * descent, n_steps),
        "pipeline.evaluate_metrics_ms": call_ms(evals),
        "pipeline.epoch_batches_ms": call_ms(pick("pipeline.epoch_batches")),
        "data.gen_two_moons_shift_ms": call_ms(pick("data.gen_two_moons_shift")),
        "ot.w2_dimension_calls": _per(tracer.calls["ot.w2_dimension"], n_ops),
    }
    if n_steps:
        values["pipeline.eval_share"] = ms(evals) / ms(ops)
    for slot, n in zip(OT_SLOTS, sizes):
        values[f"ot.nested_cost_ms.{slot}"] = call_ms(
            [i for i in pick("ot.nested_cost") if spans[i].size == n])
        for kind, parent in (("balanced", "ot.balanced"), ("relaxed", "ot.relaxed")):
            values[f"ot.min_cost_flow_ms.{kind}.{slot}"] = call_ms(
                [i for i in pick("ot.min_cost_flow", parent=parent) if spans[i].size == n])
    for name in LAYER_UNITS:
        values.setdefault(name, 0.0)
    bases = {"steps": n_steps, "evals": n_evals, "ops": n_ops,
             "eval_share": {"eval_ms": ms(evals), "op_ms": ms(ops)},
             "spans": len(spans), "nodes": tracer.nodes}
    return values, bases
