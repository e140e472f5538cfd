"""Command-line entry point.

Subcommands: train, sweep, ot, cmi, friedman, bound. Each ``cmd_*``
returns its report dict and its text lines, and :func:`main` alone
writes stdout: the report under ``--format structured``, the lines
otherwise. Exit codes are shared across subcommands: 0 success, 2
invalid input or configuration (including sizes too large to allocate)
or an output that cannot be written, 3 numeric failure, 4 infeasible
transport problem. All output is deterministic: identical inputs
produce byte-identical stdout.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .cmi import (
    BilinearScorer,
    cnce_terms,
    contrastive_from_features,
    exact_cmi,
    load_joint,
    optimal_scorer,
    sample_contrastive,
    train_scorer,
)
from .errors import (
    ContractError,
    DimensionError,
    InfeasibleError,
    NumericError,
    ParseError,
)
from .evalstats import (
    BoundInputs,
    bayes_bound,
    emit_report,
    format_rank,
    friedman,
    load_ranks,
)
from .ot import (
    CostMatrix,
    ar_wwd_primal,
    load_measure,
    nested_cost,
    wasserstein_exact,
)
from .pipeline import (
    apply_overrides,
    load_config,
    run_experiment,
    run_sweep,
)
from .tensorcore import OptimState, SplitMix64
from .textio import read_fields, read_rows


def _fmt(value):
    """Ten significant digits, plain positional notation."""
    return np.format_float_positional(float(value), precision=10,
                                      unique=False, fractional=False)


# ---------------------------------------------------------------------
# train / sweep
# ---------------------------------------------------------------------

def cmd_train(args):
    """Exit codes: 0 success, 2 invalid config, 3 numeric failure."""
    config = load_config(args.config)
    if args.set:
        config = apply_overrides(config, args.set)
    report_path = args.report
    if report_path is None:
        report_path = str(Path(args.config).with_suffix(".report.json"))
    report = run_experiment(config, report_path=report_path,
                            checkpoint_path=args.checkpoint)
    return report, [f"config_hash {report['config_hash']}",
                    f"final_target_acc {_fmt(report['final']['target_acc'])}",
                    f"report {report_path}"]


def cmd_sweep(args):
    """Exit codes: 0 success, 2 invalid config or values, 3 numeric."""
    config = load_config(args.config)
    if args.set:
        config = apply_overrides(config, args.set)
    values = [v for v in args.values.split(",") if v.strip()]
    if not values:
        raise ContractError("sweep needs at least one value")
    results = run_sweep(config, values, field_name=args.field,
                        out_dir=args.out_dir)
    return {"runs": results}, [
        f"{r['run_id']} {r['config_hash'][:16]} "
        f"{_fmt(r['final_target_acc'])} {r['report_path'] or '-'}"
        for r in results]


# ---------------------------------------------------------------------
# ot
# ---------------------------------------------------------------------

def _euclidean_cost(a, b):
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"atom widths differ: {a.shape[1]} in the source, "
            f"{b.shape[1]} in the target"
        )
    diff = a[:, None, :] - b[None, :, :]
    return CostMatrix(np.sqrt((diff ** 2).sum(axis=2)))


def _save_plan(plan, path):
    with open(path, "w", encoding="ascii") as fh:
        for i, j in zip(*np.nonzero(plan > 0)):
            fh.write(f"{i},{j},{repr(float(plan[i, j]))}\n")


def cmd_ot(args):
    """Exit codes: 0 success, 2 invalid input, 3 broken plan, 4 infeasible problem.

    --beta 0 solves the balanced problem; 0 < beta < 1 relaxes the
    source marginal. Without --nested the ground cost is the Euclidean
    distance between atoms (outer exponent 1); with --nested each atom
    is a feature vector and the ground cost is the 1-D quadratic
    transport distance between dimension measures.
    """
    mu = load_measure(args.source)
    nu = load_measure(args.target)
    # both ground costs take (n, d) atoms; 1-D atoms become one column
    a, b = (m.atoms.reshape(len(m), -1) for m in (mu, nu))
    cost = nested_cost(a, b) if args.nested else _euclidean_cost(a, b)
    if args.beta == 0.0:
        value, plan = wasserstein_exact(mu, nu, cost)
    else:
        value, plan = ar_wwd_primal(mu, nu, cost, args.beta)
    if args.plan:
        _save_plan(plan, args.plan)
    report = {"distance": float(value), "beta": args.beta,
              "nested": bool(args.nested)}
    return report, [_fmt(value)]


# ---------------------------------------------------------------------
# cmi
# ---------------------------------------------------------------------

def _terms_summary(terms):
    est = float(terms.mean())
    if terms.size > 1:
        se = float(terms.std(ddof=1) / np.sqrt(terms.size))
    else:
        se = 0.0
    return est, se


def cmd_cmi(args):
    """Exit codes: 0 success, 2 invalid input (including --k < 1).

    A --joint file always gets its exact value printed; adding
    --samples also draws a Monte-Carlo contrastive estimate under the
    optimal scorer. Feature-batch mode (--source/--target) scores the
    in-batch contrastive structure with a bilinear scorer, optionally
    trained for --train-steps ascent steps first.
    """
    if args.k < 1:
        raise ContractError("need k >= 1 candidates")
    out = {}
    if args.joint:
        if args.source or args.target:
            raise ContractError("--joint excludes --source/--target")
        joint = load_joint(args.joint)
        out["exact"] = exact_cmi(joint)
        if args.samples is not None:
            batches = sample_contrastive(joint, args.samples, args.k,
                                         seed=args.seed, chunk=4096)
            scorer = optimal_scorer(joint)
            terms = np.concatenate([cnce_terms(scorer, b) for b in batches])
            out["cnce"], out["se"] = _terms_summary(terms)
            out["k"] = args.k
            out["samples"] = args.samples
    elif args.source and args.target:
        Zs = read_rows(args.source)
        Zt = read_rows(args.target)
        if Zs.shape[1] != Zt.shape[1]:
            raise ContractError("feature widths differ between domains")
        scorer = BilinearScorer(Zs.shape[1], SplitMix64(args.seed))
        batch = contrastive_from_features(Zs, Zt)
        train_scorer(scorer, batch.sources, batch.anchors, args.train_steps,
                     OptimState(scorer.parameters(), lr=1e-3))
        terms = cnce_terms(scorer, batch)
        out["cnce"], out["se"] = _terms_summary(terms)
        out["k"] = int(Zt.shape[0])
        out["samples"] = int(Zt.shape[0])
    else:
        raise ContractError("pass --joint FILE or both --source and --target")

    return out, [f"{key} {_fmt(out[key])}"
                 for key in ("exact", "cnce", "se") if key in out]


# ---------------------------------------------------------------------
# friedman
# ---------------------------------------------------------------------

def cmd_friedman(args):
    """Exit codes: 0 success (even when F is undefined), 2 malformed table.

    Accuracy tables are ranked per task first; rank tables are used as
    shipped, preferring their printed rank averages for the statistic
    when present.
    """
    rnk = load_ranks(args.table)
    averages = "reported" if rnk.printed_avg is not None else "exact"
    stats = friedman(rnk, averages=averages).as_report()

    lines = [",".join(["method", *rnk.tasks, "avg_rank"])]
    avgs = rnk.printed_avg if rnk.printed_avg is not None else rnk.avg_ranks
    for i, name in enumerate(rnk.methods):
        cells = [format_rank(r) for r in [*rnk.ranks[i], avgs[i]]]
        lines.append(",".join([name] + cells))
    f_stat = "undefined" if stats["f_stat"] is None else _fmt(stats["f_stat"])
    lines += [f"chi2 {_fmt(stats['chi2'])}", f"f_stat {f_stat}",
              f"dof {stats['dof_between']} {stats['dof_residual']}"]
    return stats, lines


# ---------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------

def cmd_bound(args):
    """Exit codes: 0 success, 2 invalid input file."""
    bounds = bayes_bound(read_fields(args.inputs, BoundInputs))
    return bounds, [f"{key} {_fmt(bounds[key])}" for key in sorted(bounds)]


# ---------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Domain-shift laboratory: training, transport "
                    "distances, contrastive estimates, and benchmark "
                    "statistics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="run one training experiment")
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                   help="override a config field (repeatable)")
    p.add_argument("--report", help="report path (default: config stem "
                                    "+ .report.json)")
    p.add_argument("--checkpoint", help="write final parameters here")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("sweep", help="independent runs over one field")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VAL")
    p.add_argument("--field", default="beta", help="config field to vary")
    p.add_argument("--values", required=True,
                   help="comma-separated field values")
    p.add_argument("--out-dir", help="write one report file per run")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("ot", help="transport distance between measures")
    p.add_argument("source", help="measure file: weight,coord1[,coord2,...]")
    p.add_argument("target")
    p.add_argument("--beta", type=float, default=0.0,
                   help="source-marginal relaxation in [0, 1)")
    p.add_argument("--nested", action="store_true",
                   help="treat atoms as feature vectors with the nested "
                        "dimension-measure ground cost")
    p.add_argument("--plan", help="write the optimal plan as i,j,flow rows")
    p.set_defaults(func=cmd_ot)

    p = subs.add_parser("cmi", help="conditional-information estimates")
    p.add_argument("--joint", help="joint file: x_s,x_t,z,probability")
    p.add_argument("--source", help="feature rows for the paired domain")
    p.add_argument("--target", help="feature rows for the anchor domain")
    p.add_argument("--k", type=int, default=64,
                   help="candidates per anchor (joint sampling)")
    p.add_argument("--samples", type=int,
                   help="Monte-Carlo sample count (joint mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-steps", type=int, default=0,
                   help="scorer ascent steps before estimating "
                        "(feature mode)")
    p.set_defaults(func=cmd_cmi)

    p = subs.add_parser("friedman", help="rank statistics for a benchmark "
                                         "table")
    p.add_argument("table", help="accuracy or rank table (csv/tsv)")
    p.set_defaults(func=cmd_friedman)

    p = subs.add_parser("bound", help="evaluate error bounds from a "
                                      "key=value file")
    p.add_argument("inputs", help="key=value file of bound inputs")
    p.set_defaults(func=cmd_bound)

    # one output switch for every subcommand, read only by main
    for sub in subs.choices.values():
        sub.add_argument("--format", choices=("text", "structured"),
                         default="text",
                         help="text lines or the report-file key schema")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        # numeric failures raise NumericError; numpy's warnings would repeat them
        with np.errstate(all="ignore"):
            report, lines = args.func(args)
            if args.format == "structured":
                sys.stdout.write(emit_report(report))
            else:
                sys.stdout.write("".join(f"{line}\n" for line in lines))
        return 0
    except (ParseError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # every failed read is a ParseError, so this is a failed write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: input too large to allocate: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
