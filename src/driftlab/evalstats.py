"""Benchmark statistics: rank aggregation, the Friedman test, and
Bayes-error bound evaluation.

Accuracy tables hold percent scores for m methods across n tasks (an
"Avg" column, when present, is just another task column). Ranks are
assigned per task with the competition convention: tied
methods share the smallest position and the following positions are
skipped, so scores (100.0, 100.0, 99.8) rank as (1, 1, 3).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionError, ParseError
from .textio import records

# Printed per-method averages are rounded to one decimal, so they may
# sit up to 0.05 away from the mean of the printed ranks.
_PRINTED_AVG_TOL = 0.055


@dataclass
class RankTable:
    """Per-task method ranks plus the per-method average rank.

    ``printed_avg`` carries an externally reported average-rank column
    (as found in published tables, rounded to one decimal). When given
    it is checked against the mean of the stored ranks.
    """

    methods: list
    tasks: list
    ranks: np.ndarray
    printed_avg: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.methods = [str(name) for name in self.methods]
        self.tasks = [str(task) for task in self.tasks]
        self.ranks = np.asarray(self.ranks, dtype=np.float64)
        if self.ranks.ndim != 2:
            raise DimensionError("rank grid must be 2-D")
        m, n = self.ranks.shape
        if m != len(self.methods) or n != len(self.tasks):
            raise DimensionError(
                f"rank grid {m}x{n} does not match {len(self.methods)} "
                f"methods x {len(self.tasks)} tasks"
            )
        if m < 2:
            raise ContractError("need at least two methods to compare")
        if n < 1:
            raise ContractError("need at least one task")
        if len(set(self.methods)) != m:
            raise ContractError("duplicate method name")
        if not np.all(np.isfinite(self.ranks)):
            raise ContractError("rank values must be finite")
        if self.ranks.min() < 1.0 or self.ranks.max() > m:
            raise ContractError(f"ranks must lie in [1, {m}]")
        if self.printed_avg is not None:
            self.printed_avg = np.asarray(self.printed_avg, dtype=np.float64)
            if self.printed_avg.shape != (m,):
                raise DimensionError("average-rank column length mismatch")
            if not np.isfinite(self.printed_avg).all():
                raise ContractError("reported average ranks must be finite")
            gap = np.abs(self.printed_avg - self.avg_ranks).max()
            if gap > _PRINTED_AVG_TOL:
                raise ContractError(
                    f"reported average ranks deviate from the rank grid by {gap:.3f}"
                )

    @property
    def avg_ranks(self):
        """Mean rank of each method across tasks."""
        return self.ranks.mean(axis=1)


@dataclass
class BoundInputs:
    """Inputs to the Bayes-error bound calculator.

    All information quantities are in nats. The four conditional terms
    measure, in order: what each domain's features still reveal about
    their own inputs given the other domain's inputs (transferability,
    source then target), and what the two domains' inputs share given
    each representation (discriminability, conditioning on source
    features then target features). ``delta`` is the nonnegative slack
    added to the last term by the unified bound's model-complexity
    correction.
    """

    label_entropy: float
    source_specific_info: float
    target_specific_info: float
    cross_info_given_source: float
    cross_info_given_target: float
    delta: float = 0.0
    num_classes: int = 2

    def __post_init__(self):
        for name in (
            "label_entropy",
            "source_specific_info",
            "target_specific_info",
            "cross_info_given_source",
            "cross_info_given_target",
            "delta",
        ):
            val = float(getattr(self, name))
            setattr(self, name, val)
            if not math.isfinite(val) or val < 0.0:
                raise ContractError(f"{name} must be finite and nonnegative")
        self.num_classes = int(self.num_classes)
        if self.num_classes < 2:
            raise ContractError("need at least two classes")


def accuracy(predictions, labels):
    """Percent agreement between two equal-length label arrays."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise DimensionError("prediction/label shapes differ")
    if predictions.size == 0:
        raise ContractError("cannot score an empty prediction set")
    return 100.0 * float(np.sum(predictions == labels)) / predictions.size


def threshold_th(x, num_classes):
    """Clamp a raw bound into [0, 1 - 1/num_classes]."""
    num_classes = int(num_classes)
    if num_classes < 2:
        raise ContractError("need at least two classes")
    return min(max(float(x), 0.0), 1.0 - 1.0 / num_classes)


def bayes_bound(inputs):
    """Evaluate the four individual Bayes-error bounds and their unified form.

    Each information term R yields the bound Th(1 - exp(-H + R)) where H
    is the label entropy: the more task-relevant information a term
    certifies, the smaller the residual error bound. The slack ``delta``
    is added to the last term. The unified bound keeps the smallest of
    the four individual values, so it is never looser than any of them.
    """
    h = inputs.label_entropy
    terms = {
        "source_specific": inputs.source_specific_info,
        "target_specific": inputs.target_specific_info,
        "cross_given_source": inputs.cross_info_given_source,
        "cross_given_target": inputs.cross_info_given_target + inputs.delta,
    }
    # Where R >= H the bound is clamped to 0 anyway; capping the
    # exponent there gives the same 0 and keeps exp from overflowing.
    out = {
        name: threshold_th(1.0 - math.exp(min(-h + r, 0.0)),
                           inputs.num_classes)
        for name, r in terms.items()
    }
    out["unified"] = min(out.values())
    return out


def competition_ranks(grid):
    """Rank the rows of an (m, n) accuracy grid within every column,
    higher accuracy first: a cell's rank is one plus the number of cells
    above it in its column, so tied methods share the smallest position
    they occupy and the following positions are skipped ("1224")."""
    grid = np.asarray(grid, dtype=np.float64)
    return 1.0 + (grid[None, :, :] > grid[:, None, :]).sum(axis=1)


def friedman(ranks, averages="exact"):
    """Friedman test over a rank table: methods are treatments, tasks blocks.

    Returns the report ``{"chi2", "f_stat", "dof_between",
    "dof_residual"}``: the chi-square form, the Iman-Davenport F form,
    and the F degrees of freedom m - 1 and (m - 1)(n - 1). A rank grid
    where every task agrees exactly saturates the statistic and makes
    the F form's denominator vanish; there ``f_stat`` is None rather
    than an infinity, and the chi-square form is still returned. With
    one task ``f_stat`` has no residual degrees of freedom and is None.
    Tied competition ranks or a rounded reported average column can
    make the chi-square form negative; there both forms are None.

    ``averages`` selects the per-method average ranks fed into the
    statistic: "exact" uses the mean of the rank grid, "reported" uses
    the table's externally reported average column. Published tables
    round that column to one decimal, and near the statistic's
    saturation point even rounding-level changes move the F form
    noticeably, so reproducing published statistics requires the
    "reported" route while fresh analyses should keep "exact".
    """
    if not isinstance(ranks, RankTable):
        raise ContractError("friedman expects a RankTable")
    if averages not in ("exact", "reported"):
        raise ContractError("averages must be 'exact' or 'reported'")
    m, n = ranks.ranks.shape
    if averages == "reported":
        if ranks.printed_avg is None:
            raise ContractError("rank table carries no reported average column")
        rj = ranks.printed_avg
    else:
        rj = ranks.avg_ranks
    ssq = float(np.sum(rj * rj))
    chi2 = 12.0 * n / (m * (m + 1.0)) * (ssq - m * (m + 1.0) ** 2 / 4.0)
    denom = n * (m - 1.0) - chi2
    defined = chi2 >= 0.0
    f_stat = ((n - 1.0) * chi2 / denom
              if defined and n > 1 and denom > 1e-12 else None)
    return {"chi2": chi2 if defined else None, "f_stat": f_stat,
            "dof_between": m - 1, "dof_residual": (m - 1) * (n - 1)}


def _to_plain(obj, path="report"):
    """Coerce a report tree to plain JSON types, rejecting non-finite floats."""
    if isinstance(obj, dict):
        out = {}
        for key, val in obj.items():
            if not isinstance(key, str):
                raise ContractError(f"{path}: report keys must be strings")
            out[key] = _to_plain(val, f"{path}.{key}")
        return out
    if isinstance(obj, (list, tuple)):
        return [_to_plain(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, np.ndarray):
        return _to_plain(obj.tolist(), path)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if not math.isfinite(val):
            raise ContractError(f"{path}: non-finite value in report")
        return val
    if obj is None or isinstance(obj, str):
        return obj
    raise ContractError(f"{path}: unserializable value of type {type(obj).__name__}")


def emit_report(report, path=None):
    """Serialize a report dict to stable, re-emittable structured text.

    Keys are sorted and floats use repr, so emitting the same report
    twice gives byte-identical output. Non-finite numbers are refused.
    """
    if not isinstance(report, dict):
        raise ContractError("report must be a dict")
    text = json.dumps(_to_plain(report), sort_keys=True, indent=2, allow_nan=False)
    text += "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_ranks(path):
    """Read a delimited benchmark table as a RankTable.

    The header names the method column, then the tasks. A header that
    ends in ``avg_rank`` marks a rank table: its cells are ranks, and
    the last column is kept as the externally reported per-method
    average. Any other table holds percent accuracies, which are ranked
    per task with :func:`competition_ranks`.
    """
    rows = [(lineno, [cell.strip() for cell in
                      line.split("\t" if "\t" in line else ",")])
            for lineno, line in records(path)]
    if len(rows) < 2:
        raise ParseError("table needs a header row and at least one data row")
    (header_no, header), body = rows[0], rows[1:]
    ranked = header[-1] == "avg_rank"
    tasks = header[1:-1] if ranked else header[1:]
    if not tasks:
        raise ParseError("header must name at least one task", line=header_no)
    methods, grid = [], []
    for lineno, cells in body:
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(cells)}", line=lineno
            )
        methods.append(cells[0])
        try:
            grid.append([float(c) for c in cells[1:]])
        except ValueError:
            raise ParseError("non-numeric cell", line=lineno)
    grid = np.array(grid)
    try:
        if ranked:
            return RankTable(methods, tasks, grid[:, :-1],
                             printed_avg=grid[:, -1])
        # NaN compares False, so it would rank first: check before ranking
        if not np.all(np.isfinite(grid)):
            raise ContractError("accuracy values must be finite")
        if grid.min() < 0.0 or grid.max() > 100.0:
            raise ContractError("accuracies are percentages in [0, 100]")
        return RankTable(methods, tasks, competition_ranks(grid))
    except ContractError as exc:
        raise ParseError(str(exc))


def format_rank(r):
    """A rank as printed in tables: integers bare, others to 4 decimals."""
    r = float(r)
    if r == int(r):
        return str(int(r))
    return repr(round(r, 4))
