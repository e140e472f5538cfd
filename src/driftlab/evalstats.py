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

from .errors import ContractError, DimensionError, DomainError, ParseError
from .textio import records

# Printed per-method averages are rounded to one decimal, so they may
# sit up to 0.05 away from the mean of the printed ranks.
_PRINTED_AVG_TOL = 0.055


@dataclass
class AccuracyTable:
    """Percent accuracies for methods (rows) across tasks (columns)."""

    methods: list
    tasks: list
    values: np.ndarray

    def __post_init__(self):
        self.methods = [str(m) for m in self.methods]
        self.tasks = [str(t) for t in self.tasks]
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimensionError("accuracy values must be 2-D")
        m, n = self.values.shape
        if m != len(self.methods) or n != len(self.tasks):
            raise DimensionError(
                f"value grid {m}x{n} does not match {len(self.methods)} methods "
                f"x {len(self.tasks)} tasks"
            )
        if m < 2:
            raise ContractError("need at least two methods to compare")
        if n < 1:
            raise ContractError("need at least one task")
        if len(set(self.methods)) != m:
            raise ContractError("duplicate method name")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("accuracy values must be finite")
        if self.values.min() < 0.0 or self.values.max() > 100.0:
            raise ContractError("accuracies are percentages in [0, 100]")


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
        self.methods = [str(m) for m in self.methods]
        self.tasks = [str(t) for t in self.tasks]
        self.ranks = np.asarray(self.ranks, dtype=np.float64)
        if self.ranks.ndim != 2:
            raise DimensionError("rank grid must be 2-D")
        m, n = self.ranks.shape
        if m != len(self.methods) or n != len(self.tasks):
            raise DimensionError("rank grid does not match method/task counts")
        if m < 2:
            raise ContractError("need at least two methods to rank")
        if len(set(self.methods)) != m:
            raise ContractError("duplicate method name")
        if not np.all(np.isfinite(self.ranks)):
            raise ContractError("ranks must be finite")
        if self.ranks.min() < 1.0 or self.ranks.max() > m:
            raise ContractError(f"ranks must lie in [1, {m}]")
        if self.printed_avg is not None:
            self.printed_avg = np.asarray(self.printed_avg, dtype=np.float64)
            if self.printed_avg.shape != (m,):
                raise DimensionError("average-rank column length mismatch")
            gap = np.abs(self.printed_avg - self.avg_ranks).max()
            if gap > _PRINTED_AVG_TOL:
                raise ContractError(
                    f"reported average ranks deviate from the rank grid by {gap:.3f}"
                )

    @property
    def avg_ranks(self):
        """Mean rank of each method across tasks."""
        return self.ranks.mean(axis=1)

    @property
    def num_methods(self):
        return self.ranks.shape[0]

    @property
    def num_tasks(self):
        return self.ranks.shape[1]


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


@dataclass
class FriedmanResult:
    """Friedman rank statistics with the derived F form."""

    chi2: float
    f_stat: float
    dof: tuple

    def as_report(self):
        return {
            "chi2": float(self.chi2),
            "f_stat": float(self.f_stat),
            "dof_between": int(self.dof[0]),
            "dof_residual": int(self.dof[1]),
        }


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
    if not isinstance(inputs, BoundInputs):
        inputs = BoundInputs(**inputs)
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


def competition_ranks(table):
    """Rank methods within every task column, higher accuracy first.

    Tied methods share the smallest position they occupy and the
    following positions are skipped ("1224").
    """
    vals = table.values
    m, n = vals.shape
    ranks = np.empty((m, n), dtype=np.float64)
    for j in range(n):
        col = vals[:, j]
        for i in range(m):
            ranks[i, j] = int(np.sum(col > col[i])) + 1
    return RankTable(list(table.methods), list(table.tasks), ranks)


def friedman(ranks, averages="exact"):
    """Friedman test over a rank table: methods are treatments, tasks blocks.

    Returns the chi-square form, the Iman-Davenport F form, and the F
    degrees of freedom (m - 1, (m - 1)(n - 1)). A rank grid where every
    task agrees exactly saturates the statistic and makes the F form's
    denominator vanish; that degenerate case raises DomainError (with
    the chi-square value attached as its ``chi2`` attribute) rather
    than returning an infinity.

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
    m = ranks.num_methods
    n = ranks.num_tasks
    if averages == "reported":
        if ranks.printed_avg is None:
            raise ContractError("rank table carries no reported average column")
        rj = ranks.printed_avg
    else:
        rj = ranks.avg_ranks
    ssq = float(np.sum(rj * rj))
    chi2 = 12.0 * n / (m * (m + 1.0)) * (ssq - m * (m + 1.0) ** 2 / 4.0)
    denom = n * (m - 1.0) - chi2
    if denom <= 1e-12:
        err = DomainError(
            "rankings agree perfectly across tasks; the F statistic is undefined"
        )
        err.chi2 = chi2
        raise err
    f_stat = (n - 1.0) * chi2 / denom
    return FriedmanResult(chi2=chi2, f_stat=f_stat, dof=(m - 1, (m - 1) * (n - 1)))


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


def _split_table_line(line):
    sep = "\t" if "\t" in line else ","
    return [cell.strip() for cell in line.split(sep)]


def _read_table_rows(path):
    rows = [(lineno, _split_table_line(line)) for lineno, line in records(path)]
    if len(rows) < 2:
        raise ParseError("table needs a header row and at least one data row")
    return rows


def load_accuracy_table(path):
    """Read a delimited accuracy table: header of task names, then one
    method per row with its per-task percentages."""
    rows = _read_table_rows(path)
    header_no, header = rows[0]
    if len(header) < 2:
        raise ParseError("header must name at least one task", line=header_no)
    tasks = header[1:]
    methods, values = [], []
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(cells)}", line=lineno
            )
        methods.append(cells[0])
        try:
            values.append([float(c) for c in cells[1:]])
        except ValueError:
            raise ParseError("non-numeric accuracy cell", line=lineno)
    try:
        return AccuracyTable(methods, tasks, np.array(values))
    except (ContractError, DimensionError) as exc:
        raise ParseError(str(exc))


def load_rank_table(path):
    """Read a delimited rank table.

    A final ``avg_rank`` column, when present, is stored as the
    externally reported per-method average instead of a task.
    """
    rows = _read_table_rows(path)
    header_no, header = rows[0]
    if len(header) < 2:
        raise ParseError("header must name at least one task", line=header_no)
    has_avg = header[-1] == "avg_rank"
    tasks = header[1:-1] if has_avg else header[1:]
    if not tasks:
        raise ParseError("rank table has no task columns", line=header_no)
    methods, grid, printed = [], [], []
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(cells)}", line=lineno
            )
        methods.append(cells[0])
        try:
            nums = [float(c) for c in cells[1:]]
        except ValueError:
            raise ParseError("non-numeric rank cell", line=lineno)
        if has_avg:
            grid.append(nums[:-1])
            printed.append(nums[-1])
        else:
            grid.append(nums)
    try:
        return RankTable(
            methods,
            tasks,
            np.array(grid),
            printed_avg=np.array(printed) if has_avg else None,
        )
    except (ContractError, DimensionError) as exc:
        raise ParseError(str(exc))


def format_rank(r):
    """A rank as printed in tables: integers bare, others to 4 decimals."""
    r = float(r)
    if r == int(r):
        return str(int(r))
    return repr(round(r, 4))
