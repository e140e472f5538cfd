"""Shared exception types.

The CLI maps these onto exit codes: ContractError/ParseError -> 2,
NumericError -> 3, InfeasibleError -> 4. Every failed read is a
ParseError; any other OSError is a failed write (a report, checkpoint,
plan or sweep directory) and also exits 2, as does a MemoryError.
"""


class ContractError(ValueError):
    """A precondition on an operation or type invariant was violated."""


class DimensionError(ContractError):
    """Shapes or widths do not agree."""


class NumericError(ArithmeticError):
    """A computation produced NaN/Inf or otherwise failed numerically."""


class InfeasibleError(ValueError):
    """A transport or flow problem has no feasible solution."""


class allocating:
    """Raise numpy's refusal of a size past its index range, a
    ValueError, as the MemoryError that a size too large for memory
    raises. Wrap allocations whose size comes from input."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ValueError):
            raise MemoryError(str(exc)) from exc


class prefixed:
    """Raise a NumericError from the block again as ``prefix: message``,
    so each caller names its own stage of a failure."""

    def __init__(self, prefix):
        self.prefix = prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, NumericError):
            raise NumericError(f"{self.prefix}: {exc}") from exc


class ParseError(ValueError):
    """An input file could not be parsed. Carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

