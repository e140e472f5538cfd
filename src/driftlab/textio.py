"""Line-oriented text input shared by every file format.

Every input format is ASCII text read line by line, in which blank
lines and lines starting with ``#`` carry nothing. :func:`records`
yields the other lines with their line numbers and turns undecodable or
unreadable paths into :class:`ParseError`; a missing file still raises
``FileNotFoundError``, which the CLI reports by name. :func:`read_fields`
builds a dataclass from ``key=value`` lines through :func:`coerce_field`,
which also serves the CLI's ``--set`` overrides.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, fields

from .errors import ParseError

_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def records(path):
    """Yield ``(lineno, line)`` for every line that is neither blank nor a
    ``#`` comment, with surrounding whitespace stripped."""
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.isascii():
                    # undecodable bytes arrive as lone surrogates U+DC80..
                    bad = next(c for c in raw if not c.isascii())
                    raise ParseError(
                        f"{path}: byte {ord(bad) - 0xDC00:#04x} is not ASCII",
                        line=lineno)
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}")


def coerce_field(cls, assignment):
    """Split ``key=value`` and coerce the value to the type annotated on
    that field of the dataclass ``cls``; returns ``(key, value)``.

    Booleans accept true/false, 1/0, yes/no in any case. Raises
    ValueError naming the problem; callers add their own context.
    """
    if "=" not in assignment:
        raise ValueError("expected key=value")
    key, _, raw = assignment.partition("=")
    key, raw = key.strip(), raw.strip()
    kind = typing.get_type_hints(cls).get(key)
    if kind is None:
        raise ValueError(f"unknown key {key!r}")
    if kind is bool and raw.lower() in _BOOLS:
        return key, _BOOLS[raw.lower()]
    try:
        if kind is not bool:
            return key, kind(raw)
    except ValueError:
        pass
    raise ValueError(f"bad value for {key!r}: {raw!r}")


def read_fields(path, cls):
    """Build the dataclass ``cls`` from a file of ``key=value`` lines.

    Unknown, duplicate and malformed lines raise ParseError naming the
    line, and a missing required field raises ParseError naming the
    path. Errors that ``cls`` itself raises propagate unchanged.
    """
    values = {}
    for lineno, line in records(path):
        try:
            key, value = coerce_field(cls, line)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        values[key] = value
    missing = [f.name for f in fields(cls) if f.name not in values
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ParseError(f"{path}: missing {', '.join(missing)}")
    return cls(**values)
