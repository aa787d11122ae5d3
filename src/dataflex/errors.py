"""Exception taxonomy shared by all modules.

Every error class carries a distinct process exit code so the CLI can map
failures onto a documented, scriptable contract (see ``dataflex-cli --help``).
"""

from __future__ import annotations


class DataflexError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3
    #: The parameter field whose bound ``core.check_fields`` found broken, else None.
    field = None


class ParseError(DataflexError):
    """Malformed config, corpus, metrics, or checkpoint input."""

    exit_code = 4

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownTrainType(DataflexError):
    exit_code = 6


class BadSimplex(DataflexError):
    exit_code = 7


class BadSchedule(DataflexError):
    exit_code = 8


class BadProportions(DataflexError):
    exit_code = 9


class BadMode(DataflexError):
    exit_code = 10


class TooShort(DataflexError):
    """Sample has a single token; next-token loss needs at least two."""

    exit_code = 11


class LengthMismatch(DataflexError):
    exit_code = 12


class NegativeWeight(DataflexError):
    exit_code = 13


class NotAdam(DataflexError):
    exit_code = 14


class ColdOptimizer(DataflexError):
    """Adam state requested before any optimizer step has run."""

    exit_code = 15


class EmptyValidation(DataflexError):
    exit_code = 16


class KTooLarge(DataflexError):
    exit_code = 17


class BadParams(DataflexError):
    exit_code = 18


class NonFinite(DataflexError):
    exit_code = 19


class NegativeLoss(DataflexError):
    exit_code = 20


class NonFiniteMetric(DataflexError):
    exit_code = 21


class EmptyDomainWithMass(DataflexError):
    """A domain has positive sampling probability but no samples."""

    exit_code = 22


class DuplicateName(DataflexError):
    exit_code = 23


class UnknownComponent(DataflexError):
    exit_code = 24


#: Exit code used for I/O failures that are not package errors (missing files).
IO_ERROR_EXIT_CODE = 25

#: All error classes, in exit-code order; rendered into the CLI help text.
ERROR_CLASSES = [DataflexError, *sorted(DataflexError.__subclasses__(), key=lambda cls: cls.exit_code)]


def exit_code_table() -> str:
    """Human-readable exit-code table for --help output."""
    lines = ["exit codes:", "  0   success", "  1   unexpected internal error", "  2   usage error"]
    for cls in ERROR_CLASSES:
        lines.append(f"  {cls.exit_code:<3} {cls.__name__}")
    lines.append(f"  {IO_ERROR_EXIT_CODE:<3} file system error")
    return "\n".join(lines)
