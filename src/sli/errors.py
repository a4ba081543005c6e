"""Exception hierarchy shared by all sli modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceSpan:
    """Location of a token or construct in an input file."""

    filename: str
    line: int
    col_start: int
    col_end: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.col_start}-{self.col_end}"


class SliError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SliError):
    def __init__(self, message: str, span: SourceSpan | None = None):
        self.span = span
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)


class DuplicateDefinition(ParseError):
    pass


class UnknownElement(ParseError):
    pass


class TypeCheckError(SliError):
    pass


class UnknownSymbol(TypeCheckError):
    pass


class ArityMismatch(TypeCheckError):
    pass


class TypeMismatch(TypeCheckError):
    pass


class UninterpretedSymbol(SliError):
    """An operation that needs an interpretation met a symbol without one."""


class ShapeMismatch(SliError):
    pass


class DuplicateVariable(SliError):
    pass


class InvalidPermutation(SliError):
    pass


class UnknownVariable(SliError):
    pass


class IndexOutOfRange(SliError):
    pass


class ArithmeticOverflow(SliError):
    pass


class BitBudgetOverflow(SliError):
    """A tensor allocation, or a noreduce table, would exceed the bit
    budget, the fixed bittensor.BIT_BUDGET of 2^33 bits."""


class UnsupportedFormula(SliError):
    """Formula shape outside the reducible fragment (e.g. an uninterpreted
    function application nested inside another symbol's argument)."""


class GuardCapExceeded(SliError):
    """A sentence has more liftable guards than the configured cap."""


class InvalidSpec(SliError):
    pass


class GroundingTimeout(SliError):
    """Cooperative deadline hit while grounding."""
