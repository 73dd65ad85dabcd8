"""Exception hierarchy shared across the package.

Every error raised by lmsql derives from LmSqlError so callers can catch
the whole family; the CLI maps subfamilies to exit codes.
"""

from __future__ import annotations


class LmSqlError(Exception):
    """Base class for all lmsql errors."""


# ---- table loading / shaping ----

class IoError(LmSqlError):
    """File missing or unreadable."""


class FormatError(LmSqlError):
    """Malformed input file (ragged rows, duplicate headers, bad JSON shape)."""


class UnknownColumn(LmSqlError):
    def __init__(self, name: str, available=()):
        self.name = name
        self.available = tuple(available)
        msg = f"unknown column {name!r}"
        if self.available:
            msg += f" (table has: {', '.join(self.available)})"
        super().__init__(msg)


class LengthMismatch(LmSqlError):
    """Column length does not match the table row count."""


class DuplicateColumn(LmSqlError):
    """Column name already present in the table."""


# ---- lexing / parsing ----

class ParseError(LmSqlError):
    """Positioned syntax error. `position` is a character offset into the source."""

    def __init__(self, message: str, position: int, expected=()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += f" (expected {', '.join(self.expected)})"
        super().__init__(detail)


class LexError(ParseError):
    """Illegal character or unterminated literal."""


class RoleAmbiguity(LmSqlError):
    """A model-call expression sits in a position that admits neither a column
    nor a scalar reading."""


# ---- execution ----

class UnsupportedFeature(LmSqlError):
    """Program uses SQL outside the supported subset."""


class EvalError(LmSqlError):
    """Runtime evaluation failure (e.g. scalar subquery with multiple rows)."""


class ResolutionError(LmSqlError):
    """A model call failed during program execution; carries the call's question."""

    def __init__(self, question: str, cause: Exception):
        self.question = question
        self.cause = cause
        super().__init__(f'while resolving f("{question}"; ...): {cause}')


# ---- completion backends ----

class BackendError(LmSqlError):
    """Base for completion-backend failures."""


class TransportError(BackendError):
    """Network or service failure that survived the retry policy."""


class BadResponse(BackendError):
    """Service or fixture reply that cannot be interpreted."""


class MalformedResponse(LmSqlError):
    """Model completion with no parseable sub-table rows."""


class BudgetExhausted(LmSqlError):
    """A request does not fit the token budget: every backend refuses one, and
    the planner cannot make a parse prompt fit even with zero exemplars and
    zero inference-table rows."""


class ConfigError(LmSqlError):
    """Invalid or inconsistent run configuration."""
