"""Exception hierarchy shared across the toolkit.

The split between DataError and NetworkError mirrors the CLI exit codes:
data problems exit 3, network problems exit 4.
"""

from __future__ import annotations


class WikivoteError(Exception):
    """Base class for all toolkit errors."""


class DataError(WikivoteError):
    """A dataset, schema, or computation problem caused by the input data."""


class ValidationError(DataError):
    """A domain invariant was violated (duplicate keys, bad shares, ...)."""


class SchemaError(DataError):
    """A CSV file does not match its documented schema."""


class RowError(DataError):
    """A single CSV row could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ComputationError(DataError):
    """A numeric operation is undefined for the given data."""


class SingularityError(ComputationError):
    """The design matrix is rank deficient; names the collapsing column."""

    def __init__(self, column: str):
        super().__init__(f"design matrix is rank deficient in column {column!r}")
        self.column = column


class NetworkError(WikivoteError):
    """An upstream HTTP problem."""


class MissingPageError(NetworkError):
    """The article does not exist upstream (HTTP 404)."""


class RateLimitError(NetworkError):
    """Upstream kept refusing after the configured number of retries."""


class CurationWarning(UserWarning):
    """Non-fatal curation notice: a party below the inclusion rule or a
    constant design column."""
