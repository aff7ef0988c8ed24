"""Exception hierarchy for the library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class AppendOrderError(ReproError):
    """An update violated the append-only (transaction-time) discipline.

    Raised when an update carries a TT-coordinate smaller than the latest
    one and the structure was configured without an out-of-order buffer
    (Section 2.5).
    """


class DomainError(ReproError):
    """A coordinate or range fell outside a dimension's domain."""


class EmptyStructureError(ReproError):
    """A query was issued against a structure containing no data."""


class OperatorError(ReproError):
    """An aggregate operator was used outside its contract.

    The framework requires *invertible* operators (Section 1); requesting a
    non-invertible operator such as MIN/MAX raises this error.
    """


class StorageError(ReproError):
    """Inconsistent use of the storage layer (paging, archives, logs)."""


class RecoveryError(StorageError):
    """A durable-cube directory could not be recovered.

    Raised when the manifest is missing or unreadable, the checkpoint it
    names is gone, or committed (non-tail) log records are damaged.  A
    torn log *tail* is not an error -- recovery truncates it.
    """


class AgedOutError(ReproError):
    """A query needed detail data that was retired by data aging.

    Section 7: old detail slices can be retired to mass storage while the
    cumulative instance at the retirement boundary keeps all-of-history
    aggregates answerable.  Queries whose lower time bound falls inside
    the retired region (other than the open prefix from the beginning of
    time) raise this error.
    """


class ShardUnavailableError(ReproError):
    """A shard worker process died or stopped responding.

    The router surfaces this instead of hanging on a dead pipe; the
    sharded cube is left usable for the shards that survive, but answers
    requiring the lost shard are refused.
    """
