"""Backends: file system, key-value, mini SQL column store (real
histogram execution + simulated PostgreSQL-like latency/concurrency),
the ScalableSQL simulation, retries, and fault injection."""

from .base import Backend, BackendFetchError, BackendStats, BackendWrapper
from .database import ColumnTable, HistogramQuery, RangeFilter, SimulatedSQLDatabase
from .filesystem import FileSystemBackend, KeyValueBackend
from .pool import ConnectionPoolBackend
from .retry import RetryingBackend, RetryPolicy
from .scalable import ScalableSQLDatabase

__all__ = [
    "Backend",
    "BackendFetchError",
    "BackendStats",
    "BackendWrapper",
    "RetryPolicy",
    "RetryingBackend",
    "FileSystemBackend",
    "KeyValueBackend",
    "ConnectionPoolBackend",
    "ColumnTable",
    "HistogramQuery",
    "RangeFilter",
    "SimulatedSQLDatabase",
    "ScalableSQLDatabase",
]
