"""Backends: file system, mini SQL column store (real
histogram execution + simulated PostgreSQL-like latency/concurrency),
the ScalableSQL simulation, retries, and fault injection."""

from .base import Backend, BackendFetchError, BackendStats, BackendWrapper
from .database import ColumnTable, HistogramQuery, RangeFilter, SimulatedSQLDatabase
from .filesystem import FileSystemBackend
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
    "ColumnTable",
    "HistogramQuery",
    "RangeFilter",
    "SimulatedSQLDatabase",
    "ScalableSQLDatabase",
]
