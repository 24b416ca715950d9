"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class.  More specific subclasses signal
configuration problems (bad graphs, bad utility models, infeasible budgets)
versus runtime problems (an algorithm invoked on an instance that violates
its preconditions).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class GraphError(ReproError):
    """Raised for malformed graphs (bad node ids, probabilities, CSR data)."""


class UtilityModelError(ReproError):
    """Raised for inconsistent utility models (negative prices, unknown items,
    non-monotone valuations when a monotone one is required, …)."""


class AllocationError(ReproError):
    """Raised for invalid seed allocations (budget violations, unknown nodes
    or items, overlap between the fixed and the to-be-selected item sets)."""


class AlgorithmError(ReproError):
    """Raised when an algorithm's preconditions are not met, e.g. SupGRD
    without a superior item or Balance-C with more than two items."""


class SpecError(ReproError):
    """Raised for invalid run specifications (:mod:`repro.api`): unknown
    configurations, malformed budget vectors, unsupported capability
    combinations such as ``--workers`` on an algorithm without parallel
    RR-set sampling, or unparsable spec dictionaries."""


class ConvergenceError(ReproError):
    """Raised when an iterative procedure fails to converge within its
    configured iteration limit."""


class DeadlineExceeded(ReproError):
    """Raised (or returned as a batch result slot) when a served request's
    deadline expired before its execution started; the server answers a
    ``deadline-exceeded`` envelope instead of burning worker time."""


class IndexStoreError(ReproError):
    """Raised by the persistent RR-set index store: missing or corrupt index
    files, format-version mismatches, or a fingerprint mismatch (the stored
    index was built for a different graph/configuration and must be
    rebuilt)."""
