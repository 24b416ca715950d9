"""Persistent RR-set index store and allocation-query serving.

The RR-set collection an IMM-style run samples is a build-once, query-many
artifact: for a fixed graph and utility configuration, every allocation
query (any budget, any of the coverage-greedy algorithms) can be answered
from the same collection.  This package turns that observation into a
serving layer:

* :mod:`repro.index.frozen` — :class:`FrozenRRIndex`, the immutable
  CSR-packed collection + inverted index with ``.npz`` + JSON-manifest
  persistence;
* :mod:`repro.index.fingerprint` — instance fingerprints so stale indexes
  are detected and rebuilt, never silently reused;
* :mod:`repro.index.builder` — deterministic keyed (optionally
  multiprocess) RR-set generation and the one-stop :func:`build_index` /
  :func:`build_streaming_index`;
* :mod:`repro.index.stream` — :class:`StreamingIndexWriter`, the
  bounded-memory spill path behind the streaming build;
* :mod:`repro.index.service` — :class:`AllocationService`, the cached
  query layer behind ``repro index query`` and ``repro serve``.
"""

from repro.index.builder import (
    INDEX_SAMPLERS,
    SAMPLER_KINDS,
    ParallelRRSampler,
    ShardSpec,
    build_index,
    build_streaming_index,
    expected_index_fingerprint,
)
from repro.index.fingerprint import (
    graph_fingerprint,
    index_fingerprint,
    model_fingerprint,
)
from repro.index.pool import (
    SharedGraphView,
    pool_stats,
    shutdown_worker_pools,
)
from repro.index.frozen import (
    FORMAT_VERSION,
    SUPPORTED_FORMAT_VERSIONS,
    FrozenRRIndex,
    index_paths,
)
from repro.index.service import SERVICE_ALGORITHMS, AllocationService
from repro.index.stream import StreamingIndexWriter

__all__ = [
    "FORMAT_VERSION",
    "SAMPLER_KINDS",
    "INDEX_SAMPLERS",
    "SERVICE_ALGORITHMS",
    "SUPPORTED_FORMAT_VERSIONS",
    "AllocationService",
    "FrozenRRIndex",
    "ParallelRRSampler",
    "ShardSpec",
    "StreamingIndexWriter",
    "build_index",
    "build_streaming_index",
    "expected_index_fingerprint",
    "graph_fingerprint",
    "index_fingerprint",
    "index_paths",
    "model_fingerprint",
    "pool_stats",
    "SharedGraphView",
    "shutdown_worker_pools",
]
