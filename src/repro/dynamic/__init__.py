"""Dynamic-graph subsystem: deltas, incremental RR-set repair, warm
re-allocation, and trace replay.

Every RR sampler (:mod:`repro.engine.reverse`) draws **keyed coins**:
the coin for edge ``src -> dst`` inside set ``i`` is a pure hash of
``(base_seed, i, src, dst)``, so editing one edge changes only the sets
whose walk queried it.  Keyed coins make repair *exact*: after a
:class:`GraphDelta`, re-sampling only the touched sets reproduces, bit
for bit, what a from-scratch keyed build over the edited graph would
produce — and a zero-op delta is fingerprint-identical to the original.

* :class:`GraphDelta` — batched edge/node insertions, deletions and
  probability updates, with strict validation and a conservative
  ``touched_targets`` footprint;
* :class:`RRRepairEngine` / :func:`build_repairable_index` — build and
  incrementally repair keyed indexes; manifests carry a
  ``dynamic.staleness`` block and the full delta history;
* :class:`OnlineAllocator` — warm-started greedy re-allocation (greedy
  started from maintained initial gains; exact);
* :mod:`repro.dynamic.replay` — seeded query/delta traces and the
  driver behind ``repro replay`` and ``benchmarks/bench_replay.py``.

Repairable indexes pin their RR-set count and use the seed as the stream
seed directly, so they are opt-in (``engine="keyed"`` in the manifest)
and are never routed by v1 specs; the v1 served ≡ direct bit-identity
contract is untouched.
"""

from repro.dynamic.allocator import OnlineAllocator
from repro.dynamic.delta import GraphDelta, compose_touched
from repro.dynamic.repair import (
    RepairOutcome,
    RepairReport,
    RRRepairEngine,
    build_repairable_index,
    replace_sets,
    replay_deltas,
    save_repaired,
    touched_set_ids,
)
from repro.dynamic.sampling import (
    KEYED_ENGINE,
    KEYED_KINDS,
    keyed_roots,
    keyed_rr_sets,
    reroot,
    set_seeds,
)

__all__ = [
    "GraphDelta",
    "compose_touched",
    "KEYED_ENGINE",
    "KEYED_KINDS",
    "keyed_roots",
    "keyed_rr_sets",
    "reroot",
    "set_seeds",
    "RepairOutcome",
    "RepairReport",
    "RRRepairEngine",
    "build_repairable_index",
    "replace_sets",
    "replay_deltas",
    "save_repaired",
    "touched_set_ids",
    "OnlineAllocator",
]
