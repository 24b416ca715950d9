"""Keyed RR-set sampling by set index, for repairable indexes.

Every RR sampler in :mod:`repro.engine.reverse` draws keyed coins: the coin
deciding whether edge ``src -> dst`` is live inside RR set ``i`` is

    ``u = u01(mix64(seed_i ^ mix64(src ^ mix64(dst))))``,  live iff
    ``u < p(src -> dst)``,

with ``seed_i = mix64(mix64(i) ^ base_seed)`` and ``mix64`` the
SplitMix64 finalizer.  Roots come from the same keyspace.  Three
properties fall out, and they are the entire correctness story of
:mod:`repro.dynamic.repair`:

* **Replay** — re-running a set's reverse BFS over an unchanged graph
  region queries the same keys and reproduces the set bit-for-bit, no
  matter how sampling is batched or chunked.
* **Locality** — deleting an edge removes its key from the walk;
  inserting one introduces a fresh, independent coin; changing a
  probability reuses the same uniform ``u`` against the new threshold
  (the standard monotone coupling: the edge flips only if ``u`` crosses
  the old/new threshold gap).
* **Exactness** — repairing the touched sets of a delta yields exactly
  the index a from-scratch keyed rebuild on the new graph would
  produce, so incremental maintenance inherits the sampler's guarantees
  instead of accumulating bias.

What this module adds is sampling by an arbitrary list of set indices
(the touched sets of a delta), re-rooting after node growth, and the
repair-specific storage of dead **marginal** sets: instead of an empty
member list :func:`keyed_rr_sets` records the partial traversal with
weight ``0.0``, so the repair engine can see which nodes the dead walk
touched.  Zero-weight sets never enter the inverted CSR, so selection
semantics are unchanged; estimators normalizing by total weight should
use the manifest's ``dynamic.rr_sets`` count instead.

A repairable index pins its RR-set count and uses ``base_seed`` as the
stream seed directly, so it is not the index ``build_index`` draws at the
same seed (``engine="keyed"`` in the manifest keeps v1 spec routing away
from it).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.reverse import (_as_views, _block_table, _check_roots,
                                  _offsets, _record, _weights, keyed_roots,
                                  keyed_sample, mix64, set_seeds, u01)
from repro.graphs.graph import DirectedGraph

#: engine tag recorded in repairable manifests (never matches a v1 spec)
KEYED_ENGINE = "keyed"

#: sampler kinds, matching repro.index.builder.SAMPLER_KINDS
KEYED_KINDS = ("standard", "marginal", "weighted")

#: domain-separation tags of the re-rooting coins (arbitrary odd constants)
_KEEP_TAG = np.uint64(0x8CB92BA72F3D8DD7)
_FRESH_TAG = np.uint64(0xAEF17502108EF2D9)


def reroot(base_seed: int, indices, roots, old_n: int, new_n: int,
           epoch: int) -> Tuple[np.ndarray, np.ndarray]:
    """Re-root sets after ``new_n - old_n`` node insertions.

    Each set keeps its root with probability ``old_n / new_n`` and
    otherwise moves to a uniformly chosen *new* node — the unique
    coupling that restores exact uniformity over ``[0, new_n)`` while
    re-rooting (and hence resampling) as few sets as possible.  The
    coins are keyed on ``(set, epoch)`` so repeated growth epochs stay
    independent.

    Returns ``(new_roots, moved_mask)``.
    """
    if new_n <= old_n:
        return np.asarray(roots, dtype=np.int64).copy(), \
            np.zeros(len(roots), dtype=bool)
    seeds = set_seeds(base_seed, indices)
    epoch_tag = mix64(np.uint64(int(epoch)) ^ _KEEP_TAG)
    keep_draws = u01(mix64(seeds ^ epoch_tag))
    moved = keep_draws >= (float(old_n) / float(new_n))
    fresh_tag = mix64(np.uint64(int(epoch)) ^ _FRESH_TAG)
    fresh_draws = u01(mix64(seeds ^ fresh_tag))
    fresh = old_n + np.minimum(
        (fresh_draws * float(new_n - old_n)).astype(np.int64),
        np.int64(new_n - old_n - 1))
    new_roots = np.where(moved, fresh, np.asarray(roots, dtype=np.int64))
    return new_roots.astype(np.int64), moved


def keyed_rr_sets(graph: DirectedGraph, indices, roots, base_seed: int, *,
                  kind: str = "standard",
                  blocked: Sequence[int] = (),
                  node_block_utility: Optional[Dict[int, float]] = None,
                  superior_utility: float = 0.0,
                  ) -> List[Tuple[np.ndarray, float]]:
    """Sample (or replay) the RR sets with the given global indices.

    Returns ``(members, weight)`` per set, aligned with ``indices``;
    members are ascending int64.  Because every coin is keyed, the
    result is independent of chunking — sampling sets ``[0..N)`` in one
    call equals sampling any partition of them in any order.
    """
    if kind not in KEYED_KINDS:
        raise ValueError(f"unknown sampler kind {kind!r}; "
                         f"expected one of {KEYED_KINDS}")
    started = time.perf_counter()
    indices = np.asarray(indices, dtype=np.int64)
    n = graph.num_nodes
    block = None
    if kind == "marginal":
        block = _block_table(n, blocked)
    elif kind == "weighted":
        block = _block_table(n, node_block_utility or {})
    counts, nodes, hit, best, _ = keyed_sample(
        graph, base_seed, indices, _check_roots(n, indices.size, roots),
        block)
    if kind == "marginal":
        weights = np.where(hit, 0.0, 1.0)
    elif kind == "weighted":
        weights = _weights(superior_utility, best)
    else:
        weights = np.ones(indices.size)
    _record(kind, started, len(nodes))
    members = _as_views(_offsets(counts), nodes)
    return [(members[k], float(weights[k])) for k in range(indices.size)]


__all__ = [
    "KEYED_ENGINE",
    "KEYED_KINDS",
    "keyed_roots",
    "keyed_rr_sets",
    "mix64",
    "reroot",
    "set_seeds",
    "u01",
]
