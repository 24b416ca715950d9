"""Keyed (counter-based) RR-set sampling for repairable indexes.

The stream-RNG samplers in :mod:`repro.engine.reverse` draw each edge
coin from a shared generator, so a set's coins depend on every draw that
came before it — resampling one set cannot reproduce the others.  Here
every coin is a **pure function of its key**: the coin deciding whether
edge ``src -> dst`` is live inside RR set ``i`` is

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

The price is a different coin stream from the stream-RNG engines: a
keyed index is *not* bit-comparable to a `build_index` artifact at the
same seed, which is why repairable builds are opt-in
(``engine="keyed"`` in the manifest keeps v1 spec routing away from
them).

All three sampler kinds run on the reverse-BFS kernel of the stream
samplers (:mod:`repro.engine.reverse`: sparse visited state, the same
stop rules and blocked-node handling); only the coin source differs.
The keyed **marginal** sampler differs from the stream one in how it
stores dead sets: instead of an empty member list it records the partial
traversal with weight ``0.0``, so the repair engine can see which nodes
the dead walk touched.
Zero-weight sets never enter the inverted CSR, so selection semantics
are unchanged; estimators normalizing by total weight should use the
manifest's ``dynamic.rr_sets`` count instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.reverse import (_as_views, _block_table, _check_roots,
                                  _offsets, _record, _sample_chunks,
                                  _weights)
from repro.graphs.graph import DirectedGraph

#: engine tag recorded in repairable manifests (never matches a v1 spec)
KEYED_ENGINE = "keyed"

#: sampler kinds, matching repro.index.builder.SAMPLER_KINDS
KEYED_KINDS = ("standard", "marginal", "weighted")

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)
#: domain-separation tags (arbitrary odd constants)
_ROOT_TAG = np.uint64(0xD1B54A32D192ED03)
_KEEP_TAG = np.uint64(0x8CB92BA72F3D8DD7)
_FRESH_TAG = np.uint64(0xAEF17502108EF2D9)


def mix64(value) -> np.ndarray:
    """SplitMix64 finalizer over uint64 scalars or arrays.

    All constants and shift counts are ``np.uint64`` so numpy never
    upcasts the unsigned arithmetic (wrapping is intentional).
    """
    with np.errstate(over="ignore"):
        z = np.asarray(value, dtype=np.uint64) + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def u01(bits: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to uniform doubles in ``[0, 1)`` (53-bit)."""
    return (np.asarray(bits, dtype=np.uint64) >> np.uint64(11)) \
        .astype(np.float64) * (2.0 ** -53)


def set_seeds(base_seed: int, indices) -> np.ndarray:
    """Per-RR-set uint64 seeds derived from ``base_seed``."""
    base = np.uint64(int(base_seed)) & _U64
    idx = np.asarray(indices, dtype=np.uint64)
    return mix64(mix64(idx) ^ base)


def keyed_roots(base_seed: int, indices, num_nodes: int) -> np.ndarray:
    """Deterministic uniform roots for the given set indices."""
    draws = u01(mix64(set_seeds(base_seed, indices) ^ _ROOT_TAG))
    roots = (draws * float(num_nodes)).astype(np.int64)
    return np.minimum(roots, np.int64(num_nodes - 1))


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


def _edge_coins(seeds: np.ndarray, src: np.ndarray,
                dst: np.ndarray) -> np.ndarray:
    """Uniform draws for (set, edge) keys (seeds aligned with edges)."""
    return u01(mix64(seeds ^ mix64(src.astype(np.uint64)
                                   ^ mix64(dst.astype(np.uint64)))))


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
    roots = _check_roots(n, indices.size, roots)
    _, in_sources, in_probs = graph.in_csr()
    seeds = set_seeds(base_seed, indices)
    block = None
    if kind == "marginal":
        block = _block_table(n, blocked)
    elif kind == "weighted":
        block = _block_table(n, node_block_utility or {})

    def chunk_coins(lo: int, hi: int):
        chunk_seeds = seeds[lo:hi]

        def coins(edge_ids, edge_keys):
            samples, dsts = np.divmod(edge_keys, n)
            return _edge_coins(chunk_seeds[samples], in_sources[edge_ids],
                               dsts) < in_probs[edge_ids]
        return coins

    counts, nodes, hit, best, _ = _sample_chunks(
        graph, indices.size, lambda lo, hi: roots[lo:hi], chunk_coins, block)
    if kind == "marginal":
        weights = np.where(hit, 0.0, 1.0)
    elif kind == "weighted":
        weights = _weights(superior_utility, best)
    else:
        weights = np.ones(indices.size)
    _record(kind, "keyed", started, len(nodes))
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
