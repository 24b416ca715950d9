"""Keyed, batched reverse-BFS sampling of standard, marginal and weighted
RR sets.

The scalar generators in :mod:`repro.rrsets.rrset` run one reverse BFS per
RR set with a Python ``deque`` and are kept as the test oracle.  Here one
kernel, :func:`_reverse_bfs`, advances a whole chunk of roots
level-synchronously: every level gathers the in-edges of all frontier
(sample, node) pairs in one ragged CSR gather and decides their coins in
one call.  The visited state is sparse — one sorted int64 array of
``sample * n + node`` keys per chunk, probed with ``searchsorted`` and
grown by a sorted merge — so a chunk costs time and memory in proportion
to the members it finds, not to ``chunk × n``.

**Keyed coins.**  Every coin is a pure function of its key.  RR set ``i``
under base seed ``s`` has the set seed ``seed_i = mix64(mix64(i) ^ s)``
(``mix64`` is the SplitMix64 finalizer; these primitives live in
:mod:`repro.engine.coins`, shared with the forward engine); its root is
drawn from ``u01(mix64(seed_i ^ ROOT_TAG))`` and edge ``src -> dst`` is
live in it iff

    ``u01(mix64(seed_i ^ mix64(src ^ mix64(dst)))) < p(src -> dst)``.

The set-independent half, ``mix64(src ^ mix64(dst))``, is computed once per
graph and cached (one uint64 per in-CSR edge).  Because no coin depends on
another draw, a set's contents depend only on ``(s, i)`` and the graph:
sampling set indices ``[a, b)`` in one call, in chunks, or split across
worker processes gives byte-identical output, so chunks are a constant
:data:`CHUNK_SETS` sets and callers never need to align their splits.  The
same keys make incremental repair exact (:mod:`repro.dynamic`).

The **stop rule** is none for standard RR sets; otherwise a blocked-node
table, and a sample stops expanding after the level in which it first
reaches a blocked node.  Marginal RR sets are then discarded (emptied);
weighted RR sets keep the explored levels and carry ``max(0, U⁺(i_m) −
best block utility)`` as the weight.  Both give the semantics of the
scalar counterparts.

The six public samplers take ``rng`` as the base seed (an int is used as
is; a ``Generator`` or ``None`` has one seed drawn from it) and ``start``
as the index of the first set, so ``sampler(count, seed, start=a)``
returns sets ``[a, a + count)`` of that seed's one stream.
"""

from __future__ import annotations

import time
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple, Union)

import numpy as np

from repro.engine.coins import (edge_hashes, gather_csr_edges, mix64,
                                resolve_base_seed, set_seeds, sorted_unique,
                                u01)
from repro.graphs.graph import DirectedGraph
from repro.obs.metrics import get_metrics
from repro.utils.rng import RngLike

#: version of the RR-set stream recorded in index manifests: 1 was the
#: per-chunk generator stream, 2 the keyed coins of this module
SAMPLER_VERSION = 2
#: RR sets per reverse-BFS chunk; keyed output never depends on it
CHUNK_SETS = 2048

#: ``(mask, values)`` over the node ids: blocked nodes and their utility
BlockTable = Tuple[np.ndarray, np.ndarray]

#: domain-separation tag of the root draws (an arbitrary odd constant)
_ROOT_TAG = np.uint64(0xD1B54A32D192ED03)


def keyed_roots(base_seed: int, indices, num_nodes: int) -> np.ndarray:
    """Deterministic uniform roots for the given set indices."""
    draws = u01(mix64(set_seeds(base_seed, indices) ^ _ROOT_TAG))
    roots = (draws * float(num_nodes)).astype(np.int64)
    return np.minimum(roots, np.int64(num_nodes - 1))


def _block_table(n: int, blocked: Union[Iterable[int], Mapping[int, float]]
                 ) -> BlockTable:
    """The blocked nodes of a stop rule as ``(mask, values)`` arrays.

    ``blocked`` is a node iterable (block utility 0) or a ``{node: block
    utility}`` mapping.  Ids outside ``[0, n)`` never match, as in the
    scalar samplers, whose set lookups only ever see in-range nodes.
    """
    items = blocked.items() if isinstance(blocked, Mapping) \
        else ((node, 0.0) for node in blocked)
    mask = np.zeros(n, dtype=bool)
    values = np.full(n, -np.inf)
    for node, value in items:
        node = int(node)
        if 0 <= node < n:
            mask[node] = True
            values[node] = float(value)
    return mask, values


def _check_roots(n: int, count: int,
                 roots: Optional[Sequence[int]]) -> Optional[np.ndarray]:
    """Explicit roots as one int64 array, validated once per call."""
    if roots is None:
        return None
    roots = np.asarray(roots, dtype=np.int64)
    if roots.shape != (count,):
        raise ValueError(f"expected {count} roots, got {roots.size}")
    if count and (roots.min() < 0 or roots.max() >= n):
        raise ValueError(f"root ids must lie in [0, {n})")
    return roots


def _reverse_bfs(in_csr, hashes: np.ndarray, n: int, roots: np.ndarray,
                 seeds: np.ndarray, block: Optional[BlockTable] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level-synchronous keyed reverse BFS from one chunk of roots.

    Sample ``j`` of the chunk starts at ``roots[j]`` and draws its coins
    from the set seed ``seeds[j]``.  With a ``block`` table a sample stops
    expanding after the first level that reaches a blocked node (a
    blocked root stops it at once).

    Returns ``(keys, hit, best)``: the ascending ``sample * n + node`` keys
    of every visited pair, whether each sample reached a blocked node, and
    the largest block value it reached (``-inf`` when none).
    """
    indptr, sources, probs = in_csr
    keys = np.arange(len(roots), dtype=np.int64) * n + roots
    hit = np.zeros(len(roots), dtype=bool)
    best = np.full(len(roots), -np.inf)
    if block is not None:
        blocked, values = block
        hit = blocked[roots]
        best[hit] = values[roots[hit]]
    frontier = keys[~hit]
    while len(frontier):
        edge_ids, edge_keys = gather_csr_edges(indptr, frontier % n,
                                               frontier)
        live = u01(mix64(seeds[edge_keys // n] ^ hashes[edge_ids])) \
            < probs[edge_ids]
        reached = edge_keys[live]
        reached += sources[edge_ids[live]] - reached % n
        seen = keys[np.minimum(np.searchsorted(keys, reached),
                               len(keys) - 1)] == reached
        reached = sorted_unique(reached[~seen])
        # two sorted runs: the stable sort is a linear merge
        keys = np.concatenate((keys, reached))
        keys.sort(kind="stable")
        if block is not None:
            # the whole level is explored before the stop check, matching
            # the scalar samplers (blocked nodes of this level all count)
            reached_samples, reached_nodes = np.divmod(reached, n)
            touched = blocked[reached_nodes]
            if touched.any():
                hit[reached_samples[touched]] = True
                np.maximum.at(best, reached_samples[touched],
                              values[reached_nodes[touched]])
                reached = reached[~hit[reached_samples]]
        frontier = reached
    return keys, hit, best


def keyed_sample(graph: DirectedGraph, seed: int, indices: np.ndarray,
                 roots: Optional[np.ndarray] = None,
                 block: Optional[BlockTable] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                            np.ndarray, np.ndarray]:
    """Sample the RR sets with global ``indices`` of base seed ``seed``.

    ``roots`` (validated, aligned with ``indices``) defaults to the keyed
    roots.  Runs :func:`_reverse_bfs` over :data:`CHUNK_SETS`-set chunks.
    Returns per-set ``(counts, nodes, hit, best, roots)``: set ``k`` holds
    the next ``counts[k]`` entries of ``nodes``, ascending.  On an empty
    graph every set is empty, with root ``-1``.
    """
    n = graph.num_nodes
    count = len(indices)
    if n == 0:
        return (np.zeros(count, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(count, dtype=bool), np.full(count, -np.inf),
                np.full(count, -1, dtype=np.int64))
    if roots is None:
        roots = keyed_roots(seed, indices, n)
    in_csr = graph.in_csr()
    hashes = edge_hashes(graph)
    seeds = set_seeds(seed, indices)
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
              np.zeros(0, dtype=bool), np.zeros(0))]
    for lo in range(0, count, CHUNK_SETS):
        hi = min(lo + CHUNK_SETS, count)
        keys, hit, best = _reverse_bfs(in_csr, hashes, n, roots[lo:hi],
                                       seeds[lo:hi], block)
        samples, nodes = np.divmod(keys, n)
        parts.append((np.bincount(samples, minlength=hi - lo), nodes, hit,
                      best))
    counts, nodes, hit, best = (np.concatenate(column)
                                for column in zip(*parts))
    return counts, nodes, hit, best, roots


def _sample(graph: DirectedGraph, count: int, rng: RngLike,
            roots: Optional[Sequence[int]], start: int,
            block: Optional[BlockTable] = None):
    """:func:`keyed_sample` of the sets ``[start, start + count)``."""
    count = max(int(count), 0)
    indices = np.arange(int(start), int(start) + count, dtype=np.int64)
    return keyed_sample(graph, resolve_base_seed(rng), indices,
                        _check_roots(graph.num_nodes, count, roots), block)


def _offsets(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _as_views(offsets: np.ndarray, nodes: np.ndarray) -> List[np.ndarray]:
    """Slice a packed ``(offsets, nodes)`` pair into per-set views."""
    return [nodes[offsets[k]:offsets[k + 1]]
            for k in range(len(offsets) - 1)]


def _weights(superior_utility: float, best: np.ndarray) -> np.ndarray:
    """``max(0, U⁺(i_m) − best block utility)``, 0 when none was hit."""
    block_utility = np.where(np.isfinite(best), best, 0.0)
    return np.maximum(0.0, float(superior_utility) - block_utility)


def _record(kind: str, started: float, members: int) -> None:
    """Record one sampler call's wall time and returned members."""
    metrics = get_metrics()
    if metrics.enabled:
        metrics.histogram(
            "repro_rr_sample_seconds", "Wall time per RR-set sampler call",
            kind=kind).observe(time.perf_counter() - started)
        metrics.counter(
            "repro_rr_sample_members_total",
            "RR-set members returned by the samplers",
            kind=kind).inc(members)


def random_rr_sets_packed(graph: DirectedGraph, count: int,
                          rng: RngLike = None,
                          roots: Optional[Sequence[int]] = None, *,
                          start: int = 0
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Sample standard RR sets ``[start, start + count)`` as one packed
    CSR pair.

    Returns ``(offsets, nodes)`` — set ``k`` occupies
    ``nodes[offsets[k]:offsets[k + 1]]``, ascending.  This is the layout
    the index builder splices and ships between processes.
    """
    started = time.perf_counter()
    counts, nodes, _, _, _ = _sample(graph, count, rng, roots, start)
    _record("standard", started, len(nodes))
    return _offsets(counts), nodes


def random_rr_sets(graph: DirectedGraph, count: int, rng: RngLike = None,
                   roots: Optional[Sequence[int]] = None, *,
                   start: int = 0) -> List[np.ndarray]:
    """Sample ``count`` standard RR sets (each an array of node ids)."""
    return _as_views(*random_rr_sets_packed(graph, count, rng, roots,
                                            start=start))


def marginal_rr_sets_packed(graph: DirectedGraph, blocked: Set[int],
                            count: int, rng: RngLike = None,
                            roots: Optional[Sequence[int]] = None, *,
                            start: int = 0
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Sample marginal RR sets ``[start, start + count)`` as one packed
    CSR pair; discarded samples are zero-length set ranges."""
    started = time.perf_counter()
    counts, nodes, dead, _, _ = _sample(
        graph, count, rng, roots, start,
        _block_table(graph.num_nodes, blocked))
    nodes = nodes[~np.repeat(dead, counts)]
    counts[dead] = 0
    _record("marginal", started, len(nodes))
    return _offsets(counts), nodes


def marginal_rr_sets(graph: DirectedGraph, blocked: Set[int], count: int,
                     rng: RngLike = None,
                     roots: Optional[Sequence[int]] = None, *,
                     start: int = 0) -> List[np.ndarray]:
    """Sample ``count`` marginal RR sets w.r.t. the fixed seed set ``blocked``.

    A sample that touches ``blocked`` is discarded (returned as an empty
    array) but still counts towards ``count`` — exactly the Algorithm 3
    semantics that make coverage estimates marginal.
    """
    return _as_views(*marginal_rr_sets_packed(graph, blocked, count, rng,
                                              roots, start=start))


def weighted_rr_sets_packed(graph: DirectedGraph,
                            node_block_utility: Dict[int, float],
                            superior_utility: float, count: int,
                            rng: RngLike = None,
                            roots: Optional[Sequence[int]] = None, *,
                            start: int = 0
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
    """Sample weighted RR sets ``[start, start + count)`` as ``(offsets,
    nodes, weights, roots)`` packed arrays."""
    started = time.perf_counter()
    counts, nodes, _, best, root_ids = _sample(
        graph, count, rng, roots, start,
        _block_table(graph.num_nodes, node_block_utility))
    weights = _weights(superior_utility, best)
    if graph.num_nodes == 0:  # the scalar sampler's rootless empty set
        weights[:] = 0.0
    _record("weighted", started, len(nodes))
    return _offsets(counts), nodes, weights, root_ids


def weighted_rr_sets(graph: DirectedGraph,
                     node_block_utility: Dict[int, float],
                     superior_utility: float, count: int,
                     rng: RngLike = None,
                     roots: Optional[Sequence[int]] = None, *,
                     start: int = 0
                     ) -> List[Tuple[np.ndarray, float, int]]:
    """Sample ``count`` weighted RR sets as ``(nodes, weight, root)`` tuples.

    Mirrors :meth:`repro.rrsets.rrset.WeightedRRSampler.sample`: the reverse
    BFS proceeds level by level and stops after the first level containing a
    node of the fixed seed set; the weight is ``max(0, superior_utility −
    best block utility hit)`` (0 block utility when no fixed seed reaches
    the root).
    """
    offsets, nodes, weights, root_ids = weighted_rr_sets_packed(
        graph, node_block_utility, superior_utility, count, rng, roots,
        start=start)
    return [(nodes[offsets[k]:offsets[k + 1]], float(weights[k]),
             int(root_ids[k]))
            for k in range(len(weights))]


__all__ = [
    "CHUNK_SETS",
    "SAMPLER_VERSION",
    "keyed_roots",
    "keyed_sample",
    "mix64",
    "set_seeds",
    "u01",
    "random_rr_sets",
    "random_rr_sets_packed",
    "marginal_rr_sets",
    "marginal_rr_sets_packed",
    "weighted_rr_sets",
    "weighted_rr_sets_packed",
]
