"""Batched reverse-BFS sampling of standard, marginal and weighted RR sets.

The scalar generators in :mod:`repro.rrsets.rrset` run one reverse BFS per
RR set with a Python ``deque``.  Here one kernel, :func:`_reverse_bfs`,
advances a whole chunk of roots level-synchronously: every level gathers
the in-edges of all frontier (sample, node) pairs in one ragged CSR gather
and decides their coins in one call.  The visited state is sparse — one
sorted int64 array of ``sample * n + node`` keys per chunk, probed with
``searchsorted`` and grown with ``insert`` — so a chunk costs time and
memory in proportion to the members it finds, not to ``chunk × n``.

Two inputs select everything the samplers differ in:

* the **coin source** — stream coins from one generator
  (:func:`~repro.engine.coins.bernoulli_mask`: pre-drawn geometric
  edge-skip coins when the gathered probabilities are uniform) for the
  samplers here, or keyed per-(set, edge) coins for
  :func:`repro.dynamic.sampling.keyed_rr_sets`;
* the **stop rule** — none for standard RR sets; otherwise a blocked-node
  table, and a sample stops expanding after the level in which it first
  reaches a blocked node.  Marginal RR sets are then discarded (emptied);
  weighted RR sets keep the explored levels and carry ``max(0, U⁺(i_m) −
  best block utility)`` as the weight.

Both give the semantics of the scalar counterparts, and the frontier is
always in ascending (sample, node) order, so a seeded call draws the same
coins however the state is stored.
"""

from __future__ import annotations

import time
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple, Union)

import numpy as np

from repro.engine.config import batch_size
from repro.engine.coins import bernoulli_mask, gather_csr_edges
from repro.graphs.graph import DirectedGraph
from repro.obs.metrics import get_metrics
from repro.utils.rng import RngLike, ensure_rng

#: ``coins(edge_ids, edge_keys)`` -> liveness of the gathered in-edges,
#: each carrying the ``sample * n + node`` key of its frontier pair
Coins = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: ``(mask, values)`` over the node ids: blocked nodes and their utility
BlockTable = Tuple[np.ndarray, np.ndarray]


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


def _reverse_bfs(in_csr, n: int, roots: np.ndarray, coins: Coins,
                 block: Optional[BlockTable] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level-synchronous reverse BFS from one chunk of roots.

    With a ``block`` table a sample stops expanding after the first level
    that reaches a blocked node (a blocked root stops it at once).

    Returns ``(keys, hit, best)``: the ascending ``sample * n + node`` keys
    of every visited pair, whether each sample reached a blocked node, and
    the largest block value it reached (``-inf`` when none).
    """
    indptr, sources, _ = in_csr
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
        live = coins(edge_ids, edge_keys)
        reached = edge_keys[live]
        reached += sources[edge_ids[live]] - reached % n
        seen = keys[np.minimum(np.searchsorted(keys, reached),
                               len(keys) - 1)] == reached
        reached = np.sort(reached[~seen])
        fresh = np.ones(len(reached), dtype=bool)  # first of each run
        np.not_equal(reached[1:], reached[:-1], out=fresh[1:])
        reached = reached[fresh]
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


def _sample_chunks(graph: DirectedGraph, count: int,
                   chunk_roots: Callable[[int, int], np.ndarray],
                   chunk_coins: Callable[[int, int], Coins],
                   block: Optional[BlockTable] = None
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray, np.ndarray]:
    """Run :func:`_reverse_bfs` over ``batch_size`` chunks of ``count``
    sets; ``chunk_roots(lo, hi)`` and ``chunk_coins(lo, hi)`` supply each
    chunk's roots and coin source, in that order.

    Returns per-set ``(counts, nodes, hit, best, roots)``: set ``k`` holds
    the next ``counts[k]`` entries of ``nodes``, ascending.  On an empty
    graph every set is empty, with root ``-1``.
    """
    n = graph.num_nodes
    in_csr = graph.in_csr()
    rootless = 0 if n else count  # an empty graph roots no set: all empty
    parts = [(np.zeros(rootless, dtype=np.int64), np.zeros(0, dtype=np.int64),
              np.zeros(rootless, dtype=bool), np.full(rootless, -np.inf),
              np.full(rootless, -1, dtype=np.int64))]
    done = 0
    while n and done < count:
        chunk = batch_size(n, count - done)
        roots = chunk_roots(done, done + chunk)
        keys, hit, best = _reverse_bfs(
            in_csr, n, roots, chunk_coins(done, done + chunk), block)
        samples, nodes = np.divmod(keys, n)
        parts.append((np.bincount(samples, minlength=chunk), nodes, hit,
                      best, roots))
        done += chunk
    return tuple(np.concatenate(column) for column in zip(*parts))


def _stream_sample(graph: DirectedGraph, count: int, rng: RngLike,
                   roots: Optional[Sequence[int]],
                   block: Optional[BlockTable] = None):
    """:func:`_sample_chunks` with stream coins: each chunk draws its
    roots (unless given), then its edge coins, from ``rng``."""
    rng = ensure_rng(rng)
    count = max(int(count), 0)
    n = graph.num_nodes
    fixed = _check_roots(n, count, roots)
    probs = graph.in_csr()[2]

    def chunk_roots(lo: int, hi: int) -> np.ndarray:
        if fixed is None:
            return rng.integers(0, n, size=hi - lo).astype(np.int64)
        return fixed[lo:hi]

    def coins(edge_ids, _keys):
        return bernoulli_mask(rng, probs[edge_ids])

    return _sample_chunks(graph, count, chunk_roots, lambda lo, hi: coins,
                          block)


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


def _record(kind: str, coins: str, started: float, members: int) -> None:
    """Record one sampler call's wall time and returned members."""
    metrics = get_metrics()
    if metrics.enabled:
        metrics.histogram(
            "repro_rr_sample_seconds", "Wall time per RR-set sampler call",
            kind=kind, coins=coins).observe(time.perf_counter() - started)
        metrics.counter(
            "repro_rr_sample_members_total",
            "RR-set members returned by the samplers",
            kind=kind, coins=coins).inc(members)


def random_rr_sets_packed(graph: DirectedGraph, count: int,
                          rng: RngLike = None,
                          roots: Optional[Sequence[int]] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` standard RR sets as one packed CSR pair.

    Returns ``(offsets, nodes)`` — set ``k`` occupies
    ``nodes[offsets[k]:offsets[k + 1]]`` — drawing the identical sets (in
    the identical order) as :func:`random_rr_sets` from the same RNG
    state.  The packed layout is what the sharded parallel builder ships
    between processes: one buffer per shard instead of one array per set.
    """
    started = time.perf_counter()
    counts, nodes, _, _, _ = _stream_sample(graph, count, rng, roots)
    _record("standard", "stream", started, len(nodes))
    return _offsets(counts), nodes


def random_rr_sets(graph: DirectedGraph, count: int, rng: RngLike = None,
                   roots: Optional[Sequence[int]] = None) -> List[np.ndarray]:
    """Sample ``count`` standard RR sets (each an array of node ids)."""
    return _as_views(*random_rr_sets_packed(graph, count, rng, roots))


def marginal_rr_sets_packed(graph: DirectedGraph, blocked: Set[int],
                            count: int, rng: RngLike = None,
                            roots: Optional[Sequence[int]] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` marginal RR sets as one packed CSR pair.

    Same sets, same order and same RNG stream as
    :func:`marginal_rr_sets`; discarded samples appear as zero-length set
    ranges exactly where the list API returns empty arrays.
    """
    started = time.perf_counter()
    counts, nodes, dead, _, _ = _stream_sample(
        graph, count, rng, roots, _block_table(graph.num_nodes, blocked))
    nodes = nodes[~np.repeat(dead, counts)]
    counts[dead] = 0
    _record("marginal", "stream", started, len(nodes))
    return _offsets(counts), nodes


def marginal_rr_sets(graph: DirectedGraph, blocked: Set[int], count: int,
                     rng: RngLike = None,
                     roots: Optional[Sequence[int]] = None) -> List[np.ndarray]:
    """Sample ``count`` marginal RR sets w.r.t. the fixed seed set ``blocked``.

    A sample that touches ``blocked`` is discarded (returned as an empty
    array) but still counts towards ``count`` — exactly the Algorithm 3
    semantics that make coverage estimates marginal.
    """
    return _as_views(*marginal_rr_sets_packed(graph, blocked, count, rng,
                                              roots))


def weighted_rr_sets_packed(graph: DirectedGraph,
                            node_block_utility: Dict[int, float],
                            superior_utility: float, count: int,
                            rng: RngLike = None,
                            roots: Optional[Sequence[int]] = None
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                       np.ndarray]:
    """Sample ``count`` weighted RR sets as ``(offsets, nodes, weights,
    roots)`` packed arrays.

    Same sets, weights and roots (in the same order, from the same RNG
    stream) as :func:`weighted_rr_sets`, in the transport layout of the
    sharded parallel builder.
    """
    started = time.perf_counter()
    counts, nodes, _, best, root_ids = _stream_sample(
        graph, count, rng, roots,
        _block_table(graph.num_nodes, node_block_utility))
    weights = _weights(superior_utility, best)
    if graph.num_nodes == 0:  # the scalar sampler's rootless empty set
        weights[:] = 0.0
    _record("weighted", "stream", started, len(nodes))
    return _offsets(counts), nodes, weights, root_ids


def weighted_rr_sets(graph: DirectedGraph,
                     node_block_utility: Dict[int, float],
                     superior_utility: float, count: int,
                     rng: RngLike = None,
                     roots: Optional[Sequence[int]] = None
                     ) -> List[Tuple[np.ndarray, float, int]]:
    """Sample ``count`` weighted RR sets as ``(nodes, weight, root)`` tuples.

    Mirrors :meth:`repro.rrsets.rrset.WeightedRRSampler.sample`: the reverse
    BFS proceeds level by level and stops after the first level containing a
    node of the fixed seed set; the weight is ``max(0, superior_utility −
    best block utility hit)`` (0 block utility when no fixed seed reaches
    the root).
    """
    offsets, nodes, weights, root_ids = weighted_rr_sets_packed(
        graph, node_block_utility, superior_utility, count, rng, roots)
    return [(nodes[offsets[k]:offsets[k + 1]], float(weights[k]),
             int(root_ids[k]))
            for k in range(len(weights))]


__all__ = [
    "random_rr_sets",
    "random_rr_sets_packed",
    "marginal_rr_sets",
    "marginal_rr_sets_packed",
    "weighted_rr_sets",
    "weighted_rr_sets_packed",
]
