"""Edge-coin machinery shared by the forward and reverse batched engines.

A possible-world batch needs one independent Bernoulli(``p_e``) coin per
(world, edge) pair.  Three providers cover the use cases:

* :class:`LazyCoinCache` — the batched analogue of
  :class:`~repro.diffusion.worlds.LazyEdgeWorld`: a ``(B, m)`` liveness
  matrix whose rows are filled per (world, node) the first time that node
  becomes an influencer in that world, then cached so re-influencing nodes
  (a node adopting a second item) reuse the same coins.
* :class:`FixedCoinBatch` — a fully materialized ``(B, m)`` liveness matrix,
  used for common-random-number marginal estimates (both allocations see the
  exact same coins) and for replaying fixed :class:`EdgeWorld` s.
* :func:`bernoulli_mask` — the one-shot coin vector used whenever coins are
  consumed exactly once (IC activations).  When all
  gathered probabilities are equal it draws *geometric edge-skip* coins —
  pre-drawn blocks of geometric skip lengths that jump straight to the next
  live edge — which costs O(#live) instead of O(#edges) for sparse cascades.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

import numpy as np

from repro.diffusion.worlds import EdgeWorld, LazyEdgeWorld
from repro.graphs.graph import DirectedGraph
from repro.utils.rng import RngLike, ensure_rng


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(c)`` for every ``c`` in ``counts``."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - starts


def gather_csr_edges(indptr: np.ndarray, row_ids: np.ndarray,
                     *carries: np.ndarray):
    """Expand CSR rows into per-edge ids — the engine's core gather.

    Returns ``(edge_ids, *carried)``: the CSR positions of every edge of
    every row in ``row_ids`` (rows may repeat), plus each carry array
    (e.g. world/sample ids aligned with ``row_ids``) repeated once per
    edge of its row.
    """
    counts = indptr[row_ids + 1] - indptr[row_ids]
    edge_ids = np.repeat(indptr[row_ids], counts) + ragged_arange(counts)
    return (edge_ids, *(np.repeat(carry, counts) for carry in carries))


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array: one sort plus an
    adjacent-difference mask (several times faster on numpy 2.x)."""
    keys = np.sort(keys)
    fresh = np.ones(len(keys), dtype=bool)  # first of each run
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def unique_pairs(n: int, first: np.ndarray,
                 second: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Dedupe (first, second) index pairs with ``second`` in ``[0, n)``."""
    if len(first) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    keys = sorted_unique(first * n + second)
    return keys // n, keys % n


def _geometric_skip_mask(rng: np.random.Generator, size: int,
                         prob: float) -> np.ndarray:
    """Bernoulli(``prob``) mask of ``size`` iid coins via geometric skips.

    Instead of flipping one coin per position, pre-draw blocks of geometric
    skip lengths ``G = floor(ln(U) / ln(1 - prob))`` (the number of dead
    edges before the next live one) and jump directly to the live positions.
    Distributionally identical to ``rng.random(size) < prob``.
    """
    mask = np.zeros(size, dtype=bool)
    log_q = math.log1p(-prob)
    position = -1
    while True:
        remaining = size - position - 1
        if remaining <= 0:
            return mask
        block = max(16, int(remaining * prob * 1.5) + 8)
        draws = 1.0 - rng.random(block)  # uniform on (0, 1]
        skips = np.floor(np.log(draws) / log_q).astype(np.int64)
        positions = position + np.cumsum(skips + 1)
        inside = positions < size
        mask[positions[inside]] = True
        if not inside.all():
            return mask
        position = int(positions[-1])


def bernoulli_mask(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One independent Bernoulli coin per entry of ``probs``.

    Uses geometric edge-skipping when every gathered probability is equal
    (the weighted-cascade and uniform-probability cases), and a plain
    vectorized uniform comparison otherwise.
    """
    size = len(probs)
    if size == 0:
        return np.zeros(0, dtype=bool)
    first = float(probs[0])
    if 0.0 < first < 1.0 and size > 32 and np.all(probs == first):
        return _geometric_skip_mask(rng, size, first)
    return rng.random(size) < probs


class LazyCoinCache:
    """Lazy ``(B, m)`` edge-coin cache over the forward CSR adjacency.

    ``ensure(worlds, nodes)`` flips the out-edge coins of every (world,
    node) pair not flipped yet; ``live_edges`` then reads the cached
    liveness for arbitrary (world, edge-id) pairs.  Within one batch this is
    indistinguishable from ``B`` independent :class:`LazyEdgeWorld` s.
    """

    def __init__(self, graph: DirectedGraph, n_worlds: int,
                 rng: RngLike = None) -> None:
        self._indptr, _, self._probs = graph.out_csr()
        self._rng = ensure_rng(rng)
        self._live = np.zeros((int(n_worlds), graph.num_edges), dtype=bool)
        self._flipped = np.zeros((int(n_worlds), graph.num_nodes), dtype=bool)

    @property
    def num_worlds(self) -> int:
        return self._live.shape[0]

    def ensure(self, world_ids: np.ndarray, node_ids: np.ndarray) -> None:
        """Flip (and cache) out-edge coins for the given (world, node) pairs."""
        if len(world_ids) == 0:
            return
        need = ~self._flipped[world_ids, node_ids]
        if not need.any():
            return
        worlds = world_ids[need]
        nodes = node_ids[need]
        edge_ids, edge_worlds = gather_csr_edges(self._indptr, nodes, worlds)
        if len(edge_ids):
            coins = bernoulli_mask(self._rng, self._probs[edge_ids])
            self._live[edge_worlds, edge_ids] = coins
        self._flipped[worlds, nodes] = True

    def live_edges(self, world_per_edge: np.ndarray,
                   edge_ids: np.ndarray) -> np.ndarray:
        """Liveness of the given (world, edge-id) pairs (coins must be flipped)."""
        return self._live[world_per_edge, edge_ids]


class FixedCoinBatch:
    """A fully specified batch of edge worlds as a ``(B, m)`` liveness matrix."""

    def __init__(self, graph: DirectedGraph, live: np.ndarray) -> None:
        live = np.asarray(live, dtype=bool)
        if live.ndim != 2 or live.shape[1] != graph.num_edges:
            raise ValueError(
                f"live matrix must have shape (B, {graph.num_edges}), "
                f"got {live.shape}")
        self._live = live

    @property
    def num_worlds(self) -> int:
        return self._live.shape[0]

    def ensure(self, world_ids: np.ndarray, node_ids: np.ndarray) -> None:
        """No-op: every coin is already determined."""

    def live_edges(self, world_per_edge: np.ndarray,
                   edge_ids: np.ndarray) -> np.ndarray:
        return self._live[world_per_edge, edge_ids]


CoinProvider = Union[LazyCoinCache, FixedCoinBatch]


def sample_edge_coin_matrix(graph: DirectedGraph, n_worlds: int,
                            rng: RngLike = None) -> np.ndarray:
    """Eagerly sample a ``(n_worlds, m)`` edge-liveness matrix.

    The shared-coin substrate of common-random-number marginal estimates:
    simulate two allocations against the same matrix and their welfare
    difference has dramatically lower variance than independent runs.
    """
    rng = ensure_rng(rng)
    m = graph.num_edges
    if m == 0:
        return np.zeros((int(n_worlds), 0), dtype=bool)
    _, _, probs = graph.out_csr()
    return rng.random((int(n_worlds), m)) < probs[None, :]


def edge_world_live_mask(graph: DirectedGraph,
                         edge_world: Union[EdgeWorld, LazyEdgeWorld]) -> np.ndarray:
    """Per-edge liveness vector of a fixed edge world (CSR edge order).

    Lets the batched simulator replay the exact deterministic world a scalar
    simulation used — the basis of the bit-identical equivalence tests.
    Passing a :class:`LazyEdgeWorld` materializes all of its coins.
    """
    indptr, indices, _ = graph.out_csr()
    live = np.zeros(graph.num_edges, dtype=bool)
    for node in range(graph.num_nodes):
        start, stop = int(indptr[node]), int(indptr[node + 1])
        if start == stop:
            continue
        live_targets = edge_world.out_neighbors(node)
        if len(live_targets) == 0:
            continue
        live[start:stop] = np.isin(indices[start:stop], live_targets)
    return live


def fixed_coin_batch(graph: DirectedGraph,
                     edge_worlds: Sequence[Union[EdgeWorld, LazyEdgeWorld]]) -> FixedCoinBatch:
    """Convert a sequence of fixed edge worlds into a :class:`FixedCoinBatch`."""
    masks: List[np.ndarray] = [edge_world_live_mask(graph, w)
                               for w in edge_worlds]
    if masks:
        live = np.stack(masks)
    else:
        live = np.zeros((0, graph.num_edges), dtype=bool)
    return FixedCoinBatch(graph, live)


__all__ = [
    "ragged_arange",
    "gather_csr_edges",
    "sorted_unique",
    "unique_pairs",
    "bernoulli_mask",
    "LazyCoinCache",
    "FixedCoinBatch",
    "CoinProvider",
    "sample_edge_coin_matrix",
    "edge_world_live_mask",
    "fixed_coin_batch",
]
