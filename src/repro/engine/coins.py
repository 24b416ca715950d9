"""Edge-coin machinery shared by the forward and reverse batched engines.

A possible world needs one independent Bernoulli(``p_e``) coin per edge.
Both engines draw them as **keyed coins**: pure functions of a 64-bit key,
so no coin is ever stored or depends on another draw.  ``mix64`` is the
SplitMix64 finalizer; RR set ``w`` of base seed ``s`` has the seed
``seed_w = mix64(mix64(w) ^ s)`` (:func:`set_seeds`), and edge
``e = src -> dst`` is live in it iff

    ``u01(mix64(seed_w ^ h_e)) < p_e``,  ``h_e = mix64(src ^ mix64(dst))``.

Forward world ``w`` applies the same test to its own seed
``mix64(seed_w ^ WORLD_TAG)`` (:func:`world_seeds`).  The tag separates the
two streams: a caller that seeds selection (RR sets) and evaluation
(forward worlds) with the same int still scores welfare on worlds
independent of the ones its RR sets were drawn in.

``h_e`` does not depend on the world and is cached once per graph, in
in-CSR order for the reverse kernel and in out-CSR order for the forward
one (:func:`edge_hashes`).  The forward engine applies the test as the
integer comparison ``(mix64(seed_w ^ h_e) >> 11) < ceil(p_e·2^53)``, which
is exactly ``u01(...) < p_e``.

Coin providers of the forward UIC engine:

* :class:`KeyedCoins` — the keyed coins of a list of global world
  indices.  A world's coins depend only on ``(s, w)``, so estimates are
  independent of how worlds are split into batches, and simulating two
  allocations with the same world seeds is the common-random-number
  coupling of marginal estimates.
* :class:`FixedCoinBatch` — a fully materialized ``(B, m)`` liveness
  matrix, used to replay explicit :class:`EdgeWorld` s (the equivalence
  tests against the scalar simulator).

:func:`bernoulli_mask` is the one-shot generator coin vector of the IC
path.  When all gathered probabilities are equal it draws *geometric
edge-skip* coins — pre-drawn blocks of geometric skip lengths that jump
straight to the next live edge — which costs O(#live) instead of
O(#edges) for sparse cascades.
"""

from __future__ import annotations

import math
import weakref
from typing import List, Sequence, Union

import numpy as np

from repro.diffusion.worlds import EdgeWorld, LazyEdgeWorld
from repro.graphs.graph import DirectedGraph
from repro.utils.rng import RngLike, derive_seed, ensure_rng

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_MANTISSA_SHIFT = np.uint64(11)
def _mix_steps(z, scratch: np.ndarray):
    """The shift-xor-multiply steps of :func:`mix64` on ``z`` (already
    offset by the golden ratio), in place where ``z`` is an array;
    ``scratch`` is a uint64 array of ``z``'s shape."""
    with np.errstate(over="ignore"):
        np.right_shift(z, np.uint64(30), out=scratch)
        z ^= scratch
        z *= _MIX1
        np.right_shift(z, np.uint64(27), out=scratch)
        z ^= scratch
        z *= _MIX2
        np.right_shift(z, np.uint64(31), out=scratch)
        z ^= scratch
    return z


def mix64(value) -> np.ndarray:
    """SplitMix64 finalizer over uint64 scalars or arrays.

    All constants and shift counts are ``np.uint64`` so numpy never
    upcasts the unsigned arithmetic (wrapping is intentional).
    """
    with np.errstate(over="ignore"):
        z = np.asarray(value, dtype=np.uint64) + _GOLDEN
    return _mix_steps(z, np.empty_like(z))


def u01(bits: np.ndarray) -> np.ndarray:
    """Map uint64 hashes to uniform doubles in ``[0, 1)`` (53-bit)."""
    return (np.asarray(bits, dtype=np.uint64) >> _MANTISSA_SHIFT) \
        .astype(np.float64) * (2.0 ** -53)


def set_seeds(base_seed: int, indices) -> np.ndarray:
    """Per-world (or per-RR-set) uint64 seeds derived from ``base_seed``."""
    base = np.uint64(int(base_seed)) & _U64
    idx = np.asarray(indices, dtype=np.uint64)
    return mix64(mix64(idx) ^ base)


#: domain-separation tag of forward worlds (an arbitrary odd constant,
#: distinct from the root and re-rooting tags of the RR-set stream)
WORLD_TAG = np.uint64(0xA0761D6478BD642F)


def world_seeds(base_seed: int, indices) -> np.ndarray:
    """Per-world uint64 seeds of the forward stream: :func:`set_seeds`
    moved into its own domain by :data:`WORLD_TAG`, so forward world ``w``
    and RR set ``w`` of one base seed flip independent coins."""
    return mix64(set_seeds(base_seed, indices) ^ WORLD_TAG)


def resolve_base_seed(rng: RngLike) -> int:
    """The base seed of a keyed stream: an int seed as is, else one
    63-bit seed drawn from the generator (or from fresh entropy)."""
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return derive_seed(rng)


#: per-graph cache of the world-independent edge hashes (and the forward
#: thresholds): derived from the immutable graph alone, so sharing them
#: changes no result, and weak keys drop an entry with its graph
_EDGE_KEYS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def edge_hashes(graph: DirectedGraph, order: str = "in") -> np.ndarray:
    """``mix64(src ^ mix64(dst))`` of every edge of ``graph`` in ``"in"``-
    or ``"out"``-CSR order, computed once per graph and order."""
    cached = _EDGE_KEYS.setdefault(graph, {})
    if order not in cached:
        if order == "in":
            indptr, sources, _ = graph.in_csr()
            dsts = np.repeat(np.arange(graph.num_nodes, dtype=np.uint64),
                             np.diff(indptr))
        else:
            indptr, dsts, _ = graph.out_csr()
            sources = np.repeat(np.arange(graph.num_nodes, dtype=np.uint64),
                                np.diff(indptr))
        cached[order] = mix64(sources.astype(np.uint64)
                              ^ mix64(dsts.astype(np.uint64)))
    return cached[order]


def _out_thresholds(graph: DirectedGraph) -> np.ndarray:
    """``ceil(p_e·2^53)`` of every out-CSR edge: a 53-bit draw ``k`` is
    below it iff ``k·2^-53 < p_e``.  Cached with the edge hashes."""
    cached = _EDGE_KEYS.setdefault(graph, {})
    if "thresholds" not in cached:
        _, _, probs = graph.out_csr()
        cached["thresholds"] = np.ceil(probs * 2.0 ** 53).astype(np.uint64)
    return cached["thresholds"]


def gather_csr_positions(indptr: np.ndarray, row_ids: np.ndarray
                         ) -> "tuple[np.ndarray, np.ndarray]":
    """Expand CSR rows into per-edge ids — the engine's core gather.

    Returns ``(edge_ids, pos)``: the CSR positions of every edge of every
    row in ``row_ids`` (rows may repeat), and for each edge the index into
    ``row_ids`` of its row.  ``pos`` is the one array repeated per edge;
    callers gather what they carry per row through it.
    """
    starts = indptr[row_ids]
    counts = indptr[row_ids + 1] - starts
    pos = np.repeat(np.arange(len(row_ids), dtype=np.int64), counts)
    edge_ids = np.arange(len(pos), dtype=np.int64)
    edge_ids += (starts - (np.cumsum(counts) - counts))[pos]
    return edge_ids, pos


def gather_csr_edges(indptr: np.ndarray, row_ids: np.ndarray,
                     *carries: np.ndarray):
    """:func:`gather_csr_positions` returning ``(edge_ids, *carried)``:
    each carry array (e.g. world/sample ids aligned with ``row_ids``)
    repeated once per edge of its row."""
    edge_ids, pos = gather_csr_positions(indptr, row_ids)
    return (edge_ids, *(carry[pos] for carry in carries))


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


class KeyedCoins:
    """The keyed out-edge coins of forward worlds ``world_ids`` of ``seed``
    (seeded by :func:`world_seeds`).

    Holds one uint64 seed per world and nothing per edge; a coin is
    computed when an edge is gathered.  Row ``b`` of the batch is global
    world ``world_ids[b]``, so any split of a world range into batches
    sees the same coins.
    """

    def __init__(self, graph: DirectedGraph, seed: int,
                 world_ids: np.ndarray) -> None:
        self._hashes = edge_hashes(graph, "out")
        self._thresholds = _out_thresholds(graph)
        self._seeds = world_seeds(seed, world_ids)
        #: three uint64 rows reused by every call (grown on demand)
        self._scratch = np.empty((3, 0), dtype=np.uint64)

    @property
    def num_worlds(self) -> int:
        return len(self._seeds)

    def live_edges(self, frontier_worlds: np.ndarray, edge_pos: np.ndarray,
                   edge_ids: np.ndarray) -> np.ndarray:
        """Liveness of edge ``edge_ids[k]`` in world
        ``frontier_worlds[edge_pos[k]]``, for every ``k``."""
        size = len(edge_ids)
        if size > self._scratch.shape[1]:
            self._scratch = np.empty((3, size), dtype=np.uint64)
        bits, other, scratch = self._scratch[:, :size]
        np.take(self._seeds[frontier_worlds], edge_pos, out=bits,
                mode="clip")
        bits ^= np.take(self._hashes, edge_ids, out=other, mode="clip")
        with np.errstate(over="ignore"):
            bits += _GOLDEN
        _mix_steps(bits, scratch)
        bits >>= _MANTISSA_SHIFT
        return bits < np.take(self._thresholds, edge_ids, out=other,
                              mode="clip")


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

    def live_edges(self, frontier_worlds: np.ndarray, edge_pos: np.ndarray,
                   edge_ids: np.ndarray) -> np.ndarray:
        """Liveness of edge ``edge_ids[k]`` in world
        ``frontier_worlds[edge_pos[k]]``, for every ``k``."""
        return self._live[frontier_worlds[edge_pos], edge_ids]


CoinProvider = Union[KeyedCoins, FixedCoinBatch]


def sample_edge_coin_matrix(graph: DirectedGraph, n_worlds: int,
                            rng: RngLike = None) -> np.ndarray:
    """Eagerly sample a ``(n_worlds, m)`` edge-liveness matrix.

    The shared-coin substrate of common-random-number marginal spread
    estimates: simulate two seed sets against the same matrix and their
    spread difference has far lower variance than independent runs.
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
    "gather_csr_edges",
    "gather_csr_positions",
    "sorted_unique",
    "unique_pairs",
    "mix64",
    "u01",
    "set_seeds",
    "world_seeds",
    "resolve_base_seed",
    "edge_hashes",
    "bernoulli_mask",
    "KeyedCoins",
    "FixedCoinBatch",
    "CoinProvider",
    "sample_edge_coin_matrix",
    "edge_world_live_mask",
    "fixed_coin_batch",
]
