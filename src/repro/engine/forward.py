"""Frontier-vectorized forward simulation of UIC and IC diffusions.

The scalar simulators in :mod:`repro.diffusion` walk one possible world at a
time with per-node Python loops.  This module advances **B worlds per call**.
The UIC state is a ``(B, n)`` desire and a ``(B, n)`` adoption bitmask
array, in the smallest unsigned dtype that holds the catalog's bundle masks
(uint8 up to 8 items).  The frontier — the (world, node) pairs that adopted
new items last round, with those items — is carried as parallel index
arrays, and every synchronous round is a handful of numpy operations:

1. one ragged gather of the frontier's out-edges, which repeats a single
   array per gathered edge (its frontier position);
2. one vectorized keyed-coin test (:class:`~repro.engine.coins.KeyedCoins`);
   world ids, targets and item masks are then gathered for the live edges
   only;
3. one sort-and-``bitwise_or.reduceat`` that merges the inform events per
   (world, target);
4. one vectorized best-bundle update of the informed nodes.

No coin is stored: world ``w`` of base seed ``s`` decides edge ``e`` from
its world seed (:func:`~repro.engine.coins.world_seeds`) and ``h_e`` alone
(see :mod:`repro.engine.coins`), so
a batch costs memory in proportion to ``B × n`` bytes plus one round's
gathered edges.  Welfare and adoption counts come from a ``(B, 2^m)``
table of per-bundle adopter counts.

On a fixed possible world (edge coins and noise both specified) the batched
simulator is exactly the scalar one: same rounds, same desire/adoption
fixpoint, bit-identical adoption masks.  When utilities contain near-ties
closer than the scalar tie-break tolerance (1e-12) the two engines may pick
different but equal-utility bundles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from repro.allocation import Allocation
from repro.diffusion.uic import DiffusionResult
from repro.diffusion.worlds import EdgeWorld, LazyEdgeWorld
from repro.engine.coins import (
    CoinProvider,
    FixedCoinBatch,
    KeyedCoins,
    bernoulli_mask,
    fixed_coin_batch,
    gather_csr_edges,
    gather_csr_positions,
    resolve_base_seed,
    unique_pairs,
)
from repro.graphs.graph import DirectedGraph
from repro.obs.metrics import get_metrics
from repro.utility.model import UtilityModel
from repro.utils.rng import RngLike, ensure_rng

EdgeWorldsLike = Union[FixedCoinBatch,
                       Sequence[Union[EdgeWorld, LazyEdgeWorld]]]

#: tolerance of the best-bundle tie-break (mirrors the scalar simulator)
_TIE_TOL = 1e-12


@dataclass
class BatchDiffusionResult:
    """Outcome of ``B`` deterministic UIC diffusions, stored columnar.

    The fields mirror :class:`~repro.diffusion.uic.DiffusionResult` with a
    leading world axis; :meth:`world` materializes the scalar result of one
    world for drop-in use (and for equivalence testing).
    """

    adoption_masks: np.ndarray          # (B, n) smallest unsigned dtype
    welfare: np.ndarray                 # (B,) float64
    adoption_counts: Dict[str, np.ndarray]  # item name -> (B,) int64
    num_adopters: np.ndarray            # (B,) int64
    rounds: np.ndarray                  # (B,) int64

    @property
    def num_worlds(self) -> int:
        """Number of simulated worlds ``B``."""
        return len(self.welfare)

    def world(self, index: int) -> DiffusionResult:
        """The scalar :class:`DiffusionResult` of world ``index``."""
        return DiffusionResult(
            adoption_masks=self.adoption_masks[index].astype(np.int64),
            welfare=float(self.welfare[index]),
            adoption_counts={name: int(counts[index])
                             for name, counts in self.adoption_counts.items()},
            num_adopters=int(self.num_adopters[index]),
            rounds=int(self.rounds[index]),
        )

    def mean_welfare(self) -> float:
        """Average welfare across the batch."""
        return float(self.welfare.mean()) if len(self.welfare) else 0.0


def _mask_dtype(num_items: int) -> type:
    """The smallest unsigned dtype holding every bundle mask."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if num_items <= np.iinfo(dtype).bits:
            return dtype
    return np.uint64


def _candidate_order(num_bundles: int) -> np.ndarray:
    """Bundle masks sorted by (popcount, mask) — the tie-break preference."""
    masks = np.arange(num_bundles, dtype=np.int64)
    popcounts = np.array([bin(int(m)).count("1") for m in masks])
    return masks[np.lexsort((masks, popcounts))]


def _best_bundles(desire: np.ndarray, adopted: np.ndarray,
                  columns: np.ndarray, world_ids: np.ndarray,
                  candidate_order: np.ndarray) -> np.ndarray:
    """Vectorized best-bundle update for a batch of (world, node) pairs.

    For each pair picks the utility-maximizing bundle ``T`` with
    ``adopted ⊆ T ⊆ desire`` and ``U(T) ≥ 0``, preferring fewer items and
    then smaller masks on ties — candidates are scanned in that preference
    order, so a later candidate only wins by exceeding the incumbent by more
    than the tie tolerance.  ``columns[T]`` holds ``U(T)`` of every world.
    """
    best_mask = adopted.copy()
    best_utility = np.full(len(desire), -np.inf)
    outside = ~desire
    for candidate in candidate_order:
        candidate = int(candidate)
        valid = ((outside & candidate) == 0) \
            & ((adopted & candidate) == adopted)
        if not valid.any():
            continue
        utility = columns[candidate][world_ids]
        valid &= utility >= 0.0
        valid &= utility > best_utility + _TIE_TOL
        np.copyto(best_utility, utility, where=valid)
        np.copyto(best_mask, candidate, where=valid)
    return best_mask


def _resolve_coins(graph: DirectedGraph, edge_worlds: Optional[EdgeWorldsLike],
                   n_worlds: int, rng: RngLike,
                   world_ids: Optional[np.ndarray]) -> CoinProvider:
    if edge_worlds is None:
        world_ids = np.arange(n_worlds, dtype=np.int64) \
            if world_ids is None else np.asarray(world_ids, dtype=np.int64)
        if len(world_ids) != n_worlds:
            raise ValueError(
                f"expected {n_worlds} world ids, got {len(world_ids)}")
        return KeyedCoins(graph, resolve_base_seed(rng), world_ids)
    if world_ids is not None:
        raise ValueError("world_ids selects keyed worlds; it cannot be "
                         "combined with edge_worlds")
    if isinstance(edge_worlds, FixedCoinBatch):
        if edge_worlds.num_worlds != n_worlds:
            raise ValueError(
                f"coin provider covers {edge_worlds.num_worlds} worlds, "
                f"expected {n_worlds}")
        return edge_worlds
    if len(edge_worlds) != n_worlds:
        raise ValueError(
            f"expected {n_worlds} edge worlds, got {len(edge_worlds)}")
    return fixed_coin_batch(graph, edge_worlds)


def _record(kind: str, started: float, worlds: int) -> None:
    """Record one simulator call's wall time and simulated worlds."""
    metrics = get_metrics()
    if metrics.enabled:
        metrics.histogram(
            "repro_forward_seconds", "Wall time per forward simulator call",
            kind=kind).observe(time.perf_counter() - started)
        metrics.counter(
            "repro_forward_worlds_total",
            "Possible worlds simulated by the forward engine",
            kind=kind).inc(worlds)


def simulate_uic_batch(graph: DirectedGraph, model: UtilityModel,
                       allocation: Allocation,
                       n_worlds: Optional[int] = None,
                       rng: RngLike = None,
                       edge_worlds: Optional[EdgeWorldsLike] = None,
                       noise_worlds: Optional[np.ndarray] = None,
                       max_rounds: Optional[int] = None, *,
                       world_ids: Optional[Sequence[int]] = None
                       ) -> BatchDiffusionResult:
    """Run ``B`` independent UIC diffusions as one vectorized computation.

    Parameters
    ----------
    graph, model, allocation:
        The CWelMax instance and seed allocation, exactly as in
        :func:`repro.diffusion.uic.simulate_uic`.
    n_worlds:
        Number of worlds ``B``; may be omitted when ``noise_worlds``,
        ``world_ids`` or ``edge_worlds`` determines it.
    rng:
        With keyed coins, the base seed of the worlds: an int is used as
        is, a ``Generator`` (or ``None``) has one seed drawn from it first.
        Noise rows not supplied are then drawn from ``rng``.
    edge_worlds:
        ``None`` (keyed coins), a sequence of ``B`` fixed
        :class:`EdgeWorld` s (any iterable; it is read once), or their
        :class:`FixedCoinBatch`.
    noise_worlds:
        Optional ``(B, num_items)`` noise matrix; sampled when omitted.
    max_rounds:
        Per-world safety cap on rounds (defaults to ``n``).
    world_ids:
        Global indices of the keyed worlds (default ``0 .. B-1``).  Worlds
        with the same base seed and index have the same coins in every
        call — how estimators split a world range into batches, and how
        common-random-number callers couple two allocations.
    """
    started = time.perf_counter()
    n = graph.num_nodes
    catalog = model.catalog
    if edge_worlds is not None \
            and not isinstance(edge_worlds, FixedCoinBatch):
        edge_worlds = list(edge_worlds)

    if n_worlds is None:
        if noise_worlds is not None:
            n_worlds = len(noise_worlds)
        elif world_ids is not None:
            n_worlds = len(world_ids)
        elif isinstance(edge_worlds, FixedCoinBatch):
            n_worlds = edge_worlds.num_worlds
        elif edge_worlds is not None:
            n_worlds = len(edge_worlds)
        else:
            raise ValueError(
                "n_worlds is required when neither edge_worlds, world_ids "
                "nor noise_worlds is given")
    n_worlds = int(n_worlds)
    if n_worlds < 0:
        raise ValueError("n_worlds must be >= 0")

    # the base seed is drawn before any noise row
    coins = _resolve_coins(graph, edge_worlds, n_worlds, rng, world_ids)
    if noise_worlds is None:
        noise_worlds = model.sample_noise_worlds(ensure_rng(rng), n_worlds)
    else:
        noise_worlds = np.asarray(noise_worlds, dtype=np.float64)
        if noise_worlds.shape != (n_worlds, model.num_items):
            raise ValueError(
                f"noise_worlds must have shape ({n_worlds}, "
                f"{model.num_items}), got {noise_worlds.shape}")
    utilities = model.utility_tables(noise_worlds)  # (B, 2^m)
    columns = np.ascontiguousarray(utilities.T)  # U(T) of every world

    mask_dtype = _mask_dtype(catalog.num_items)
    desire = np.zeros((n_worlds, n), dtype=mask_dtype)
    adopted = np.zeros((n_worlds, n), dtype=mask_dtype)
    rounds = np.zeros(n_worlds, dtype=np.int64)
    order = _candidate_order(catalog.num_bundles)

    # the frontier is carried as parallel index arrays — (world, node) pairs
    # with the items each node newly adopted last round — so no round ever
    # scans the dense (B, n) state to find the active pairs.
    frontier_worlds = np.zeros(0, dtype=np.int64)
    frontier_nodes = np.zeros(0, dtype=np.int64)
    frontier_items = np.zeros(0, dtype=mask_dtype)

    seed_masks = allocation.node_item_masks(catalog, n).astype(mask_dtype)
    seeds = np.nonzero(seed_masks)[0]
    if len(seeds) and n_worlds:
        desire[:, seeds] = seed_masks[seeds][None, :]
        pair_worlds = np.repeat(np.arange(n_worlds, dtype=np.int64),
                                len(seeds))
        pair_nodes = np.tile(seeds, n_worlds)
        initial = _best_bundles(desire[pair_worlds, pair_nodes],
                                np.zeros(len(pair_worlds), dtype=mask_dtype),
                                columns, pair_worlds, order)
        adopted[pair_worlds, pair_nodes] = initial
        adopting = initial != 0
        frontier_worlds = pair_worlds[adopting]
        frontier_nodes = pair_nodes[adopting]
        frontier_items = initial[adopting]

    indptr, indices, _ = graph.out_csr()
    limit = n if max_rounds is None else int(max_rounds)
    active_flags = np.zeros(n_worlds, dtype=bool)
    # flat views: (world, node) is the cell ``world * n + node``
    desire_cells = desire.reshape(-1)
    adopted_cells = adopted.reshape(-1)
    item_bits = catalog.num_items
    item_mask = catalog.full_mask

    executed = 0
    while executed < limit and len(frontier_worlds):
        executed += 1
        active_flags[:] = False
        active_flags[frontier_worlds] = True
        rounds += active_flags

        # one synchronous round: push the newly adopted items of every
        # influencer across its live out-edges, then let each informed node
        # re-optimize its adoption exactly once.
        edge_ids, edge_pos = gather_csr_positions(indptr, frontier_nodes)
        live = np.flatnonzero(
            coins.live_edges(frontier_worlds, edge_pos, edge_ids))
        edge_pos = edge_pos[live]
        edge_ids = edge_ids[live]
        # one key per inform event, (cell, pushed items) packed so that a
        # plain sort groups the events of each cell (the cell count times
        # 2^items stays far below 2^63 for any batch whose state fits)
        events = ((frontier_worlds[edge_pos] * n + indices[edge_ids])
                  << item_bits) | frontier_items[edge_pos]
        frontier_worlds = frontier_nodes = np.zeros(0, dtype=np.int64)
        frontier_items = np.zeros(0, dtype=mask_dtype)
        if len(events) == 0:
            continue
        events.sort()
        cells = events >> item_bits
        run_starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
        informed = (np.bitwise_or.reduceat(events, run_starts)
                    & item_mask).astype(mask_dtype)
        cells = cells[run_starts]

        informed &= ~desire_cells[cells]
        fresh = np.flatnonzero(informed)
        if len(fresh) == 0:
            continue
        cells = cells[fresh]
        desire_cells[cells] |= informed[fresh]
        previous = adopted_cells[cells]
        informed_worlds = cells // n
        updated = _best_bundles(desire_cells[cells], previous, columns,
                                informed_worlds, order)
        changed = np.flatnonzero(updated != previous)
        cells = cells[changed]
        frontier_worlds = informed_worlds[changed]
        frontier_nodes = cells - frontier_worlds * n
        frontier_items = updated[changed] & ~previous[changed]
        adopted_cells[cells] = updated[changed]

    result = _summarize(adopted, utilities, catalog, rounds)
    _record("uic", started, n_worlds)
    return result


def _summarize(adopted: np.ndarray, utilities: np.ndarray, catalog,
               rounds: np.ndarray) -> BatchDiffusionResult:
    """Welfare and adoption counts from a ``(B, 2^m)`` table of adopters
    per (world, bundle), built from the adopting pairs alone."""
    n_worlds, n = adopted.shape
    num_bundles = utilities.shape[1]
    cells = np.flatnonzero(adopted)
    bundles = adopted.reshape(-1)[cells]
    table = np.bincount(cells // max(n, 1) * num_bundles + bundles,
                        minlength=n_worlds * num_bundles) \
        .reshape(n_worlds, num_bundles)
    table[:, 0] = n - table[:, 1:].sum(axis=1)  # non-adopters: empty bundle
    # bundle by bundle, so each world's welfare is one fixed sequence of
    # IEEE operations whatever the batch shape
    welfare = np.zeros(n_worlds, dtype=np.float64)
    for bundle in range(num_bundles):
        welfare += table[:, bundle] * utilities[:, bundle]
    bundle_masks = np.arange(num_bundles)
    return BatchDiffusionResult(
        adoption_masks=adopted,
        welfare=welfare,
        adoption_counts={name: table[:, (bundle_masks & bit) != 0].sum(axis=1)
                         for name, bit in catalog.iter_singletons()},
        num_adopters=n - table[:, 0],
        rounds=rounds,
    )


def simulate_ic_batch(graph: DirectedGraph, seeds: Iterable[int],
                      n_worlds: int, rng: RngLike = None,
                      edge_live: Optional[np.ndarray] = None) -> np.ndarray:
    """Run ``B`` independent IC diffusions; returns active masks ``(B, n)``.

    ``edge_live`` optionally fixes the edge coins as a ``(B, m)`` liveness
    matrix (the common-random-number path); otherwise coins are drawn on
    demand — in IC every node activates at most once per world, so each
    edge's coin is consumed exactly once and no cache is needed.
    """
    started = time.perf_counter()
    rng = ensure_rng(rng)
    n = graph.num_nodes
    n_worlds = int(n_worlds)
    active = np.zeros((n_worlds, n), dtype=bool)
    seed_list = sorted(set(int(v) for v in seeds))
    if not seed_list or n == 0 or n_worlds == 0:
        _record("ic", started, n_worlds)
        return active
    for seed in seed_list:
        if not 0 <= seed < n:
            raise ValueError(f"seed node {seed} out of range [0, {n})")

    if edge_live is not None:
        edge_live = np.asarray(edge_live, dtype=bool)
        if edge_live.shape != (n_worlds, graph.num_edges):
            raise ValueError(
                f"edge_live must have shape ({n_worlds}, "
                f"{graph.num_edges}), got {edge_live.shape}")

    indptr, indices, probs = graph.out_csr()
    active[:, seed_list] = True
    seed_arr = np.asarray(seed_list, dtype=np.int64)
    world_ids = np.repeat(np.arange(n_worlds, dtype=np.int64), len(seed_arr))
    node_ids = np.tile(seed_arr, n_worlds)

    while len(world_ids):
        edge_ids, edge_world_ids = gather_csr_edges(indptr, node_ids,
                                                    world_ids)
        if edge_live is None:
            live = bernoulli_mask(rng, probs[edge_ids])
        else:
            live = edge_live[edge_world_ids, edge_ids]
        edge_world_ids = edge_world_ids[live]
        targets = indices[edge_ids[live]]
        fresh = ~active[edge_world_ids, targets]
        # dedupe same-round duplicate activations before they become the
        # next frontier
        world_ids, node_ids = unique_pairs(n, edge_world_ids[fresh],
                                           targets[fresh])
        active[world_ids, node_ids] = True
    _record("ic", started, n_worlds)
    return active


__all__ = [
    "BatchDiffusionResult",
    "simulate_uic_batch",
    "simulate_ic_batch",
]
