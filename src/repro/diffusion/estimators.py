"""Monte-Carlo estimators of welfare, spread and adoption counts.

These estimators are the shared measurement layer of the library: the greedy
baselines use them to evaluate marginal welfare, the experiment harness uses
them to compare the quality of the allocations produced by the different
algorithms, and the tests use them to validate theoretical relationships
(e.g. Lemma 2's ``u_min·σ(S) ≤ ρ(S) ≤ u_max·σ(S)``).

All estimators accept an explicit sample count and RNG; marginal estimates
use *common random numbers* (the same possible worlds for both allocations)
to reduce variance, which mirrors the paper's practice of averaging 5000
simulations for every marginal-gain evaluation.

Every estimator also accepts ``engine="python"|"vectorized"``
(:mod:`repro.engine.config`): the scalar path simulates one possible world
at a time with the reference simulators, the vectorized path requests
batches of worlds from :mod:`repro.engine.forward`.  Both are unbiased
estimators of the same quantity; they consume the RNG differently, so
point estimates under a fixed seed differ between engines (but each engine
is individually deterministic for a given seed).

The vectorized welfare estimators draw one base seed and all ``n_samples``
noise rows from the RNG up front, then simulate the global worlds
``[0, n_samples)`` in batches of keyed worlds
(:class:`~repro.engine.coins.KeyedCoins`): world ``w``'s edge coins depend
only on the base seed and ``w``, so a seeded estimate does not depend on
the batch size, and the common random numbers of a marginal estimate are
the same world seeds and noise rows for both allocations.  No ``(B, m)``
coin matrix is built.  The IC spread estimators still draw generator
coins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.allocation import Allocation
from repro.diffusion.ic import simulate_ic
from repro.diffusion.uic import simulate_uic
from repro.diffusion.worlds import LazyEdgeWorld
from repro.engine.config import ENGINE_PYTHON, batch_size, resolve_engine
from repro.graphs.graph import DirectedGraph
from repro.utility.model import UtilityModel
from repro.utils.rng import RngLike, derive_seed, ensure_rng, spawn_rngs


@dataclass
class WelfareEstimate:
    """Monte-Carlo estimate of expected social welfare ``ρ(S)``."""

    mean: float
    std_error: float
    n_samples: int
    adoption_counts: Dict[str, float] = field(default_factory=dict)
    mean_adopters: float = 0.0

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Normal-approximation confidence interval for the mean."""
        return (self.mean - z * self.std_error, self.mean + z * self.std_error)


def _summarize_welfare(welfare_draws: np.ndarray,
                       counts_total: Dict[str, float],
                       adopters_total: float) -> WelfareEstimate:
    n_samples = len(welfare_draws)
    mean = float(welfare_draws.mean())
    std_error = float(welfare_draws.std(ddof=1) / math.sqrt(n_samples)) \
        if n_samples > 1 else 0.0
    return WelfareEstimate(
        mean=mean,
        std_error=std_error,
        n_samples=n_samples,
        adoption_counts={k: v / n_samples for k, v in counts_total.items()},
        mean_adopters=adopters_total / n_samples,
    )


def _world_batches(graph: DirectedGraph,
                   n_samples: int) -> Iterator[np.ndarray]:
    """The global world indices ``[0, n_samples)`` in consecutive batches.

    Sized on ``max(n, m)``: that bounds the ``(B, n)`` state and the
    per-round gather volume, at most ``B·m`` edges.
    """
    state_size = max(graph.num_nodes, graph.num_edges)
    done = 0
    while done < n_samples:
        batch = batch_size(state_size, n_samples - done)
        yield np.arange(done, done + batch)
        done += batch


def estimate_welfare(graph: DirectedGraph, model: UtilityModel,
                     allocation: Allocation, n_samples: int = 1_000,
                     rng: RngLike = None,
                     engine: Optional[str] = None) -> WelfareEstimate:
    """Estimate ``ρ(S)`` by averaging ``n_samples`` independent diffusions."""
    rng = ensure_rng(rng)
    n_samples = max(1, int(n_samples))
    counts_total: Dict[str, float] = {name: 0.0 for name in model.items}
    adopters_total = 0.0

    if resolve_engine(engine) == ENGINE_PYTHON:
        welfare_draws = np.empty(n_samples, dtype=np.float64)
        for s in range(n_samples):
            result = simulate_uic(graph, model, allocation, rng=rng)
            welfare_draws[s] = result.welfare
            for name, count in result.adoption_counts.items():
                counts_total[name] += count
            adopters_total += result.num_adopters
        return _summarize_welfare(welfare_draws, counts_total, adopters_total)

    from repro.engine.forward import simulate_uic_batch

    seed = derive_seed(rng)
    noise = model.sample_noise_worlds(rng, n_samples)
    welfare_draws = np.empty(n_samples, dtype=np.float64)
    for batch in _world_batches(graph, n_samples):
        result = simulate_uic_batch(graph, model, allocation, rng=seed,
                                    world_ids=batch,
                                    noise_worlds=noise[batch])
        welfare_draws[batch] = result.welfare
        for name, counts in result.adoption_counts.items():
            counts_total[name] += float(counts.sum())
        adopters_total += float(result.num_adopters.sum())
    return _summarize_welfare(welfare_draws, counts_total, adopters_total)


def estimate_marginal_welfare(graph: DirectedGraph, model: UtilityModel,
                              base: Allocation, extra: Allocation,
                              n_samples: int = 1_000,
                              rng: RngLike = None,
                              engine: Optional[str] = None) -> float:
    """Estimate ``ρ(base ∪ extra) - ρ(base)`` with common random numbers.

    Both allocations are simulated in the *same* possible worlds (same edge
    coins and noise terms), which dramatically reduces the variance of the
    difference — important because marginal gains can be small and even
    negative under competition (item blocking).

    The single-candidate case of :func:`estimate_marginal_welfare_batch`
    (identical world construction and float accumulation, so identical
    seeded results).
    """
    return float(estimate_marginal_welfare_batch(
        graph, model, base, [extra], n_samples=n_samples, rng=rng,
        engine=engine)[0])


def estimate_marginal_welfare_batch(graph: DirectedGraph,
                                    model: UtilityModel,
                                    base: Allocation,
                                    extras: Sequence[Allocation],
                                    n_samples: int = 1_000,
                                    rng: RngLike = None,
                                    engine: Optional[str] = None
                                    ) -> np.ndarray:
    """Estimate ``ρ(base ∪ extra) - ρ(base)`` for many ``extras`` at once.

    All candidates share the *same* possible worlds (edge coins and noise
    terms), and the base allocation is simulated once per world instead of
    once per candidate — so evaluating ``c`` candidates costs ``c + 1``
    simulations per world rather than ``2c``.  This is the first-round
    work-horse of :func:`repro.baselines.celf.celf_greedy_wm`, whose
    initial pass evaluates every candidate exactly once.

    Returns one marginal estimate per entry of ``extras`` (same order).
    The candidate estimates are mutually comparable (common random
    numbers), which is exactly what a greedy argmax over them needs.
    """
    rng = ensure_rng(rng)
    extras = list(extras)
    if not extras:
        return np.zeros(0, dtype=np.float64)
    n_samples = max(1, int(n_samples))
    combined = [base.union(extra) for extra in extras]
    totals = np.zeros(len(extras), dtype=np.float64)

    if resolve_engine(engine) == ENGINE_PYTHON:
        for world_rng in spawn_rngs(rng, n_samples):
            seed = int(world_rng.integers(0, 2**62))
            noise = model.sample_noise_world(world_rng)
            base_result = simulate_uic(
                graph, model, base,
                edge_world=LazyEdgeWorld(graph, np.random.default_rng(seed)),
                noise_world=noise)
            for index, allocation in enumerate(combined):
                result = simulate_uic(
                    graph, model, allocation,
                    edge_world=LazyEdgeWorld(graph,
                                             np.random.default_rng(seed)),
                    noise_world=noise)
                totals[index] += result.welfare - base_result.welfare
        return totals / n_samples

    from repro.engine.forward import simulate_uic_batch

    # common random numbers: every allocation is simulated in the same
    # keyed worlds (same world seeds, same noise rows)
    seed = derive_seed(rng)
    noise = model.sample_noise_worlds(rng, n_samples)
    for batch in _world_batches(graph, n_samples):
        worlds = dict(rng=seed, world_ids=batch, noise_worlds=noise[batch])
        base_welfare = simulate_uic_batch(graph, model, base,
                                          **worlds).welfare
        for index, allocation in enumerate(combined):
            result = simulate_uic_batch(graph, model, allocation, **worlds)
            # added world by world, so the total is the same however the
            # worlds are split into batches
            totals[index] = np.add.accumulate(np.concatenate(
                ([totals[index]], result.welfare - base_welfare)))[-1]
    return totals / n_samples


def estimate_spread(graph: DirectedGraph, seeds: Iterable[int],
                    n_samples: int = 1_000, rng: RngLike = None,
                    engine: Optional[str] = None) -> float:
    """Estimate the IC influence spread ``σ(S)`` of a seed set."""
    rng = ensure_rng(rng)
    seeds = list(int(v) for v in seeds)
    if not seeds:
        return 0.0
    n_samples = max(1, int(n_samples))

    if resolve_engine(engine) == ENGINE_PYTHON:
        total = 0
        for _ in range(n_samples):
            total += len(simulate_ic(graph, seeds, rng=rng))
        return total / n_samples

    from repro.engine.forward import simulate_ic_batch

    total = 0.0
    done = 0
    while done < n_samples:
        batch = batch_size(graph.num_nodes, n_samples - done)
        active = simulate_ic_batch(graph, seeds, batch, rng=rng)
        total += float(np.count_nonzero(active))
        done += batch
    return total / n_samples


def estimate_marginal_spread(graph: DirectedGraph, base: Iterable[int],
                             extra: Iterable[int], n_samples: int = 1_000,
                             rng: RngLike = None,
                             engine: Optional[str] = None) -> float:
    """Estimate ``σ(base ∪ extra) - σ(base)`` with common random numbers."""
    rng = ensure_rng(rng)
    base = list(int(v) for v in base)
    extra = list(int(v) for v in extra)
    combined = sorted(set(base) | set(extra))
    n_samples = max(1, int(n_samples))

    if resolve_engine(engine) == ENGINE_PYTHON:
        total = 0.0
        for world_rng in spawn_rngs(rng, n_samples):
            seed = int(world_rng.integers(0, 2**62))
            world_a = LazyEdgeWorld(graph, np.random.default_rng(seed))
            world_b = LazyEdgeWorld(graph, np.random.default_rng(seed))
            spread_base = len(simulate_ic(graph, base, edge_world=world_a)) \
                if base else 0
            spread_comb = len(simulate_ic(graph, combined,
                                          edge_world=world_b)) \
                if combined else 0
            total += spread_comb - spread_base
        return total / n_samples

    from repro.engine.coins import sample_edge_coin_matrix
    from repro.engine.forward import simulate_ic_batch

    state_size = max(graph.num_nodes, graph.num_edges)
    total = 0.0
    done = 0
    while done < n_samples:
        batch = batch_size(state_size, n_samples - done)
        live = sample_edge_coin_matrix(graph, batch, rng)
        spread_base = np.count_nonzero(
            simulate_ic_batch(graph, base, batch, edge_live=live)) \
            if base else 0
        spread_comb = np.count_nonzero(
            simulate_ic_batch(graph, combined, batch, edge_live=live)) \
            if combined else 0
        total += float(spread_comb - spread_base)
        done += batch
    return total / n_samples


def estimate_adoption_counts(graph: DirectedGraph, model: UtilityModel,
                             allocation: Allocation, n_samples: int = 1_000,
                             rng: RngLike = None,
                             engine: Optional[str] = None) -> Dict[str, float]:
    """Expected number of adopters of each item (paper Table 6)."""
    estimate = estimate_welfare(graph, model, allocation, n_samples, rng,
                                engine=engine)
    return estimate.adoption_counts


def exact_welfare_enumeration(graph: DirectedGraph, model: UtilityModel,
                              allocation: Allocation,
                              noise_world: Optional[np.ndarray] = None) -> float:
    """Exact expected welfare by enumerating all edge worlds (tiny graphs only).

    Used by tests to validate the Monte-Carlo estimator and the RR-set
    machinery on graphs with a handful of edges.  The noise world can be
    fixed (the default uses zero noise, i.e. deterministic utilities).
    """
    edges = list(graph.edges())
    if len(edges) > 20:
        raise ValueError("exact enumeration supports at most 20 edges")
    from repro.diffusion.worlds import EdgeWorld

    total = 0.0
    for mask in range(1 << len(edges)):
        prob = 1.0
        live_out: List[List[int]] = [[] for _ in range(graph.num_nodes)]
        for index, (u, v, p) in enumerate(edges):
            if mask >> index & 1:
                prob *= p
                live_out[u].append(v)
            else:
                prob *= 1.0 - p
        if prob == 0.0:
            continue
        world = EdgeWorld([np.array(a, dtype=np.int64) for a in live_out])
        result = simulate_uic(graph, model, allocation, edge_world=world,
                              noise_world=noise_world
                              if noise_world is not None
                              else np.zeros(model.num_items))
        total += prob * result.welfare
    return total


__all__ = [
    "WelfareEstimate",
    "estimate_welfare",
    "estimate_marginal_welfare",
    "estimate_marginal_welfare_batch",
    "estimate_spread",
    "estimate_marginal_spread",
    "estimate_adoption_counts",
    "exact_welfare_enumeration",
]
