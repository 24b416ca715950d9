"""The IMM algorithm (Tang et al., SIGMOD 2015) and its generic engine.

IMM alternates a *sampling* phase — which searches for a lower bound on the
optimum via a statistical test with exponentially decreasing guesses — and a
*node-selection* phase (greedy maximum coverage over the sampled RR sets).
The paper reuses exactly this skeleton three times:

* plain IMM on standard RR sets (the single-item seed selector used to fix
  the inferior item's seeds in §6.2.3 and inside the TCIM baseline);
* PRIMA+ on *marginal* RR sets (the seed selector inside SeqGRD/MaxGRD);
* SupGRD on *weighted* RR sets (welfare units instead of spread units).

:func:`run_imm_engine` implements the shared skeleton generically over one
``sample(count)`` callback; :func:`imm` is the classic single-item
instantiation.  Every production callback is a
:class:`~repro.index.builder.ParallelRRSampler` over keyed coins
(:func:`rr_sampler`): it draws set indices from one running counter, so
the search sets and the fresh final sets of a run never share an index,
and the sets do not depend on the worker count or on how the final phase
is chunked.  The engine regenerates a fresh RR collection for the final
node selection, following the fix of Chen (arXiv:1808.09363) cited by the
paper.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.exceptions import AlgorithmError
from repro.graphs.graph import DirectedGraph
from repro.rrsets.bounds import adjusted_ell, lambda_prime, lambda_star
from repro.rrsets.coverage import (PackedRRBatch, RRCollection,
                                   node_selection)
from repro.utils.rng import RngLike, derive_seed

#: ``sample(count)`` returns ``count`` fresh RR sets, as ``(nodes, weight)``
#: pairs or one :class:`~repro.rrsets.coverage.PackedRRBatch`
Sample = Callable[[int], Union[Sequence[Tuple[np.ndarray, float]],
                               PackedRRBatch]]


@dataclass
class IMMOptions:
    """Tunable parameters of the IMM engine.

    ``epsilon`` and ``ell`` are the accuracy/confidence parameters of the
    paper (defaults ε = 0.5, ℓ = 1 as in §6.1.3).  ``max_rr_sets`` caps the
    number of sampled RR sets so pure-Python runs stay tractable on large
    inputs; the theoretical guarantees assume the cap is not hit.
    """

    epsilon: float = 0.5
    ell: float = 1.0
    max_rr_sets: int = 200_000
    min_rr_sets: int = 256
    fresh_final_sampling: bool = True


@dataclass
class IMMResult:
    """Result of one IMM-engine run.

    ``seeds`` is in greedy selection order (its prefixes are the greedy
    solutions for smaller budgets).  ``estimated_value`` is
    ``n · M_R(S) / θ`` — an estimate of the objective (spread for plain IMM,
    marginal spread for PRIMA+, marginal welfare for SupGRD).

    ``cap_hit`` records whether sampling was truncated at
    ``IMMOptions.max_rr_sets``: when true the theoretical guarantees do not
    hold and downstream welfare estimates should not be trusted blindly.
    ``collection`` carries the final RR collection when the engine was run
    with ``keep_collection=True`` (used to freeze persistent indexes).
    """

    seeds: List[int]
    estimated_value: float
    prefix_values: List[float]
    num_rr_sets: int
    lower_bound: float
    sampling_rounds: int
    cap_hit: bool = False
    collection: Optional[RRCollection] = field(default=None, repr=False,
                                               compare=False)

    def prefix(self, k: int) -> List[int]:
        """First ``k`` seeds (greedy prefix)."""
        return self.seeds[:k]

    def prefix_value(self, k: int) -> float:
        """Estimated objective value of the first ``k`` seeds."""
        if k <= 0 or not self.prefix_values:
            return 0.0
        return self.prefix_values[min(k, len(self.prefix_values)) - 1]


def warn_cap_hit(max_rr_sets: int) -> None:
    """The warning every IMM-style run raises when θ was cut at the cap."""
    warnings.warn(
        f"IMM sampling stopped at the max_rr_sets cap ({max_rr_sets}); the "
        f"(1 - 1/e - eps) guarantee does not hold and the estimated "
        f"objective may be biased — raise IMMOptions.max_rr_sets for "
        f"trustworthy estimates", RuntimeWarning, stacklevel=3)


def top_up(collection: RRCollection, target: float, sample: Sample,
           max_rr_sets: int) -> bool:
    """Extend ``collection`` with fresh sets to ``ceil(target)`` sets, but
    never past ``max_rr_sets``; returns whether the cap cut the target."""
    requested = int(math.ceil(target))
    missing = min(requested, max_rr_sets) - collection.num_sets
    if missing > 0:
        collection.extend(sample(missing))
    return requested > max_rr_sets


def run_imm_engine(num_nodes: int, k: int, sample: Sample,
                   max_value: float,
                   options: Optional[IMMOptions] = None,
                   num_budgets: int = 1,
                   keep_collection: bool = False,
                   final_sink=None,
                   final_chunk_sets: int = 65_536) -> IMMResult:
    """Run the IMM sampling + node-selection skeleton.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``n`` of the underlying graph.
    k:
        Number of seeds to select (the budget).
    sample:
        ``sample(count)`` returns ``count`` fresh RR sets as ``(nodes,
        weight)`` pairs or a packed
        :class:`~repro.rrsets.coverage.PackedRRBatch` (collections and
        streaming sinks splice packed batches without a per-pair loop).
        Every call must return sets not returned before.
    max_value:
        Upper bound on the optimum in the objective's units (``n`` for
        spread, ``n · u_max`` for welfare) — the binary search for the lower
        bound starts here.
    options:
        :class:`IMMOptions`; defaults to the paper's ε = 0.5, ℓ = 1.
    num_budgets:
        Number of budgets sharing the confidence budget (PRIMA+ passes the
        length of its budget vector so the union bound still holds).
    keep_collection:
        When true, the final RR collection is returned on
        ``IMMResult.collection`` so callers can freeze it into a persistent
        index.
    final_sink:
        Optional streaming sink (an object with ``append(pairs)``, e.g.
        :class:`repro.index.stream.StreamingIndexWriter`) receiving the
        final sampling phase in chunks of ``final_chunk_sets`` sets
        instead of an in-RAM collection.  Requires
        ``fresh_final_sampling``.  The engine then performs **no final
        node selection** — the returned result carries empty ``seeds``
        and the θ bookkeeping; the caller runs selection over the
        finalized index, which is bit-identical by the packed-coverage
        protocol.
    """
    options = options or IMMOptions()
    if num_nodes <= 0:
        raise AlgorithmError("the graph must contain at least one node")
    k = max(0, min(int(k), num_nodes))
    if k == 0:
        return IMMResult(seeds=[], estimated_value=0.0, prefix_values=[],
                         num_rr_sets=0, lower_bound=0.0, sampling_rounds=0)
    if max_value <= 0:
        raise AlgorithmError("max_value must be > 0")

    epsilon = options.epsilon
    epsilon_prime = math.sqrt(2.0) * epsilon
    ell_adj = adjusted_ell(num_nodes, options.ell, num_budgets)
    lam_prime = lambda_prime(num_nodes, k, epsilon_prime, ell_adj)
    lam_star = lambda_star(num_nodes, k, epsilon, ell_adj)

    collection = RRCollection(num_nodes)
    cap_hit = False

    # --- sampling phase: search for a lower bound on OPT ----------------
    lower_bound = 1.0
    sampling_rounds = 0
    max_rounds = max(1, int(math.ceil(math.log2(max(max_value, 2.0)))) - 1)
    for i in range(1, max_rounds + 1):
        sampling_rounds += 1
        x = max_value / (2.0 ** i)
        if x <= 0:
            break
        cap_hit |= top_up(collection, lam_prime / x, sample,
                          options.max_rr_sets)
        selection = node_selection(collection, k)
        estimate = (num_nodes * selection.covered_weight
                    / max(collection.num_sets, 1))
        if estimate >= (1.0 + epsilon_prime) * x:
            lower_bound = estimate / (1.0 + epsilon_prime)
            break
        if collection.num_sets >= options.max_rr_sets:
            # the cap was hit: use the best estimate seen so far
            cap_hit = True
            lower_bound = max(lower_bound, estimate)
            break

    # --- final sampling and node selection ------------------------------
    theta = lam_star / max(lower_bound, 1e-12)
    if theta > options.max_rr_sets:
        cap_hit = True
    theta = max(min(theta, options.max_rr_sets), options.min_rr_sets)
    if final_sink is not None:
        if not options.fresh_final_sampling:
            raise AlgorithmError(
                "streaming final sampling requires fresh_final_sampling")
        target = min(int(math.ceil(theta)), options.max_rr_sets)
        chunk_sets = max(1, int(final_chunk_sets))
        for done in range(0, target, chunk_sets):
            final_sink.append(sample(min(chunk_sets, target - done)))
        if cap_hit:
            warn_cap_hit(options.max_rr_sets)
        return IMMResult(
            seeds=[], estimated_value=0.0, prefix_values=[],
            num_rr_sets=target, lower_bound=lower_bound,
            sampling_rounds=sampling_rounds, cap_hit=cap_hit)
    final_collection = RRCollection(num_nodes) \
        if options.fresh_final_sampling else collection
    cap_hit |= top_up(final_collection, theta, sample, options.max_rr_sets)
    selection = node_selection(final_collection, k)
    scale = num_nodes / max(final_collection.num_sets, 1)
    if cap_hit:
        warn_cap_hit(options.max_rr_sets)
    return IMMResult(
        seeds=selection.seeds,
        estimated_value=selection.covered_weight * scale,
        prefix_values=[w * scale for w in selection.prefix_weights],
        num_rr_sets=final_collection.num_sets,
        lower_bound=lower_bound,
        sampling_rounds=sampling_rounds,
        cap_hit=cap_hit,
        collection=final_collection if keep_collection else None,
    )


def rr_sampler(graph: DirectedGraph, kind: str, rng: RngLike,
               workers: Optional[int] = None, **spec_kwargs):
    """The ``sample(count)`` callback of one IMM-style run.

    A :class:`~repro.index.builder.ParallelRRSampler` (use it as a context
    manager) whose keyed stream is seeded with one draw from ``rng``;
    ``workers=None`` samples in-process, like ``workers=1``, and every
    worker count returns the same sets.  Imports the index builder lazily
    so :mod:`repro.rrsets` does not depend on :mod:`repro.index` at import
    time.
    """
    from repro.index.builder import ParallelRRSampler, ShardSpec

    return ParallelRRSampler(ShardSpec(kind=kind, graph=graph, **spec_kwargs),
                             seed=derive_seed(rng), workers=workers or 1)


def imm(graph: DirectedGraph, k: int,
        options: Optional[IMMOptions] = None,
        rng: RngLike = None,
        workers: Optional[int] = None,
        keep_collection: bool = False) -> IMMResult:
    """Classic single-item IMM: ``(1 - 1/e - ε)``-approximate IM seeds.

    ``workers`` sampling processes change the wall time only: the result
    is identical for every worker count at a fixed seed.
    """
    with rr_sampler(graph, "standard", rng, workers) as sample:
        return run_imm_engine(graph.num_nodes, k, sample,
                              max_value=float(graph.num_nodes),
                              options=options,
                              keep_collection=keep_collection)


def marginal_imm(graph: DirectedGraph, k: int, fixed_seeds: Set[int],
                 options: Optional[IMMOptions] = None,
                 rng: RngLike = None,
                 workers: Optional[int] = None,
                 keep_collection: bool = False) -> IMMResult:
    """IMM on *marginal* RR sets: maximizes spread on top of ``fixed_seeds``."""
    with rr_sampler(graph, "marginal", rng, workers,
                    blocked=fixed_seeds) as sample:
        return run_imm_engine(graph.num_nodes, k, sample,
                              max_value=float(graph.num_nodes),
                              options=options,
                              keep_collection=keep_collection)


__all__ = ["IMMOptions", "IMMResult", "run_imm_engine", "imm", "marginal_imm",
           "rr_sampler", "top_up", "warn_cap_hit", "Sample"]
