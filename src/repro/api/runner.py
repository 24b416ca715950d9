"""Spec-driven execution: one entry point for every algorithm.

:func:`run` takes a :class:`~repro.api.specs.RunSpec`, loads (or accepts)
the instance, resolves every cross-cutting knob exactly once, dispatches
through the algorithm registry and returns a :class:`RunRecord` with the
allocation, a welfare estimate and timings.  The CLI (``repro run``), the
experiment harness (:func:`repro.experiments.run_algorithm`) and the serve
protocol all funnel through this function, which is what keeps their
allocations bit-identical for equal specs.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.allocation import Allocation
from repro.api.registry import RunContext, get_algorithm
from repro.api.specs import RunSpec, WorkloadSpec
from repro.engine.config import ENGINE_ENV_VAR
from repro.exceptions import AlgorithmError
from repro.graphs.graph import DirectedGraph
from repro.utility.configs import configuration_model
from repro.utility.model import UtilityModel
from repro.utils.rng import ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import AllocationResult


@dataclass
class RunRecord:
    """One (algorithm, workload) measurement."""

    algorithm: str
    network: str
    configuration: str
    budgets: Dict[str, int]
    welfare: float
    runtime_seconds: float
    adoption_counts: Dict[str, float]
    num_adopters: float
    result: AllocationResult
    welfare_std_error: float = 0.0

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary row for reporting."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "network": self.network,
            "configuration": self.configuration,
            "budget": max(self.budgets.values()) if self.budgets else 0,
            "welfare": round(self.welfare, 2),
            "runtime_s": round(self.runtime_seconds, 3),
        }
        for item, count in self.adoption_counts.items():
            row[f"adopt[{item}]"] = round(count, 1)
        return row


def candidate_pool(graph: DirectedGraph, size: int) -> Sequence[int]:
    """Top out-degree nodes, used to keep simulation-heavy baselines feasible."""
    order = np.argsort(-graph.out_degrees(), kind="stable")
    return [int(v) for v in order[:size]]


def load_graph(workload: WorkloadSpec, seed: int) -> DirectedGraph:
    """Load the workload's network: an edge-list path or a catalog name."""
    from repro.graphs.datasets import load_network
    from repro.graphs.loaders import read_edge_list

    path = Path(workload.network)
    if path.exists():
        return read_edge_list(path)
    return load_network(workload.network, scale=workload.scale, rng=seed)


def load_workload(spec: RunSpec) -> Tuple[DirectedGraph, UtilityModel]:
    """Load the graph and utility model a spec describes."""
    return (load_graph(spec.workload, spec.engine.seed),
            configuration_model(spec.workload.configuration))


def narrow_single_item_budgets(budgets: Dict[str, int],
                          superior_item: Optional[str] = None
                          ) -> Dict[str, int]:
    """SupGRD allocates exactly one item: narrow a multi-item budget vector
    to the superior item when named, otherwise to the largest budget (first
    item wins ties).  Shared by the executor and the serve protocol so the
    same spec narrows identically on every surface."""
    if len(budgets) <= 1:
        return dict(budgets)
    if superior_item is not None and superior_item in budgets:
        return {superior_item: budgets[superior_item]}
    item, budget = max(budgets.items(), key=lambda kv: kv[1])
    return {item: budget}


def resolve_workload(workload: WorkloadSpec, graph: DirectedGraph,
                     model: UtilityModel, *, options, seed: int
                     ) -> Tuple[Dict[str, int], Allocation]:
    """Resolve the effective budgets and the fixed allocation ``S_P``.

    ``repro run`` and ``repro index build`` must resolve these identically
    so a built index reproduces the direct run bit for bit: the uniform
    budget is expanded over the model's items, and ``fixed_imm_item``'s
    seeds are the top IMM nodes at an independent stream of ``seed``.
    """
    budgets = workload.resolved_budgets(model.items)
    if workload.fixed_allocation:
        return budgets, Allocation(
            {item: list(nodes)
             for item, nodes in workload.fixed_allocation.items()})
    if workload.fixed_imm_item:
        from repro.rrsets.imm import imm

        seeds = imm(graph, workload.fixed_imm_budget, options=options,
                    rng=seed).seeds
        return budgets, Allocation({workload.fixed_imm_item: seeds})
    return budgets, Allocation.empty()


@contextmanager
def _resolved_environment(engine: str):
    """Pin ``REPRO_ENGINE`` to the resolved spec for the call's scope.

    A few baseline entry points (BestOf, TCIM, Balance-C) predate the
    explicit ``engine=`` threading; pinning the environment keeps their
    nested estimator calls on the engine the spec resolved, without a
    second resolution disagreeing with the first.
    """
    saved = os.environ.get(ENGINE_ENV_VAR)
    os.environ[ENGINE_ENV_VAR] = engine
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENGINE_ENV_VAR, None)
        else:
            os.environ[ENGINE_ENV_VAR] = saved


def run(spec: RunSpec,
        graph: Optional[DirectedGraph] = None,
        model: Optional[UtilityModel] = None,
        rng=None,
        index=None,
        options=None) -> RunRecord:
    """Execute ``spec`` and measure runtime and welfare.

    Parameters
    ----------
    graph, model:
        Preloaded instance; loaded from the spec's workload (network name
        or edge-list path, configuration catalog name) when omitted.
    rng:
        Seed or generator overriding ``spec.engine.seed`` for the
        algorithm + welfare-estimate stream (the experiment harness sweeps
        it per budget point).
    index:
        Prebuilt :class:`~repro.index.frozen.FrozenRRIndex` for the
        coverage-greedy algorithms; sampling is skipped and allocations
        are bit-identical to a direct run.
    options:
        Explicit :class:`~repro.rrsets.imm.IMMOptions` overriding the ones
        derived from ``spec.engine`` (used by the harness to forward a
        preset's options object unchanged).
    """
    entry = get_algorithm(spec.algorithm)
    resolved = spec.resolve()
    engine_cfg = resolved.engine
    if model is None and graph is None:
        graph, model = load_workload(resolved)
    elif model is None:
        model = configuration_model(spec.workload.configuration)
    elif graph is None:
        graph = load_graph(spec.workload, engine_cfg.seed)
    spec.validate(items=tuple(model.items), catalog=False)
    if index is not None and not entry.supports_index:
        raise AlgorithmError(
            f"{spec.algorithm} cannot be served from a prebuilt RR-set index")

    options = options if options is not None else engine_cfg.imm_options()
    budgets, fixed = resolve_workload(resolved.workload, graph, model,
                                      options=options, seed=engine_cfg.seed)
    if entry.single_item:
        budgets = narrow_single_item_budgets(budgets,
                                        resolved.workload.superior_item)
    rng = ensure_rng(rng if rng is not None else engine_cfg.seed)
    pool = None
    if entry.needs_candidate_pool and engine_cfg.pool_size is not None:
        pool = candidate_pool(graph, engine_cfg.pool_size)
    ctx = RunContext(
        graph=graph, model=model, budgets=budgets, fixed_allocation=fixed,
        options=options, rng=rng, engine=engine_cfg.engine,
        samples=engine_cfg.samples,
        marginal_samples=engine_cfg.marginal_samples,
        workers=engine_cfg.workers, index=index,
        superior_item=resolved.workload.superior_item, candidate_pool=pool)

    with _resolved_environment(engine_cfg.engine):
        start = time.perf_counter()
        result = entry.runner(ctx)
        runtime = time.perf_counter() - start

        from repro.diffusion.estimators import estimate_welfare

        welfare = estimate_welfare(graph, model,
                                   result.combined_allocation(),
                                   n_samples=engine_cfg.samples, rng=rng,
                                   engine=engine_cfg.engine)
    return RunRecord(
        algorithm=spec.algorithm,
        network=graph.name,
        configuration=spec.workload.configuration,
        budgets=budgets,
        welfare=welfare.mean,
        runtime_seconds=runtime,
        adoption_counts=welfare.adoption_counts,
        num_adopters=welfare.mean_adopters,
        result=result,
        welfare_std_error=welfare.std_error,
    )


__all__ = [
    "RunRecord",
    "run",
    "load_graph",
    "load_workload",
    "resolve_workload",
    "narrow_single_item_budgets",
    "candidate_pool",
]
