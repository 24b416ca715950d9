"""Uniform runners: execute one algorithm on one workload, measure time and
welfare.

Every figure in §6 compares the same set of algorithms under different
utility configurations / budgets / networks.  Since the API redesign the
single dispatch point is :func:`repro.api.run` over a typed
:class:`~repro.api.RunSpec`; :func:`run_algorithm` remains as a thin
deprecation shim that builds the spec from its keyword arguments, so all
algorithms are still timed and evaluated identically (same welfare
estimator, same sample counts, same seeds) and existing call sites keep
working.  :data:`ALGORITHMS` is derived from the algorithm registry rather
than hand-maintained.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.allocation import Allocation
from repro.api.registry import experiment_algorithms
from repro.api.runner import RunRecord, run as run_spec
from repro.api.specs import EngineConfig, RunSpec, WorkloadSpec
from repro.experiments.config import ExperimentScale, get_scale
from repro.graphs.graph import DirectedGraph
from repro.utility.model import UtilityModel

#: algorithms available to the experiment harness (registry-derived)
ALGORITHMS = experiment_algorithms()


def spec_for(algorithm: str, scale: Optional[ExperimentScale] = None,
             network: str = "", configuration: str = "",
             budgets: Optional[Mapping[str, int]] = None,
             fixed_allocation: Optional[Allocation] = None,
             superior_item: Optional[str] = None,
             seed: Optional[int] = None) -> RunSpec:
    """Build the :class:`RunSpec` matching a harness-style invocation.

    The engine knobs mirror the :class:`ExperimentScale` preset exactly
    (sample counts, IMM options, candidate-pool size, seed), which is what
    makes spec-driven runs bit-identical to the historical
    ``run_algorithm`` keyword path.
    """
    scale = get_scale(scale)
    fixed = None
    if fixed_allocation is not None and not fixed_allocation.is_empty():
        fixed = {item: tuple(nodes)
                 for item, nodes in fixed_allocation.as_dict().items()}
    return RunSpec(
        algorithm=algorithm,
        workload=WorkloadSpec(
            network=network, configuration=configuration,
            budgets=dict(budgets or {}), fixed_allocation=fixed,
            superior_item=superior_item),
        engine=EngineConfig.from_scale(scale, seed=seed),
    )


def run_algorithm(algorithm: str, graph: DirectedGraph, model: UtilityModel,
                  budgets: Mapping[str, int],
                  fixed_allocation: Optional[Allocation] = None,
                  scale: Optional[ExperimentScale] = None,
                  configuration: str = "",
                  superior_item: Optional[str] = None,
                  rng=None,
                  index=None) -> RunRecord:
    """Run ``algorithm`` on the given workload and measure time and welfare.

    .. deprecated::
        This is a compatibility shim over :func:`repro.api.run`; new code
        should build a :class:`repro.api.RunSpec` (see :func:`spec_for`)
        and call :func:`repro.api.run` directly.  Allocations are
        bit-identical between the two paths.

    ``index`` is an optional prebuilt
    :class:`~repro.index.frozen.FrozenRRIndex` for the coverage-greedy
    algorithms (SeqGRD/SeqGRD-NM/SupGRD): sampling is skipped and seeds are
    served from the shared index, which is how the figure sweeps reuse one
    sampling pass across every budget point.
    """
    scale = get_scale(scale)
    spec = spec_for(algorithm, scale, network=graph.name,
                    configuration=configuration, budgets=budgets,
                    fixed_allocation=fixed_allocation,
                    superior_item=superior_item)
    return run_spec(spec, graph=graph, model=model, rng=rng, index=index,
                    options=scale.imm_options)


__all__ = ["ALGORITHMS", "RunRecord", "run_algorithm", "spec_for"]
