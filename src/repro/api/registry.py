"""Algorithm registry: name -> runner + capability flags.

Algorithms register themselves with :func:`register_algorithm` next to
their implementation (``repro/core/*.py``, ``repro/baselines/*.py``), which
replaces the old ``if/elif`` dispatch chain in the experiment harness.  An
entry carries capability flags — ``supports_index``,
``supports_workers``, ``needs_candidate_pool`` — so unsupported spec/knob combinations are
rejected uniformly at :meth:`repro.api.RunSpec.validate` time instead of
deep inside one algorithm's keyword plumbing.

Runners receive a :class:`RunContext`: the loaded instance plus every
cross-cutting knob, already resolved (no environment lookups, no optional
``None`` engines) by the executor in :mod:`repro.api.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from repro.exceptions import AlgorithmError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.allocation import Allocation
    from repro.core.results import AllocationResult
    from repro.graphs.graph import DirectedGraph
    from repro.rrsets.imm import IMMOptions
    from repro.utility.model import UtilityModel


@dataclass
class RunContext:
    """Everything a registered runner needs, fully resolved.

    ``engine`` is a concrete value (never ``None``), resolved once by
    :meth:`repro.api.EngineConfig.resolve`;
    ``budgets`` excludes any pre-fixed item; ``fixed_allocation`` is always
    an :class:`~repro.allocation.Allocation` (possibly empty).
    """

    graph: "DirectedGraph"
    model: "UtilityModel"
    budgets: Dict[str, int]
    fixed_allocation: "Allocation"
    options: "IMMOptions"
    rng: Any
    engine: str
    samples: int
    marginal_samples: int
    workers: Optional[int] = None
    index: Optional[Any] = None
    superior_item: Optional[str] = None
    candidate_pool: Optional[Sequence[int]] = None


Runner = Callable[[RunContext], "AllocationResult"]


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered algorithm: its runner and capability flags."""

    name: str
    runner: Runner = field(repr=False)
    #: position in the canonical experiment line-up
    order: int = 0
    #: can be served from a prebuilt :class:`FrozenRRIndex`
    supports_index: bool = False
    #: samples RR sets through the parallel keyed sampler (``workers``)
    supports_workers: bool = False
    #: draws seed candidates from a bounded pool (``pool_size``)
    needs_candidate_pool: bool = False
    #: allocates exactly one item: multi-item budget vectors are narrowed
    #: (superior item, else largest budget) before dispatch
    single_item: bool = False
    #: part of the paper's experiment line-up (``ALGORITHMS``)
    in_experiments: bool = True


_REGISTRY: Dict[str, AlgorithmEntry] = {}
_POPULATED = False


def register_algorithm(name: str, *, order: int,
                       supports_index: bool = False,
                       supports_workers: bool = False,
                       needs_candidate_pool: bool = False,
                       single_item: bool = False,
                       in_experiments: bool = True
                       ) -> Callable[[Runner], Runner]:
    """Register the decorated runner under ``name`` in the global registry."""
    def decorate(runner: Runner) -> Runner:
        if name in _REGISTRY:
            raise ValueError(f"algorithm {name!r} is already registered")
        _REGISTRY[name] = AlgorithmEntry(
            name=name, runner=runner, order=order,
            supports_index=supports_index,
            supports_workers=supports_workers,
            needs_candidate_pool=needs_candidate_pool,
            single_item=single_item,
            in_experiments=in_experiments)
        return runner
    return decorate


def _populate() -> None:
    """Import every module that registers algorithms (idempotent)."""
    global _POPULATED
    if _POPULATED:
        return
    # the imports register via the @register_algorithm decorators; the
    # flag is only set once they all succeed, so a transient import
    # failure surfaces again on retry instead of leaving the registry
    # silently partial
    import repro.baselines.balance_c  # noqa: F401
    import repro.baselines.greedy_wm  # noqa: F401
    import repro.baselines.heuristics  # noqa: F401
    import repro.baselines.tcim  # noqa: F401
    import repro.core.combined  # noqa: F401
    import repro.core.maxgrd  # noqa: F401
    import repro.core.seqgrd  # noqa: F401
    import repro.core.supgrd  # noqa: F401
    _POPULATED = True


def algorithm_entries() -> Tuple[AlgorithmEntry, ...]:
    """Every registered algorithm, in canonical (``order``) order."""
    _populate()
    return tuple(sorted(_REGISTRY.values(), key=lambda e: e.order))


def algorithm_names() -> Tuple[str, ...]:
    """Names of every registered algorithm, in canonical order."""
    return tuple(entry.name for entry in algorithm_entries())


def experiment_algorithms() -> Tuple[str, ...]:
    """The paper's experiment line-up, derived from the registry."""
    return tuple(entry.name for entry in algorithm_entries()
                 if entry.in_experiments)


def get_algorithm(name: str) -> AlgorithmEntry:
    """Look up a registered algorithm by name."""
    _populate()
    entry = _REGISTRY.get(str(name))
    if entry is None:
        raise AlgorithmError(f"unknown algorithm {name!r}; "
                             f"choose from {algorithm_names()}")
    return entry


__all__ = [
    "AlgorithmEntry",
    "RunContext",
    "register_algorithm",
    "algorithm_entries",
    "algorithm_names",
    "experiment_algorithms",
    "get_algorithm",
]
