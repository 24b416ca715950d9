"""Engine selection and batch sizing for the vectorized possible-world engine.

Every Monte-Carlo entry point (the welfare/spread estimators, the RR-set
samplers and the greedy evaluators built on them) accepts an ``engine``
argument with two spellings:

* ``"python"`` — the original scalar implementations (one possible world at
  a time, per-node Python loops).  They are kept as the reference oracle:
  slower, but the semantics the tests and the paper define.
* ``"vectorized"`` — the batched engine in :mod:`repro.engine`, which
  advances many possible worlds per call with numpy mask/``indptr``
  operations over the CSR adjacency.

``engine=None`` (the default everywhere) resolves to the ``REPRO_ENGINE``
environment variable when set, and to ``"vectorized"`` otherwise.  Batch
sizes are bounded by a cell budget so neither the ``(B, n)`` world state nor
one round's gathered edges balloon on large graphs.
"""

from __future__ import annotations

import os
from typing import Optional

ENGINE_PYTHON = "python"
ENGINE_VECTORIZED = "vectorized"
_ENGINES = (ENGINE_PYTHON, ENGINE_VECTORIZED)

#: environment variable overriding the default engine
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: default cap on worlds simulated per batch
DEFAULT_MAX_BATCH = 512
#: budget on ``batch x size`` cells per batch (~4M), ``size`` being the
#: node count or, for UIC welfare, ``max(n, m)``: that also bounds a
#: round's gathered edges (at most ``batch x m``)
STATE_CELL_BUDGET = 1 << 22


def default_engine() -> str:
    """The engine used when callers pass ``engine=None``: the
    ``REPRO_ENGINE`` environment variable when set, else ``"vectorized"``.
    The API layer resolves it exactly once, in
    :meth:`repro.api.EngineConfig.resolve`."""
    value = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    if not value:
        return ENGINE_VECTORIZED
    if value not in _ENGINES:
        raise ValueError(
            f"{ENGINE_ENV_VAR}={value!r} is not a valid engine; "
            f"expected one of {list(_ENGINES)}")
    return value


def resolve_engine(engine: Optional[str] = None) -> str:
    """Normalize an ``engine=`` argument to ``"python"`` or ``"vectorized"``."""
    if engine is None:
        return default_engine()
    value = str(engine).strip().lower()
    if value not in _ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {list(_ENGINES)}")
    return value


def batch_size(num_nodes: int, requested: Optional[int] = None) -> int:
    """Number of worlds to simulate per batch for a graph of ``num_nodes``.

    Bounded by :data:`DEFAULT_MAX_BATCH`, the state-cell budget (so
    ``B x n`` arrays stay small) and ``requested`` (e.g. samples remaining).
    """
    size = min(DEFAULT_MAX_BATCH,
               max(1, STATE_CELL_BUDGET // max(1, int(num_nodes))))
    if requested is not None:
        size = min(size, max(1, int(requested)))
    return size


__all__ = [
    "ENGINE_PYTHON",
    "ENGINE_VECTORIZED",
    "ENGINE_ENV_VAR",
    "default_engine",
    "resolve_engine",
    "batch_size",
]
