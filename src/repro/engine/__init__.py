"""Batched, array-vectorized possible-world engine.

This package is the performance substrate of the library: it advances many
possible worlds per call with numpy mask/``indptr`` operations over the CSR
adjacency instead of per-node Python loops.

* :mod:`repro.engine.forward` — frontier-vectorized UIC/IC simulation of
  ``B`` worlds per call;
* :mod:`repro.engine.reverse` — RR-set sampling (standard, marginal and
  weighted) on one level-synchronous reverse-BFS kernel with sparse
  visited state and keyed per-(set, edge) coins;
* :mod:`repro.engine.coins` — the keyed edge coins both kernels draw
  from, and the fixed coin matrices that replay explicit worlds;
* :mod:`repro.engine.config` — the ``engine="python"|"vectorized"`` switch
  and batch sizing.

The scalar implementations in :mod:`repro.diffusion` and
:mod:`repro.rrsets` remain the reference oracle; every forward estimator
accepts ``engine=`` to select either path (``REPRO_ENGINE`` sets the
default), while RR sets are always drawn by :mod:`repro.engine.reverse`.
"""

from repro.engine.config import (
    ENGINE_ENV_VAR,
    ENGINE_PYTHON,
    ENGINE_VECTORIZED,
    batch_size,
    default_engine,
    resolve_engine,
)
from repro.engine.coins import (
    FixedCoinBatch,
    KeyedCoins,
    bernoulli_mask,
    edge_world_live_mask,
    fixed_coin_batch,
    sample_edge_coin_matrix,
)
from repro.engine.forward import (
    BatchDiffusionResult,
    simulate_ic_batch,
    simulate_uic_batch,
)
from repro.engine.reverse import (
    marginal_rr_sets,
    random_rr_sets,
    weighted_rr_sets,
)

__all__ = [
    # config
    "ENGINE_PYTHON",
    "ENGINE_VECTORIZED",
    "ENGINE_ENV_VAR",
    "default_engine",
    "resolve_engine",
    "batch_size",
    # coins
    "KeyedCoins",
    "FixedCoinBatch",
    "bernoulli_mask",
    "sample_edge_coin_matrix",
    "edge_world_live_mask",
    "fixed_coin_batch",
    # forward
    "BatchDiffusionResult",
    "simulate_uic_batch",
    "simulate_ic_batch",
    # reverse
    "random_rr_sets",
    "marginal_rr_sets",
    "weighted_rr_sets",
]
