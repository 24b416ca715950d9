"""Deterministic (and optionally parallel) RR-set index building.

Every RR set is drawn with keyed coins (:mod:`repro.engine.reverse`): its
contents depend only on the stream's base seed and the set's index.
:class:`ParallelRRSampler` owns one base seed and a running set-index
counter, so ``generate(count)`` returns the next ``count`` sets of one
stream, however they are split — the in-process path samples them in one
call, the parallel path splits the index range across the warm
shared-memory worker pools of :mod:`repro.index.pool` and concatenates the
parts in order.  Building with ``workers=None``, 1 or 16 therefore yields
byte-identical collections; workers only change the wall time.  Parts
travel as packed :class:`~repro.rrsets.coverage.PackedRRBatch` buffers and
merge with one bulk CSR splice per call.

:class:`ParallelRRSampler` is the ``sample(count)`` callback of
:func:`~repro.rrsets.imm.run_imm_engine` (via
:func:`~repro.rrsets.imm.rr_sampler`, behind
``imm``/``marginal_imm``/``supgrd``/``prima_plus``); :func:`build_index`
is the one-stop entry point used by ``repro index build`` that runs the
right algorithm, freezes its final RR collection and stamps the manifest
with the instance fingerprint.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from repro.allocation import Allocation
from repro.engine import reverse
from repro.engine.config import resolve_engine
from repro.exceptions import AlgorithmError, IndexStoreError
from repro.graphs.graph import DirectedGraph
from repro.index.fingerprint import index_fingerprint
from repro.index.frozen import FrozenRRIndex
from repro.index.pool import acquire_pool, discard_pool, release_pool
from repro.obs.metrics import get_metrics
from repro.rrsets.coverage import PackedRRBatch, min_id_dtype
from repro.rrsets.imm import IMMOptions
from repro.utility.model import UtilityModel

#: sampler kinds an index can be built from
SAMPLER_KINDS = ("standard", "marginal", "weighted")

#: the sampler kind :func:`build_index` draws for each algorithm an index
#: can serve (SeqGRD and SeqGRD-NM share PRIMA+'s marginal RR sets)
INDEX_SAMPLERS = {"SeqGRD": "marginal", "SeqGRD-NM": "marginal",
                  "SupGRD": "weighted"}


def sampler_mismatch(algorithm: str,
                     meta: Mapping[str, Any]) -> Optional[str]:
    """Why an index with manifest ``meta`` cannot serve ``algorithm``, or
    ``None`` when its sampler kind is the one :data:`INDEX_SAMPLERS` names
    (or unrecorded, as on a hand-frozen collection)."""
    expected = INDEX_SAMPLERS.get(algorithm)
    if expected is None:
        return f"{algorithm} cannot be served from a prebuilt RR-set index"
    kind = meta.get("sampler")
    if kind is None or kind == expected:
        return None
    return (f"{algorithm} needs a {expected} RR-set index, but the index "
            f"was drawn by the {kind!r} sampler")

#: transport tasks dispatched per worker per generate() call; splitting
#: the index range into ~workers×this tasks bounds pickling overhead while
#: leaving enough slack for load balancing.  Keyed coins make the split
#: invisible in the output.
TASKS_PER_WORKER = 2


@dataclass(frozen=True)
class ShardSpec:
    """Picklable description of what a sampler draws.

    Shipped to worker processes with every task, graph-free, so it must
    carry plain data: the graph, the sampler kind, and the kind-specific
    state (blocked seeds for marginal sampling; block utilities and
    ``U⁺(i_m)`` for weighted sampling).
    """

    kind: str
    graph: DirectedGraph
    blocked: FrozenSet[int] = frozenset()
    node_block_utility: Tuple[Tuple[int, float], ...] = ()
    superior_utility: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SAMPLER_KINDS:
            raise AlgorithmError(
                f"unknown sampler kind {self.kind!r}; "
                f"expected one of {list(SAMPLER_KINDS)}")
        # normalize the mapping/set spellings callers naturally pass
        if not isinstance(self.blocked, frozenset):
            object.__setattr__(self, "blocked",
                               frozenset(int(v) for v in self.blocked))
        if isinstance(self.node_block_utility, Mapping):
            object.__setattr__(
                self, "node_block_utility",
                tuple(sorted((int(k), float(v))
                             for k, v in self.node_block_utility.items())))


def _sample_shard(spec: ShardSpec, graph, seed: int, start: int,
                  size: int) -> PackedRRBatch:
    """Sample the RR sets ``[start, start + size)`` of base seed ``seed``.

    ``graph`` is passed separately from ``spec`` so worker processes can
    combine a graph-free (light) spec with their once-installed graph —
    a :class:`~repro.graphs.graph.DirectedGraph` in the parent or on the
    fork path, a :class:`~repro.index.pool.SharedGraphView` on the spawn
    path.  Output is packed (:class:`PackedRRBatch`, ids narrowed to
    :func:`min_id_dtype`) so a part ships as three buffers.
    """
    weights = np.ones(size, dtype=np.float64)
    if spec.kind == "standard":
        offsets, nodes = reverse.random_rr_sets_packed(graph, size, seed,
                                                       start=start)
    elif spec.kind == "marginal":
        offsets, nodes = reverse.marginal_rr_sets_packed(
            graph, set(spec.blocked), size, seed, start=start)
    else:
        offsets, nodes, weights, _roots = reverse.weighted_rr_sets_packed(
            graph, dict(spec.node_block_utility), spec.superior_utility,
            size, seed, start=start)
    return PackedRRBatch.from_arrays(
        offsets, nodes, weights, num_nodes=graph.num_nodes,
        id_dtype=min_id_dtype(graph.num_nodes))


class ParallelRRSampler:
    """Deterministic keyed RR-set generation, optionally multiprocess.

    ``generate(count)`` (also available as plain call syntax) returns
    the next ``count`` RR sets of the stream with base seed ``seed`` — set
    indices ``[next, next + count)`` — as one
    :class:`~repro.rrsets.coverage.PackedRRBatch` (iterable as the classic
    ``(nodes, weight)`` pairs).  No index is returned twice, and the sets
    depend neither on ``workers`` nor on how the counts are split across
    calls — worker processes only change wall-clock time.

    Parallel calls go through the warm pool registry of
    :mod:`repro.index.pool`: the first sampler over a graph pays process
    startup once, every later sampler (each IMM-style run creates one) and
    every later build over the same graph reuses the live workers.  The
    graph ships to workers once — fork-inherited or via shared memory —
    and each task carries only a graph-free spec, the base seed and its
    index range, so per-call transport is task-count-, not set-count-,
    proportional.

    Use as a context manager (or call :meth:`close`) to release the pool
    reference; startup failures and workers dying mid-map both degrade to
    in-process sampling with identical results.
    """

    def __init__(self, spec: ShardSpec, seed: int, workers: int = 1,
                 start_method: Optional[str] = None) -> None:
        self._spec = spec
        self._seed = int(seed)
        self._next = 0
        self._workers = max(1, int(workers))
        self._start_method = start_method
        self._light_spec = replace(spec, graph=None) \
            if self._workers > 1 else spec
        self._pool = None
        self._pool_broken = False

    @property
    def workers(self) -> int:
        """Requested worker-process count."""
        return self._workers

    def _ensure_pool(self):
        if self._pool is not None or self._pool_broken:
            return self._pool
        try:
            self._pool = acquire_pool(self._spec.graph, self._workers,
                                      self._start_method)
        except Exception as error:  # pragma: no cover - env dependent
            warnings.warn(
                f"could not start {self._workers} sampling workers "
                f"({error}); falling back to in-process sampling "
                f"(results are identical by construction)", RuntimeWarning)
            self._pool_broken = True
            self._pool = None
        return self._pool

    def _abandon_pool(self, error: BaseException) -> None:
        """Mark the pool broken after a mid-map failure (worker death)."""
        warnings.warn(
            f"sampling worker pool failed mid-build ({error!r}); falling "
            f"back to in-process sampling (results are identical by "
            f"construction)", RuntimeWarning)
        pool, self._pool = self._pool, None
        self._pool_broken = True
        if pool is not None:
            discard_pool(pool)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "repro_build_pool_fallbacks_total",
                "Parallel generate() calls that fell back to in-process "
                "sampling after a worker-pool failure").inc()

    def generate(self, count: int) -> PackedRRBatch:
        """Sample the next ``count`` RR sets of the stream.

        With several workers the index range is split into
        ~``workers × TASKS_PER_WORKER`` consecutive parts, one transport
        task each; keyed coins make the returned batch bit-identical to
        the in-process one.
        """
        count = int(count)
        if count <= 0:
            return PackedRRBatch.empty(
                id_dtype=min_id_dtype(self._spec.graph.num_nodes))
        started = time.perf_counter()
        start, self._next = self._next, self._next + count
        batches = None
        tasks = min(count, self._workers * TASKS_PER_WORKER)
        if self._workers > 1 and tasks > 1 and not self._pool_broken:
            pool = self._ensure_pool()
            if pool is not None:
                bounds = np.linspace(start, start + count,
                                     tasks + 1).astype(np.int64)
                try:
                    batches = pool.map_tasks([
                        (self._light_spec, self._seed, int(lo), int(hi - lo))
                        for lo, hi in zip(bounds[:-1], bounds[1:])])
                except Exception as error:
                    self._abandon_pool(error)
                    batches = None
        if batches is None:
            batches = [_sample_shard(self._spec, self._spec.graph,
                                     self._seed, start, count)]
        batch = PackedRRBatch.concat(batches)
        metrics = get_metrics()
        if metrics.enabled:
            elapsed = time.perf_counter() - started
            metrics.counter(
                "repro_build_rr_sets_total",
                "RR sets sampled by the index builder's samplers",
                kind=self._spec.kind).inc(count)
            metrics.histogram(
                "repro_build_sample_seconds",
                "Wall time per ParallelRRSampler.generate() call",
                kind=self._spec.kind).observe(elapsed)
            if elapsed > 0.0:
                metrics.gauge(
                    "repro_build_sample_rate", "RR sets per second of the "
                    "most recent generate() call",
                    kind=self._spec.kind).set(count / elapsed)
        return batch

    __call__ = generate

    def close(self) -> None:
        """Release the worker pool reference (no-op if none was started).

        The pool itself stays warm in the :mod:`repro.index.pool`
        registry for the next sampler over the same graph; registry
        eviction, :func:`repro.index.pool.shutdown_worker_pools` and the
        atexit hook close and join the workers — in-flight tasks always
        finish, nothing is terminated mid-sample.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            release_pool(pool)

    def __enter__(self) -> "ParallelRRSampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# one-stop index building
# ----------------------------------------------------------------------
def _provenance(sampler: str, engine_name: str, seed: int,
                workers: Optional[int], options: IMMOptions,
                budgets: Mapping[str, int], fixed_allocation: Allocation
                ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The fingerprint ``extra`` and the base manifest ``meta`` shared by
    every build.  The worker count is recorded but never hashed: it does
    not change the sampled sets."""
    budgets = dict(sorted(budgets.items()))
    extra: Dict[str, Any] = {
        "epsilon": options.epsilon,
        "ell": options.ell,
        "max_rr_sets": options.max_rr_sets,
        "min_rr_sets": options.min_rr_sets,
        "budgets": budgets,
        "fixed": {item: list(fixed_allocation.seeds_for(item))
                  for item in sorted(fixed_allocation.items)},
    }
    meta: Dict[str, Any] = {
        "sampler": sampler,
        "sampler_version": reverse.SAMPLER_VERSION,
        "engine": engine_name,
        "seed": int(seed),
        "workers": None if workers is None else int(workers),
        "budgets": budgets,
        "options": {"epsilon": options.epsilon, "ell": options.ell,
                    "max_rr_sets": options.max_rr_sets,
                    "min_rr_sets": options.min_rr_sets},
    }
    return extra, meta


def build_index(graph: DirectedGraph, model: Optional[UtilityModel] = None, *,
                sampler: str = "marginal",
                budgets: Optional[Mapping[str, int]] = None,
                k: Optional[int] = None,
                fixed_allocation: Optional[Allocation] = None,
                superior_item: Optional[str] = None,
                options: Optional[IMMOptions] = None,
                seed: int = 2020,
                workers: Optional[int] = None,
                engine: Optional[str] = None,
                meta_extra: Optional[Dict[str, Any]] = None
                ) -> FrozenRRIndex:
    """Build a persistent RR-set index for one CWelMax instance.

    Runs the sampling phase of the matching algorithm — plain IMM for
    ``sampler="standard"``, SeqGRD-NM/PRIMA+ for ``"marginal"``, SupGRD for
    ``"weighted"`` — freezes the final RR collection, and stamps the
    manifest with the instance fingerprint plus enough build metadata
    (budgets, seed, options, ``sampler_version``) for ``repro index query``
    to verify and serve it.

    The build uses exactly the code path of a direct ``repro run`` with the
    same ``seed``, so querying the returned index reproduces that run's
    allocation bit for bit.  ``workers`` (``None`` samples in-process)
    changes the wall time only: every worker count gives the same arrays
    and the same fingerprint.
    """
    if sampler not in SAMPLER_KINDS:
        raise AlgorithmError(
            f"unknown sampler kind {sampler!r}; "
            f"expected one of {list(SAMPLER_KINDS)}")
    options = options or IMMOptions()
    fixed_allocation = fixed_allocation or Allocation.empty()
    engine_name = resolve_engine(engine)
    budgets = dict(budgets or {})
    if k is None:
        k = max(budgets.values()) if budgets else 0
    extra, meta = _provenance(sampler, engine_name, seed, workers, options,
                              budgets, fixed_allocation)

    if sampler == "standard":
        from repro.rrsets.imm import imm

        if k <= 0:
            raise AlgorithmError(
                "building a standard index needs a positive budget k")
        extra["k"] = int(k)
        result = imm(graph, k, options=options, rng=seed, workers=workers,
                     keep_collection=True)
        collection = result.collection
        meta.update(k=int(k), algorithm="IMM", seeds=list(result.seeds),
                    estimated_value=result.estimated_value,
                    cap_hit=result.cap_hit,
                    lower_bound=result.lower_bound)
    elif sampler == "marginal":
        from repro.core.seqgrd import seqgrd_nm

        if model is None:
            raise AlgorithmError(
                "building a marginal index needs the utility model "
                "(item budgets drive PRIMA+'s prefix guarantees)")
        if not budgets:
            raise AlgorithmError(
                "building a marginal index needs per-item budgets")
        run = seqgrd_nm(graph, model, budgets, fixed_allocation,
                        options=options, rng=seed, engine=engine_name,
                        workers=workers, keep_rr_collection=True)
        collection = run.details.get("rr_collection")
        meta.update(algorithm="SeqGRD-NM",
                    num_prima_rr_sets=run.details.get("num_rr_sets"),
                    cap_hit=run.details.get("cap_hit", False))
    else:  # weighted
        from repro.core.supgrd import supgrd

        if model is None:
            raise AlgorithmError(
                "building a weighted index needs the utility model")
        if superior_item is None:
            if len(budgets) == 1:
                (superior_item,) = budgets
            else:
                superior_item = model.superior_item()
        if superior_item is None:
            raise AlgorithmError(
                "building a weighted index needs a superior item")
        budget = budgets.get(superior_item, k)
        if budget is None or budget <= 0:
            raise AlgorithmError(
                "building a weighted index needs a positive budget for "
                f"the superior item {superior_item!r}")
        extra["superior_item"] = superior_item
        extra["k"] = int(budget)
        run = supgrd(graph, model, budget, fixed_allocation,
                     superior_item=superior_item,
                     enforce_preconditions=False, options=options,
                     rng=seed, engine=engine_name, workers=workers,
                     keep_rr_collection=True)
        collection = run.details.get("rr_collection")
        meta.update(algorithm="SupGRD", k=int(budget),
                    superior_item=superior_item,
                    superior_utility=run.details.get(
                        "superior_truncated_utility"),
                    estimated_value=run.details.get(
                        "estimated_marginal_welfare"),
                    cap_hit=run.details.get("cap_hit", False))
    if collection is None:
        raise IndexStoreError(
            f"the {meta['algorithm']} build returned no RR collection "
            f"(degenerate instance: empty graph or zero budget?)")

    meta["fingerprint"] = index_fingerprint(
        graph, model, sampler=sampler, engine=engine_name, seed=int(seed),
        extra=extra)
    meta["fingerprint_extra"] = extra
    if meta_extra:
        meta.update(meta_extra)
    # compact: the collection is discarded here but the index may serve for
    # a long time — don't pin the doubling-grown sampling buffers
    return collection.freeze(meta=meta, compact=True)


def build_streaming_index(graph: DirectedGraph,
                          model: Optional[UtilityModel] = None, *,
                          k: Optional[int] = None,
                          out,
                          budgets: Optional[Mapping[str, int]] = None,
                          fixed_allocation: Optional[Allocation] = None,
                          rr_sets: Optional[int] = None,
                          options: Optional[IMMOptions] = None,
                          seed: int = 2020,
                          workers: int = 1,
                          engine: Optional[str] = None,
                          chunk_sets: Optional[int] = None,
                          chunk_members: Optional[int] = None,
                          meta_extra: Optional[Dict[str, Any]] = None
                          ) -> FrozenRRIndex:
    """Build a standard (single-item IMM) index with a bounded working set.

    Completed RR-set chunks of ``chunk_sets`` sets are spilled straight
    into the v2 on-disk layout by a
    :class:`~repro.index.stream.StreamingIndexWriter` instead of
    accumulating in one growable collection, so member-proportional memory
    never exceeds one chunk.  Keyed sets do not depend on how they are
    chunked, so every chunk size and worker count gives the arrays of a
    one-shot ``build_index(..., sampler="standard")`` at the same seed.

    Two modes:

    * ``rr_sets=None`` (adaptive): the full IMM skeleton runs — the
      lower-bound search phase holds its (much smaller) collection in RAM,
      then the final θ sets stream through the writer.
    * ``rr_sets=N`` (fixed θ): skips the adaptive phase and streams
      exactly ``N`` sets — the practical route to million-node tiers,
      where an adaptive θ would be found at smoke scale anyway.  The
      fingerprint hashes ``N`` so fixed-θ indexes never alias adaptive
      ones.

    The node selection recorded in the manifest runs over the finalized
    (memory-mapped) index — bit-identical to selecting over the in-RAM
    collection by the packed-coverage protocol.  Returns the mmap-loaded
    :class:`FrozenRRIndex`; the files are already at ``out``.
    """
    from repro.index.stream import StreamingIndexWriter
    from repro.rrsets.coverage import node_selection
    from repro.rrsets.imm import rr_sampler, run_imm_engine

    options = options or IMMOptions()
    engine_name = resolve_engine(engine)
    fixed_allocation = fixed_allocation or Allocation.empty()
    budgets = dict(budgets or {})
    if k is None:
        k = max(budgets.values()) if budgets else 0
    k = int(k)
    if k <= 0:
        raise AlgorithmError(
            "building a standard index needs a positive budget k")
    workers = max(1, int(workers))
    chunk = max(1, int(chunk_sets or 16_384))

    extra, meta = _provenance("standard", engine_name, seed, workers,
                              options, budgets, fixed_allocation)
    extra["k"] = k
    if rr_sets is not None:
        extra["rr_sets"] = int(rr_sets)
    meta.update(k=k, algorithm="IMM", streamed=True)
    meta["fingerprint"] = index_fingerprint(
        graph, model, sampler="standard", engine=engine_name, seed=int(seed),
        extra=extra)
    meta["fingerprint_extra"] = extra
    if meta_extra:
        meta.update(meta_extra)

    writer_kwargs: Dict[str, Any] = {}
    if chunk_members is not None:
        writer_kwargs["chunk_members"] = int(chunk_members)
    with rr_sampler(graph, "standard", seed, workers) as sample, \
            StreamingIndexWriter(out, graph.num_nodes,
                                 **writer_kwargs) as writer:
        if rr_sets is not None:
            for done in range(0, int(rr_sets), chunk):
                writer.append(sample(min(chunk, int(rr_sets) - done)))
            cap_hit, lower_bound = False, None
        else:
            result = run_imm_engine(
                graph.num_nodes, k, sample,
                max_value=float(graph.num_nodes), options=options,
                final_sink=writer, final_chunk_sets=chunk)
            cap_hit, lower_bound = result.cap_hit, result.lower_bound
        npz_path, manifest_path = writer.finalize(meta=meta)

    index = FrozenRRIndex.load(npz_path, mmap=True)
    selection = node_selection(index, k)
    scale = graph.num_nodes / max(index.num_sets, 1)
    meta.update(seeds=list(selection.seeds),
                estimated_value=selection.covered_weight * scale,
                cap_hit=cap_hit, lower_bound=lower_bound)
    index.meta.update(meta)
    _update_manifest_meta(manifest_path, meta)
    return index


def _update_manifest_meta(manifest_path, meta: Dict[str, Any]) -> None:
    """Rewrite a manifest's ``meta`` block in place (post-build updates)."""
    import json

    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    manifest["meta"] = meta
    Path(manifest_path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str),
        encoding="utf-8")


def expected_index_fingerprint(graph: DirectedGraph,
                               model: Optional[UtilityModel],
                               meta: Mapping[str, Any]) -> str:
    """Recompute the fingerprint a manifest's ``meta`` claims to have.

    Used by loaders to detect stale indexes: the stored
    ``meta["fingerprint_extra"]`` pins the build parameters while the graph
    and model are re-hashed from the live instance.
    """
    return index_fingerprint(
        graph, model,
        sampler=str(meta.get("sampler")),
        engine=str(meta.get("engine")),
        seed=meta.get("seed"),
        extra=dict(meta.get("fingerprint_extra") or {}))


__all__ = [
    "SAMPLER_KINDS",
    "INDEX_SAMPLERS",
    "sampler_mismatch",
    "TASKS_PER_WORKER",
    "ShardSpec",
    "ParallelRRSampler",
    "build_index",
    "build_streaming_index",
    "expected_index_fingerprint",
]
