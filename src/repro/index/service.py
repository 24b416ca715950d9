"""Allocation-query serving against a shared, prebuilt RR-set index.

Once a :class:`~repro.index.frozen.FrozenRRIndex` is built (minutes of
sampling), every allocation query against it is a greedy maximum-coverage
selection (milliseconds).  :class:`AllocationService` is the serving layer:

* it answers ``(algorithm, budgets)`` queries via the existing
  :func:`~repro.rrsets.coverage.node_selection` greedy — through
  ``seqgrd``/``supgrd`` with the prebuilt index, so served allocations are
  identical to direct runs;
* repeated queries hit an LRU result cache, and every selection is a
  prefix of the greedy order the index caches (see
  :func:`~repro.rrsets.coverage.node_selection`);
* :meth:`AllocationService.handle_request` speaks the JSON request/response
  dialect of the ``repro serve`` stdin/stdout loop, and
  :meth:`AllocationService.query_batch` answers many queries in one call.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.allocation import Allocation
from repro.exceptions import AlgorithmError, ReproError
from repro.graphs.graph import DirectedGraph
from repro.index.frozen import FrozenRRIndex
from repro.rrsets.coverage import node_selection
from repro.utility.model import UtilityModel

#: algorithms the service can answer (aliases normalized by _normalize)
SERVICE_ALGORITHMS = ("select", "SeqGRD-NM", "SupGRD")

_ALIASES = {
    "select": "select",
    "topk": "select",
    "imm": "select",
    "seqgrd-nm": "SeqGRD-NM",
    "seqgrdnm": "SeqGRD-NM",
    "supgrd": "SupGRD",
}

QueryKey = Tuple[str, Tuple[Tuple[str, int], ...]]


class AllocationService:
    """Serve repeated allocation queries from one loaded RR-set index.

    Parameters
    ----------
    index:
        The shared :class:`FrozenRRIndex` (typically ``FrozenRRIndex.load``
        output, fingerprint-verified by the caller).
    graph, model:
        The live CWelMax instance; required for the ``SeqGRD-NM`` and
        ``SupGRD`` algorithms (item ordering and result assembly), optional
        for plain ``select`` queries.
    fixed_allocation:
        The fixed allocation ``S_P`` the index was built against.
    cache_size:
        Maximum number of distinct query results kept in the LRU cache.
    """

    def __init__(self, index: FrozenRRIndex,
                 graph: Optional[DirectedGraph] = None,
                 model: Optional[UtilityModel] = None,
                 fixed_allocation: Optional[Allocation] = None,
                 cache_size: int = 128) -> None:
        if graph is not None and graph.num_nodes != index.num_nodes:
            raise AlgorithmError(
                f"index covers {index.num_nodes} nodes but the graph has "
                f"{graph.num_nodes}; rebuild the index")
        self._index = index
        self._graph = graph
        self._model = model
        self._fixed = fixed_allocation or Allocation.empty()
        self._cache: "OrderedDict[QueryKey, Dict[str, Any]]" = OrderedDict()
        #: versioned-protocol responses, keyed by RunSpec.fingerprint()
        self._spec_cache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._cache_size = max(0, int(cache_size))
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._spec_hits = 0
        self._spec_misses = 0
        self._spec_evictions = 0

    # ------------------------------------------------------------------
    @property
    def index(self) -> FrozenRRIndex:
        """The shared index queries are answered from."""
        return self._index

    @property
    def graph(self) -> Optional[DirectedGraph]:
        """The live graph (None for index-only services)."""
        return self._graph

    @property
    def model(self) -> Optional[UtilityModel]:
        """The live utility model (None for index-only services)."""
        return self._model

    @property
    def cache_stats(self) -> Dict[str, Any]:
        """LRU statistics for both caches.

        Both the query cache and the spec-fingerprint cache are bounded by
        ``cache_size`` *entries* (the eviction counters below are the
        regression surface for that cap); the spec cache reports its own
        hit/miss/eviction counters under ``"spec_cache"``.
        """
        return {"hits": self._hits, "misses": self._misses,
                "size": len(self._cache), "capacity": self._cache_size,
                "evictions": self._evictions,
                "spec_cache": {"hits": self._spec_hits,
                               "misses": self._spec_misses,
                               "size": len(self._spec_cache),
                               "capacity": self._cache_size,
                               "evictions": self._spec_evictions}}

    @property
    def memory_stats(self) -> Dict[str, Any]:
        """Index memory accounting, measured from the arrays themselves.

        ``array_bytes`` sums ``nbytes`` over every index array (so int32
        stores report half the member bytes of int64 ones — nothing here
        assumes 8-byte ids); ``resident_bytes`` excludes memory-mapped
        arrays, whose pages live in the reclaimable page cache.
        """
        return {"array_bytes": self._index.array_nbytes(),
                "resident_bytes": self._index.resident_nbytes(),
                "mmapped": self._index.mmapped}

    # ------------------------------------------------------------------
    # RunSpec-fingerprint cache (the versioned serve protocol's key)
    # ------------------------------------------------------------------
    def cached_spec_response(self, fingerprint: str
                             ) -> Optional[Dict[str, Any]]:
        """LRU lookup of a v1 response by :meth:`RunSpec.fingerprint`."""
        cached = self._spec_cache.get(fingerprint)
        if cached is not None:
            self._spec_hits += 1
            self._spec_cache.move_to_end(fingerprint)
        else:
            self._spec_misses += 1
        return cached

    def store_spec_response(self, fingerprint: str,
                            payload: Dict[str, Any]) -> None:
        """Cache a v1 response under its spec fingerprint (entry-capped)."""
        if not self._cache_size:
            return
        self._spec_cache[fingerprint] = payload
        while len(self._spec_cache) > self._cache_size:
            self._spec_cache.popitem(last=False)
            self._spec_evictions += 1

    # ------------------------------------------------------------------
    def query(self, algorithm: str = "select",
              budgets: Optional[Mapping[str, int]] = None,
              k: Optional[int] = None) -> Dict[str, Any]:
        """Answer one allocation query.

        Returns a JSON-serializable payload with the allocation, the
        coverage-based objective estimate and cache provenance
        (``cached=True`` when the result came from the LRU).
        """
        algorithm = self._normalize(algorithm)
        budgets = self._normalize_budgets(algorithm, budgets, k)
        key: QueryKey = (algorithm, tuple(sorted(budgets.items())))
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            self._cache.move_to_end(key)
            return dict(cached, cached=True)
        self._misses += 1
        payload = self._answer(algorithm, budgets)
        if self._cache_size:
            self._cache[key] = payload
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
                self._evictions += 1
        return dict(payload, cached=False)

    def query_batch(self, requests: Sequence[Mapping[str, Any]]
                    ) -> List[Dict[str, Any]]:
        """Answer many queries in one call (shares the cache and greedy
        order across them, so sweeps over budgets are near-free)."""
        return [self.query(algorithm=request.get("algorithm", "select"),
                           budgets=request.get("budgets"),
                           k=request.get("k", request.get("budget")))
                for request in requests]

    # ------------------------------------------------------------------
    def _normalize(self, algorithm: str) -> str:
        normalized = _ALIASES.get(str(algorithm).strip().lower())
        if normalized is None:
            raise AlgorithmError(
                f"unknown service algorithm {algorithm!r}; "
                f"expected one of {list(SERVICE_ALGORITHMS)}")
        return normalized

    def _normalize_budgets(self, algorithm: str,
                           budgets: Optional[Mapping[str, int]],
                           k: Optional[int]) -> Dict[str, int]:
        if budgets:
            out = {str(item): int(b) for item, b in budgets.items()}
        elif k is not None:
            if algorithm == "select":
                out = {"seeds": int(k)}
            elif algorithm == "SupGRD":
                item = self._index.meta.get("superior_item")
                if item is None:
                    raise AlgorithmError(
                        "a SupGRD query without budgets needs the index "
                        "manifest to record the superior item")
                out = {str(item): int(k)}
            else:
                raise AlgorithmError(
                    f"{algorithm} queries need per-item budgets")
        else:
            out = {str(item): int(b) for item, b
                   in (self._index.meta.get("budgets") or {}).items()}
        if not out or any(b < 0 for b in out.values()):
            raise AlgorithmError(
                "queries need a positive budget (per item or k)")
        return out

    def _answer(self, algorithm: str,
                budgets: Dict[str, int]) -> Dict[str, Any]:
        index = self._index
        scale = index.num_nodes / max(index.num_sets, 1)
        if algorithm == "select":
            k = max(budgets.values())
            selection = node_selection(index, k)
            item = next(iter(budgets))
            allocation = {item: list(selection.seeds)}
            value = selection.covered_weight * scale
            extra: Dict[str, Any] = {}
        elif algorithm == "SupGRD":
            from repro.core.supgrd import supgrd

            self._require_instance(algorithm)
            if len(budgets) != 1:
                raise AlgorithmError("SupGRD allocates exactly one item")
            ((item, budget),) = budgets.items()
            result = supgrd(self._graph, self._model, budget, self._fixed,
                            superior_item=item, enforce_preconditions=False,
                            index=index, rng=0)
            allocation = {name: list(nodes) for name, nodes
                          in result.allocation.as_dict().items()}
            value = result.details.get("estimated_marginal_welfare", 0.0)
            extra = {"superior_item": item}
        else:  # SeqGRD-NM
            from repro.core.seqgrd import seqgrd_nm

            self._require_instance(algorithm)
            result = seqgrd_nm(self._graph, self._model, budgets,
                               self._fixed, index=index, rng=0)
            allocation = {name: list(nodes) for name, nodes
                          in result.allocation.as_dict().items()}
            value = result.details.get("pool_marginal_spread", 0.0)
            extra = {"item_order": result.details.get("item_order")}
        payload: Dict[str, Any] = {
            "algorithm": algorithm,
            "budgets": budgets,
            "allocation": allocation,
            "estimated_value": float(value),
            "num_rr_sets": index.num_sets,
        }
        payload.update(extra)
        return payload

    def _require_instance(self, algorithm: str) -> None:
        if self._graph is None or self._model is None:
            raise AlgorithmError(
                f"{algorithm} queries need the graph and utility model; "
                f"construct the AllocationService with both (repro serve "
                f"rebuilds them from the index manifest)")

    # ------------------------------------------------------------------
    # dynamic graphs: in-memory repair
    # ------------------------------------------------------------------
    def apply_delta(self, delta: Any) -> Dict[str, Any]:
        """Repair the hosted index under a graph delta, in memory.

        ``delta`` is a :class:`repro.dynamic.GraphDelta` or its dict
        form.  The hosted index must be repairable (built keyed, see
        :func:`repro.dynamic.build_repairable_index`) and the service
        must hold its graph.  On success the service swaps to the
        repaired index + drifted graph and drops both response caches
        (they keyed the old arrays).
        Returns the repair report.  The swap is in-memory only — the
        registry's ``apply_delta`` adds the persist-and-rescan step for
        disk-backed indexes.
        """
        from repro.dynamic.delta import GraphDelta
        from repro.dynamic.repair import RRRepairEngine

        if self._graph is None:
            raise AlgorithmError(
                "apply-delta needs the graph; construct the "
                "AllocationService with one (repro serve rebuilds it "
                "from the index manifest)")
        if not isinstance(delta, GraphDelta):
            delta = GraphDelta.from_dict(delta)
        engine = RRRepairEngine(self._index, self._graph, self._model)
        outcome = engine.repair(delta)
        self._index = outcome.index
        self._graph = outcome.graph
        self._cache.clear()
        self._spec_cache.clear()
        return outcome.report.to_dict()

    # ------------------------------------------------------------------
    # the `repro serve` JSON-lines dialect
    # ------------------------------------------------------------------
    def handle_request(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Answer one JSON request from the serve loop.

        Requests carrying a ``"v"`` key speak the versioned
        :mod:`repro.api.protocol` dialect (``{"v": 1, "spec": {...}}``)
        and are delegated to it.  Otherwise the legacy dialect applies:
        ``{"op": "query", "algorithm": ..., "budgets": {...}}`` (the
        default op) answers an allocation query; ``"stats"`` reports cache
        statistics; ``"ping"`` checks liveness.  Errors are returned as
        ``{"ok": false, "error": ...}`` rather than raised, so one bad
        request does not kill the serving loop.
        """
        if "v" in request:
            from repro.api.protocol import handle_versioned_request

            return handle_versioned_request(self, request)
        response: Dict[str, Any] = {}
        if "id" in request:
            response["id"] = request["id"]
        op = str(request.get("op", "query")).strip().lower()
        started = time.perf_counter()
        try:
            if op == "ping":
                response.update(ok=True, pong=True)
            elif op == "stats":
                response.update(ok=True, stats=self.cache_stats,
                                memory=self.memory_stats,
                                num_rr_sets=self._index.num_sets,
                                num_nodes=self._index.num_nodes)
            elif op == "query":
                payload = self.query(
                    algorithm=request.get(
                        "algorithm",
                        self._index.meta.get("algorithm", "select")),
                    budgets=request.get("budgets"),
                    k=request.get("k", request.get("budget")))
                response.update(ok=True, **payload)
            elif op == "apply-delta":
                report = self.apply_delta(request.get("delta") or {})
                response.update(ok=True, repair=report)
            else:
                raise AlgorithmError(
                    f"unknown op {op!r}; expected query, apply-delta, "
                    f"stats or ping")
        except ReproError as error:
            response.update(ok=False, error=str(error))
        except (TypeError, ValueError, AttributeError, KeyError) as error:
            # malformed request payloads (budgets of the wrong shape,
            # non-integer k, ...) must not kill the serving loop
            response.update(ok=False,
                            error=f"malformed request: {error}")
        response["latency_ms"] = round(
            (time.perf_counter() - started) * 1e3, 3)
        return response


__all__ = ["SERVICE_ALGORITHMS", "AllocationService"]
