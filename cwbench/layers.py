"""Where each layer's entry points are wrapped, and the per-layer metrics
derived from the recorded spans.

Layer names follow the ``src/repro`` modules: ``graphs``, ``engine.reverse``
(``reverse.*``), ``rrsets.rrset`` (``rrset.*``), ``rrsets.coverage``
(``selection.*``, ``coverage.*``), ``rrsets.imm`` / ``core`` (``imm.*``,
``core.*``), ``index.builder`` / ``index.stream`` / ``index.frozen`` /
``index.service`` / ``index.fingerprint``, ``serve`` (``serve.*``,
``registry.*``), ``dynamic`` (``repair.*``) and ``engine.forward``
(``forward.*``).  Every ``*_s`` metric is a self time: the layer's spans
minus the spans of layers they called.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Any, Dict, Iterable, List, Mapping, Tuple

from tracing import Tracer

#: per-layer metric name -> unit, in BENCHMARK.json order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graphs.load_s", "s"),
    ("graphs.edges", "count"),
    ("reverse.sample_s", "s"),
    ("reverse.calls", "count"),
    ("reverse.sets", "count"),
    ("reverse.members", "count"),
    ("reverse.ns_per_member", "ns"),
    ("rrset.sample_s", "s"),
    ("rrset.sets", "count"),
    ("rrset.members", "count"),
    ("rrset.empty_frac", "frac"),
    ("selection.s", "s"),
    ("selection.calls", "count"),
    ("selection.seeds", "count"),
    ("selection.us_per_seed", "us"),
    ("coverage.invert_s", "s"),
    ("imm.s", "s"),
    ("imm.final_sets", "count"),
    ("imm.selection_rounds", "count"),
    ("core.s", "s"),
    ("build.s", "s"),
    ("stream.append_s", "s"),
    ("stream.finalize_s", "s"),
    ("stream.bytes_written", "bytes"),
    ("frozen.load_s", "s"),
    ("frozen.save_s", "s"),
    ("frozen.array_bytes", "bytes"),
    ("fingerprint.s", "s"),
    ("service.query_s", "s"),
    ("service.queries", "count"),
    ("service.cache_hit_frac", "frac"),
    ("serve.parse_ms", "ms"),
    ("serve.validate_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.coalesced_frac", "frac"),
    ("serve.batch_size", "count"),
    ("serve.self_s", "s"),
    ("registry.load_s", "s"),
    ("registry.scan_s", "s"),
    ("repair.s", "s"),
    ("repair.keyed_sample_s", "s"),
    ("repair.sets_resampled", "count"),
    ("repair.frac", "frac"),
    ("repair.persist_s", "s"),
    ("repair.replay_s", "s"),
    ("forward.s", "s"),
    ("forward.worlds", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.unaccounted_frac", "frac"),
    ("trace.spans", "count"),
    ("check.mixed_kind_routing", "bool"),
)


# ----------------------------------------------------------------------
# counters, called with (tracer, result, args, kwargs) at the boundary
# ----------------------------------------------------------------------
def _count_edges(tracer, graph, _args, _kwargs):
    tracer.counts["graphs.edges"] += graph.num_edges


def _count_reverse(tracer, result, _args, _kwargs):
    if isinstance(result, tuple):  # packed: (offsets, nodes, ...)
        sets, members = len(result[0]) - 1, len(result[1])
    else:  # one array (or (nodes, weight, root) triple) per set
        sets = len(result)
        members = sum(len(item[0] if isinstance(item, tuple) else item)
                      for item in result)
    tracer.counts["reverse.sets"] += sets
    tracer.counts["reverse.members"] += members


def _count_rrset(tracer, result, _args, _kwargs):
    nodes = getattr(result, "nodes", result)
    tracer.counts["rrset.sets"] += 1
    tracer.counts["rrset.members"] += len(nodes)
    # a marginal set that hit a fixed seed comes back empty; a weighted
    # set whose root can never adopt carries weight 0
    if len(nodes) == 0 or getattr(result, "weight", 1.0) <= 0.0:
        tracer.counts["rrset.empty"] += 1


def _count_seeds(tracer, result, _args, _kwargs):
    tracer.counts["selection.seeds"] += len(result.seeds)


def _count_final_sets(tracer, result, _args, _kwargs):
    tracer.counts["imm.final_sets"] += result.num_rr_sets


def _count_written(tracer, _result, args, kwargs):
    from repro.index.frozen import index_paths

    out = kwargs.get("out")
    if out is not None:
        tracer.counts["stream.bytes_written"] += sum(
            p.stat().st_size for p in index_paths(out) if p.exists())


def _count_loaded(tracer, index, _args, _kwargs):
    tracer.counts["frozen.array_bytes"] = max(
        tracer.counts["frozen.array_bytes"], index.array_nbytes())


def _count_query(tracer, payload, _args, _kwargs):
    tracer.counts["service.queries"] += 1
    tracer.counts["service.cache_hits"] += bool(payload.get("cached"))


def _count_spec_lookup(tracer, cached, _args, _kwargs):
    # a spec-cache hit answers the request without calling query()
    if cached is not None:
        tracer.counts["service.spec_hits"] += 1


def _count_repair(tracer, outcome, _args, _kwargs):
    tracer.counts["repair.sets_resampled"] += outcome.report.repaired_sets
    tracer.counts["repair.calls"] += 1
    tracer.counts["repair.frac_sum"] += outcome.report.repaired_fraction


def _count_uic_worlds(tracer, result, _args, _kwargs):
    tracer.counts["forward.worlds"] += result.num_worlds


def _count_ic_worlds(tracer, active, _args, _kwargs):
    tracer.counts["forward.worlds"] += len(active)


def _request_arg(args):
    request = args[1] if len(args) > 1 else None
    return request.get("id") if isinstance(request, Mapping) else None


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the four workloads reach."""
    # by module path: several packages re-export a function under its
    # module's name (repro.rrsets.imm, repro.core.seqgrd, ...)
    (protocol, prima, seqgrd, supgrd, estimators, repair, sampling, forward,
     reverse, datasets, builder, fingerprint, frozen, service, stream,
     coverage, imm, rrset, registry, server) = (
        importlib.import_module(f"repro.{name}") for name in (
            "api.protocol", "core.prima", "core.seqgrd", "core.supgrd",
            "diffusion.estimators", "dynamic.repair", "dynamic.sampling",
            "engine.forward", "engine.reverse", "graphs.datasets",
            "index.builder", "index.fingerprint", "index.frozen",
            "index.service", "index.stream", "rrsets.coverage",
            "rrsets.imm", "rrsets.rrset", "serve.registry", "serve.server"))
    # callers that bind entry points by name must be loaded before wrapping
    for name in ("api.runner", "serve.coalescer"):
        importlib.import_module(f"repro.{name}")

    wrap = tracer.wrap
    for name in ("load_network", "load_edge_list_network"):
        wrap(datasets, name, "graphs.load", count=_count_edges)
    for name in ("random_rr_sets_packed", "random_rr_sets",
                 "marginal_rr_sets_packed", "marginal_rr_sets",
                 "weighted_rr_sets_packed", "weighted_rr_sets"):
        wrap(reverse, name, "reverse.sample", count=_count_reverse)
    for name in ("random_rr_set", "marginal_rr_set"):
        wrap(rrset, name, "rrset.sample", count=_count_rrset, leaf=True)
    wrap(rrset.WeightedRRSampler, "sample", "rrset.sample",
         count=_count_rrset, leaf=True)
    wrap(coverage, "node_selection", "selection", count=_count_seeds)
    wrap(coverage, "build_inverted_csr", "coverage.invert")
    wrap(imm, "run_imm_engine", "imm", count=_count_final_sets)
    wrap(prima, "prima_plus", "imm", count=_count_final_sets)
    wrap(seqgrd, "seqgrd_nm", "core")
    wrap(supgrd, "supgrd", "core")
    wrap(builder, "build_streaming_index", "build", count=_count_written)
    wrap(builder, "build_index", "build")
    for name in ("append", "append_packed"):
        wrap(stream.StreamingIndexWriter, name, "stream.append")
    wrap(stream.StreamingIndexWriter, "finalize", "stream.finalize")
    wrap(frozen.FrozenRRIndex, "load", "frozen.load", count=_count_loaded)
    wrap(frozen.FrozenRRIndex, "save", "frozen.save")
    wrap(fingerprint, "index_fingerprint", "fingerprint")
    wrap(service.AllocationService, "query", "service.query",
         count=_count_query)
    wrap(service.AllocationService, "cached_spec_response",
         "service.spec_cache", count=_count_spec_lookup, leaf=True)
    wrap(server.AllocationServer, "dispatch", "serve.dispatch",
         request=_request_arg)
    wrap(server.AllocationServer, "parse_line", "serve.parse")
    wrap(server.AllocationServer, "encode_response", "serve.encode")
    wrap(protocol, "prepare_request", "serve.validate",
         request=_request_arg)
    wrap(protocol, "execute_prepared", "serve.execute",
         request=lambda args: args[1].request_id)
    wrap(protocol, "execute_prepared_batch", "serve.execute",
         request=lambda args: args[1][0].request_id if args[1] else None)
    wrap(registry, "load_service", "registry.load")
    wrap(registry.IndexRegistry, "scan", "registry.scan")
    wrap(repair.RRRepairEngine, "repair", "repair", count=_count_repair)
    wrap(sampling, "keyed_rr_sets", "repair.keyed_sample")
    wrap(repair, "save_repaired", "repair.persist")
    wrap(repair, "replay_deltas", "repair.replay")
    wrap(forward, "simulate_uic_batch", "forward.simulate",
         count=_count_uic_worlds)
    wrap(forward, "simulate_ic_batch", "forward.simulate",
         count=_count_ic_worlds)
    wrap(estimators, "estimate_welfare", "forward.estimate")


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, wall: Tuple[float, float], *,
                      responses: List[Mapping[str, Any]] = (),
                      coalescer: Mapping[str, Any] = None
                      ) -> Dict[str, float]:
    """Per-layer values of one traced pass spanning ``wall``.

    ``responses`` are the v1 responses of the pass (their ``timings.spans``
    give the serve-stage medians); ``coalescer`` is the server's
    ``stats_payload()["coalescer"]`` block.  ``trace.overhead_frac`` and
    ``check.mixed_kind_routing`` are filled in by the caller.
    """
    own = tracer.self_times()
    inclusive = tracer.inclusive_times()
    counts = tracer.counts
    start, end = wall
    out: Dict[str, float] = {}
    out["graphs.load_s"] = own.get("graphs.load", 0.0)
    out["graphs.edges"] = counts["graphs.edges"]
    out["reverse.sample_s"] = own.get("reverse.sample", 0.0)
    out["reverse.calls"] = tracer.calls("reverse.sample")
    out["reverse.sets"] = counts["reverse.sets"]
    out["reverse.members"] = counts["reverse.members"]
    out["reverse.ns_per_member"] = 1e9 * _ratio(
        out["reverse.sample_s"], out["reverse.members"])
    out["rrset.sample_s"] = own.get("rrset.sample", 0.0)
    out["rrset.sets"] = counts["rrset.sets"]
    out["rrset.members"] = counts["rrset.members"]
    out["rrset.empty_frac"] = _ratio(counts["rrset.empty"],
                                     counts["rrset.sets"])
    out["selection.s"] = own.get("selection", 0.0)
    out["selection.calls"] = tracer.calls("selection")
    out["selection.seeds"] = counts["selection.seeds"]
    out["selection.us_per_seed"] = 1e6 * _ratio(out["selection.s"],
                                                out["selection.seeds"])
    out["coverage.invert_s"] = own.get("coverage.invert", 0.0)
    out["imm.s"] = own.get("imm", 0.0)
    out["imm.final_sets"] = counts["imm.final_sets"]
    out["imm.selection_rounds"] = tracer.count_inside("selection", "imm")
    out["core.s"] = own.get("core", 0.0)
    out["build.s"] = own.get("build", 0.0)
    out["stream.append_s"] = own.get("stream.append", 0.0)
    out["stream.finalize_s"] = own.get("stream.finalize", 0.0)
    out["stream.bytes_written"] = counts["stream.bytes_written"]
    out["frozen.load_s"] = own.get("frozen.load", 0.0)
    out["frozen.save_s"] = own.get("frozen.save", 0.0)
    out["frozen.array_bytes"] = counts["frozen.array_bytes"]
    out["fingerprint.s"] = own.get("fingerprint", 0.0)
    out["service.query_s"] = own.get("service.query", 0.0) + own.get(
        "service.spec_cache", 0.0)
    out["service.queries"] = counts["service.queries"]
    answered = counts["service.queries"] + counts["service.spec_hits"]
    out["service.cache_hit_frac"] = _ratio(
        counts["service.cache_hits"] + counts["service.spec_hits"],
        answered)
    for stage in ("parse", "validate", "queue", "execute"):
        out[f"serve.{stage}_ms"] = _median(
            r["timings"]["spans"][stage] for r in responses
            if stage in ((r.get("timings") or {}).get("spans") or {}))
    blocks = list((coalescer or {}).values())
    out["serve.coalesced_frac"] = _ratio(
        sum(b["coalesced"] for b in blocks),
        sum(b["requests"] for b in blocks))
    out["serve.batch_size"] = _ratio(
        sum(b["batched_requests"] for b in blocks),
        sum(b["batches"] for b in blocks))
    out["serve.self_s"] = sum(seconds for name, seconds in own.items()
                              if name.startswith("serve."))
    out["registry.load_s"] = own.get("registry.load", 0.0)
    out["registry.scan_s"] = own.get("registry.scan", 0.0)
    out["repair.s"] = own.get("repair", 0.0)
    out["repair.keyed_sample_s"] = own.get("repair.keyed_sample", 0.0)
    out["repair.sets_resampled"] = counts["repair.sets_resampled"]
    out["repair.frac"] = _ratio(counts["repair.frac_sum"],
                                counts["repair.calls"])
    out["repair.persist_s"] = inclusive.get("repair.persist", 0.0)
    out["repair.replay_s"] = own.get("repair.replay", 0.0)
    out["forward.s"] = own.get("forward.simulate", 0.0) + own.get(
        "forward.estimate", 0.0)
    out["forward.worlds"] = counts["forward.worlds"]
    out["trace.unaccounted_frac"] = 1.0 - _ratio(
        tracer.covered_seconds(start, end), end - start)
    out["trace.spans"] = len(tracer.spans)
    return {name: float(value) for name, value in out.items()}
