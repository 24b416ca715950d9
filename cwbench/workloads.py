"""The four workloads: set-up, measured passes and output checks.

Set-up and checks run in the benchmark's own process.  Every measured pass
runs in a fresh child process (``run.py --child``), so the peak RSS it
reports is that pass's own ``VmHWM``: a child started with ``exec`` gets a
new address space, unlike ``ru_maxrss``, which a forked child inherits from
its parent's peak.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import pickle
import random
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from calibrate import Calibrator
from layers import install, per_layer_metrics

# ----------------------------------------------------------------------
# workload parameters
# ----------------------------------------------------------------------
BUILD_NODES, BUILD_OUT_DEGREE = 50_000, 3
# 8,192 sets (~2 s per build on a 2-CPU host) rather than 32,768: a run needs
# about eight builds for a steady median
BUILD_SETS, BUILD_K, FIRST_QUERY_K = 8_192, 10, 50
#: mmap load + first select, repeated after every build
FIRST_QUERIES = 5

SWEEP_WORKLOAD = dict(network="nethept", scale=0.5, configuration="C1")
SWEEP_ENGINE = dict(epsilon=0.3, max_rr_sets=200_000, workers=1,
                    samples=10)
# one connection: with two, the loop and executor threads both need a CPU,
# and on the shared 2-CPU host whether both were free swung the request
# percentiles by up to 0.44 of their median between identical runs
SWEEP_MAX_BUDGET, SWEEP_CONNECTIONS, SWEEP_COLD_STARTS = 50, 1, 5
#: every cold start asks the same question, so its cost does not vary with
#: the seed's request stream
SWEEP_COLD_BUDGETS = {"i": 25, "j": 25}
SWEEP_CHECKED = 6
#: the closed loop runs in bursts with a calibration sample between them
SWEEP_BURSTS = 5

DRIFT_WORKLOAD = dict(network="nethept", scale=0.2, configuration="C1")
DRIFT_SETS, DRIFT_QUERIES, DRIFT_DELTAS = 40_000, 1_000, 20
DRIFT_FRACTION, DRIFT_BUDGETS, DRIFT_CHECK_K = 0.01, (5, 10, 20, 40), 10
#: events between calibration samples during a replay
DRIFT_CALIBRATE_EVERY = 100

# scale 0.2 (4,660 nodes) rather than 0.5: a pair takes ~4-5 s on a 2-CPU
# host, so a run repeats it several times
PAPER_WORKLOAD = dict(network="douban-book", scale=0.2, configuration="C1")
PAPER_RUNS = (("SeqGRD-NM", {"i": 20, "j": 20}), ("SupGRD", {"i": 20}))
PAPER_SAMPLES = 500
#: the median needs a few pairs even when they overrun --seconds
PAPER_MIN_PAIRS = 3
#: welfare is re-estimated at this seed, independent of the run seed
EVAL_SEED = 20_200_817

#: mixed-kind routing probe: a small instance hosted twice
PROBE_WORKLOAD = dict(network="nethept", scale=0.05, configuration="C1")


def vm_hwm_mib() -> float:
    """This process's peak resident set size, in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _workload_spec(params: Mapping[str, Any], budgets=None):
    from repro.api import WorkloadSpec

    return WorkloadSpec(budgets=budgets, **params)


def _meta_extra(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Manifest fields the registry uses to rebuild and route the instance
    (the same block ``repro index build`` writes)."""
    return {"network": params["network"], "scale": params["scale"],
            "configuration": params["configuration"], "graph_seed": seed,
            "fixed_imm_item": None, "fixed_imm_budget": 50}


def _sweep_spec(seed: int, budgets: Mapping[str, int]):
    from repro.api import EngineConfig, RunSpec

    return RunSpec(algorithm="SeqGRD-NM",
                   workload=_workload_spec(SWEEP_WORKLOAD, dict(budgets)),
                   engine=EngineConfig(seed=seed, **SWEEP_ENGINE))


def sweep_budgets(seed: int, count: int) -> List[Dict[str, int]]:
    """The seeded request stream: budgets i, j drawn from [1, 50]."""
    rng = random.Random(seed)
    return [{"i": rng.randint(1, SWEEP_MAX_BUDGET),
             "j": rng.randint(1, SWEEP_MAX_BUDGET)} for _ in range(count)]


# ----------------------------------------------------------------------
# set-up (benchmark process)
# ----------------------------------------------------------------------
def setup_build(seed: int, directory: Path) -> Dict[str, Any]:
    from repro.graphs import generators
    from repro.graphs.loaders import write_edge_list

    graph = generators.preferential_attachment(
        BUILD_NODES, BUILD_OUT_DEGREE, rng=seed, directed=True,
        name="pa-50k")
    snapshot = directory / "pa-50k.txt.gz"
    write_edge_list(graph, snapshot, include_probabilities=False)
    return {"snapshot": str(snapshot)}


def setup_sweep(seed: int, directory: Path) -> Dict[str, Any]:
    from repro.api.runner import load_graph
    from repro.index import build_index
    from repro.utility.configs import configuration_model

    spec = _sweep_spec(seed, {"i": SWEEP_MAX_BUDGET, "j": SWEEP_MAX_BUDGET})
    engine = spec.engine.resolve()
    graph = load_graph(spec.workload, seed)
    model = configuration_model(SWEEP_WORKLOAD["configuration"])
    index = build_index(
        graph, model, sampler="marginal", budgets=spec.workload.budgets,
        options=engine.imm_options(), seed=seed, workers=engine.workers,
        meta_extra=_meta_extra(SWEEP_WORKLOAD, seed))
    hosted = directory / "hosted"
    index.save(hosted / "sweep")
    return {"index_dir": str(hosted), "key": "sweep",
            "graph": graph, "model": model}


def setup_drift(seed: int, directory: Path) -> Dict[str, Any]:
    from repro.api.runner import load_graph
    from repro.dynamic import build_repairable_index
    from repro.dynamic.replay import make_replay_trace
    from repro.utility.configs import configuration_model

    graph = load_graph(_workload_spec(DRIFT_WORKLOAD), seed)
    model = configuration_model(DRIFT_WORKLOAD["configuration"])
    index = build_repairable_index(
        graph, model, rr_sets=DRIFT_SETS, base_seed=seed,
        meta_extra=_meta_extra(DRIFT_WORKLOAD, seed))
    pristine = directory / "pristine"
    index.save(pristine / "drift")
    events = make_replay_trace(
        graph, num_queries=DRIFT_QUERIES, num_deltas=DRIFT_DELTAS,
        fraction=DRIFT_FRACTION, seed=seed, budgets=DRIFT_BUDGETS)
    events_path = directory / "events.json"
    events_path.write_text(json.dumps(events), encoding="utf-8")
    return {"pristine": str(pristine), "key": "drift",
            "events": str(events_path), "graph": graph, "model": model}


def setup_paper(seed: int, directory: Path) -> Dict[str, Any]:
    from repro.api.runner import load_graph
    from repro.utility.configs import configuration_model

    graph = load_graph(_workload_spec(PAPER_WORKLOAD), seed)
    model = configuration_model(PAPER_WORKLOAD["configuration"])
    instance = directory / "instance.pickle"
    with open(instance, "wb") as handle:
        pickle.dump((graph, model), handle)
    return {"instance": str(instance), "graph": graph, "model": model}


# ----------------------------------------------------------------------
# measured passes (child process)
# ----------------------------------------------------------------------
def child_build(args: Mapping[str, Any], tracer) -> Dict[str, Any]:
    """Offline builds, each from the edge list through the finalized
    on-disk index, each followed by fresh mmap loads and first selects."""
    # module attributes, looked up per call, so wrapping takes effect
    datasets, builder, frozen, service = (
        importlib.import_module(f"repro.{name}") for name in (
            "graphs.datasets", "index.builder", "index.frozen",
            "index.service"))

    def build(number: int) -> Dict[str, Any]:
        out = str(Path(args["work"]) / f"build-{number}" / "index")
        with tracer.request(f"build-{number}"):
            started = time.perf_counter()
            graph = datasets.load_edge_list_network(args["snapshot"],
                                                    directed=True)
            builder.build_streaming_index(
                graph, k=BUILD_K, rr_sets=BUILD_SETS, workers=1,
                seed=args["seed"], out=out)
            built = time.perf_counter()
            rss = vm_hwm_mib()
            first = []
            for _ in range(FIRST_QUERIES):
                queried = time.perf_counter()
                index = frozen.FrozenRRIndex.load(out, mmap=True)
                answer = service.AllocationService(index).query(
                    "select", k=FIRST_QUERY_K)
                first.append(time.perf_counter() - queried)
            finished = time.perf_counter()
        return {"out": out, "build_s": built - started,
                "first_query_s": first, "wall": (started, finished),
                "rss_mib": rss,
                "seeds": next(iter(answer["allocation"].values())),
                "value": answer["estimated_value"]}

    builds: List[Dict[str, Any]] = []
    layers = None
    calibrator = Calibrator()
    if args["mode"] == "trace":
        builds.append(build(0))
        install(tracer)
        builds.append(build(1))
        layers = _finish_trace(tracer, args, builds[1]["wall"])
    else:
        calibrator.sample()
        started = time.perf_counter()
        while _another(started, len(builds), args["seconds"], 2):
            builds.append(build(len(builds)))
            calibrator.sample()
    return {"builds": builds, "layers": layers,
            "kernel_s": calibrator.samples}


def _sweep_request_line(template: Dict[str, Any], number: int,
                        budgets: Mapping[str, int]) -> bytes:
    template["id"] = number
    template["spec"]["workload"]["budgets"] = dict(budgets)
    return json.dumps(template).encode() + b"\n"


async def _sweep_pass(index_dir: str, seed: int, budgets: List[Dict],
                      *, seconds: Optional[float], count: Optional[int],
                      keep: frozenset, bursts: int = 1,
                      between: Optional[Callable[[], None]] = None
                      ) -> Dict[str, Any]:
    """Closed loop: ``SWEEP_CONNECTIONS`` connections, each sending its
    next request when the previous answer arrives, until ``seconds`` pass
    or ``count`` requests were sent.  With ``bursts``, the time is split
    into that many bursts against the same server, and ``between`` runs
    while no request is in flight."""
    from repro.api import make_request
    from repro.serve import AllocationServer, IndexRegistry

    server = AllocationServer(IndexRegistry(directory=index_dir))
    host, port = await server.start_tcp("127.0.0.1", 0)
    template = make_request(_sweep_spec(seed, budgets[0]))
    state = {"next": 0}
    latencies: List[float] = []
    values: List[float] = []
    responses: List[Dict[str, Any]] = []
    kept: Dict[int, Any] = {}
    failures: List[Any] = []
    busy_s = 0.0

    async def connection(deadline: Optional[float]) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                number = state["next"]
                if number >= (count if count is not None else len(budgets)):
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                state["next"] += 1
                line = _sweep_request_line(template, number,
                                           budgets[number])
                sent = time.perf_counter()
                writer.write(line)
                await writer.drain()
                response = json.loads(await reader.readline())
                latencies.append(time.perf_counter() - sent)
                if not response.get("ok"):
                    failures.append(response.get("error"))
                    continue
                values.append(response["welfare"])
                responses.append({"timings": response.get("timings")})
                if number in keep:
                    kept[number] = response["allocation"]
        finally:
            writer.close()
            await writer.wait_closed()

    started = time.perf_counter()
    try:
        for burst in range(bursts):
            if burst and between is not None:
                between()
            burst_started = time.perf_counter()
            deadline = (None if seconds is None
                        else burst_started + seconds / bursts)
            await asyncio.gather(*(connection(deadline)
                                   for _ in range(SWEEP_CONNECTIONS)))
            busy_s += time.perf_counter() - burst_started
        finished = time.perf_counter()
        stats = server.stats_payload()
    finally:
        await server.shutdown(drain=True)
    return {"latencies": latencies, "values": values, "kept": kept,
            "failures": failures, "responses": responses,
            "wall": (started, finished), "busy_s": busy_s,
            "sent": state["next"], "coalescer": stats["coalescer"]}


async def _cold_start(index_dir: str, seed: int,
                      budgets: Mapping[str, int]) -> Tuple[float, bool]:
    """A fresh server's first answer: registry load of the index (mmap,
    fingerprint verification) plus a selection."""
    from repro.api import make_request
    from repro.serve import AllocationServer, IndexRegistry

    server = AllocationServer(IndexRegistry(directory=index_dir))
    host, port = await server.start_tcp("127.0.0.1", 0)
    try:
        reader, writer = await asyncio.open_connection(host, port)
        line = json.dumps(make_request(_sweep_spec(seed, budgets),
                                       request_id=0)).encode() + b"\n"
        sent = time.perf_counter()
        writer.write(line)
        await writer.drain()
        response = json.loads(await reader.readline())
        elapsed = time.perf_counter() - sent
        writer.close()
        await writer.wait_closed()
    finally:
        await server.shutdown(drain=True)
    return elapsed, bool(response.get("ok"))


def sweep_keep(seed: int) -> frozenset:
    """Request numbers whose allocations get checked (all among the
    first 100, which every run sends)."""
    return frozenset(random.Random(seed + 1).sample(range(100),
                                                    SWEEP_CHECKED))


def child_sweep(args: Mapping[str, Any], tracer) -> Dict[str, Any]:
    seed, index_dir = args["seed"], args["index_dir"]
    budgets = sweep_budgets(seed, 100_000)
    keep = sweep_keep(seed)
    out: Dict[str, Any] = {}
    if args["mode"] == "trace":
        untraced = asyncio.run(_sweep_pass(
            index_dir, seed, budgets, seconds=args["seconds"] / 2,
            count=None, keep=keep))
        install(tracer)
        traced = asyncio.run(_sweep_pass(
            index_dir, seed, budgets, seconds=None, count=untraced["sent"],
            keep=keep))
        out.update(untraced=untraced, traced=traced)
        out["layers"] = _finish_trace(
            tracer, args, traced["wall"], responses=traced.pop("responses"),
            coalescer=traced["coalescer"])
    else:
        calibrator = Calibrator()
        out["cold"] = []
        for _ in range(SWEEP_COLD_STARTS):
            calibrator.sample()
            out["cold"].append(asyncio.run(
                _cold_start(index_dir, seed, SWEEP_COLD_BUDGETS)))
        calibrator.sample()
        out["pass"] = asyncio.run(_sweep_pass(
            index_dir, seed, budgets, seconds=args["seconds"], count=None,
            keep=keep, bursts=SWEEP_BURSTS, between=calibrator.sample))
        calibrator.sample()
        out["kernel_s"] = calibrator.samples
    out["rss_mib"] = vm_hwm_mib()
    return out


async def _drift_replay(index_dir: str, key: str, events: List[Dict],
                        seed: int,
                        between: Optional[Callable[[], None]] = None
                        ) -> Dict[str, Any]:
    """Replay the query/delta trace over one ResilientClient connection;
    ``between`` runs every ``DRIFT_CALIBRATE_EVERY`` events, outside the
    timed requests."""
    from repro.serve import AllocationServer, IndexRegistry
    from repro.serve.client import ResilientClient, RetryPolicy

    server = AllocationServer(IndexRegistry(directory=index_dir,
                                            capacity=2))
    host, port = await server.start_tcp("127.0.0.1", 0)
    queries: List[float] = []
    deltas: List[float] = []
    values: List[float] = []
    failures: List[Any] = []
    try:
        async with ResilientClient(tcp=(host, port),
                                   policy=RetryPolicy(seed=seed),
                                   request_timeout_s=120) as client:
            started = time.perf_counter()
            for number, event in enumerate(events):
                if between is not None and number \
                        and number % DRIFT_CALIBRATE_EVERY == 0:
                    between()
                if event["kind"] == "query":
                    request = {"op": "query", "algorithm": "select",
                               "k": int(event["budget"]), "index": key}
                else:
                    request = {"op": "apply-delta",
                               "delta": event["delta"], "index": key}
                sent = time.perf_counter()
                response = await client.request(request)
                elapsed = time.perf_counter() - sent
                if not response.get("ok"):
                    failures.append(response.get("error"))
                elif event["kind"] == "query":
                    queries.append(elapsed)
                    values.append(response["estimated_value"])
                else:
                    deltas.append(elapsed)
            finished = time.perf_counter()
    finally:
        await server.shutdown(drain=True)
    return {"queries": queries, "deltas": deltas, "values": values,
            "failures": failures, "wall": (started, finished)}


def _fresh_copy(pristine: str, target: Path) -> str:
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(pristine, target)
    return str(target)


def child_drift(args: Mapping[str, Any], tracer) -> Dict[str, Any]:
    seed, key = args["seed"], args["key"]
    events = json.loads(Path(args["events"]).read_text(encoding="utf-8"))
    work = Path(args["work"])
    replays: List[Dict[str, Any]] = []
    if args["mode"] == "trace":
        for traced in (False, True):
            index_dir = _fresh_copy(args["pristine"], work / "replay")
            if traced:
                install(tracer)
            replays.append(asyncio.run(
                _drift_replay(index_dir, key, events, seed)))
        layers = _finish_trace(tracer, args, replays[-1]["wall"])
    else:
        layers = None
        calibrator = Calibrator()
        started = time.perf_counter()
        while _another(started, len(replays), args["seconds"], 2):
            index_dir = _fresh_copy(args["pristine"],
                                    work / f"replay-{len(replays)}")
            calibrator.sample()
            replays.append(asyncio.run(_drift_replay(
                index_dir, key, events, seed, between=calibrator.sample)))
        calibrator.sample()
    return {"replays": replays, "final_dir": index_dir,
            "rss_mib": vm_hwm_mib(), "layers": layers,
            "kernel_s": None if layers else calibrator.samples}


def child_paper(args: Mapping[str, Any], tracer) -> Dict[str, Any]:
    from repro.api import EngineConfig, RunSpec, run
    from repro.diffusion import estimators

    with open(args["instance"], "rb") as handle:
        graph, model = pickle.load(handle)
    specs = [RunSpec(algorithm=algorithm,
                     workload=_workload_spec(PAPER_WORKLOAD, budgets),
                     engine=EngineConfig(seed=args["seed"],
                                         samples=PAPER_SAMPLES))
             for algorithm, budgets in PAPER_RUNS]

    def pair(number: int) -> Dict[str, Any]:
        """Both ``api.run`` calls, then the welfare of their allocations
        re-estimated at the evaluation seed."""
        with tracer.request(f"pair-{number}"):
            started = time.perf_counter()
            records = [run(spec, graph=graph, model=model) for spec in specs]
            ran = time.perf_counter()
            welfare = sum(
                estimators.estimate_welfare(
                    graph, model, record.result.combined_allocation(),
                    n_samples=PAPER_SAMPLES, rng=EVAL_SEED).mean
                for record in records)
            finished = time.perf_counter()
        return {"run_s": ran - started, "eval_s": finished - ran,
                "wall": (started, finished), "welfare": welfare,
                "allocations": [
                    {item: [int(v) for v in nodes] for item, nodes
                     in record.result.allocation.as_dict().items()}
                    for record in records]}

    pairs: List[Dict[str, Any]] = []
    if args["mode"] == "trace":
        pairs.append(pair(0))
        install(tracer)
        pairs.append(pair(1))
        layers = _finish_trace(tracer, args, pairs[1]["wall"])
    else:
        layers = None
        calibrator = Calibrator()
        calibrator.sample()
        started = time.perf_counter()
        while _another(started, len(pairs), args["seconds"],
                       PAPER_MIN_PAIRS):
            pairs.append(pair(len(pairs)))
            calibrator.sample()
    return {"pairs": pairs, "num_nodes": graph.num_nodes,
            "rss_mib": vm_hwm_mib(), "layers": layers,
            "kernel_s": None if layers else calibrator.samples}


def _finish_trace(tracer, args: Mapping[str, Any],
                  wall: Tuple[float, float], **extra) -> Dict[str, float]:
    """Stop tracing, write the spans out and derive per-layer metrics."""
    tracer.uninstall()
    tracer.dump(Path(args["trace_file"]), wall[0])
    return per_layer_metrics(tracer, wall, **extra)


def _another(started: float, done: int, seconds: float,
             minimum: int) -> bool:
    """Whether to start another operation: always below ``minimum``, else
    only if one more of average length still ends within ``seconds``."""
    if done < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


CHILDREN: Dict[str, Callable] = {
    "build": child_build, "sweep": child_sweep,
    "drift": child_drift, "paper": child_paper,
}


# ----------------------------------------------------------------------
# output checks (benchmark process, outside every timed region)
# ----------------------------------------------------------------------
def check_build(out: str, seeds: List[int], value: float) -> List[str]:
    """θ sets, monotone offsets ending at len(nodes), and the first
    query's reported coverage re-counted with ``covered_weight``."""
    import numpy as np

    from repro.index import FrozenRRIndex
    from repro.index.frozen import index_paths

    problems = []
    npz_path, _manifest = index_paths(out)
    with np.load(npz_path) as arrays:
        offsets, nodes = arrays["offsets"], arrays["nodes"]
        if len(offsets) - 1 != BUILD_SETS:
            problems.append(f"{len(offsets) - 1} sets, expected "
                            f"{BUILD_SETS}")
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0) \
                or offsets[-1] != len(nodes):
            problems.append("offsets are not monotone from 0 to "
                            "len(nodes)")
    index = FrozenRRIndex.load(out, mmap=True)
    if len(seeds) != FIRST_QUERY_K or len(set(seeds)) != len(seeds):
        problems.append(f"first query returned {len(seeds)} seeds")
    recount = index.covered_weight(seeds) * index.num_nodes / index.num_sets
    if not abs(recount - value) <= 1e-9 * max(1.0, abs(value)):
        problems.append(f"first query reported {value}, covered_weight "
                        f"gives {recount}")
    return problems


def check_sweep(inputs: Mapping[str, Any], seed: int,
                kept: Mapping[int, Any]) -> List[str]:
    """Served allocations equal ``repro.api.run(spec, index=...)``."""
    from repro.api import run
    from repro.index import FrozenRRIndex

    budgets = sweep_budgets(seed, 100)
    index = FrozenRRIndex.load(Path(inputs["index_dir"]) / inputs["key"],
                               mmap=True)
    problems = []
    if len(kept) != SWEEP_CHECKED:
        problems.append(f"only {len(kept)} of {SWEEP_CHECKED} sampled "
                        f"requests were answered")
    for number, served in sorted(kept.items()):
        spec = _sweep_spec(seed, budgets[int(number)])
        record = run(spec, graph=inputs["graph"], model=inputs["model"],
                     index=index)
        direct = {item: [int(v) for v in nodes] for item, nodes
                  in record.result.allocation.as_dict().items()}
        if direct != served:
            problems.append(f"request {number}: served {served} but "
                            f"repro.api.run gives {direct}")
    return problems


def check_drift(inputs: Mapping[str, Any], seed: int,
                final_dir: str) -> List[str]:
    """The repaired index selects what a from-scratch keyed rebuild on
    the drifted graph selects."""
    from repro.dynamic import build_repairable_index, replay_deltas
    from repro.index import FrozenRRIndex
    from repro.rrsets.coverage import node_selection

    final = FrozenRRIndex.load(Path(final_dir) / inputs["key"])
    drifted = replay_deltas(inputs["graph"], final.meta)
    rebuilt = build_repairable_index(drifted, inputs["model"],
                                     rr_sets=DRIFT_SETS, base_seed=seed)
    problems = []
    if len(final.meta["dynamic"]["deltas"]) != DRIFT_DELTAS:
        problems.append("the final index did not record every delta")
    served = node_selection(final, DRIFT_CHECK_K)
    scratch = node_selection(rebuilt, DRIFT_CHECK_K)
    if list(served.seeds) != list(scratch.seeds) \
            or served.covered_weight != scratch.covered_weight:
        problems.append(f"repaired index selects {list(served.seeds)}, "
                        f"a keyed rebuild {list(scratch.seeds)}")
    return problems


def check_paper(pairs: List[Mapping[str, Any]],
                num_nodes: int) -> List[str]:
    """Allocations respect budgets, name valid distinct nodes, and repeat
    exactly across the run's repetitions."""
    problems = []
    for (algorithm, budgets), allocation in zip(PAPER_RUNS,
                                                pairs[0]["allocations"]):
        for item, nodes in allocation.items():
            if len(nodes) > budgets.get(item, 0):
                problems.append(f"{algorithm}: {len(nodes)} seeds for "
                                f"{item!r}, budget {budgets.get(item, 0)}")
            if len(set(nodes)) != len(nodes) or any(
                    not 0 <= v < num_nodes for v in nodes):
                problems.append(f"{algorithm}: invalid seeds for {item!r}")
        if not any(allocation.values()):
            problems.append(f"{algorithm}: empty allocation")
    for other in pairs[1:]:
        if other["allocations"] != pairs[0]["allocations"]:
            problems.append("allocations differ between repetitions")
    return problems


def mixed_kind_probe(seed: int, directory: Path) -> str:
    """Known defect, reported but not gating: one registry hosts a
    marginal and a weighted index of the same workload; a SeqGRD-NM and a
    SupGRD spec must each reach the index of its own kind.  Returns
    ``"ok"`` or a description of the failure."""
    from repro.api import EngineConfig, RunSpec, make_request
    from repro.api.runner import load_graph
    from repro.index import build_index
    from repro.serve import AllocationServer, IndexRegistry
    from repro.utility.configs import configuration_model

    engine = EngineConfig(seed=seed, samples=10)
    graph = load_graph(_workload_spec(PROBE_WORKLOAD), seed)
    model = configuration_model(PROBE_WORKLOAD["configuration"])
    options = engine.resolve().imm_options()
    meta = _meta_extra(PROBE_WORKLOAD, seed)
    for sampler, budgets, superior in (("marginal", {"i": 5, "j": 5}, None),
                                       ("weighted", {"i": 5}, "i")):
        build_index(graph, model, sampler=sampler, budgets=budgets,
                    superior_item=superior, options=options, seed=seed,
                    meta_extra=meta).save(directory / f"mixed-{sampler}")
    server = AllocationServer(IndexRegistry(directory=directory))
    outcomes = []
    for algorithm, budgets in (("SeqGRD-NM", {"i": 5, "j": 5}),
                               ("SupGRD", {"i": 5})):
        spec = RunSpec(algorithm=algorithm,
                       workload=_workload_spec(PROBE_WORKLOAD, budgets),
                       engine=engine)
        response = server.dispatch(make_request(spec, request_id=algorithm))
        if not response.get("ok"):
            outcomes.append(f"{algorithm} -> "
                            f"{response['error']['code']}")
    return "ok" if not outcomes else "defect: " + ", ".join(outcomes)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(values: List[float]) -> Tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, or the
    maximum when there are too few samples for any; with its label."""
    import numpy as np

    count = len(values)
    for percentile in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        if count * (100.0 - percentile) / 100.0 >= 10:
            return (float(np.percentile(values, percentile)),
                    f"p{percentile:g} of {count}")
    return float(max(values)), f"max of {count}"
