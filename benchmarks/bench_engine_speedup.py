"""Benchmark: scalar vs. vectorized engine on the Monte-Carlo hot paths.

Times ``estimate_welfare`` (1000 samples) under both ``engine="python"``
and ``engine="vectorized"``, and RR-set generation with the scalar oracle
against the keyed batched sampler, on a smoke-scale weighted-cascade graph;
asserts the vectorized engine is at least 5x faster on welfare estimation,
and writes the measurements to
``benchmarks/BENCH_engine.json`` so the performance trajectory of the
engine is recorded run over run.

Scale is controlled by ``REPRO_BENCH_SCALE`` like the rest of the suite;
larger scales grow the graph, which widens (never shrinks) the gap between
the per-node Python loops and the batched numpy engine.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from conftest import report

from repro.allocation import Allocation
from repro.diffusion.estimators import estimate_welfare
from repro.engine.reverse import random_rr_sets
from repro.graphs import generators, weighting
from repro.rrsets.rrset import random_rr_set
from repro.utility.configs import two_item_config
from repro.utils.rng import ensure_rng

ARTIFACT = Path(__file__).resolve().parent / "BENCH_engine.json"

#: welfare estimation workload (the acceptance-criterion setting)
N_WELFARE_SAMPLES = 1_000
#: RR-set generation workload
N_RR_SETS = 2_000

_GRAPH_NODES = {"smoke": 200, "default": 1_000, "large": 4_000}


def _smoke_graph(scale):
    nodes = _GRAPH_NODES.get(scale.name, 200)
    graph = generators.erdos_renyi(nodes, avg_degree=8.0, rng=7,
                                   directed=True,
                                   name=f"er{nodes}-bench")
    return weighting.weighted_cascade(graph)


def _time(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def test_engine_speedup(scale):
    graph = _smoke_graph(scale)
    model = two_item_config("C1")
    allocation = Allocation({"i": [0, 1, 2, 3, 4], "j": [5, 6, 7, 8, 9]})

    welfare_scalar_s = _time(lambda: estimate_welfare(
        graph, model, allocation, n_samples=N_WELFARE_SAMPLES, rng=1,
        engine="python"))
    welfare_vectorized_s = _time(lambda: estimate_welfare(
        graph, model, allocation, n_samples=N_WELFARE_SAMPLES, rng=1,
        engine="vectorized"))
    welfare_speedup = welfare_scalar_s / max(welfare_vectorized_s, 1e-9)

    def scalar_rr():
        rng = ensure_rng(2)
        for _ in range(N_RR_SETS):
            random_rr_set(graph, rng)

    rr_scalar_s = _time(scalar_rr)
    rr_vectorized_s = _time(
        lambda: random_rr_sets(graph, N_RR_SETS, rng=ensure_rng(2)))
    rr_speedup = rr_scalar_s / max(rr_vectorized_s, 1e-9)

    rows = [
        {"workload": f"estimate_welfare x{N_WELFARE_SAMPLES}",
         "scalar_s": round(welfare_scalar_s, 4),
         "vectorized_s": round(welfare_vectorized_s, 4),
         "speedup": round(welfare_speedup, 1)},
        {"workload": f"random RR sets x{N_RR_SETS}",
         "scalar_s": round(rr_scalar_s, 4),
         "vectorized_s": round(rr_vectorized_s, 4),
         "speedup": round(rr_speedup, 1)},
    ]
    report(f"Engine speedup — {graph.name} "
           f"({graph.num_nodes} nodes, {graph.num_edges} edges)", rows,
           columns=["workload", "scalar_s", "vectorized_s", "speedup"])

    ARTIFACT.write_text(json.dumps({
        "benchmark": "engine_speedup",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": scale.name,
        "graph": {"name": graph.name, "nodes": graph.num_nodes,
                  "edges": graph.num_edges},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "welfare": {"n_samples": N_WELFARE_SAMPLES,
                    "scalar_seconds": welfare_scalar_s,
                    "vectorized_seconds": welfare_vectorized_s,
                    "speedup": welfare_speedup},
        "rr_sets": {"count": N_RR_SETS,
                    "scalar_seconds": rr_scalar_s,
                    "vectorized_seconds": rr_vectorized_s,
                    "speedup": rr_speedup},
    }, indent=2) + "\n")

    assert welfare_speedup >= 5.0, (
        f"vectorized estimate_welfare must be >= 5x faster than the scalar "
        f"oracle, measured {welfare_speedup:.1f}x")
    assert rr_speedup >= 1.0, (
        f"vectorized RR generation must not be slower than scalar, "
        f"measured {rr_speedup:.1f}x")
