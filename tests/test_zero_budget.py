"""Shared degenerate-input behaviour: zero budgets and empty graphs.

Every allocator that can meaningfully receive an all-zero budget vector must
return an *empty* :class:`AllocationResult` instead of raising — the
behaviour SupGRD always had for ``budget == 0`` — and the RR samplers must
return empty sets instead of crashing on the empty graph.
"""

import numpy as np
import pytest

from repro.allocation import Allocation
from repro.baselines.celf import celf_greedy_wm
from repro.baselines.greedy_wm import greedy_wm
from repro.baselines.heuristics import (
    degree_allocation,
    random_allocation,
    round_robin,
    snake,
)
from repro.core.supgrd import supgrd
from repro.diffusion.estimators import estimate_spread, estimate_welfare
from repro.engine.reverse import weighted_rr_sets
from repro.graphs.graph import DirectedGraph
from repro.rrsets.rrset import (
    WeightedRRSampler,
    marginal_rr_set,
    random_rr_set,
)
from repro.utility.configs import two_item_config


ZERO_BUDGET_ALGORITHMS = [
    pytest.param(celf_greedy_wm, id="celf_greedy_wm"),
    pytest.param(greedy_wm, id="greedy_wm"),
    pytest.param(round_robin, id="round_robin"),
    pytest.param(snake, id="snake"),
    pytest.param(degree_allocation, id="degree_allocation"),
    pytest.param(random_allocation, id="random_allocation"),
]


class TestZeroBudgetConsistency:
    @pytest.mark.parametrize("algorithm", ZERO_BUDGET_ALGORITHMS)
    def test_all_zero_budgets_return_empty_result(self, algorithm,
                                                  small_er_graph, c1_model):
        result = algorithm(small_er_graph, c1_model, {"i": 0, "j": 0}, rng=1)
        assert result.allocation.is_empty()
        assert result.allocation == Allocation.empty()
        assert result.estimated_welfare is None

    def test_supgrd_zero_budget_returns_empty_result(self, line4):
        model = two_item_config("C6", bounded_noise=True)
        fixed = Allocation({"j": [1]})
        result = supgrd(line4, model, 0, fixed, superior_item="i", rng=1)
        assert result.allocation.is_empty()
        assert result.algorithm == "SupGRD"
        assert result.details["zero_budget"] is True

    def test_zero_budget_evaluates_fixed_allocation_welfare(self, line4):
        model = two_item_config("C6", bounded_noise=True)
        fixed = Allocation({"j": [0]})
        result = supgrd(line4, model, 0, fixed, superior_item="i",
                        evaluate_welfare=True, n_evaluation_samples=40,
                        rng=1)
        # the welfare that actually propagates is the fixed allocation's
        assert result.estimated_welfare is not None
        assert result.estimated_welfare > 0.0

    def test_supgrd_empty_graph_returns_empty_result(self):
        graph = DirectedGraph.from_edges(0, [])
        model = two_item_config("C6", bounded_noise=True)
        result = supgrd(graph, model, 3, Allocation.empty(),
                        superior_item="i", enforce_preconditions=False,
                        rng=1)
        assert result.allocation.is_empty()


class TestEmptyGraphSamplers:
    @pytest.fixture
    def empty_graph(self):
        return DirectedGraph.from_edges(0, [])

    def test_random_rr_set_empty_graph(self, empty_graph, rng):
        assert random_rr_set(empty_graph, rng).tolist() == []

    def test_marginal_rr_set_empty_graph(self, empty_graph, rng):
        assert marginal_rr_set(empty_graph, {0}, rng).tolist() == []

    def test_weighted_rr_sampler_empty_graph(self, empty_graph, rng):
        model = two_item_config("C6", bounded_noise=True)
        sampler = WeightedRRSampler(empty_graph, model, "i",
                                    Allocation.empty(), rng=1)
        rr = sampler.sample(rng)
        assert rr.nodes.tolist() == []
        assert rr.weight == 0.0
        assert rr.root == -1

    def test_weighted_rr_sampler_empty_graph_batch(self, empty_graph, rng):
        model = two_item_config("C6", bounded_noise=True)
        sampler = WeightedRRSampler(empty_graph, model, "i",
                                    Allocation.empty(), rng=1)
        batch = weighted_rr_sets(empty_graph, sampler.node_block_utility,
                                 sampler.superior_utility, 3, rng)
        assert len(batch) == 3
        assert all(nodes.tolist() == [] and weight == 0.0 and root == -1
                   for nodes, weight, root in batch)

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_estimators_empty_graph(self, empty_graph, engine):
        model = two_item_config("C1", noise_sigma=0.0)
        estimate = estimate_welfare(empty_graph, model, Allocation.empty(),
                                    n_samples=5, rng=1, engine=engine)
        assert estimate.mean == 0.0
        assert estimate_spread(empty_graph, [], n_samples=5, rng=1,
                               engine=engine) == 0.0
