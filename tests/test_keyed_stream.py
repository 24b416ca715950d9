"""The keyed RR-set stream against exact possible-world enumeration, and
its split invariance.

On graphs with at most 12 edges every possible world can be enumerated,
which gives the exact probability that a node lies in RR(root), the exact
probability that a marginal RR set is discarded and the exact expected
weight of a weighted RR set.  Every sampler — the public batched samplers,
the keyed sampler of :mod:`repro.dynamic` and the scalar oracle — must
match these within binomial tolerances at fixed seeds.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation import Allocation
from repro.core.prima import prima_plus
from repro.core.supgrd import supgrd
from repro.dynamic.sampling import keyed_roots, keyed_rr_sets
from repro.engine import reverse
from repro.graphs.graph import DirectedGraph
from repro.index import builder
from repro.index.builder import ParallelRRSampler, ShardSpec, _sample_shard
from repro.rrsets.coverage import PackedRRBatch
from repro.rrsets.imm import IMMOptions, imm, marginal_imm
from repro.rrsets.rrset import (WeightedRRSampler, marginal_rr_set,
                                random_rr_set)
from repro.utility.configs import two_item_config

#: superior-item utility of the weighted sets
SUPERIOR = 1.0

#: (name, n, edges, block utilities): a line, a star with a back edge and
#: a small DAG, all with mixed probabilities
CASES = [
    ("line", 5,
     [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.7), (3, 4, 0.3)],
     {1: 0.3}),
    ("star", 7,
     [(leaf, 0, p) for leaf, p in zip(range(1, 7),
                                      (0.2, 0.8, 0.5, 0.35, 0.6, 0.9))]
     + [(0, 1, 0.5)],
     {3: 0.2, 5: 0.6}),
    ("dag", 6,
     [(0, 1, 0.6), (0, 2, 0.3), (1, 3, 0.5), (2, 3, 0.8), (1, 4, 0.4),
      (3, 5, 0.7), (4, 5, 0.5), (2, 4, 0.2), (0, 5, 0.1)],
     {1: 0.4, 2: 0.7}),
]


def _distances(n, live_edges, root):
    """BFS distance of every node to ``root`` along live edges (-1: none)."""
    into = [[] for _ in range(n)]
    for src, dst in live_edges:
        into[dst].append(src)
    dist = [-1] * n
    dist[root] = 0
    level = [root]
    while level:
        following = []
        for node in level:
            for src in into[node]:
                if dist[src] < 0:
                    dist[src] = dist[node] + 1
                    following.append(src)
        level = following
    return dist


def exact_quantities(n, edges, block):
    """Exact statistics of one RR set with a uniform root.

    Returns the per-node membership probabilities of standard, surviving
    marginal and weighted sets, the discard probability of marginal sets
    and the mean and variance of the weighted sets' weight.
    """
    standard, marginal, weighted = np.zeros(n), np.zeros(n), np.zeros(n)
    discard = mean = square = 0.0
    for coins in itertools.product((False, True), repeat=len(edges)):
        world = 1.0
        for (_, _, p), live in zip(edges, coins):
            world *= p if live else 1.0 - p
        live_edges = [(u, v) for (u, v, _), live in zip(edges, coins)
                      if live]
        for root in range(n):
            weight = world / n
            dist = np.array(_distances(n, live_edges, root))
            reach = dist >= 0
            standard += weight * reach
            hits = [b for b in block if reach[b]]
            if hits:
                discard += weight
                level = min(dist[b] for b in hits)
                weighted += weight * (reach & (dist <= level))
                value = max(0.0, SUPERIOR - max(block[b] for b in hits
                                                if dist[b] == level))
            else:
                marginal += weight * reach
                weighted += weight * reach
                value = SUPERIOR
            mean += weight * value
            square += weight * value ** 2
    return {"standard": standard, "marginal": marginal,
            "weighted": weighted, "discard": discard,
            "weight_mean": mean, "weight_var": square - mean ** 2}


def assert_frequency(observed, exact, draws):
    """Binomial agreement at 5 sigma (exact zeros and ones must match)."""
    observed, exact = np.asarray(observed), np.asarray(exact)
    sigma = np.sqrt(exact * (1.0 - exact) / draws)
    assert np.all(np.abs(observed - exact) <= 5.0 * sigma + 1e-12), \
        (observed, exact)


def membership(sets, n):
    counts = np.zeros(n)
    for nodes in sets:
        counts[np.asarray(nodes, dtype=np.int64)] += 1
    return counts / len(sets)


def assert_weights(weights, exact):
    weights = np.asarray(weights)
    tolerance = 5.0 * np.sqrt(exact["weight_var"] / len(weights)) + 1e-12
    assert abs(weights.mean() - exact["weight_mean"]) <= tolerance


@pytest.fixture(params=CASES, ids=[case[0] for case in CASES])
def case(request):
    name, n, edges, block = request.param
    graph = DirectedGraph.from_edges(n, edges, name=name)
    return graph, block, exact_quantities(n, edges, block)


class TestExactOracle:
    DRAWS = 20_000

    def test_public_samplers(self, case):
        graph, block, exact = case
        n = graph.num_nodes
        offsets, nodes = reverse.random_rr_sets_packed(graph, self.DRAWS, 3)
        assert_frequency(membership(np.split(nodes, offsets[1:-1]), n),
                         exact["standard"], self.DRAWS)
        offsets, nodes = reverse.marginal_rr_sets_packed(
            graph, set(block), self.DRAWS, 4)
        sizes = np.diff(offsets)
        assert_frequency((sizes == 0).mean(), exact["discard"], self.DRAWS)
        assert_frequency(membership(np.split(nodes, offsets[1:-1]), n),
                         exact["marginal"], self.DRAWS)
        offsets, nodes, weights, _ = reverse.weighted_rr_sets_packed(
            graph, block, SUPERIOR, self.DRAWS, 5)
        assert_frequency(membership(np.split(nodes, offsets[1:-1]), n),
                         exact["weighted"], self.DRAWS)
        assert_weights(weights, exact)

    def test_keyed_sampler(self, case):
        graph, block, exact = case
        n = graph.num_nodes
        indices = np.arange(self.DRAWS)
        roots = keyed_roots(6, indices, n)

        def sample(kind):
            return keyed_rr_sets(graph, indices, roots, 6, kind=kind,
                                 blocked=sorted(block),
                                 node_block_utility=block,
                                 superior_utility=SUPERIOR)

        assert_frequency(membership([m for m, _ in sample("standard")], n),
                         exact["standard"], self.DRAWS)
        # dead marginal sets keep their walk and carry weight 0
        dead = [weight == 0.0 for _, weight in sample("marginal")]
        assert_frequency(np.mean(dead), exact["discard"], self.DRAWS)
        weighted = sample("weighted")
        assert_frequency(membership([m for m, _ in weighted], n),
                         exact["weighted"], self.DRAWS)
        assert_weights([w for _, w in weighted], exact)

    def test_scalar_oracle(self, case):
        graph, block, exact = case
        n, draws = graph.num_nodes, 6_000
        rng = np.random.default_rng(7)
        assert_frequency(
            membership([random_rr_set(graph, rng) for _ in range(draws)], n),
            exact["standard"], draws)
        marginal = [marginal_rr_set(graph, set(block), rng)
                    for _ in range(draws)]
        assert_frequency(np.mean([len(s) == 0 for s in marginal]),
                         exact["discard"], draws)
        assert_frequency(membership(marginal, n), exact["marginal"], draws)
        sampler = WeightedRRSampler.from_state(graph, block, SUPERIOR)
        weighted = [sampler.sample(rng) for _ in range(draws)]
        assert_frequency(membership([rr.nodes for rr in weighted], n),
                         exact["weighted"], draws)
        assert_weights([rr.weight for rr in weighted], exact)


# ----------------------------------------------------------------------
# split invariance: the sets depend on (seed, index) only
# ----------------------------------------------------------------------
GRAPH = DirectedGraph.from_edges(
    40, [(u, (u + 3 * k) % 40, 0.15 + 0.1 * k)
         for u in range(40) for k in range(1, 5)], name="split40")
SPEC = ShardSpec(kind="weighted", graph=GRAPH,
                 node_block_utility={3: 0.25, 17: 0.5},
                 superior_utility=SUPERIOR)


def _one_shot(count):
    return _sample_shard(SPEC, GRAPH, 11, 0, count)


def _equal(left: PackedRRBatch, right: PackedRRBatch) -> bool:
    return (np.array_equal(left.offsets, right.offsets)
            and np.array_equal(left.nodes, right.nodes)
            and np.array_equal(left.weights, right.weights))


def _cuts(count):
    return st.lists(st.integers(0, count), max_size=6).map(
        lambda cuts: [0] + sorted(cuts) + [count])


class TestSplitInvariance:
    @settings(max_examples=25, deadline=None)
    @given(cuts=_cuts(300))
    def test_any_split_across_calls(self, cuts):
        with ParallelRRSampler(SPEC, seed=11) as sampler:
            parts = [sampler.generate(hi - lo)
                     for lo, hi in zip(cuts, cuts[1:])]
        assert _equal(_one_shot(300), PackedRRBatch.concat(parts))

    @settings(max_examples=25, deadline=None)
    @given(cuts=_cuts(300))
    def test_any_split_across_workers(self, cuts):
        # a worker samples one consecutive index range per task
        parts = [_sample_shard(SPEC, GRAPH, 11, lo, hi - lo)
                 for lo, hi in zip(cuts, cuts[1:])]
        assert _equal(_one_shot(300), PackedRRBatch.concat(parts))

    @settings(max_examples=15, deadline=None)
    @given(chunk=st.integers(1, 400))
    def test_any_chunk_size(self, chunk):
        want = _one_shot(300)
        with mock.patch.object(reverse, "CHUNK_SETS", chunk):
            assert _equal(want, _one_shot(300))

    @settings(max_examples=15, deadline=None)
    @given(order=st.permutations(range(60)))
    def test_any_order_of_keyed_indices(self, order):
        indices = np.arange(60)
        roots = keyed_roots(11, indices, GRAPH.num_nodes)
        whole = keyed_rr_sets(GRAPH, indices, roots, 11, kind="marginal",
                              blocked=[3, 17])
        order = np.array(order)
        shuffled = keyed_rr_sets(GRAPH, order, roots[order], 11,
                                 kind="marginal", blocked=[3, 17])
        for position, index in enumerate(order):
            np.testing.assert_array_equal(shuffled[position][0],
                                          whole[index][0])
            assert shuffled[position][1] == whole[index][1]


# ----------------------------------------------------------------------
# one run never uses a set index twice
# ----------------------------------------------------------------------
@pytest.fixture
def drawn_ranges(monkeypatch):
    """Every ``(seed, start, size)`` range the samplers draw."""
    ranges = []

    def recording(spec, graph, seed, start, size):
        ranges.append((seed, start, size))
        return _sample_shard(spec, graph, seed, start, size)

    monkeypatch.setattr(builder, "_sample_shard", recording)
    return ranges


def assert_fresh_indices(ranges):
    """One stream per run, drawn as consecutive disjoint index ranges."""
    assert len({seed for seed, _, _ in ranges}) == 1
    position = 0
    for _, start, size in ranges:
        assert start == position
        position += size


class TestFreshIndices:
    OPTIONS = IMMOptions(max_rr_sets=4_000, min_rr_sets=256)

    def test_imm_final_sets_are_fresh(self, small_er_graph, drawn_ranges):
        result = imm(small_er_graph, 4, options=self.OPTIONS, rng=3)
        assert_fresh_indices(drawn_ranges)
        # the final θ sets are the last range, after every search set
        assert drawn_ranges[-1][2] == result.num_rr_sets
        assert drawn_ranges[-1][1] > 0

    def test_marginal_imm(self, small_er_graph, drawn_ranges):
        marginal_imm(small_er_graph, 3, {0, 1}, options=self.OPTIONS, rng=3)
        assert_fresh_indices(drawn_ranges)

    def test_prima_final_sets_are_fresh(self, small_er_graph, drawn_ranges):
        result = prima_plus(small_er_graph, [0, 1], [2, 4], 4,
                            options=self.OPTIONS, rng=3)
        assert_fresh_indices(drawn_ranges)
        assert drawn_ranges[-1][2] == result.num_rr_sets
        assert drawn_ranges[-1][1] > 0

    def test_supgrd(self, small_er_graph, drawn_ranges):
        model = two_item_config("C1", noise_sigma=0.0)
        supgrd(small_er_graph, model, 3, Allocation({"j": [0, 1]}),
               superior_item="i", enforce_preconditions=False,
               options=self.OPTIONS, rng=3)
        assert_fresh_indices(drawn_ranges)
