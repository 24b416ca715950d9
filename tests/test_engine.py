"""Equivalence suite for the batched vectorized engine.

The scalar simulators in :mod:`repro.diffusion` / :mod:`repro.rrsets` are
the reference oracle.  On *fixed* possible worlds (fixed edge coins and
noise) the batched engine must be **bit-identical** to the scalar one; on
random worlds both engines must estimate the same quantities (checked
against exact enumeration and against each other).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.allocation import Allocation
from repro.diffusion.estimators import (
    estimate_marginal_spread,
    estimate_marginal_welfare,
    estimate_marginal_welfare_batch,
    estimate_spread,
    estimate_welfare,
    exact_welfare_enumeration,
)
from repro.diffusion.ic import simulate_ic
from repro.diffusion.uic import simulate_uic
from repro.diffusion.worlds import sample_edge_world
from repro.engine import config as engine_config
from repro.engine import forward
from repro.engine.coins import (
    FixedCoinBatch,
    KeyedCoins,
    WORLD_TAG,
    bernoulli_mask,
    edge_hashes,
    edge_world_live_mask,
    mix64,
    sample_edge_coin_matrix,
    set_seeds,
    sorted_unique,
    u01,
    unique_pairs,
    world_seeds,
)
from repro.engine.config import batch_size, resolve_engine
from repro.engine.forward import simulate_ic_batch, simulate_uic_batch
from repro.dynamic.sampling import keyed_roots, keyed_rr_sets
from repro.engine.reverse import (
    marginal_rr_sets,
    marginal_rr_sets_packed,
    random_rr_sets,
    random_rr_sets_packed,
    weighted_rr_sets,
    weighted_rr_sets_packed,
)
from repro.graphs import generators, weighting
from repro.graphs.graph import DirectedGraph
from repro.obs.metrics import get_metrics, set_global_metrics_enabled
from repro.rrsets.rrset import (
    WeightedRRSampler,
    marginal_rr_set,
)
from repro.utility.configs import (
    blocking_config,
    single_item_config,
    two_item_config,
)
from repro.utils.rng import ensure_rng


def _fixture_graphs():
    return [
        generators.line_graph(6),
        generators.star_graph(8),
        weighting.weighted_cascade(
            generators.erdos_renyi(60, 4.0, rng=3, directed=True)),
    ]


def _fixture_models():
    return [
        single_item_config(),
        two_item_config("C1", noise_sigma=0.0),
        two_item_config("C2", noise_sigma=0.0),
        blocking_config(),
    ]


def _allocation_for(model):
    items = list(model.items)
    if len(items) == 1:
        return Allocation({items[0]: [0, 3]})
    return Allocation({items[0]: [0, 3], items[-1]: [1]})


class TestConfig:
    def test_resolve_engine(self):
        assert resolve_engine("python") == "python"
        assert resolve_engine("Vectorized") == "vectorized"
        assert resolve_engine(None) in ("python", "vectorized")
        with pytest.raises(ValueError):
            resolve_engine("numba")

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert resolve_engine(None) == "python"
        monkeypatch.setenv("REPRO_ENGINE", "bogus")
        with pytest.raises(ValueError):
            resolve_engine(None)

    def test_batch_size_bounds(self):
        assert batch_size(100) >= 1
        assert batch_size(100, requested=3) == 3
        assert batch_size(10**9) == 1  # state-cell budget kicks in


class TestBernoulliMask:
    def test_matches_probability_uniform(self):
        rng = ensure_rng(1)
        probs = np.full(200_000, 0.05)
        mask = bernoulli_mask(rng, probs)  # geometric skip path
        assert mask.mean() == pytest.approx(0.05, rel=0.1)

    def test_matches_probability_heterogeneous(self):
        rng = ensure_rng(2)
        probs = np.tile([0.1, 0.9], 50_000)
        mask = bernoulli_mask(rng, probs)
        assert mask[0::2].mean() == pytest.approx(0.1, rel=0.1)
        assert mask[1::2].mean() == pytest.approx(0.9, rel=0.05)

    def test_extremes(self):
        rng = ensure_rng(3)
        assert not bernoulli_mask(rng, np.zeros(100)).any()
        assert bernoulli_mask(rng, np.ones(100)).all()
        assert bernoulli_mask(rng, np.zeros(0)).tolist() == []


class TestSortedUnique:
    """The shared dedupe of the forward and reverse kernels is
    ``np.unique`` for integer keys."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 10**12), max_size=200))
    def test_matches_np_unique(self, values):
        keys = np.array(values, dtype=np.int64)
        got = sorted_unique(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 19)),
                    max_size=100))
    def test_unique_pairs_matches_np_unique(self, pairs):
        first = np.array([a for a, _ in pairs], dtype=np.int64)
        second = np.array([b for _, b in pairs], dtype=np.int64)
        keys = np.unique(first * 20 + second)
        for got, want in zip(unique_pairs(20, first, second),
                             (keys // 20, keys % 20)):
            np.testing.assert_array_equal(got, want)


class TestUICBitIdentical:
    """Fixed possible worlds: batched == scalar, bit for bit."""

    @pytest.mark.parametrize("graph_index", [0, 1, 2])
    @pytest.mark.parametrize("model_index", [0, 1, 2, 3])
    def test_fixed_worlds(self, graph_index, model_index):
        graph = _fixture_graphs()[graph_index]
        model = _fixture_models()[model_index]
        allocation = _allocation_for(model)
        worlds = [sample_edge_world(graph, np.random.default_rng(seed))
                  for seed in range(6)]
        noise = np.zeros((6, model.num_items))
        batch = simulate_uic_batch(graph, model, allocation,
                                   edge_worlds=worlds, noise_worlds=noise)
        for index, world in enumerate(worlds):
            reference = simulate_uic(graph, model, allocation,
                                     edge_world=world,
                                     noise_world=np.zeros(model.num_items))
            got = batch.world(index)
            assert np.array_equal(reference.adoption_masks,
                                  got.adoption_masks)
            assert got.welfare == pytest.approx(reference.welfare, abs=1e-9)
            assert got.adoption_counts == reference.adoption_counts
            assert got.num_adopters == reference.num_adopters
            assert got.rounds == reference.rounds

    def test_fixed_noise_worlds_with_noise_terms(self):
        graph = generators.line_graph(5)
        model = two_item_config("C1", noise_sigma=0.5)
        allocation = Allocation({"i": [0], "j": [2]})
        rng = ensure_rng(9)
        noise = model.sample_noise_worlds(rng, 4)
        worlds = [sample_edge_world(graph, np.random.default_rng(s))
                  for s in range(4)]
        batch = simulate_uic_batch(graph, model, allocation,
                                   edge_worlds=worlds, noise_worlds=noise)
        for index, world in enumerate(worlds):
            reference = simulate_uic(graph, model, allocation,
                                     edge_world=world,
                                     noise_world=noise[index])
            assert np.array_equal(reference.adoption_masks,
                                  batch.adoption_masks[index])
            assert batch.welfare[index] == pytest.approx(reference.welfare)

    def test_empty_batch_and_empty_graph(self):
        model = two_item_config("C1", noise_sigma=0.0)
        empty_graph = DirectedGraph.from_edges(0, [])
        result = simulate_uic_batch(empty_graph, model, Allocation.empty(),
                                    n_worlds=3, rng=1)
        assert result.adoption_masks.shape == (3, 0)
        assert result.welfare.tolist() == [0.0, 0.0, 0.0]
        zero = simulate_uic_batch(generators.line_graph(3), model,
                                  Allocation.empty(), n_worlds=0, rng=1)
        assert zero.num_worlds == 0


    def test_generator_edge_worlds_without_n_worlds(self):
        graph = generators.line_graph(4)
        model = single_item_config()
        allocation = Allocation({"item": [0]})
        worlds = [sample_edge_world(graph, np.random.default_rng(s))
                  for s in range(3)]
        listed = simulate_uic_batch(graph, model, allocation,
                                    edge_worlds=worlds, rng=1)
        streamed = simulate_uic_batch(graph, model, allocation,
                                      edge_worlds=(w for w in worlds), rng=1)
        assert streamed.num_worlds == 3
        np.testing.assert_array_equal(streamed.adoption_masks,
                                      listed.adoption_masks)


def _keyed_live_matrix(graph, seed, world_ids):
    """The ``(B, m)`` out-edge liveness of keyed worlds, materialized."""
    coins = KeyedCoins(graph, seed, world_ids)
    worlds, m = len(world_ids), graph.num_edges
    live = coins.live_edges(np.arange(worlds),
                            np.repeat(np.arange(worlds), m),
                            np.tile(np.arange(m), worlds))
    return live.reshape(worlds, m)


class TestKeyedForwardStream:
    """The forward engine's keyed coins: right marginals, the documented
    keys, and the same diffusions as their materialized replay."""

    def test_live_frequency_matches_probability(self):
        probs = [0.0, 0.02, 0.1, 0.3, 0.5, 0.77, 0.95, 1.0]
        graph = DirectedGraph.from_edges(
            9, [(0, k + 1, p) for k, p in enumerate(probs)])
        worlds = 20_000
        live = _keyed_live_matrix(graph, 31, np.arange(worlds))
        _, _, csr_probs = graph.out_csr()
        frequency = live.mean(axis=0)
        tolerance = 5 * np.sqrt(csr_probs * (1 - csr_probs) / worlds)
        assert (np.abs(frequency - csr_probs) <= tolerance).all()
        assert frequency[csr_probs == 0.0].tolist() == [0.0]
        assert frequency[csr_probs == 1.0].tolist() == [1.0]

    def test_threshold_test_is_u01_below_p(self):
        graph = _fixture_graphs()[2]
        ids = np.arange(100, 164)
        _, _, probs = graph.out_csr()
        world_seed = mix64(set_seeds(9, ids) ^ WORLD_TAG)
        expected = u01(mix64(world_seed[:, None]
                             ^ edge_hashes(graph, "out")[None, :])) \
            < probs[None, :]
        np.testing.assert_array_equal(world_seeds(9, ids), world_seed)
        np.testing.assert_array_equal(_keyed_live_matrix(graph, 9, ids),
                                      expected)

    def test_worlds_are_not_the_rr_set_coins(self):
        # forward world w and RR set w of one base seed must flip
        # independent coins, so evaluation seeded like selection does not
        # replay the RR sets' worlds
        probs = np.full(12, 0.5)
        graph = DirectedGraph.from_edges(
            13, [(0, k + 1, p) for k, p in enumerate(probs)])
        ids = np.arange(400)
        _, _, csr_probs = graph.out_csr()
        rr_live = u01(mix64(set_seeds(7, ids)[:, None]
                            ^ edge_hashes(graph, "out")[None, :])) \
            < csr_probs[None, :]
        forward_live = _keyed_live_matrix(graph, 7, ids)
        agreement = (rr_live == forward_live).mean()
        # independent fair coins agree half the time: 4,800 pairs, 5 sigma
        assert abs(agreement - 0.5) <= 5 * np.sqrt(0.25 / rr_live.size)
        assert not (rr_live == forward_live).all(axis=1).any()

    def test_out_hashes_are_the_in_hashes_reordered(self):
        graph = _fixture_graphs()[2]
        indptr, sources, _ = graph.in_csr()
        dsts = np.repeat(np.arange(graph.num_nodes), np.diff(indptr))
        by_edge = dict(zip(zip(sources.tolist(), dsts.tolist()),
                           edge_hashes(graph, "in").tolist()))
        out_ptr, targets, _ = graph.out_csr()
        srcs = np.repeat(np.arange(graph.num_nodes), np.diff(out_ptr))
        assert [by_edge[edge] for edge in
                zip(srcs.tolist(), targets.tolist())] \
            == edge_hashes(graph, "out").tolist()

    @pytest.mark.parametrize("model_index", [0, 1, 3])
    def test_keyed_matches_fixed_replay(self, model_index):
        graph = _fixture_graphs()[2]
        model = _fixture_models()[model_index]
        allocation = _allocation_for(model)
        ids = np.arange(40, 56)
        noise = np.zeros((len(ids), model.num_items))
        keyed = simulate_uic_batch(graph, model, allocation, rng=5,
                                   world_ids=ids, noise_worlds=noise)
        replay = simulate_uic_batch(
            graph, model, allocation, noise_worlds=noise,
            edge_worlds=FixedCoinBatch(graph,
                                       _keyed_live_matrix(graph, 5, ids)))
        np.testing.assert_array_equal(keyed.adoption_masks,
                                      replay.adoption_masks)
        np.testing.assert_array_equal(keyed.welfare, replay.welfare)
        np.testing.assert_array_equal(keyed.rounds, replay.rounds)

    def test_world_ids_select_the_same_worlds(self):
        graph = _fixture_graphs()[2]
        model = two_item_config("C1")
        allocation = _allocation_for(model)
        noise = model.sample_noise_worlds(3, 12)
        whole = simulate_uic_batch(graph, model, allocation, rng=8,
                                   noise_worlds=noise)
        tail = simulate_uic_batch(graph, model, allocation, rng=8,
                                  world_ids=np.arange(5, 12),
                                  noise_worlds=noise[5:])
        np.testing.assert_array_equal(tail.adoption_masks,
                                      whole.adoption_masks[5:])
        np.testing.assert_array_equal(tail.welfare, whole.welfare[5:])

    def test_estimates_do_not_depend_on_batch_size(self, small_er_graph,
                                                   monkeypatch):
        model = two_item_config("C1")
        base = Allocation({"i": [0, 5]})
        extras = [Allocation({"j": [node]}) for node in (1, 9, 20)]

        def estimates():
            welfare = estimate_welfare(small_er_graph, model,
                                       base.union(extras[0]), n_samples=50,
                                       rng=12, engine="vectorized")
            marginals = estimate_marginal_welfare_batch(
                small_er_graph, model, base, extras, n_samples=50, rng=12,
                engine="vectorized")
            return welfare, marginals

        whole_welfare, whole_marginals = estimates()
        monkeypatch.setattr(engine_config, "DEFAULT_MAX_BATCH", 7)
        assert batch_size(small_er_graph.num_edges, 50) == 7
        split_welfare, split_marginals = estimates()
        assert split_welfare == whole_welfare
        np.testing.assert_array_equal(split_marginals, whole_marginals)

    def test_estimators_never_materialize_coins(self, small_er_graph,
                                                monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("(B, m) coin matrix built")

        monkeypatch.setattr(forward, "fixed_coin_batch", forbidden)
        monkeypatch.setattr(FixedCoinBatch, "__init__", forbidden)
        model = two_item_config("C1")
        base = Allocation({"i": [0]})
        estimate_welfare(small_er_graph, model, base, n_samples=20, rng=1,
                         engine="vectorized")
        estimate_marginal_welfare(small_er_graph, model, base,
                                  Allocation({"j": [3]}), n_samples=20,
                                  rng=1, engine="vectorized")


class TestForwardMetrics:
    """Every forward simulator call records its time and worlds once."""

    @staticmethod
    def _run():
        graph = _fixture_graphs()[2]
        model = two_item_config("C1")
        uic = simulate_uic_batch(graph, model, _allocation_for(model),
                                 n_worlds=9, rng=4)
        ic = simulate_ic_batch(graph, [0, 2], 5, rng=4)
        return uic, ic

    @staticmethod
    def _instruments(kind):
        metrics = get_metrics()
        return (metrics.histogram("repro_forward_seconds", kind=kind),
                metrics.counter("repro_forward_worlds_total", kind=kind))

    def test_counts_worlds_and_calls(self):
        before = {kind: (hist.count, counter.value) for kind, (hist, counter)
                  in ((kind, self._instruments(kind))
                      for kind in ("uic", "ic"))}
        self._run()
        for kind, worlds in (("uic", 9), ("ic", 5)):
            hist, counter = self._instruments(kind)
            assert hist.count == before[kind][0] + 1
            assert counter.value - before[kind][1] == worlds

    def test_outputs_identical_with_metrics_off(self):
        on_uic, on_ic = self._run()
        set_global_metrics_enabled(False)
        try:
            counter = self._instruments("uic")[1]
            counted = counter.value
            off_uic, off_ic = self._run()
            assert counter.value == counted
        finally:
            set_global_metrics_enabled(True)
        np.testing.assert_array_equal(on_uic.adoption_masks,
                                      off_uic.adoption_masks)
        np.testing.assert_array_equal(on_uic.welfare, off_uic.welfare)
        np.testing.assert_array_equal(on_ic, off_ic)


#: sha256 of the adoption masks and welfare of one seeded keyed batch; a
#: change here changes every seeded welfare estimate
_FORWARD_GOLDEN = \
    "42c597ae51b94641e2f29d3aec9ae9e41b09e783800397cb14496180704ba8c6"


class TestForwardGolden:
    def test_forward_golden_digest(self):
        graph = _golden_graph("heterogeneous")
        model = two_item_config("C1")
        result = simulate_uic_batch(
            graph, model, Allocation({"i": [0, 3, 7, 150], "j": [1, 40]}),
            rng=2024, world_ids=np.arange(1000, 1064))
        assert _digest(result.adoption_masks, result.welfare) \
            == _FORWARD_GOLDEN


class TestICBitIdentical:
    @pytest.mark.parametrize("graph_index", [0, 1, 2])
    def test_fixed_worlds(self, graph_index):
        graph = _fixture_graphs()[graph_index]
        worlds = [sample_edge_world(graph, np.random.default_rng(100 + s))
                  for s in range(6)]
        live = np.stack([edge_world_live_mask(graph, w) for w in worlds])
        active = simulate_ic_batch(graph, [0, 2], len(worlds),
                                   edge_live=live)
        for index, world in enumerate(worlds):
            reference = simulate_ic(graph, [0, 2], edge_world=world)
            assert reference == set(np.nonzero(active[index])[0].tolist())

    def test_no_seeds(self):
        graph = generators.line_graph(4)
        active = simulate_ic_batch(graph, [], 5, rng=1)
        assert not active.any()


class TestEstimatorAgreement:
    """Both engines estimate the same quantities."""

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_welfare_matches_exact_enumeration(self, engine):
        graph = DirectedGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.5),
                                             (0, 2, 0.25)])
        model = two_item_config("C1", noise_sigma=0.0)
        allocation = Allocation({"i": [0], "j": [1]})
        exact = exact_welfare_enumeration(graph, model, allocation)
        estimate = estimate_welfare(graph, model, allocation,
                                    n_samples=6000, rng=3, engine=engine)
        assert estimate.mean == pytest.approx(exact, rel=0.1)

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_deterministic_graph_exact(self, engine):
        graph = generators.line_graph(4)
        model = single_item_config()
        estimate = estimate_welfare(graph, model, Allocation({"item": [0]}),
                                    n_samples=16, rng=1, engine=engine)
        assert estimate.mean == pytest.approx(4.0)
        assert estimate.std_error == 0.0
        assert estimate.mean_adopters == pytest.approx(4.0)

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_spread_line_graph(self, engine):
        graph = DirectedGraph.from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)])
        spread = estimate_spread(graph, [0], n_samples=8000, rng=1,
                                 engine=engine)
        assert spread == pytest.approx(1.75, rel=0.05)

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_marginal_welfare_blocking(self, engine):
        graph = generators.line_graph(4)
        model = two_item_config("C2", noise_sigma=0.0)
        marginal = estimate_marginal_welfare(
            graph, model, Allocation({"i": [0]}), Allocation({"j": [1]}),
            n_samples=10, rng=1, engine=engine)
        assert marginal == pytest.approx(1.3 - 4.0)

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_marginal_spread(self, engine):
        graph = generators.line_graph(4)
        assert estimate_marginal_spread(graph, [0], [2], n_samples=10,
                                        rng=1, engine=engine) \
            == pytest.approx(0.0)
        assert estimate_marginal_spread(graph, [2], [0], n_samples=10,
                                        rng=1, engine=engine) \
            == pytest.approx(2.0)

    def test_engines_agree_statistically(self, small_er_graph):
        model = two_item_config("C1", noise_sigma=0.0)
        allocation = Allocation({"i": [0, 5, 9], "j": [3, 7]})
        scalar = estimate_welfare(small_er_graph, model, allocation,
                                  n_samples=1500, rng=11, engine="python")
        vectorized = estimate_welfare(small_er_graph, model, allocation,
                                      n_samples=1500, rng=11,
                                      engine="vectorized")
        tolerance = 4 * (scalar.std_error + vectorized.std_error)
        assert abs(scalar.mean - vectorized.mean) <= tolerance


class TestBatchedRRSets:
    def test_standard_deterministic_line(self):
        line4 = generators.line_graph(4)
        sets = random_rr_sets(line4, 4, rng=1, roots=[0, 1, 2, 3])
        assert [sorted(s.tolist()) for s in sets] == \
            [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]

    def test_standard_members_reach_root(self):
        graph = generators.erdos_renyi(60, 3.0, rng=1)
        root = 7
        rr = set(random_rr_sets(graph, 1, rng=12345, roots=[root])[0].tolist())
        from collections import deque
        seen = {root}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            sources, _ = graph.in_neighbors(node)
            for source in sources:
                source = int(source)
                if source not in seen:
                    seen.add(source)
                    queue.append(source)
        assert rr <= seen

    def test_borgs_identity(self):
        graph = weighting.weighted_cascade(
            generators.erdos_renyi(100, 4.0, rng=3))
        seeds = {0, 1, 2}
        sets = random_rr_sets(graph, 4000, rng=5)
        hits = sum(1 for s in sets if seeds & set(s.tolist()))
        rr_estimate = graph.num_nodes * hits / 4000
        mc_estimate = estimate_spread(graph, sorted(seeds), n_samples=2000,
                                      rng=6)
        assert rr_estimate == pytest.approx(mc_estimate, rel=0.2)

    def test_marginal_semantics(self):
        line4 = generators.line_graph(4)
        # everything upstream of a blocked node is discarded
        assert [s.tolist() for s in
                marginal_rr_sets(line4, {0}, 3, rng=1, roots=[3, 1, 0])] \
            == [[], [], []]
        survivor = marginal_rr_sets(line4, {3}, 1, rng=1, roots=[1])[0]
        assert sorted(survivor.tolist()) == [0, 1]
        unblocked = marginal_rr_sets(line4, set(), 1, rng=1, roots=[3])[0]
        assert sorted(unblocked.tolist()) == [0, 1, 2, 3]

    def test_weighted_matches_scalar_semantics(self):
        line4 = generators.line_graph(4)
        model = two_item_config("C6", bounded_noise=True)
        sampler = WeightedRRSampler(line4, model, "i",
                                    Allocation({"j": [1]}), rng=1)
        batch = weighted_rr_sets(line4, sampler.node_block_utility,
                                 sampler.superior_utility, 2, 2,
                                 roots=[0, 3])
        # root 0: no ancestor is a fixed seed -> full superior utility
        assert batch[0][0].tolist() == [0]
        assert batch[0][1] == pytest.approx(sampler.superior_utility)
        # root 3: the BFS stops at the level of j's seed (node 1), so node 0
        # is never explored, and the weight is discounted by U+(j)
        assert sorted(batch[1][0].tolist()) == [1, 2, 3]
        expected = (model.expected_truncated_utility("i")
                    - model.expected_truncated_utility("j"))
        assert batch[1][1] == pytest.approx(expected, rel=0.1)

    def test_weighted_weight_never_negative(self):
        graph = generators.erdos_renyi(40, 3.0, rng=2)
        model = two_item_config("C6", bounded_noise=True)
        sampler = WeightedRRSampler(graph, model, "i",
                                    Allocation({"j": [0, 1, 2, 3]}), rng=3)
        for _nodes, weight, _root in weighted_rr_sets(
                graph, sampler.node_block_utility, sampler.superior_utility,
                50, 4):
            assert weight >= 0.0

    def test_empty_graph_batches(self):
        empty = DirectedGraph.from_edges(0, [])
        assert all(s.tolist() == [] for s in random_rr_sets(empty, 3, rng=1))
        assert all(s.tolist() == []
                   for s in marginal_rr_sets(empty, {0}, 3, rng=1))
        sets = weighted_rr_sets(empty, {}, 1.0, 3, rng=1)
        assert all(nodes.tolist() == [] and weight == 0.0 and root == -1
                   for nodes, weight, root in sets)


#: fixed seeds of the golden sampler outputs (700 sets span two batches)
_GOLDEN_SETS = 700
_GOLDEN_BLOCKED = {3, 40, 41, 150, 299}
_GOLDEN_UTILITY = {3: 0.25, 40: 0.5, 150: 0.1, 299: 0.75}


def _golden_graph(name):
    base = generators.erdos_renyi(300, 4.0, rng=21, directed=True)
    if name == "uniform":  # equal probabilities: geometric edge-skip coins
        return weighting.uniform(base, 0.3)
    return weighting.weighted_cascade(base)


def _golden_roots(name):
    if name == "drawn":
        return None
    return [(7 * k) % 300 for k in range(_GOLDEN_SETS)]


def _digest(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _golden_output(coins, graph_name, roots_name, kind):
    graph = _golden_graph(graph_name)
    roots = _golden_roots(roots_name)
    if coins == "keyed":
        indices = np.arange(_GOLDEN_SETS, dtype=np.int64)
        if roots is None:
            roots = keyed_roots(17, indices, graph.num_nodes)
        sets = keyed_rr_sets(graph, indices, roots, 17, kind=kind,
                             blocked=sorted(_GOLDEN_BLOCKED),
                             node_block_utility=_GOLDEN_UTILITY,
                             superior_utility=1.0)
        return _digest(np.array([len(nodes) for nodes, _ in sets]),
                       np.concatenate([nodes for nodes, _ in sets]),
                       np.array([weight for _, weight in sets]))
    return _digest(*_public_packed(graph, kind, roots))


def _public_packed(graph, kind, roots):
    if kind == "standard":
        return random_rr_sets_packed(graph, _GOLDEN_SETS, 5, roots)
    if kind == "marginal":
        return marginal_rr_sets_packed(graph, _GOLDEN_BLOCKED,
                                       _GOLDEN_SETS, 5, roots)
    return weighted_rr_sets_packed(graph, _GOLDEN_UTILITY, 1.0,
                                   _GOLDEN_SETS, 5, roots)


def _public_listed(graph, kind, roots):
    """The list samplers' output, packed like the packed samplers'."""
    if kind == "standard":
        sets = random_rr_sets(graph, _GOLDEN_SETS, 5, roots)
    elif kind == "marginal":
        sets = marginal_rr_sets(graph, _GOLDEN_BLOCKED, _GOLDEN_SETS, 5,
                                roots)
    else:
        triples = weighted_rr_sets(graph, _GOLDEN_UTILITY, 1.0,
                                   _GOLDEN_SETS, 5, roots)
        sets = [nodes for nodes, _, _ in triples]
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(nodes) for nodes in sets], out=offsets[1:])
    packed = [offsets, np.concatenate(sets)]
    if kind == "weighted":
        packed += [np.array([weight for _, weight, _ in triples]),
                   np.array([root for _, _, root in triples],
                            dtype=np.int64)]
    return packed


#: sha256 of each sampler's output.  The keyed digests were recorded
#: before the reverse BFS was rewritten and the public samplers moved onto
#: keyed coins (SAMPLER_VERSION 2); a change here changes every seeded
#: index
_GOLDEN_DIGESTS = {
    ("public", "uniform", "drawn", "standard"):
        "a8f77088112dd5444f17198599babbe135f98bcc8f50c566e0f83d4b33b6dc53",
    ("public", "uniform", "drawn", "marginal"):
        "5fee38c2d054fa1c34f66c8347c20d0be51fee4499cf3a948cd2c728bc071f96",
    ("public", "uniform", "drawn", "weighted"):
        "8aec4f4672b36333acfd6799e99d9bf1ac1e08c8c80546610cb489ed7327863b",
    ("public", "uniform", "explicit", "standard"):
        "5e10c45560fd3af2052c8747c122f1161e000c39d97c06751a6bfda8028a422b",
    ("public", "uniform", "explicit", "marginal"):
        "d809d89b8eff395aa2d478b2da001865fa9abb3ddff6b01e58d4bb0b535f4716",
    ("public", "uniform", "explicit", "weighted"):
        "213e85b1cad726fbd2748b70f6bf113f286f11c150a90548f989bcaca195ac42",
    ("public", "heterogeneous", "drawn", "standard"):
        "d9e0ecc8cd515d6dd498706cac92bba9020f9fb96b98a1a6014cd0c6a556685c",
    ("public", "heterogeneous", "drawn", "marginal"):
        "b76fd830d4736795e5715d43ca60e65c0c8b2d3f4413a039fbbf1076550645b1",
    ("public", "heterogeneous", "drawn", "weighted"):
        "14aafd6a093ff5e704729d7a445d522482128c2fdf051b4a501c2fd5c9a99c1e",
    ("public", "heterogeneous", "explicit", "standard"):
        "1f0b4dabdca41a056c5beb3a1643a0a443e733cf8d2596e962e7cbcd23d7e979",
    ("public", "heterogeneous", "explicit", "marginal"):
        "36b64c3b9ec02c8eff30458277cec9cbe2d60c33d441223c70920ddd72efafca",
    ("public", "heterogeneous", "explicit", "weighted"):
        "02a6d230b49bd765e67afa75b3f82463c75cca872b79e73edee79eb79e090be7",
    ("keyed", "uniform", "drawn", "standard"):
        "cb67e4c3b99d7a3d6f4519473b42c4589696741c7526cd424426209148915bf7",
    ("keyed", "uniform", "drawn", "marginal"):
        "d66976545c8bc62185de8dc0ca8c48c06853a7dd801edd84987397a92c4dbca9",
    ("keyed", "uniform", "drawn", "weighted"):
        "1f5945898765ec35ed42f376e2f97d2ead4e33f1bbc9ce7684331dfdc5d171ce",
    ("keyed", "uniform", "explicit", "standard"):
        "55911ad8980254b0a7ed7712b9f190942878c5a774cf2496c76a0343b90078f5",
    ("keyed", "uniform", "explicit", "marginal"):
        "c414d2a6baa506de706e6b5785be57b9a670e49af2464b3a47f22d5fb359fb14",
    ("keyed", "uniform", "explicit", "weighted"):
        "0f3206d066a7bb3cce6f9a2f5cbd176e5ef5536d85408af089a42e239a9a5aaa",
    ("keyed", "heterogeneous", "drawn", "standard"):
        "0103bd80a2aa216b4da4bf8f2add7c75b740702d0e0a93781a21727f401630ce",
    ("keyed", "heterogeneous", "drawn", "marginal"):
        "4c78b0389cd4a11da0ff6b0ce1fc550d7757cd66511647fa816e1066a7f01fd8",
    ("keyed", "heterogeneous", "drawn", "weighted"):
        "4d471e0c79ef1b9e5301ecda8e7ca582dab039c6cbcc6b11db24e5eef4f70009",
    ("keyed", "heterogeneous", "explicit", "standard"):
        "cf045ec81432d1de143be04419a1a624b075b2c7b6966eceb15246560d7783ba",
    ("keyed", "heterogeneous", "explicit", "marginal"):
        "a49f49c60610a39fbb331e105f33f9b159e075466e989044b80759f16f6e0785",
    ("keyed", "heterogeneous", "explicit", "weighted"):
        "63073b93b93fe4ca6ef37b28194d818c24d08f94fe9b45155b03efb2ee21a696",
}


def _golden_index(kind):
    """``build_index`` of ``kind`` on the heterogeneous golden graph."""
    from repro.index import build_index
    from repro.rrsets.imm import IMMOptions

    graph = _golden_graph("heterogeneous")
    model = two_item_config("C1", noise_sigma=0.0)
    kwargs = {"standard": dict(budgets={"i": 5}),
              "marginal": dict(budgets={"i": 3, "j": 2}),
              "weighted": dict(budgets={"i": 4}, superior_item="i",
                               fixed_allocation=Allocation({"j": [0, 1, 2]}))}
    index = build_index(graph, model, sampler=kind,
                        options=IMMOptions(max_rr_sets=3000), seed=2020,
                        **kwargs[kind])
    return _digest(index._offsets, index._nodes, index._weights)


#: sha256 of ``build_index``'s arrays: IMM, PRIMA+ and SupGRD sampling
#: through the set-index counter of one keyed stream
_INDEX_DIGESTS = {
    "standard":
        "9a2b313d98dbffd2873bdeb2e08c0bf7d6c8d0a4ae8b2a80566f1f2a2d4b6496",
    "marginal":
        "abc0231e6fdb74273123f75cbd10ea5c587fef25724c80041716fdd07515116a",
    "weighted":
        "aebab8ba29d88b1a5b109077d6dabb3bc4735bd125a0681d785cd0c3c7e56492",
}


class TestSamplerGolden:
    """The samplers and the index builder reproduce pinned outputs
    exactly."""

    @pytest.mark.parametrize("case", sorted(_GOLDEN_DIGESTS), ids="-".join)
    def test_golden_digest(self, case):
        assert _golden_output(*case) == _GOLDEN_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(
        case for case in _GOLDEN_DIGESTS if case[0] == "public"),
        ids=lambda case: "-".join(case[1:]))
    def test_list_samplers_match_packed_digest(self, case):
        _, graph_name, roots_name, kind = case
        listed = _public_listed(_golden_graph(graph_name), kind,
                                _golden_roots(roots_name))
        assert _digest(*listed) == _GOLDEN_DIGESTS[case]

    @pytest.mark.parametrize("kind", sorted(_INDEX_DIGESTS))
    def test_build_index_digest(self, kind):
        assert _golden_index(kind) == _INDEX_DIGESTS[kind]


class TestSamplerInputs:
    """Explicit roots and blocked ids are handled the same on every path."""

    @pytest.mark.parametrize("roots", [[3, 2, 1, 0], [3]])
    def test_root_count_mismatch_raises(self, roots):
        line4 = generators.line_graph(4)
        for sample in (
                lambda: random_rr_sets(line4, 2, 1, roots),
                lambda: marginal_rr_sets(line4, {0}, 2, 1, roots),
                lambda: weighted_rr_sets(line4, {0: 0.5}, 1.0, 2, 1, roots),
                lambda: keyed_rr_sets(line4, [0, 1], roots, 7)):
            with pytest.raises(ValueError, match="expected 2 roots"):
                sample()

    @pytest.mark.parametrize("outside", [-1, 4])
    def test_out_of_range_blocked_ids_never_match(self, outside):
        line4 = generators.line_graph(4)
        everything = [0, 1, 2, 3]
        # scalar oracle
        assert sorted(marginal_rr_set(line4, {outside}, 1,
                                      root=3).tolist()) == everything
        scalar = WeightedRRSampler.from_state(line4, {outside: 0.5}, 1.0)
        rr = scalar.sample(1, root=3)
        assert sorted(rr.nodes.tolist()) == everything and rr.weight == 1.0
        # batched samplers
        assert marginal_rr_sets(line4, {outside}, 1, 1,
                                [3])[0].tolist() == everything
        nodes, weight, _ = weighted_rr_sets(line4, {outside: 0.5}, 1.0, 1,
                                            1, [3])[0]
        assert nodes.tolist() == everything and weight == 1.0
        # keyed sampler
        for kind in ("marginal", "weighted"):
            [(members, weight)] = keyed_rr_sets(
                line4, [0], [3], 7, kind=kind, blocked=[outside],
                node_block_utility={outside: 0.5}, superior_utility=1.0)
            assert members.tolist() == everything and weight == 1.0


class TestSamplerMetrics:
    """Every sampler call records its time and members once."""

    #: spans two reverse-BFS chunks
    SETS = 2500

    def _sample_all(self):
        graph = _golden_graph("uniform")
        indices = np.arange(self.SETS, dtype=np.int64)
        return {
            "standard": random_rr_sets_packed(graph, self.SETS, 4),
            "marginal": marginal_rr_sets_packed(graph, _GOLDEN_BLOCKED,
                                                self.SETS, 4),
            "weighted": weighted_rr_sets_packed(graph, _GOLDEN_UTILITY, 1.0,
                                                self.SETS, 4),
            "keyed": keyed_rr_sets(graph, indices,
                                   keyed_roots(4, indices, 300), 4,
                                   kind="marginal",
                                   blocked=sorted(_GOLDEN_BLOCKED)),
        }

    @staticmethod
    def _instruments(kind):
        metrics = get_metrics()
        return (metrics.histogram("repro_rr_sample_seconds", kind=kind),
                metrics.counter("repro_rr_sample_members_total", kind=kind))

    def test_counts_members_and_calls(self):
        kinds = ("standard", "marginal", "weighted")
        before = {kind: (hist.count, counter.value) for kind, (hist, counter)
                  in ((kind, self._instruments(kind)) for kind in kinds)}
        out = self._sample_all()
        # the keyed marginal call keeps its dead walks' members
        members = {"standard": len(out["standard"][1]),
                   "marginal": len(out["marginal"][1])
                   + sum(len(nodes) for nodes, _ in out["keyed"]),
                   "weighted": len(out["weighted"][1])}
        calls = {"standard": 1, "marginal": 2, "weighted": 1}
        for kind in kinds:
            hist, counter = self._instruments(kind)
            calls_before, counted = before[kind]
            # once per call, not per chunk
            assert hist.count == calls_before + calls[kind]
            assert counter.value - counted == members[kind]

    def test_outputs_identical_with_metrics_off(self):
        on = self._sample_all()
        set_global_metrics_enabled(False)
        try:
            counter = self._instruments("standard")[1]
            counted = counter.value
            off = self._sample_all()
            assert counter.value == counted
        finally:
            set_global_metrics_enabled(True)
        for kind in ("standard", "marginal", "weighted"):
            for left, right in zip(on[kind], off[kind]):
                np.testing.assert_array_equal(left, right)
        for (left, left_weight), (right, right_weight) in zip(on["keyed"],
                                                            off["keyed"]):
            np.testing.assert_array_equal(left, right)
            assert left_weight == right_weight


class TestCommonRandomNumbers:
    def test_shared_coin_matrix_is_reused(self, small_er_graph):
        rng = ensure_rng(4)
        live = sample_edge_coin_matrix(small_er_graph, 8, rng)
        coins = FixedCoinBatch(small_er_graph, live)
        model = two_item_config("C1", noise_sigma=0.0)
        noise = np.zeros((8, model.num_items))
        base = Allocation({"i": [0]})
        combined = base.union(Allocation({"i": [1]}))
        first = simulate_uic_batch(small_er_graph, model, base,
                                   edge_worlds=coins, noise_worlds=noise)
        second = simulate_uic_batch(small_er_graph, model, combined,
                                    edge_worlds=coins, noise_worlds=noise)
        # the superset allocation can never do worse world-by-world when
        # simulated on the same coins with a single competing item
        assert (second.welfare >= first.welfare - 1e-9).all()

    @pytest.mark.parametrize("engine", ["python", "vectorized"])
    def test_marginal_estimates_are_deterministic(self, small_er_graph,
                                                  engine):
        model = two_item_config("C1", noise_sigma=0.0)
        base = Allocation({"i": [0, 1]})
        extra = Allocation({"j": [2]})
        first = estimate_marginal_welfare(small_er_graph, model, base, extra,
                                          n_samples=30, rng=17,
                                          engine=engine)
        second = estimate_marginal_welfare(small_er_graph, model, base,
                                           extra, n_samples=30, rng=17,
                                           engine=engine)
        assert first == pytest.approx(second)
