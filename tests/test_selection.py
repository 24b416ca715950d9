"""Equivalence suite for the CSR-native selection engine.

The contract under test: ``node_selection`` returns
:class:`SelectionResult` s bit-identical to the pure-Python oracle
``_select_reference`` — same seeds, same ``prefix_weights`` floats, same
``saturated_at`` — over any weighted RR collection, whichever way the
answer is produced (see :data:`SELECTORS`), and the growable
:class:`RRCollection`, its zero-copy :meth:`freeze` and the ``.npz``
round-trip all preserve that identity.  The greedy order a collection
caches must answer every budget exactly like a fresh run, and appends
that change the coverage must drop it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AlgorithmError
from repro.index.frozen import FrozenRRIndex
from repro.rrsets import coverage
from repro.rrsets.coverage import (
    PackedRRBatch,
    RRCollection,
    _select_reference,
    node_selection,
)
from repro.rrsets.imm import imm


def select_eager(collection, k, on_saturation="pad"):
    """A fresh greedy run: the collection's cached order is dropped."""
    collection._greedy = None
    return node_selection(collection, k, on_saturation=on_saturation)


def select_lazy(collection, k, on_saturation="pad"):
    """Answered from the order cached by a selection of every node."""
    collection._greedy = None
    node_selection(collection, collection.num_nodes)
    return node_selection(collection, k, on_saturation=on_saturation)


def select_reference(collection, k, on_saturation="pad"):
    """The pure-Python oracle."""
    return _select_reference(collection, k, on_saturation)


#: the three ways a selection is answered
SELECTORS = {"lazy": select_lazy, "eager": select_eager,
             "reference": select_reference}


def fresh_index(holder):
    """A new index object over copies of ``holder``'s arrays (no caches)."""
    return FrozenRRIndex(holder.num_nodes,
                         *(array.copy() for array in holder._packed()))


def random_collection(rng, num_nodes=12, num_sets=30, weighted=True,
                      empty_fraction=0.15, zero_weight_fraction=0.1):
    """A random weighted RR collection (with empty and zero-weight sets)."""
    collection = RRCollection(num_nodes)
    for _ in range(num_sets):
        if rng.random() < empty_fraction:
            nodes = np.empty(0, dtype=np.int64)
        else:
            size = int(rng.integers(1, min(6, num_nodes) + 1))
            nodes = rng.choice(num_nodes, size=size, replace=False)
        if rng.random() < zero_weight_fraction:
            weight = 0.0
        elif weighted:
            weight = float(rng.random() * 5.0)
        else:
            weight = 1.0
        collection.add(nodes.astype(np.int64), weight)
    return collection


def assert_identical(result_a, result_b):
    """Bit-for-bit SelectionResult equality (no approx anywhere)."""
    assert result_a.seeds == result_b.seeds
    assert len(result_a.prefix_weights) == len(result_b.prefix_weights)
    for weight_a, weight_b in zip(result_a.prefix_weights,
                                  result_b.prefix_weights):
        assert weight_a == weight_b
    assert result_a.covered_weight == result_b.covered_weight
    assert result_a.saturated_at == result_b.saturated_at


class TestStrategyEquivalence:
    """The production greedy, answered fresh or from its cached order,
    against the reference oracle."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("weighted", [True, False])
    def test_lazy_eager_reference_bit_identical(self, seed, weighted):
        rng = np.random.default_rng(seed)
        collection = random_collection(rng, weighted=weighted)
        for k in (0, 1, 3, 7, 12):
            for mode in ("pad", "stop"):
                results = {name: select(collection, k, mode)
                           for name, select in SELECTORS.items()}
                assert_identical(results["lazy"], results["reference"])
                assert_identical(results["eager"], results["reference"])

    @pytest.mark.parametrize("seed", range(4))
    def test_frozen_matches_growable(self, seed):
        rng = np.random.default_rng(100 + seed)
        collection = random_collection(rng, num_nodes=15, num_sets=40)
        frozen = collection.freeze()
        for select in SELECTORS.values():
            for k in (1, 4, 9):
                assert_identical(select(collection, k), select(frozen, k))

    @pytest.mark.parametrize("seed", range(4))
    def test_extend_matches_add(self, seed):
        rng = np.random.default_rng(200 + seed)
        reference = random_collection(rng, num_nodes=10, num_sets=25)
        pairs = [(reference.set_members(i).copy(),
                  float(reference.weights()[i]))
                 for i in range(reference.num_sets)]
        bulk = RRCollection(10)
        bulk.extend(pairs)
        assert bulk.total_weight == reference.total_weight
        for k in (2, 6):
            assert_identical(select_lazy(bulk, k),
                             select_lazy(reference, k))

    def test_equivalence_on_sampled_rr_sets(self, small_er_graph):
        result = imm(small_er_graph, 5, rng=7, keep_collection=True)
        collection = result.collection
        reference = _select_reference(collection, 5)
        scale = small_er_graph.num_nodes / collection.num_sets
        assert result.seeds == reference.seeds
        assert result.estimated_value == reference.covered_weight * scale
        assert result.prefix_values == [weight * scale for weight
                                        in reference.prefix_weights]
        assert imm(small_er_graph, 5, rng=7).seeds == result.seeds


# property-based: the greedy agrees with the oracle on arbitrary weighted
# instances, under both saturation rules
rr_sets_strategy = st.lists(
    st.tuples(st.lists(st.integers(min_value=0, max_value=9), min_size=0,
                       max_size=5, unique=True),
              st.floats(min_value=0.0, max_value=10.0)),
    min_size=1, max_size=20)


@settings(max_examples=50, deadline=None)
@given(sets=rr_sets_strategy, k=st.integers(min_value=0, max_value=11),
       mode=st.sampled_from(["pad", "stop"]))
def test_property_strategies_bit_identical(sets, k, mode):
    collection = RRCollection(10)
    for nodes, weight in sets:
        collection.add(np.array(nodes, dtype=np.int64), weight)
    frozen = collection.freeze()
    reference = _select_reference(collection, k, mode)
    for holder in (collection, frozen):
        for select in (select_lazy, select_eager):
            assert_identical(select(holder, k, mode), reference)


class TestSaturation:
    def make_saturating(self):
        # only nodes 0 and 1 ever cover anything; nodes 2, 3 are padding
        collection = RRCollection(4)
        collection.add(np.array([0]), 2.0)
        collection.add(np.array([0, 1]), 1.0)
        collection.add(np.array([1]), 1.0)
        return collection

    @pytest.mark.parametrize("select", SELECTORS.values(), ids=SELECTORS)
    def test_pad_keeps_k_seeds_and_reports_saturation(self, select):
        result = select(self.make_saturating(), 4)
        assert result.seeds == [0, 1, 2, 3]  # zero-gain pad: lowest ids
        assert result.saturated_at == 2
        assert result.prefix_weights == [3.0, 4.0, 4.0, 4.0]

    @pytest.mark.parametrize("select", SELECTORS.values(), ids=SELECTORS)
    def test_stop_truncates_at_saturation(self, select):
        result = select(self.make_saturating(), 4, "stop")
        assert result.seeds == [0, 1]
        assert result.saturated_at == 2
        assert result.prefix_weights == [3.0, 4.0]
        assert result.covered_weight == 4.0

    @pytest.mark.parametrize("select", SELECTORS.values(), ids=SELECTORS)
    def test_unsaturated_selection_reports_none(self, select):
        collection = RRCollection(3)
        for node in range(3):
            collection.add(np.array([node]), 1.0)
        result = select(collection, 2)
        assert result.saturated_at is None

    @pytest.mark.parametrize("select", SELECTORS.values(), ids=SELECTORS)
    def test_saturation_detected_despite_float_residue(self, select):
        # incremental subtraction can leave ~1-ulp residue on the gains of
        # fully covered nodes (0.1 + 0.3 summed forward, subtracted in
        # coverage order); saturation must still be detected because the
        # pick covers no new set
        collection = RRCollection(3)
        collection.add(np.array([0, 2]), 0.1)
        collection.add(np.array([1, 2]), 0.3)
        collection.add(np.array([0]), 5.0)
        collection.add(np.array([1]), 4.0)
        result = select(collection, 3)
        assert result.seeds == [0, 1, 2]
        assert result.saturated_at == 2
        stopped = select(collection, 3, "stop")
        assert stopped.seeds == [0, 1]
        assert stopped.saturated_at == 2

    def test_pad_preserves_prefix_semantics(self):
        # the padded tail still makes every prefix a greedy solution,
        # which is what PRIMA+/SeqGRD budget exhaustion relies on
        collection = self.make_saturating()
        full = node_selection(collection, 4)
        for k in range(1, 5):
            assert node_selection(collection, k).seeds == full.prefix(k)

    def test_invalid_mode_rejected(self):
        with pytest.raises(AlgorithmError):
            node_selection(RRCollection(2), 1, on_saturation="explode")


class TestPackedStore:
    def test_average_set_size_running_totals(self):
        collection = RRCollection(6)
        collection.add(np.array([0, 1]), 1.0)
        collection.add(np.empty(0, dtype=np.int64), 1.0)
        collection.extend([(np.array([2, 3, 4]), 1.0),
                           (np.array([5]), 0.0)])
        assert collection.average_set_size() == pytest.approx(6 / 4)
        assert RRCollection(3).average_set_size() == 0.0

    def test_freeze_is_zero_copy(self):
        rng = np.random.default_rng(5)
        collection = random_collection(rng, num_nodes=8, num_sets=20)
        frozen = collection.freeze()
        assert np.shares_memory(frozen._nodes, collection._members)
        assert np.shares_memory(frozen._weights, collection._weights)
        assert np.shares_memory(frozen._offsets, collection._offsets)

    def test_growing_after_freeze_leaves_frozen_intact(self):
        collection = RRCollection(5)
        collection.add(np.array([0, 1]), 1.0)
        frozen = collection.freeze()
        nodes_before = frozen._nodes.copy()
        for _ in range(50):  # force several buffer doublings
            collection.add(np.array([2, 3, 4]), 1.0)
        np.testing.assert_array_equal(frozen._nodes, nodes_before)
        assert frozen.num_sets == 1
        assert collection.num_sets == 51

    def test_npz_round_trip_preserves_packed_buffers(self, tmp_path):
        rng = np.random.default_rng(11)
        collection = random_collection(rng, num_nodes=10, num_sets=35)
        frozen = collection.freeze(meta={"sampler": "standard"})
        frozen.save(tmp_path / "packed")
        loaded = FrozenRRIndex.load(tmp_path / "packed")
        np.testing.assert_array_equal(loaded._offsets, frozen._offsets)
        np.testing.assert_array_equal(loaded._nodes, frozen._nodes)
        np.testing.assert_array_equal(loaded._weights, frozen._weights)
        np.testing.assert_array_equal(loaded._inv_offsets,
                                      frozen._inv_offsets)
        np.testing.assert_array_equal(loaded._inv_sets, frozen._inv_sets)
        for select in SELECTORS.values():
            assert_identical(select(loaded, 6), select(collection, 6))

    def test_compact_freeze_copies_buffers(self):
        rng = np.random.default_rng(19)
        collection = random_collection(rng, num_nodes=8, num_sets=20)
        frozen = collection.freeze(compact=True)
        assert not np.shares_memory(frozen._nodes, collection._members)
        assert_identical(node_selection(frozen, 4),
                         node_selection(collection, 4))

    def test_thawed_empty_index_can_grow(self):
        # regression: _from_packed installs exactly-sized (possibly empty)
        # buffers, and growth from zero capacity must still terminate
        empty = RRCollection(5).freeze().to_collection()
        empty.add(np.array([0, 1]), 1.0)
        assert empty.num_sets == 1
        all_empty = RRCollection(5)
        all_empty.add(np.empty(0, dtype=np.int64), 1.0)
        thawed = all_empty.freeze().to_collection()
        thawed.add(np.array([2, 3]), 1.0)
        assert thawed.num_sets == 2
        assert list(thawed.set_members(1)) == [2, 3]

    def test_thaw_round_trip(self):
        rng = np.random.default_rng(13)
        collection = random_collection(rng, num_nodes=9, num_sets=25)
        thawed = collection.freeze().to_collection()
        assert thawed.num_sets == collection.num_sets
        assert thawed.average_set_size() == collection.average_set_size()
        assert_identical(node_selection(thawed, 5),
                         node_selection(collection, 5))

    def test_duplicate_members_stay_equivalent(self):
        # duplicated members duplicate postings; the greedy must still
        # count each covered set's weight exactly once
        collection = RRCollection(4)
        collection.add(np.array([1, 1, 2]), 3.0)
        collection.add(np.array([2, 3]), 1.0)
        reference = select_reference(collection, 3)
        for select in (select_lazy, select_eager):
            assert_identical(select(collection, 3), reference)
        assert reference.covered_weight == 4.0

    def test_member_validation(self):
        collection = RRCollection(4)
        with pytest.raises(AlgorithmError):
            collection.add(np.array([4]), 1.0)
        with pytest.raises(AlgorithmError):
            collection.extend([(np.array([-1]), 1.0)])

    def test_initial_gains_matches_posting_sums(self):
        rng = np.random.default_rng(17)
        collection = random_collection(rng, num_nodes=8, num_sets=30)
        gains = collection.initial_gains()
        weights = collection.weights()
        for node in range(8):
            expected = sum(weights[i]
                           for i in collection.sets_covered_by(node))
            assert gains[node] == pytest.approx(expected)


class TestGreedyOrderCache:
    """Budgets answered from the cached greedy order equal fresh runs."""

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_budget_sequence_matches_fresh_selection(self, seed,
                                                            frozen):
        rng = np.random.default_rng(300 + seed)
        collection = random_collection(rng, num_nodes=12, num_sets=30,
                                       weighted=seed % 2 == 0)
        holder = collection.freeze() if frozen else collection
        # rising, falling, repeated, zero and beyond-n budgets, shuffled
        budgets = [1, 3, 6, 12, 6, 3, 3, 0, 0, 20, 12, 7]
        budgets += rng.integers(0, 16, size=12).tolist()
        rng.shuffle(budgets)
        for k in budgets:
            for mode in ("pad", "stop"):
                got = node_selection(holder, k, on_saturation=mode)
                fresh = node_selection(fresh_index(holder), k,
                                       on_saturation=mode)
                assert_identical(got, fresh)
                # callers own their result: mutating it leaves the cache
                got.seeds.append(-1)
                got.prefix_weights.append(-1.0)
        assert len(holder._greedy.seeds) == 12

    def test_only_larger_budgets_rerun_the_greedy(self, monkeypatch):
        runs = []
        original = coverage._select_packed

        def counting(collection, k):
            runs.append(k)
            return original(collection, k)

        monkeypatch.setattr(coverage, "_select_packed", counting)
        collection = random_collection(np.random.default_rng(7))
        for k in (3, 1, 3, 0, 5, 4, 5):
            node_selection(collection, k)
        assert runs == [3, 5]
        # the frozen index inherits the order (read-only, safe to share)
        node_selection(collection.freeze(), 5, on_saturation="stop")
        assert runs == [3, 5]

    @pytest.mark.parametrize("append", ["add", "extend", "extend_packed"])
    def test_appends_recompute(self, append):
        collection = RRCollection(4)
        collection.add(np.array([0, 1]), 1.0)
        collection.add(np.array([1, 2]), 1.0)
        before = node_selection(collection, 4)
        assert before.seeds[0] == 1
        new_set = (np.array([3]), 5.0)
        if append == "add":
            collection.add(*new_set)
        elif append == "extend":
            collection.extend([new_set])
        else:
            collection.extend_packed(PackedRRBatch.from_pairs([new_set]))
        after = node_selection(collection, 2)
        assert after.seeds == [3, 1]
        assert_identical(after, node_selection(fresh_index(collection), 2))
        assert_identical(after, _select_reference(collection, 2))

    def test_uncoverable_appends_keep_the_order(self):
        collection = RRCollection(4)
        collection.add(np.array([0, 1]), 1.0)
        node_selection(collection, 4)
        order = collection._greedy
        # empty and zero-weight sets can never be covered
        collection.add(np.empty(0, dtype=np.int64), 1.0)
        collection.extend([(np.array([2]), 0.0)])
        assert collection._greedy is order
        assert_identical(node_selection(collection, 3),
                         _select_reference(collection, 3))
