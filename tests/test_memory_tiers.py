"""Tests for the memory-tier refactor: dtype-adaptive stores, the v2
mmap-backed on-disk format (with v1 read-compat), the streaming build
path, and resident-bytes accounting in the serving layer."""

import json

import numpy as np
import pytest

from repro.exceptions import AlgorithmError, IndexStoreError
from repro.graphs import generators, weighting
from repro.index import (
    AllocationService,
    FORMAT_VERSION,
    FrozenRRIndex,
    StreamingIndexWriter,
    build_index,
    build_streaming_index,
    index_paths,
)
from repro.rrsets.coverage import (
    RRCollection,
    _select_reference,
    min_id_dtype,
    min_set_dtype,
    node_selection,
)

#: the production greedy and its reference oracle
SELECTORS = (node_selection, _select_reference)
from repro.rrsets.imm import IMMOptions
from repro.serve.registry import IndexRegistry


@pytest.fixture(scope="module")
def graph():
    g = generators.erdos_renyi(150, avg_degree=4.0, rng=9, directed=True,
                               name="er150-tiers")
    return weighting.weighted_cascade(g)


def sample_collection(num_nodes=60, num_sets=80, seed=17, weighted=False,
                      id_dtype=None):
    rng = np.random.default_rng(seed)
    collection = RRCollection(num_nodes, id_dtype=id_dtype)
    for _ in range(num_sets):
        size = int(rng.integers(1, 6))
        nodes = rng.choice(num_nodes, size=size, replace=False)
        weight = float(rng.random()) + 0.25 if weighted else 1.0
        collection.add(nodes.astype(np.int64), weight)
    return collection


class TestDtypeAdaptation:
    def test_small_store_uses_int32_ids(self):
        collection = sample_collection()
        frozen = collection.freeze()
        assert collection.id_dtype == np.dtype(np.int32)
        assert frozen.id_dtype == np.dtype(np.int32)
        assert frozen.set_dtype == np.dtype(np.int32)

    def test_min_dtype_policy_boundary(self):
        assert min_id_dtype(2 ** 31 - 1) == np.dtype(np.int32)
        assert min_id_dtype(2 ** 31) == np.dtype(np.int64)
        assert min_set_dtype(10) == np.dtype(np.int32)
        assert min_set_dtype(2 ** 31) == np.dtype(np.int64)

    def test_explicit_int64_store_honoured(self):
        collection = sample_collection(id_dtype=np.int64)
        assert collection.id_dtype == np.dtype(np.int64)
        assert collection.freeze().id_dtype == np.dtype(np.int64)

    def test_too_narrow_dtype_rejected(self):
        with pytest.raises(AlgorithmError, match="dtype"):
            RRCollection(2 ** 31 + 5, id_dtype=np.int32)

    def test_selection_identical_across_id_dtypes(self):
        narrow = sample_collection(weighted=True)
        wide = sample_collection(weighted=True, id_dtype=np.int64)
        results = {}
        for label, store in (("int32", narrow.freeze()),
                             ("int64", wide.freeze())):
            for select in SELECTORS:
                got = select(store, 6)
                results.setdefault(label, []).append(
                    (got.seeds, got.prefix_weights))
        assert results["int32"] == results["int64"]

    def test_array_nbytes_reflects_narrow_ids(self):
        frozen = sample_collection().freeze()
        packed_nodes = frozen._packed()[1]
        assert packed_nodes.dtype == np.dtype(np.int32)
        # accounting must use real nbytes, not an assumed 8-byte id width
        assert frozen.array_nbytes() >= packed_nodes.nbytes
        total = sum(array.nbytes for array in frozen._arrays().values())
        assert frozen.array_nbytes() == total

    def test_repair_widens_members_across_int32_boundary(self):
        """Regression: node insertions pushing ``num_nodes`` past 2**31
        must widen an int32 member store to int64 instead of silently
        overflowing when a repaired set references a new high node id.
        ``replace_sets`` never allocates O(num_nodes), so the policy is
        testable at the exact boundary."""
        from repro.dynamic import replace_sets

        offsets = np.array([0, 2, 3], dtype=np.int64)
        nodes = np.array([7, 2 ** 31 - 1, 4], dtype=np.int32)
        weights = np.ones(2)
        boundary = 2 ** 31  # first id int32 cannot hold
        new_offsets, new_nodes, new_weights = replace_sets(
            offsets, nodes, weights,
            {1: (np.array([boundary, boundary + 3], dtype=np.int64), 2.0)},
            num_nodes=boundary + 4)
        assert new_nodes.dtype == np.dtype(np.int64)
        assert new_nodes.tolist() == [7, 2 ** 31 - 1, boundary,
                                      boundary + 3]
        assert new_offsets.tolist() == [0, 2, 4]
        assert new_weights[1] == 2.0
        # narrowing never happens: an int64 store stays int64 even when
        # num_nodes would fit int32 again
        _, shrunk_nodes, _ = replace_sets(
            new_offsets, new_nodes, new_weights,
            {0: (np.array([1], dtype=np.int64), 1.0)}, num_nodes=100)
        assert shrunk_nodes.dtype == np.dtype(np.int64)


class TestV2Format:
    def test_save_records_format_and_dtypes(self, tmp_path):
        frozen = sample_collection().freeze()
        _, manifest_path = frozen.save(tmp_path / "idx")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["format_version"] == FORMAT_VERSION == 2
        assert manifest["dtypes"]["nodes"] == "int32"
        assert manifest["dtypes"]["offsets"] == "int64"
        assert manifest["array_bytes"] == frozen.array_nbytes()

    def test_mmap_load_round_trip(self, tmp_path):
        frozen = sample_collection(weighted=True).freeze()
        frozen.save(tmp_path / "idx")
        mapped = FrozenRRIndex.load(tmp_path / "idx", mmap=True)
        assert mapped.mmapped is True
        assert mapped.resident_nbytes() == 0
        frozen.initial_gains()  # materialize gains0 so both sides have it
        assert mapped.array_nbytes() == frozen.array_nbytes()
        ours_by_name = frozen._arrays()
        for name, theirs in mapped._arrays().items():
            ours = ours_by_name[name]
            np.testing.assert_array_equal(np.asarray(ours),
                                          np.asarray(theirs))
            assert ours.dtype == theirs.dtype
        assert mapped.total_weight == pytest.approx(frozen.total_weight)

    def test_mmap_selection_matches_heap_selection(self, tmp_path):
        frozen = sample_collection(weighted=True).freeze()
        frozen.save(tmp_path / "idx")
        mapped = FrozenRRIndex.load(tmp_path / "idx", mmap=True)
        heap = FrozenRRIndex.load(tmp_path / "idx")
        assert heap.mmapped is False
        assert heap.resident_nbytes() == heap.array_nbytes() > 0
        for select in SELECTORS:
            a = select(mapped, 5)
            b = select(heap, 5)
            assert a.seeds == b.seeds
            assert a.prefix_weights == b.prefix_weights


class TestV1ReadCompat:
    """Indexes written by the old (compressed, int64-only) code still load."""

    def _write_v1(self, frozen, stem):
        """Emulate the pre-v2 save: compressed npz, int64 ids, no
        inverted CSR / gains members, format_version 1 manifest."""
        npz_path, manifest_path = index_paths(stem)
        offsets, nodes, weights = frozen._packed()
        np.savez_compressed(npz_path, offsets=offsets.astype(np.int64),
                            nodes=nodes.astype(np.int64), weights=weights)
        manifest_path.write_text(json.dumps({
            "format_version": 1,
            "num_nodes": frozen.num_nodes,
            "num_sets": frozen.num_sets,
            "total_weight": frozen.total_weight,
            "meta": {"fingerprint": "cafe" * 16},
        }), encoding="utf-8")
        return npz_path, manifest_path

    def test_v1_round_trips_bit_identically(self, tmp_path):
        frozen = sample_collection(weighted=True).freeze()
        self._write_v1(frozen, tmp_path / "legacy")
        loaded = FrozenRRIndex.load(tmp_path / "legacy")
        offsets, nodes, weights = frozen._packed()
        got_offsets, got_nodes, got_weights = loaded._packed()
        np.testing.assert_array_equal(got_offsets, offsets)
        np.testing.assert_array_equal(np.asarray(got_nodes),
                                      np.asarray(nodes).astype(np.int64))
        np.testing.assert_array_equal(got_weights, weights)
        # the lazily rebuilt inverted CSR and gains match the v2 ones
        for a, b in zip(frozen._inverted(), loaded._inverted()):
            np.testing.assert_array_equal(np.asarray(a).astype(np.int64),
                                          np.asarray(b).astype(np.int64))
        np.testing.assert_array_equal(frozen.initial_gains(),
                                      loaded.initial_gains())
        for select in SELECTORS:
            a = select(frozen, 5)
            b = select(loaded, 5)
            assert a.seeds == b.seeds
            assert a.prefix_weights == b.prefix_weights

    def test_v1_mmap_request_falls_back_to_heap(self, tmp_path):
        frozen = sample_collection().freeze()
        self._write_v1(frozen, tmp_path / "legacy")
        loaded = FrozenRRIndex.load(tmp_path / "legacy", mmap=True)
        assert loaded.mmapped is False
        assert loaded.num_sets == frozen.num_sets

    def test_v1_rejected_only_on_fingerprint_mismatch(self, tmp_path):
        frozen = sample_collection().freeze()
        self._write_v1(frozen, tmp_path / "legacy")
        loaded = FrozenRRIndex.load(tmp_path / "legacy",
                                    expected_fingerprint="cafe" * 16)
        assert loaded.num_sets == frozen.num_sets
        with pytest.raises(IndexStoreError, match="stale"):
            FrozenRRIndex.load(tmp_path / "legacy",
                               expected_fingerprint="dead" * 16)

    def test_unknown_format_version_rejected(self, tmp_path):
        frozen = sample_collection().freeze()
        _, manifest_path = self._write_v1(frozen, tmp_path / "legacy")
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(IndexStoreError, match="format version"):
            FrozenRRIndex.load(tmp_path / "legacy")


class TestStreamingWriter:
    def test_spilled_chunks_match_freeze(self, tmp_path):
        for weighted in (False, True):
            collection = sample_collection(weighted=weighted, num_sets=120,
                                           seed=23)
            frozen = collection.freeze()
            offsets, nodes, weights = frozen._packed()
            sets = [(np.asarray(nodes[start:stop]), float(weights[i]))
                    for i, (start, stop) in enumerate(
                        zip(offsets[:-1], offsets[1:]))]
            with StreamingIndexWriter(tmp_path / f"s{int(weighted)}",
                                      collection.num_nodes,
                                      chunk_members=64) as writer:
                for batch_start in range(0, len(sets), 7):
                    writer.append(sets[batch_start:batch_start + 7])
                npz_path, _ = writer.finalize(meta={"fingerprint": "x"})
            loaded = FrozenRRIndex.load(npz_path)
            ours_by_name = frozen._arrays()
            for name in ("offsets", "nodes", "weights", "inv_offsets",
                         "inv_sets"):
                np.testing.assert_array_equal(
                    np.asarray(ours_by_name[name]),
                    np.asarray(loaded._arrays()[name]))
            np.testing.assert_array_equal(frozen.initial_gains(),
                                          loaded.initial_gains())

    def test_abort_removes_temporaries(self, tmp_path):
        with pytest.raises(RuntimeError):
            with StreamingIndexWriter(tmp_path / "gone", 10) as writer:
                writer.append([(np.array([1, 2]), 1.0)])
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []


class TestStreamingBuild:
    def test_streamed_build_matches_one_shot(self, graph, tmp_path):
        options = IMMOptions(max_rr_sets=3000)
        one_shot = build_index(graph, None, sampler="standard", k=4,
                               options=options, seed=21, workers=1)
        streamed = build_streaming_index(graph, k=4, out=tmp_path / "s",
                                         options=options, seed=21,
                                         workers=1)
        assert streamed.fingerprint == one_shot.fingerprint
        assert streamed.meta["seeds"] == one_shot.meta["seeds"]
        for ours, theirs in zip(one_shot._packed(), streamed._packed()):
            np.testing.assert_array_equal(np.asarray(ours),
                                          np.asarray(theirs))

    def test_chunk_size_invariance(self, graph, tmp_path):
        # keyed sets do not depend on how the θ sets are chunked
        a = build_streaming_index(graph, k=3, out=tmp_path / "a",
                                  rr_sets=2100, seed=5, chunk_sets=700)
        b = build_streaming_index(graph, k=3, out=tmp_path / "b",
                                  rr_sets=2100, seed=5, chunk_sets=2048)
        for ours, theirs in zip(a._packed(), b._packed()):
            np.testing.assert_array_equal(np.asarray(ours),
                                          np.asarray(theirs))
        assert a.meta["seeds"] == b.meta["seeds"]

    def test_fixed_theta_is_fingerprinted_separately(self, graph, tmp_path):
        options = IMMOptions(max_rr_sets=3000)
        adaptive = build_streaming_index(graph, k=3, out=tmp_path / "ad",
                                         options=options, seed=5)
        fixed = build_streaming_index(graph, k=3, out=tmp_path / "fx",
                                      options=options, rr_sets=2048, seed=5)
        assert fixed.num_sets == 2048
        assert adaptive.fingerprint != fixed.fingerprint


@pytest.fixture(scope="module")
def catalog_graph():
    from repro.graphs.datasets import load_network

    # the registry rebuilds each index's instance from its manifest, so the
    # accounting tests build on a real catalog workload it can reconstruct
    return load_network("nethept", scale=0.01, rng=5)


class TestServingMemoryAccounting:
    def _served_index(self, graph, tmp_path, name="svc"):
        build_streaming_index(graph, k=3, out=tmp_path / name,
                              rr_sets=2048, seed=5,
                              meta_extra={"network": "nethept",
                                          "scale": 0.01,
                                          "configuration": "C1",
                                          "graph_seed": 5})
        return tmp_path / f"{name}.npz"

    def test_service_memory_stats(self, catalog_graph, tmp_path):
        path = self._served_index(catalog_graph, tmp_path)
        mapped = AllocationService(FrozenRRIndex.load(path, mmap=True))
        heap = AllocationService(FrozenRRIndex.load(path))
        assert mapped.memory_stats["mmapped"] is True
        assert mapped.memory_stats["resident_bytes"] == 0
        assert heap.memory_stats["mmapped"] is False
        assert (heap.memory_stats["resident_bytes"]
                == heap.memory_stats["array_bytes"]
                == heap.index.array_nbytes())

    def test_registry_reports_resident_bytes(self, catalog_graph,
                                            tmp_path):
        path = self._served_index(catalog_graph, tmp_path)
        registry = IndexRegistry(paths=[path], verify=False)
        (key,) = registry.keys()
        registry.get(key)
        stats = registry.stats()
        assert stats["mmap"] is True
        assert stats["resident_bytes"] == 0
        assert stats["indexes"][key]["mmapped"] is True

    def test_registry_heap_mode_counts_bytes(self, catalog_graph,
                                             tmp_path):
        path = self._served_index(catalog_graph, tmp_path)
        registry = IndexRegistry(paths=[path], verify=False, mmap=False)
        (key,) = registry.keys()
        service = registry.get(key).service
        stats = registry.stats()
        assert stats["resident_bytes"] == service.index.array_nbytes() > 0

    def test_memory_budget_evicts_lru(self, catalog_graph, tmp_path):
        paths = [self._served_index(catalog_graph, tmp_path,
                                    name=f"idx{i}")
                 for i in range(3)]
        registry = IndexRegistry(paths=paths, verify=False, mmap=False,
                                 memory_budget=1)  # evict beyond one entry
        for key in list(registry.keys()):
            registry.get(key)
        stats = registry.stats()
        assert stats["evictions"] >= 2
        # the most recently used index always stays loaded
        assert len(stats["loaded"]) == 1

    def test_mmap_registry_fits_budget_without_eviction(self, catalog_graph,
                                                        tmp_path):
        paths = [self._served_index(catalog_graph, tmp_path, name=f"m{i}")
                 for i in range(3)]
        registry = IndexRegistry(paths=paths, verify=False, memory_budget=1)
        for key in list(registry.keys()):
            registry.get(key)
        stats = registry.stats()
        # mmapped indexes are page-cache resident, not heap resident
        assert stats["evictions"] == 0
        assert len(stats["loaded"]) == 3
