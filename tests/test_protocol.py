"""Tests for the versioned serve protocol (:mod:`repro.api.protocol`).

Covers v1 request → response → ``RunSpec.from_dict`` round-trips, the
error envelopes (unknown version, malformed request, invalid spec,
incompatible spec, unsupported algorithm), fingerprint-keyed response
caching, and the acceptance property that a ``repro run`` and an
equivalent ``repro serve`` request produce bit-identical allocations.
"""

import io
import json

import pytest

from repro.api import (
    EngineConfig,
    PROTOCOL_VERSION,
    RunSpec,
    WorkloadSpec,
    make_request,
)
from repro.cli import main
from repro.index import AllocationService, build_index
from repro.utility.configs import configuration_model


@pytest.fixture(scope="module")
def instance():
    from repro.graphs.datasets import load_network

    graph = load_network("nethept", scale=0.01, rng=4)
    model = configuration_model("C1")
    return graph, model


@pytest.fixture(scope="module")
def spec():
    return RunSpec(
        algorithm="SeqGRD-NM",
        workload=WorkloadSpec(network="nethept", scale=0.01,
                              configuration="C1",
                              budgets={"i": 2, "j": 2}),
        engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))


@pytest.fixture(scope="module")
def service(instance, spec):
    graph, model = instance
    index = build_index(
        graph, model, sampler="marginal",
        budgets=dict(spec.workload.budgets),
        options=spec.engine.imm_options(), seed=spec.engine.seed,
        meta_extra={"network": "nethept", "scale": 0.01,
                    "configuration": "C1", "graph_seed": 4,
                    "fixed_imm_item": None, "fixed_imm_budget": 50})
    return AllocationService(index, graph=graph, model=model)


class TestVersionedRequests:
    def test_round_trip_spec_equality(self, service, spec):
        response = service.handle_request(make_request(spec, request_id=7))
        assert response["ok"] is True
        assert response["v"] == PROTOCOL_VERSION
        assert response["id"] == 7
        assert RunSpec.from_dict(response["spec"]) == spec
        assert response["fingerprint"] == spec.fingerprint()
        assert set(response["allocation"]) == {"i", "j"}
        assert response["welfare"] >= 0
        assert "latency_ms" in response["timings"]

    def test_fingerprint_keyed_cache(self, service, spec):
        first = service.handle_request(make_request(spec))
        second = service.handle_request(make_request(spec))
        assert second["cached"] is True
        assert second["allocation"] == first["allocation"]

    def test_unknown_version_envelope(self, service):
        response = service.handle_request({"v": 99, "spec": {}})
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-version"
        assert "99" in response["error"]["message"]

    def test_missing_spec_envelope(self, service):
        response = service.handle_request({"v": 1, "id": "x"})
        assert response["ok"] is False
        assert response["error"]["code"] == "malformed-request"
        assert response["id"] == "x"

    def test_malformed_spec_envelope(self, service):
        response = service.handle_request(
            {"v": 1, "spec": {"algorithm": "SeqGRD-NM",
                              "workload": {"bogus": 1}}})
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid-spec"
        assert "bogus" in response["error"]["message"]

    def test_removed_selection_strategy_envelope(self, service, spec):
        # spec schema 2 dropped the knob; old clients get invalid-spec
        request = make_request(spec)
        request["spec"]["engine"]["selection_strategy"] = "eager"
        response = service.handle_request(request)
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid-spec"
        assert "selection_strategy" in response["error"]["message"]

    def test_unknown_algorithm_envelope(self, service):
        response = service.handle_request(
            {"v": 1, "spec": {"algorithm": "Mystery"}})
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-algorithm"

    def test_unsupported_algorithm_envelope(self, service, spec):
        request = make_request(RunSpec("TCIM", spec.workload, spec.engine))
        response = service.handle_request(request)
        assert response["ok"] is False
        assert response["error"]["code"] == "unsupported-algorithm"

    def test_incompatible_seed_envelope(self, service, spec):
        import dataclasses

        other = dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, seed=99))
        response = service.handle_request(make_request(other))
        assert response["ok"] is False
        assert response["error"]["code"] == "incompatible-spec"
        assert "seed" in response["error"]["message"]

    def test_incompatible_fixed_allocation_envelope(self, service, spec):
        import dataclasses

        other = dataclasses.replace(
            spec, workload=dataclasses.replace(
                spec.workload, budgets={"i": 2},
                fixed_allocation={"j": (5,)}))
        response = service.handle_request(make_request(other))
        assert response["ok"] is False
        assert response["error"]["code"] == "incompatible-spec"
        assert "fixed_allocation" in response["error"]["message"]

    def test_incompatible_epsilon_envelope(self, service, spec):
        import dataclasses

        other = dataclasses.replace(
            spec, engine=dataclasses.replace(spec.engine, epsilon=0.1))
        response = service.handle_request(make_request(other))
        assert response["ok"] is False
        assert response["error"]["code"] == "incompatible-spec"

    def test_legacy_dialect_still_served(self, service):
        response = service.handle_request(
            {"op": "query", "budgets": {"i": 2, "j": 2}})
        assert response["ok"] is True
        assert "allocation" in response


class TestServeMatchesRun:
    """Acceptance: `repro run` and an equivalent serve request produce
    bit-identical allocations."""

    RUN = ["run", "--network", "nethept", "--scale", "0.01", "--budget", "2",
           "--samples", "10", "--max-rr-sets", "2000", "--seed", "4"]
    BUILD = ["index", "build", "--network", "nethept", "--scale", "0.01",
             "--budget", "2", "--max-rr-sets", "2000", "--seed", "4"]

    def test_serve_request_reproduces_run(self, tmp_path, capsys,
                                          monkeypatch):
        assert main(self.RUN + ["--json"]) == 0
        run_payload = json.loads(capsys.readouterr().out)

        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()

        spec = RunSpec(
            algorithm="SeqGRD-NM",
            workload=WorkloadSpec(network="nethept", scale=0.01,
                                  configuration="C1", budget=2),
            engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))
        requests = json.dumps(make_request(spec, request_id=1)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", "--index", str(out)]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert len(lines) == 1
        response = lines[0]
        assert response["ok"] is True, response
        assert response["allocation"] == run_payload["allocation"]
        assert response["fingerprint"] == run_payload["spec_fingerprint"]

    def test_mixed_dialects_in_one_session(self, tmp_path, capsys,
                                           monkeypatch):
        out = tmp_path / "idx"
        assert main(self.BUILD + ["--out", str(out)]) == 0
        capsys.readouterr()
        spec = RunSpec(
            algorithm="SeqGRD-NM",
            workload=WorkloadSpec(network="nethept", scale=0.01,
                                  configuration="C1", budget=2),
            engine=EngineConfig(seed=4, samples=10, max_rr_sets=2000))
        requests = "\n".join([
            '{"op": "ping"}',
            json.dumps(make_request(spec)),
            '{"v": 2, "spec": {}}',
        ]) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(["serve", "--index", str(out)]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert lines[0]["pong"] is True
        assert lines[1]["ok"] is True
        assert lines[2]["error"]["code"] == "unsupported-version"
