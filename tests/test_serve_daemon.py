"""JSON-lines daemon protocol tests plus the registry/serve CLI flow."""

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import FormatSelector
from repro.features import extract_features
from repro.serve import ModelRegistry, SelectionService, handle_request, serve_jsonl


@pytest.fixture(scope="module")
def train(mini_dataset):
    return mini_dataset.drop_coo_best()


@pytest.fixture(scope="module")
def selector(train):
    return FormatSelector("decision_tree", feature_set="set123").fit(train)


@pytest.fixture(scope="module")
def matrices(mini_corpus):
    return [entry.build() for entry in list(mini_corpus)[:3]]


@pytest.fixture
def service(selector):
    return SelectionService(selector)


class TestProtocol:
    def test_predict_features(self, service, matrices, train):
        response = handle_request(
            service,
            {"op": "predict", "id": "q1",
             "features": extract_features(matrices[0])},
        )
        assert response["ok"] is True
        assert response["id"] == "q1"
        assert response["config"]["key"] in train.formats
        assert response["latency_ms"] >= 0

    def test_predict_vector(self, service, train):
        response = handle_request(
            service,
            {"op": "predict", "vector": train.feature_array[0].tolist()},
        )
        assert response["ok"] is True

    def test_predict_path(self, service, matrices, train, tmp_path):
        from repro.matrices import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(matrices[0], path)
        response = handle_request(
            service, {"op": "predict", "path": str(path)}
        )
        assert response["ok"] is True
        assert response["config"]["key"] in train.formats

    def test_predict_source_validation(self, service):
        assert handle_request(service, {"op": "predict"})["ok"] is False
        both = handle_request(
            service, {"op": "predict", "vector": [], "features": {}}
        )
        assert both["ok"] is False
        assert "exactly one" in both["error"]

    def test_feedback_and_stats(self, service, matrices, train):
        predict = handle_request(
            service,
            {"op": "predict", "id": "f1",
             "features": extract_features(matrices[0])},
        )
        observed = {f: 1.0 for f in train.formats}
        observed[predict["config"]["key"]] = 1.5
        feedback = handle_request(
            service, {"op": "feedback", "id": "f1", "times": observed}
        )
        assert feedback["ok"] is True
        assert feedback["regret"] == pytest.approx(0.5)
        stats = handle_request(service, {"op": "stats"})
        assert stats["ok"] is True
        assert stats["stats"]["feedback"]["count"] == 1

    def test_unknown_op(self, service):
        response = handle_request(service, {"op": "levitate"})
        assert response["ok"] is False
        assert "unknown op" in response["error"]

    def test_errors_do_not_crash(self, service):
        assert handle_request(service, ["not", "a", "dict"])["ok"] is False
        assert handle_request(
            service, {"op": "feedback", "id": "nope", "times": {}}
        )["ok"] is False


class TestServeLoop:
    def test_loop_end_to_end(self, service, matrices, train):
        lines = [
            json.dumps({"op": "predict", "id": f"q{i}",
                        "features": extract_features(m)})
            for i, m in enumerate(matrices)
        ]
        lines += ["", "garbage", json.dumps({"op": "stats"}),
                  json.dumps({"op": "shutdown"}),
                  json.dumps({"op": "predict"})]  # after shutdown: unreached
        out = io.StringIO()
        served = serve_jsonl(service, lines, out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        # Six responses (3 predicts + bad JSON + stats + shutdown; blank
        # skipped, tail unread) but only five *served* requests — the
        # malformed line is a protocol error, not a served request.
        assert len(responses) == 6
        assert served == 5
        assert [r["ok"] for r in responses] == [True] * 3 + [False, True, True]
        assert responses[-1]["shutdown"] is True
        assert service.telemetry.snapshot()["protocol_errors"] == 1
        assert service.stats()["protocol_errors"] == 1

    def test_malformed_lines_do_not_consume_budget(self, service, train):
        """An error flood must not truncate the daemon via max_requests."""
        request = json.dumps(
            {"op": "predict", "vector": train.feature_array[0].tolist()}
        )
        lines = ["{broken", request, "%%%", request, "{", request]
        out = io.StringIO()
        served = serve_jsonl(service, lines, out, max_requests=3)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        assert served == 3                      # every valid request served
        assert len(responses) == 6              # errors still answered
        assert [r["ok"] for r in responses] == [False, True] * 3
        assert service.telemetry.snapshot()["protocol_errors"] == 3

    def test_max_requests(self, service, train):
        request = json.dumps(
            {"op": "predict", "vector": train.feature_array[0].tolist()}
        )
        out = io.StringIO()
        served = serve_jsonl(service, [request] * 10, out, max_requests=4)
        assert served == 4


class TestCLI:
    @pytest.fixture(scope="class")
    def registry_dir(self, mini_dataset, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli_registry")
        dataset_path = root / "ds.npz"
        mini_dataset.save(dataset_path)
        registry = root / "registry"
        rc = main([
            "registry", "save", "--registry", str(registry),
            "--name", "sel", "--dataset", str(dataset_path),
            "--kind", "selector", "--model", "decision_tree",
            "--feature-set", "set123", "--promote",
        ])
        assert rc == 0
        rc = main([
            "registry", "save", "--registry", str(registry),
            "--name", "prd", "--dataset", str(dataset_path),
            "--kind", "predictor", "--model", "decision_tree",
            "--feature-set", "set123", "--promote",
        ])
        assert rc == 0
        return registry

    @pytest.fixture(scope="class")
    def mtx_files(self, mini_corpus, tmp_path_factory):
        from repro.matrices import write_matrix_market

        root = tmp_path_factory.mktemp("cli_mtx")
        paths = []
        for entry in list(mini_corpus)[:3]:
            path = root / f"{entry.name}.mtx"
            write_matrix_market(entry.build(), path)
            paths.append(path)
        return paths

    def test_registry_list(self, registry_dir, capsys):
        assert main(["registry", "list", "--registry", str(registry_dir)]) == 0
        out = capsys.readouterr().out
        assert "sel:v0001" in out and "prd:v0001" in out
        assert out.count(" *") == 2  # both promoted

    def test_registry_promote_unknown_fails(self, registry_dir, capsys):
        rc = main(["registry", "promote", "--registry", str(registry_dir),
                   "--name", "sel", "--version", "v0099"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_serve_one_shot_matches_cold_load(self, registry_dir, mtx_files,
                                              mini_dataset, capsys):
        # CLI (fresh registry load) must agree with the in-process model.
        rc = main(["serve", "--registry", str(registry_dir),
                   "--selector", "sel", "--predictor", "prd",
                   "--mode", "hybrid", "--stats"]
                  + [str(p) for p in mtx_files])
        assert rc == 0
        out = capsys.readouterr().out
        service = SelectionService.from_registry(
            registry_dir, "sel", "prd", mode="hybrid"
        )
        from repro.matrices import read_matrix_market

        for path in mtx_files:
            expected = service.predict(read_matrix_market(path)).chosen
            assert f"{path.name}: {expected}" in out
        assert '"requests": 3' in out  # --stats telemetry block

    def test_serve_daemon_via_stdin(self, registry_dir, mtx_files,
                                    monkeypatch, capsys):
        requests = [
            json.dumps({"op": "predict", "id": "d0", "path": str(mtx_files[0])}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "shutdown"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(requests) + "\n"))
        rc = main(["serve", "--registry", str(registry_dir),
                   "--selector", "sel", "--daemon"])
        assert rc == 0
        responses = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["ok"] for r in responses] == [True, True, True]
        assert responses[0]["id"] == "d0"
        assert responses[2]["shutdown"] is True

    def test_serve_requires_models_and_input(self, registry_dir, capsys):
        assert main(["serve", "--registry", str(registry_dir)]) == 1
        assert main(["serve", "--registry", str(registry_dir),
                     "--selector", "sel"]) == 1
        assert main(["serve", "--registry", str(registry_dir),
                     "--selector", "ghost", "--daemon"]) == 1


def _assert_stats_match_metrics(stats, metrics):
    """Every count in ``stats`` equals its ``serve.*`` metric."""
    value = lambda name: metrics[name]["value"]  # noqa: E731
    assert value("serve.requests") == stats["requests"]
    assert metrics["serve.batch_size"]["count"] == stats["batches"]
    assert value("serve.errors") == stats["protocol_errors"]
    assert value("serve.connections") == stats["connections"]["total"]
    assert value("serve.active_connections") == stats["connections"]["active"]
    assert value("serve.disconnects") == stats["connections"]["disconnects"]
    for kind in ("feature", "decision"):
        for what in ("hits", "misses"):
            assert (value(f"serve.{kind}_cache_{what}")
                    == stats[f"{kind}_cache"][what])
    assert value("serve.feedback") == stats["feedback"]["count"]
    if stats["feedback"]["count"]:
        assert value("serve.regret_ewma") == stats["feedback"]["regret_ewma"]


class TestObservability:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        from repro import obs

        obs.disable(reset=True)
        yield
        obs.disable(reset=True)

    def test_metrics_op_returns_snapshot(self, service, train):
        from repro.obs.export import SNAPSHOT_SCHEMA

        response = handle_request(service, {"op": "metrics"})
        assert response["ok"] is True
        assert response["metrics"]["schema"] == SNAPSHOT_SCHEMA

    def test_serve_counters_match_service_stats(self, service, matrices):
        """The obs mirrors and the ServiceTelemetry stats must agree."""
        from repro import obs

        obs.enable()
        lines = [
            json.dumps({"op": "predict", "features": extract_features(m)})
            for m in matrices * 2
        ]
        out = io.StringIO()
        served = serve_jsonl(service, lines, out)
        stats = service.stats()
        metrics = obs.snapshot()["metrics"]
        assert metrics["serve.requests"]["value"] == stats["requests"] == served
        assert metrics["serve.request_seconds"]["count"] == served
        hits = stats["decision_cache"]["hits"]
        assert metrics["serve.decision_cache_hits"]["value"] == hits
        _assert_stats_match_metrics(stats, metrics)

    def test_serve_counters_match_service_stats_over_socket(
        self, service, train
    ):
        """Socket traffic: the stats and metrics ops read one store."""
        import socket
        import time

        from repro.serve import SelectionServer

        vec = train.feature_array[0].tolist()
        server = SelectionServer(service, port=0).start()
        try:
            # A client that sends a predict and vanishes without reading.
            dropped = socket.create_connection(server.address, timeout=10)
            dropped.sendall((json.dumps(
                {"op": "predict", "vector": vec}) + "\n").encode())
            dropped.close()
            sock = socket.create_connection(server.address, timeout=10)
            with sock, sock.makefile("rw", encoding="utf-8") as fh:
                def ask(line):
                    fh.write(line + "\n")
                    fh.flush()
                    return json.loads(fh.readline())

                for i in range(4):
                    assert ask(json.dumps({"op": "predict", "id": f"s{i}",
                                           "vector": vec}))["ok"]
                times = {f: 1.0 + k for k, f in enumerate(train.formats)}
                assert ask(json.dumps({"op": "feedback", "id": "s0",
                                       "times": times}))["ok"]
                assert ask("{not json")["ok"] is False
                deadline = time.monotonic() + 10
                while (service.telemetry.snapshot()["connections"]["active"]
                       > 1 and time.monotonic() < deadline):
                    time.sleep(0.01)
                stats = ask(json.dumps({"op": "stats"}))["stats"]
                metrics = ask(json.dumps({"op": "metrics"}))["metrics"]
        finally:
            server.shutdown()
        assert stats["requests"] == 5
        assert stats["protocol_errors"] == 1
        assert stats["connections"]["total"] == 2
        assert stats["connections"]["active"] == 1
        assert stats["feedback"]["count"] == 1
        _assert_stats_match_metrics(stats, metrics["metrics"])

    def test_mid_session_metrics_snapshot_is_consistent(self, service, train):
        from repro import obs
        from repro.obs.export import check_snapshot

        obs.enable()
        lines = [
            json.dumps({"op": "predict",
                        "vector": train.feature_array[0].tolist()}),
            json.dumps({"op": "metrics"}),
        ]
        out = io.StringIO()
        serve_jsonl(service, lines, out)
        responses = [json.loads(l) for l in out.getvalue().splitlines()]
        snap = responses[1]["metrics"]
        # Taken inside serve.session/serve.request: both spans are open,
        # yet the snapshot must still be hierarchy-consistent.
        assert check_snapshot(snap) == []
        assert snap["spans"]["serve.session"]["open"] == 1
        assert snap["spans"]["serve.session/serve.request"]["open"] == 1

    def test_snapshot_every_emits_flight_records(self, service, train):
        from repro import obs
        from repro.obs.export import SNAPSHOT_SCHEMA

        events = []
        obs.enable(sink=lambda event, payload: events.append((event, payload)))
        request = json.dumps(
            {"op": "predict", "vector": train.feature_array[0].tolist()}
        )
        out = io.StringIO()
        served = serve_jsonl(service, [request] * 5, out, snapshot_every=2)
        assert served == 5
        snaps = [p for e, p in events if e == "serve.snapshot"]
        # After requests 2 and 4, plus the final one at loop exit.
        assert len(snaps) == 3
        assert all(s["schema"] == SNAPSHOT_SCHEMA for s in snaps)
        # The final snapshot reports the closed session span.
        assert "open" not in snaps[-1]["spans"]["serve.session"]

    def test_snapshot_every_validates(self, service):
        with pytest.raises(ValueError):
            serve_jsonl(service, [], io.StringIO(), snapshot_every=0)

    def test_protocol_errors_are_spanned_and_counted(self, service, train):
        """Malformed lines hit the serve.request span and serve.errors,
        and don't advance the snapshot_every flight recorder."""
        from repro import obs

        events = []
        obs.enable(sink=lambda event, payload: events.append(event))
        request = json.dumps(
            {"op": "predict", "vector": train.feature_array[0].tolist()}
        )
        lines = ["garbage1", request, "garbage2", "garbage3", request]
        out = io.StringIO()
        served = serve_jsonl(service, lines, out, snapshot_every=2)
        assert served == 2
        snap = obs.snapshot()
        spans = snap["spans"]["serve.session/serve.request"]
        assert spans["count"] == 5              # every handled line spanned
        assert snap["metrics"]["serve.errors"]["value"] == 3
        # One snapshot at served==2 plus the final one at loop exit; the
        # three garbage lines advanced nothing.
        assert events.count("serve.snapshot") == 2


class TestConfigProtocol:
    """Wire-level Configuration surface of the daemon."""

    def test_predict_response_carries_config(self, service, matrices):
        from repro import tuning

        response = handle_request(
            service,
            {"op": "predict", "id": "c1",
             "features": extract_features(matrices[0])},
        )
        assert response["ok"] is True
        config = response["config"]
        # The decision travels only as "config", which round-trips
        # through its key.
        assert "format" not in response
        parsed = tuning.Configuration.from_key(config["key"])
        assert parsed.as_dict() == config

    def test_feedback_with_unparseable_chosen_is_an_error(self, service):
        response = handle_request(
            service,
            {"op": "feedback", "id": "x", "times": {"csr": 1.0},
             "chosen": "my_format"},
        )
        assert response["ok"] is False
        assert response["error"].startswith("ConfigError:")

    def test_feedback_accepts_config_alias(self, service, train):
        times = {f: 1.0 for f in train.formats}
        response = handle_request(
            service,
            {"op": "feedback", "id": "cfg-1", "times": times,
             "config": {"format": train.formats[0], "params": {}}},
        )
        assert response["ok"] is True
        assert response["regret"] == pytest.approx(0.0)
