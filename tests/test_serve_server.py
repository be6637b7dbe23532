"""Concurrent socket server tests: batching, backpressure, drain, faults.

The failure paths here are the ones that only exist under concurrency:
queue-full backpressure, graceful drain with requests in flight, client
disconnects mid-request, and protocol-error floods — each asserting the
telemetry stays exact while the server survives.
"""

import json
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import FormatSelector
from repro.serve import (
    MicroBatcher,
    QueueFull,
    SelectionServer,
    SelectionService,
)


@pytest.fixture(scope="module")
def train(mini_dataset):
    return mini_dataset.drop_coo_best()


@pytest.fixture(scope="module")
def selector(train):
    return FormatSelector("decision_tree", feature_set="set123").fit(train)


@pytest.fixture
def service(selector):
    return SelectionService(selector)


class GatedService:
    """Wraps a SelectionService; predict_batch blocks until released.

    ``started`` is set on entry, so tests can wait until a batch is
    genuinely in flight before acting (deterministic backpressure and
    drain scenarios, no sleeps-as-synchronisation).
    """

    def __init__(self, inner):
        self.inner = inner
        self.telemetry = inner.telemetry
        self.gate = threading.Event()
        self.gate.set()
        self.started = threading.Event()

    def predict_batch(self, items, request_ids=None):
        self.started.set()
        assert self.gate.wait(timeout=30), "test gate never released"
        return self.inner.predict_batch(items, request_ids=request_ids)

    def __getattr__(self, name):  # stats, record_feedback, ... pass through
        return getattr(self.inner, name)


def _connect(address, timeout=10.0):
    sock = socket.create_connection(address, timeout=timeout)
    return sock, sock.makefile("rw", encoding="utf-8", newline="\n")


def _roundtrip(fh, request):
    fh.write(json.dumps(request) + "\n")
    fh.flush()
    return json.loads(fh.readline())


def _send(fh, request):
    fh.write(json.dumps(request) + "\n")
    fh.flush()


class TestMicroBatcher:
    def test_gathers_concurrent_submissions_into_one_batch(self, service):
        calls = []
        inner = service

        class Recording:
            telemetry = inner.telemetry

            def predict_batch(self, items, request_ids=None):
                calls.append(len(items))
                return inner.predict_batch(items, request_ids=request_ids)

        batcher = MicroBatcher(Recording(), max_batch=100, window_s=0.1)
        vec = list(range(17))
        futures = [batcher.submit([float(i)] + vec[1:]) for i in range(6)]
        decisions = [f.result(timeout=10) for f in futures]
        batcher.close()
        assert all(d.chosen for d in decisions)
        assert sum(calls) == 6
        assert max(calls) > 1        # cross-submission batching happened

    def test_flushes_at_max_batch(self, service):
        calls = []
        inner = service

        class Recording:
            telemetry = inner.telemetry

            def predict_batch(self, items, request_ids=None):
                calls.append(len(items))
                return inner.predict_batch(items, request_ids=request_ids)

        # Window is effectively infinite: only max_batch can flush.
        batcher = MicroBatcher(Recording(), max_batch=4, window_s=30.0)
        futures = [
            batcher.submit([float(i)] + [0.0] * 16, f"r{i}") for i in range(4)
        ]
        for f in futures:
            f.result(timeout=10)
        batcher.close()
        assert calls == [4]

    def test_queue_full_raises(self, service):
        gated = GatedService(service)
        gated.gate.clear()
        batcher = MicroBatcher(gated, max_batch=1, window_s=0.0, queue_size=1)
        vec = [1.0] * 17
        first = batcher.submit(vec)          # worker takes it, blocks on gate
        assert gated.started.wait(timeout=10)
        second = batcher.submit(vec)         # sits in the queue (capacity 1)
        with pytest.raises(QueueFull):
            batcher.submit(vec)
        gated.gate.set()
        assert first.result(timeout=10).chosen
        assert second.result(timeout=10).chosen
        batcher.close()

    def test_close_drains_admitted_requests(self, service):
        gated = GatedService(service)
        gated.gate.clear()
        batcher = MicroBatcher(gated, max_batch=1, window_s=0.0, queue_size=64)
        futures = [batcher.submit([float(i)] + [0.0] * 16) for i in range(8)]
        assert gated.started.wait(timeout=10)
        closer = threading.Thread(target=batcher.close, daemon=True)
        closer.start()
        gated.gate.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert all(f.result(timeout=10).chosen for f in futures)
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit([0.0] * 17)

    def test_poisoned_item_fails_alone(self, service):
        batcher = MicroBatcher(service, max_batch=10, window_s=0.2)
        good = batcher.submit([1.0] * 17)
        bad = batcher.submit([1.0] * 5)      # wrong vector length
        assert good.result(timeout=10).chosen
        with pytest.raises(ValueError, match="cannot interpret"):
            bad.result(timeout=10)
        batcher.close()

    def test_validates_parameters(self, service):
        with pytest.raises(ValueError):
            MicroBatcher(service, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(service, window_s=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(service, queue_size=0)


class TestConcurrentServing:
    def test_many_clients_share_batches(self, service, train, selector):
        server = SelectionServer(
            service, port=0, max_batch=64, batch_window_s=0.05
        ).start()
        rows = train.feature_array
        n_clients, per_client = 8, 4
        results = [[] for _ in range(n_clients)]
        barrier = threading.Barrier(n_clients)

        def client(c):
            sock, fh = _connect(server.address)
            with sock:
                barrier.wait(timeout=10)
                for j in range(per_client):
                    row = rows[(c * per_client + j) % len(rows)]
                    results[c].append(_roundtrip(
                        fh, {"op": "predict", "vector": row.tolist(),
                             "id": f"c{c}-{j}"}
                    ))

        threads = [
            threading.Thread(target=client, args=(c,), daemon=True)
            for c in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        server.shutdown(drain=True)

        assert all(len(r) == per_client for r in results)
        for c, responses in enumerate(results):
            for j, response in enumerate(responses):
                assert response["ok"] is True
                assert response["id"] == f"c{c}-{j}"
                row = rows[(c * per_client + j) % len(rows)]
                assert response["config"]["key"] == selector.predict_formats(
                    np.asarray(row)
                )[0]
        snap = service.telemetry.snapshot()
        assert snap["requests"] == n_clients * per_client
        assert snap["batch_size"]["max"] > 1      # cross-client batching
        assert snap["connections"]["total"] == n_clients
        assert snap["connections"]["active"] == 0

    def test_stats_and_metrics_ops_over_socket(self, service, train):
        server = SelectionServer(service, port=0).start()
        try:
            sock, fh = _connect(server.address)
            with sock:
                vec = train.feature_array[0].tolist()
                assert _roundtrip(fh, {"op": "predict", "vector": vec})["ok"]
                stats = _roundtrip(fh, {"op": "stats"})
                assert stats["ok"] is True
                assert stats["stats"]["requests"] == 1
                assert stats["stats"]["connections"]["active"] == 1
                assert "batch_size" in stats["stats"]
                metrics = _roundtrip(fh, {"op": "metrics"})
                assert metrics["ok"] is True
                # obs metrics are process-global; just check presence.
                assert metrics["metrics"]["metrics"]["serve.requests"]["value"] >= 1
        finally:
            server.shutdown()

    def test_mixed_valid_invalid_lines_keep_counts_exact(self, service, train):
        server = SelectionServer(service, port=0).start()
        try:
            sock, fh = _connect(server.address)
            with sock:
                vec = train.feature_array[0].tolist()
                responses = []
                for line in ("this is not json", "{", "[1, 2"):
                    fh.write(line + "\n")
                    fh.flush()
                    responses.append(json.loads(fh.readline()))
                responses.append(
                    _roundtrip(fh, {"op": "predict", "vector": vec})
                )
                assert [r["ok"] for r in responses] == [False] * 3 + [True]
                assert all("invalid JSON" in r["error"]
                           for r in responses[:3])
            snap = service.telemetry.snapshot()
            assert snap["protocol_errors"] == 3
            assert snap["requests"] == 1          # errors aren't requests
        finally:
            server.shutdown()

    def test_client_disconnect_does_not_kill_server(self, service, train):
        server = SelectionServer(service, port=0).start()
        try:
            vec = train.feature_array[0].tolist()
            # Client 1 fires a request and vanishes without reading.
            sock, fh = _connect(server.address)
            _send(fh, {"op": "predict", "vector": vec})
            sock.close()
            # Client 2 (and the server) must be entirely unaffected.
            sock2, fh2 = _connect(server.address)
            with sock2:
                for _ in range(3):
                    assert _roundtrip(
                        fh2, {"op": "predict", "vector": vec}
                    )["ok"] is True
        finally:
            server.shutdown()

    def test_backpressure_busy_response_shape(self, selector):
        gated = GatedService(SelectionService(selector))
        gated.gate.clear()
        server = SelectionServer(
            gated, port=0, max_batch=1, batch_window_s=0.0, queue_size=1
        ).start()
        try:
            vec = [1.0] * 17
            # First request: worker picks it up and blocks inside the model.
            sock1, fh1 = _connect(server.address)
            _send(fh1, {"op": "predict", "vector": vec, "id": "inflight"})
            assert gated.started.wait(timeout=10)
            # Second request fills the queue (capacity 1).
            sock2, fh2 = _connect(server.address)
            _send(fh2, {"op": "predict", "vector": vec, "id": "queued"})
            # Give it a moment to be admitted before overflowing.
            time.sleep(0.2)
            # Third request overflows: explicit busy response, immediately.
            sock3, fh3 = _connect(server.address)
            busy = _roundtrip(fh3, {"op": "predict", "vector": vec})
            assert busy["ok"] is False
            assert busy["busy"] is True
            assert "overloaded" in busy["error"]
            sock3.close()
            # Release the gate: both admitted requests complete.
            gated.gate.set()
            with sock1:
                assert json.loads(fh1.readline())["id"] == "inflight"
            with sock2:
                assert json.loads(fh2.readline())["id"] == "queued"
        finally:
            gated.gate.set()
            server.shutdown()

    def test_graceful_drain_completes_in_flight_work(self, selector):
        gated = GatedService(SelectionService(selector))
        gated.gate.clear()
        server = SelectionServer(
            gated, port=0, max_batch=1, batch_window_s=0.0, queue_size=64
        ).start()
        address = server.address
        n_inflight = 6
        socks = []
        for i in range(n_inflight):
            sock, fh = _connect(address)
            _send(fh, {"op": "predict", "vector": [1.0 * i] + [0.0] * 16,
                       "id": f"inflight-{i}"})
            socks.append((sock, fh))
        assert gated.started.wait(timeout=10)
        # All six connections must be *accepted* (in flight) before the
        # drain starts; connects still in the TCP backlog are refused.
        deadline = time.monotonic() + 10
        while (gated.telemetry.snapshot()["connections"]["active"]
               < n_inflight):
            assert time.monotonic() < deadline, "connections never accepted"
            time.sleep(0.01)

        stopper = threading.Thread(
            target=lambda: server.shutdown(drain=True), daemon=True
        )
        stopper.start()
        time.sleep(0.2)           # shutdown is underway, work still gated
        gated.gate.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()

        # Zero dropped: every in-flight request got its response.
        answered = []
        for i, (sock, fh) in enumerate(socks):
            with sock:
                response = json.loads(fh.readline())
                assert response["ok"] is True
                answered.append(response["id"])
        assert answered == [f"inflight-{i}" for i in range(n_inflight)]
        assert gated.telemetry.snapshot()["requests"] == n_inflight

        # And new connections are refused after the drain.
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2)

    def test_feedback_op_parity_with_daemon(self, selector, train):
        """Socket feedback must behave exactly like the stdio daemon.

        Both front-ends funnel non-predict ops through
        ``handle_request``; this pins the contract at the socket level
        so a future server-side fast path can't silently diverge.
        """
        from repro.serve.daemon import handle_request

        socket_service = SelectionService(selector)
        daemon_service = SelectionService(selector)
        server = SelectionServer(socket_service, port=0).start()
        try:
            sock, fh = _connect(server.address)
            with sock:
                vec = train.feature_array[0].tolist()
                predicted = _roundtrip(
                    fh, {"op": "predict", "vector": vec, "id": "fp-1"}
                )
                assert predicted["ok"] is True
                handle_request(
                    daemon_service,
                    {"op": "predict", "vector": vec, "id": "fp-1"},
                )
                chosen = predicted["config"]["key"]
                other = "coo" if chosen != "coo" else "csr"
                observed = {chosen: 2.0, other: 1.0}
                request = {"op": "feedback", "id": "fp-1", "times": observed}
                via_socket = _roundtrip(fh, request)
                via_daemon = handle_request(daemon_service, dict(request))
                assert via_socket == via_daemon
                assert via_socket["ok"] is True
                assert via_socket["regret"] == pytest.approx(1.0)

                # Error shape parity too: unknown id without chosen=.
                bad = {"op": "feedback", "id": "nope", "times": {"csr": 1.0}}
                assert _roundtrip(fh, bad) == handle_request(
                    daemon_service, dict(bad)
                )

                # And the socket stats op reflects the recorded event.
                stats = _roundtrip(fh, {"op": "stats"})
                assert stats["stats"]["feedback"]["count"] == 1
                assert stats["stats"]["feedback"]["regret_mean"] == (
                    pytest.approx(1.0)
                )
                assert stats["stats"]["service"]["feedback"][
                    "chosen_distribution"
                ] == {chosen: 1}
        finally:
            server.shutdown()

    def test_feedback_with_explicit_chosen_over_socket(self, selector):
        # Decisions outside the recent window: client supplies chosen=.
        server = SelectionServer(SelectionService(selector), port=0).start()
        try:
            sock, fh = _connect(server.address)
            with sock:
                response = _roundtrip(fh, {
                    "op": "feedback", "id": "ancient", "chosen": "csr",
                    "times": {"csr": 1.5, "ell": 1.0},
                })
                assert response["ok"] is True
                assert response["optimal"] == "ell"
                assert response["regret"] == pytest.approx(0.5)
        finally:
            server.shutdown()

    def test_adaptive_ops_require_controller_over_socket(self, selector):
        # Without an attached controller, the adaptive ops answer with
        # a protocol error (and the connection stays serviceable).
        server = SelectionServer(SelectionService(selector), port=0).start()
        try:
            sock, fh = _connect(server.address)
            with sock:
                for op in ("adaptive", "promote", "rollback"):
                    response = _roundtrip(fh, {"op": op})
                    assert response["ok"] is False
                    assert "no adaptive controller" in response["error"]
                assert _roundtrip(fh, {"op": "stats"})["ok"] is True
        finally:
            server.shutdown()

    def test_network_shutdown_op_drains_server(self, service, train):
        server = SelectionServer(service, port=0).start()
        serve_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        serve_thread.start()
        sock, fh = _connect(server.address)
        with sock:
            vec = train.feature_array[0].tolist()
            assert _roundtrip(fh, {"op": "predict", "vector": vec})["ok"]
            ack = _roundtrip(fh, {"op": "shutdown"})
            assert ack["ok"] is True and ack["shutdown"] is True
        serve_thread.join(timeout=30)
        assert not serve_thread.is_alive()

    def test_lifecycle_guards(self, service):
        server = SelectionServer(service, port=0)
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        with pytest.raises(RuntimeError, match="not started"):
            server.serve_forever()
        server.start()
        with pytest.raises(RuntimeError, match="already started"):
            server.start()
        server.shutdown()
        server.shutdown()        # idempotent


class TestOneWirePath:
    """The stdio daemon and the socket server answer one line sequence
    alike: both run the same line handler."""

    def test_stdio_and_socket_responses_are_equal(self, selector, train):
        import io

        from repro.serve import serve_jsonl

        vec = train.feature_array[0].tolist()
        chosen = selector.predict_formats(np.asarray(vec))[0]
        other = "coo" if chosen != "coo" else "csr"
        lines = [
            json.dumps({"op": "predict", "vector": vec, "id": "w1"}),
            json.dumps({"op": "feedback", "id": "w1",
                        "times": {chosen: 2.0, other: 1.0}}),
            json.dumps({"op": "levitate"}),
            json.dumps({"op": "predict", "id": "w2"}),
            json.dumps([1, 2, 3]),
            "{not json",
        ]
        out = io.StringIO()
        serve_jsonl(SelectionService(selector), lines, out)
        via_stdio = [json.loads(text) for text in out.getvalue().splitlines()]

        server = SelectionServer(SelectionService(selector), port=0).start()
        try:
            sock, fh = _connect(server.address)
            with sock:
                via_socket = []
                for line in lines:
                    fh.write(line + "\n")
                    fh.flush()
                    via_socket.append(json.loads(fh.readline()))
        finally:
            server.shutdown()

        for responses in (via_stdio, via_socket):
            assert [r["ok"] for r in responses] == [True, True] + [False] * 4
            # One key per decision on the wire: "config", never "format".
            assert "format" not in responses[0]
            assert responses[0]["config"]["key"] == chosen
            assert responses[1]["regret"] == pytest.approx(1.0)
            assert "invalid JSON" in responses[5]["error"]
            responses[0].pop("latency_ms")
        assert via_socket == via_stdio


class TestDrainUnderFeedback:
    """Graceful drain raced against clients streaming predict + feedback
    pairs: every line the server read is answered, the feedback count
    matches the ok feedback responses exactly, and nothing raises."""

    N_CLIENTS = 6

    def _client(self, address, c, rows, times, tally, lock):
        sock, fh = _connect(address)
        answers = {"predict": 0, "feedback_ok": 0}
        try:
            with sock:
                for j in range(10_000):
                    rid = f"c{c}-{j}"
                    # Pipelined pair: the drain can fall between them.
                    lines = [
                        {"op": "predict", "id": rid,
                         "vector": rows[(c + j) % len(rows)].tolist()},
                        {"op": "feedback", "id": rid, "times": times},
                    ]
                    fh.write("".join(json.dumps(r) + "\n" for r in lines))
                    fh.flush()
                    for request in lines:
                        raw = fh.readline()
                        if not raw:
                            return            # server closed: drained
                        response = json.loads(raw)
                        if request["op"] == "predict":
                            assert response["ok"] is True, response
                            assert response["id"] == rid
                            answers["predict"] += 1
                        elif response["ok"]:
                            assert response["id"] == rid
                            answers["feedback_ok"] += 1
        except (ConnectionError, BrokenPipeError):
            pass                              # closed mid-write: not admitted
        finally:
            with lock:
                for key, value in answers.items():
                    tally[key] += value

    @pytest.mark.parametrize("round_", range(4))
    def test_drain_answers_every_admitted_line(self, selector, train, round_,
                                               monkeypatch):
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)     # interleave the threads finely
        try:
            self._hammer(selector, train, round_, raised)
        finally:
            sys.setswitchinterval(switch)

    def _hammer(self, selector, train, round_, raised):
        service = SelectionService(selector)
        server = SelectionServer(
            service, port=0, max_batch=8, batch_window_s=0.001
        ).start()
        times = {fmt: 1.0 + i for i, fmt in enumerate(service.formats)}
        tally = {"predict": 0, "feedback_ok": 0}
        lock = threading.Lock()
        clients = [
            threading.Thread(
                target=self._client,
                args=(server.address, c, train.feature_array, times, tally,
                      lock),
                daemon=True,
            )
            for c in range(self.N_CLIENTS)
        ]
        try:
            for t in clients:
                t.start()
            # Drain at a different point of the stream each round.
            target = 20 * (round_ + 1)
            deadline = time.monotonic() + 30
            while service.telemetry.snapshot()["feedback"]["count"] < target:
                assert time.monotonic() < deadline, "clients never got going"
                time.sleep(0.002)
            server.shutdown(drain=True)
            for t in clients:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            server.shutdown()

        snap = service.telemetry.snapshot()
        assert snap["requests"] == tally["predict"]
        assert snap["feedback"]["count"] == tally["feedback_ok"]
        assert snap["feedback"]["count"] >= target
        assert snap["connections"]["active"] == 0
        # After close: the service still answers, shutdown is idempotent,
        # and no server or client thread raised.
        assert service.stats()["feedback"]["count"] == tally["feedback_ok"]
        server.shutdown()
        assert raised == []
