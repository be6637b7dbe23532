"""Concurrent JSON-lines socket serving: :class:`SelectionServer`.

The stdio daemon (:func:`repro.serve.daemon.serve_jsonl`) serves one
client; this module is the network half of the ROADMAP's "service for
millions of users" goal.  A :class:`SelectionServer` accepts many
concurrent TCP connections, each speaking the **same JSON-lines
protocol** as the daemon (``predict`` / ``feedback`` / ``stats`` /
``metrics`` / ``shutdown``), and funnels every ``predict`` through one
shared :class:`~repro.serve.batcher.MicroBatcher` — so requests that
arrive together, from *different* clients, share a single vectorised
:meth:`~repro.serve.service.SelectionService.predict_batch` call.
Batch sizes > 1 in ``service.stats()["batch_size"]`` are that sharing,
observed.

Design points (all load-bearing under concurrency):

* **threaded, not asyncio** — the service's model calls are pure-numpy
  and release nothing; a thread per connection keeps the blocking
  protocol code identical to the stdio daemon while the micro-batcher
  provides the actual cross-client coupling.  Connection threads spend
  their time blocked on ``recv`` or on a batch future, so the thread
  count is not a throughput ceiling.
* **bounded queues + explicit backpressure** — when the batcher's
  queue is full, the client gets ``{"ok": false, "busy": true, ...}``
  immediately instead of unbounded buffering.
* **graceful drain** — :meth:`shutdown` stops accepting new
  connections, lets every in-flight request complete and its response
  flush, then closes.  Zero admitted requests are dropped.
* **per-connection observability** — every connection runs inside a
  ``serve.connection`` span and is counted (opened / active /
  disconnected) in :class:`~repro.serve.telemetry.ServiceTelemetry`,
  so ``stats`` responses and ``repro-spmv obs`` agree about traffic.

Each line goes through :func:`repro.serve.daemon.handle_line`, the
stdio daemon's own wire path; the server supplies only how a
``predict`` runs (through the micro-batcher).  Protocol additions over
the stdio daemon: a ``busy`` error response under overload, and
``{"op": "shutdown"}`` initiating a *server-wide* graceful drain (the
acknowledging client gets its response first).
"""

from __future__ import annotations

import socket
import threading
from typing import Iterator, Optional, Tuple

from .. import obs
from .batcher import MicroBatcher
from .daemon import handle_line
from .service import SelectionService

__all__ = ["SelectionServer"]


class _LineReader:
    """Blocking line reader over a socket with periodic wakeups.

    ``readline`` returns one decoded line (without the newline), ``""``
    on a cleanly closed peer, and ``None`` on a poll timeout — the
    caller uses those wakeups to notice server shutdown between lines.
    """

    def __init__(self, sock: socket.socket, poll_s: float = 0.1) -> None:
        self._sock = sock
        self._sock.settimeout(poll_s)
        self._buf = b""
        self._eof = False

    def readline(self) -> Optional[str]:
        while b"\n" not in self._buf:
            if self._eof:
                return ""
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                return None
            except OSError:
                chunk = b""
            if not chunk:
                self._eof = True
                if not self._buf:
                    return ""
                # Trailing line without a newline still gets served.
                self._buf, line = b"", self._buf
                return line.decode("utf-8", errors="replace")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode("utf-8", errors="replace")

    def pending_lines(self):
        """Yield complete lines the peer already sent, without blocking.

        Used by the graceful-drain path: requests that reached this
        socket before the drain began are served, not dropped.
        """
        self._sock.settimeout(0.0)
        try:
            while not self._eof:
                chunk = self._sock.recv(65536)
                if not chunk:
                    self._eof = True
                    break
                self._buf += chunk
        except (BlockingIOError, socket.timeout, OSError):
            pass
        while b"\n" in self._buf:
            line, self._buf = self._buf.split(b"\n", 1)
            yield line.decode("utf-8", errors="replace")


class SelectionServer:
    """Serve a :class:`SelectionService` over TCP to many clients.

    Parameters
    ----------
    service:
        The (thread-safe) selection service every connection shares.
    host / port:
        Bind address; ``port=0`` picks a free port (see
        :attr:`address` after :meth:`start`).
    max_batch / batch_window_s / queue_size:
        Micro-batcher tuning — see :class:`MicroBatcher`.
    backlog:
        Listen backlog for the accept socket.
    """

    def __init__(
        self,
        service: SelectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = 32,
        batch_window_s: float = 0.002,
        queue_size: int = 256,
        backlog: int = 128,
    ) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._backlog = backlog
        self._batcher_opts = dict(
            max_batch=max_batch, window_s=batch_window_s, queue_size=queue_size
        )
        self._batcher: Optional[MicroBatcher] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._conn_lock = threading.Lock()
        self._started = False
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "SelectionServer":
        """Bind, listen and start accepting connections; returns self."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._batcher = MicroBatcher(self.service, **self._batcher_opts)
        self._listener = socket.create_server(
            (self._host, self._port), backlog=self._backlog, reuse_port=False
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self, poll_s: float = 0.2) -> None:
        """Block until :meth:`shutdown` is called (or a client sends
        ``{"op": "shutdown"}``, which triggers a graceful drain)."""
        if not self._started:
            raise RuntimeError("server is not started")
        while not self._stopped.wait(timeout=poll_s):
            pass

    def shutdown(self, *, drain: bool = True, timeout: Optional[float] = 10.0) -> None:
        """Stop the server.

        With ``drain`` (the default): stop accepting connections, let
        every request already read off a socket finish through the
        batcher, flush its response, then close.  Without it, pending
        work is failed fast.  Idempotent and safe to call concurrently
        (a network ``shutdown`` op and ``serve_forever`` may race here).
        """
        with self._shutdown_lock:
            if not self._started or self._stopped.is_set():
                self._stopped.set()
                return
            self._do_shutdown(drain=drain, timeout=timeout)

    def _do_shutdown(self, *, drain: bool, timeout: Optional[float]) -> None:
        self._draining.set()
        # Refuse new connections: closing the listener makes further
        # connects fail at the TCP level.
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
        # Connection threads notice _draining at their next poll wakeup,
        # serve every request their peer had already sent, and exit.
        with self._conn_lock:
            threads = list(self._connections)
        for thread in threads:
            thread.join(timeout)
        if self._batcher is not None:
            self._batcher.close(drain=drain, timeout=timeout)
        self._stopped.set()

    # -- accept / connection handling --------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        try:
            listener.settimeout(0.1)
        except OSError:
            return  # shutdown() closed the listener before we started
        while not self._draining.is_set():
            try:
                conn, _addr = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by shutdown()
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-serve-conn", daemon=True,
            )
            with self._conn_lock:
                self._connections.add(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        telemetry = self.service.telemetry
        telemetry.record_connection_open()
        disconnected = False
        try:
            with obs.span("serve.connection"):
                for line in self._read_lines(_LineReader(conn)):
                    line = line.strip()
                    if not line:
                        continue
                    response, encoded, _ = handle_line(
                        self.service, line, self._predict
                    )
                    try:
                        conn.sendall(encoded.encode("utf-8"))
                    except OSError:
                        # Peer vanished before reading its response; the
                        # request itself completed — nothing to unwind.
                        disconnected = True
                        break
                    if response.get("shutdown"):
                        # Drain from a helper thread so the server stops
                        # even when nobody is blocked in serve_forever().
                        threading.Thread(
                            target=self.shutdown, name="repro-serve-drain",
                            daemon=True,
                        ).start()
                        break
        finally:
            telemetry.record_connection_close(disconnected=disconnected)
            try:
                conn.close()
            except OSError:
                pass
            with self._conn_lock:
                self._connections.discard(threading.current_thread())

    def _read_lines(self, reader: _LineReader) -> Iterator[str]:
        """Yield the peer's lines until it closes or a drain begins.

        Once a drain begins, the lines the client sent before it are in
        flight: they are yielded too, so a graceful shutdown drops zero
        admitted requests.
        """
        while not self._draining.is_set():
            line = reader.readline()
            if line is None:
                continue  # poll wakeup; re-check drain flag
            if line == "":
                return  # peer closed
            yield line
        yield from reader.pending_lines()

    def _predict(self, item, request_id: Optional[str] = None):
        """Run one predict through the shared micro-batcher.

        Raises :class:`~repro.serve.batcher.QueueFull` when its queue
        is at capacity, which the wire path answers as ``busy``.
        """
        return self._batcher.submit(item, request_id).result()
