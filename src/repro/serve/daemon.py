"""JSON-lines serving protocol (the ``repro-spmv serve`` daemon body).

One request per line, one JSON response per line — trivially driven by
a pipe, a socket wrapper or a test's ``StringIO``.  Operations:

``{"op": "predict", ...}``
    One of ``"path"`` (a ``.mtx`` file), ``"features"`` (dict of the 17
    canonical features) or ``"vector"`` (ordered feature list).  An
    optional ``"id"`` names the request for later feedback.  Response:
    ``{"ok": true, "id": ..., "format": ..., "config": {...},
    "latency_ms": ...}`` — ``format`` is the base format name (legacy
    clients), ``config`` the full tuning configuration
    (``{"format": ..., "params": {...}, "key": ...}``).

``{"op": "feedback", "id": ..., "times": {key: seconds}}``
    Report observed per-configuration execution times of a served
    decision, keyed by configuration key.  Include ``"chosen"`` (or the
    ``"config"`` alias) for ids outside the recent window — a
    configuration key (a bare format name is its default
    configuration's key) or object.

``{"op": "stats"}``
    Telemetry snapshot (latency percentiles, throughput, cache hit
    rates, rolling regret).

``{"op": "metrics"}``
    Process-wide observability snapshot (:func:`repro.obs.snapshot`):
    every span and metric the shared telemetry spine has collected,
    including the ``serve.*`` mirrors of the service telemetry.

``{"op": "adaptive"}``
    Adaptive-loop status (requires an attached
    :class:`~repro.serve.adaptive.AdaptiveController`): buffer fill,
    shadow scoreboard, promotion-gate verdict, drift detectors.  With
    ``"train": true`` a candidate is force-trained from the accumulated
    experience first.

``{"op": "promote"}``
    Manual promotion override.  Promotes the current shadow candidate
    (bypassing the regret gate unless ``"force": false``), or an
    explicit ``"version"``.  Optional ``"reason"`` lands in the
    registry's audit trail.

``{"op": "rollback"}``
    Revert production to the previous version from the audit trail and
    serve it immediately.

``{"op": "shutdown"}``
    Acknowledge and stop the loop.

Every error is a ``{"ok": false, "error": ...}`` response; malformed
input never kills the daemon.

With ``serve_jsonl(..., snapshot_every=N)`` the loop additionally
emits a full observability snapshot to the :mod:`repro.obs` event sink
every ``N`` served requests — a flight recorder for long-lived
daemons.
"""

from __future__ import annotations

import json
from typing import Dict, IO, Iterable, Optional

from .. import obs
from .service import SelectionService

__all__ = ["handle_request", "resolve_predict_item", "serve_jsonl"]


def resolve_predict_item(request: Dict):
    """Extract the to-be-predicted item from a ``predict`` request.

    Shared by the stdio loop and the socket server's micro-batching
    path: exactly one of ``path`` (read as Matrix Market),
    ``features`` (dict) or ``vector`` (ordered list) must be present.
    """
    sources = [k for k in ("path", "features", "vector") if k in request]
    if len(sources) != 1:
        raise ValueError(
            "predict needs exactly one of 'path', 'features' or 'vector'"
        )
    key = sources[0]
    if key == "path":
        from ..matrices import read_matrix_market

        return read_matrix_market(request["path"])
    if key == "features":
        return dict(request["features"])
    return request["vector"]


def handle_request(service: SelectionService, request: Dict) -> Dict:
    """Execute one protocol request; always returns a response dict."""
    try:
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        op = request.get("op", "predict")
        if op == "predict":
            return _handle_predict(service, request)
        if op == "feedback":
            chosen = request.get("chosen")
            if chosen is None:
                chosen = request.get("config")
            event = service.record_feedback(
                str(request["id"]),
                request["times"],
                chosen=chosen,
            )
            return {
                "ok": True,
                "id": event.request_id,
                "regret": event.regret,
                "optimal": event.optimal,
            }
        if op == "stats":
            return {"ok": True, "stats": service.stats()}
        if op == "metrics":
            return {"ok": True, "metrics": obs.snapshot()}
        if op == "adaptive":
            controller = _adaptive_of(service)
            trained = None
            if request.get("train"):
                record = controller.train_candidate(force=True)
                trained = record.version
            response = {"ok": True, "adaptive": controller.status()}
            if trained is not None:
                response["trained"] = trained
            return response
        if op == "promote":
            controller = _adaptive_of(service)
            reason = str(request.get("reason", "manual"))
            if "version" in request:
                promotion = controller.adopt_version(
                    str(request["version"]), reason=reason
                )
            else:
                promotion = controller.promote(
                    force=bool(request.get("force", True)), reason=reason
                )
            return {"ok": True, "promotion": promotion}
        if op == "rollback":
            controller = _adaptive_of(service)
            promotion = controller.rollback(
                reason=str(request.get("reason", "manual"))
            )
            return {"ok": True, "promotion": promotion}
        if op == "shutdown":
            return {"ok": True, "shutdown": True}
        raise ValueError(f"unknown op {op!r}")
    except Exception as exc:  # protocol boundary: report, don't crash
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _adaptive_of(service: SelectionService):
    controller = service.adaptive
    if controller is None:
        raise ValueError(
            "no adaptive controller attached; start the daemon with "
            "--adaptive (or attach an AdaptiveController to the service)"
        )
    return controller


def _handle_predict(service: SelectionService, request: Dict) -> Dict:
    item = resolve_predict_item(request)
    decision = service.predict(item, request_id=request.get("id"))
    response = decision.to_dict()
    response["ok"] = True
    return response


def serve_jsonl(
    service: SelectionService,
    lines: Iterable[str],
    out: IO[str],
    *,
    max_requests: Optional[int] = None,
    snapshot_every: Optional[int] = None,
) -> int:
    """Run the request/response loop; returns the number served.

    ``lines`` is any iterable of JSON-lines input (a file object, a
    list, ``sys.stdin``); blank lines are skipped, a ``shutdown``
    request (or ``max_requests``) ends the loop.  Malformed (non-JSON)
    lines get an error response but are **not** served requests: they
    count into the service's ``protocol_errors`` telemetry (and the
    ``serve.errors`` obs counter) instead, and consume neither the
    ``max_requests`` nor the ``snapshot_every`` budget — an error flood
    can't truncate the daemon or distort its flight recorder.  With
    ``snapshot_every=N`` a full observability snapshot goes to the
    :mod:`repro.obs` event sink after every ``N`` served requests (and
    once more at loop exit) — a no-op unless obs is enabled with a
    sink attached.
    """
    if snapshot_every is not None and snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1")
    served = 0
    with obs.span("serve.session"):
        for line in lines:
            line = line.strip()
            if not line:
                continue
            # Every handled line is spanned — including protocol errors,
            # which previously escaped the serve.request span entirely.
            handled = False
            with obs.span("serve.request"):
                try:
                    request = json.loads(line)
                except ValueError as exc:
                    response = {"ok": False, "error": f"invalid JSON: {exc}"}
                    service.telemetry.record_protocol_error()
                else:
                    response = handle_request(service, request)
                    handled = True
                    served += 1
            out.write(json.dumps(response) + "\n")
            out.flush()
            if (snapshot_every is not None and handled
                    and served % snapshot_every == 0):
                obs.emit("serve.snapshot", obs.snapshot())
            if response.get("shutdown"):
                break
            if max_requests is not None and served >= max_requests:
                break
    # Final snapshot outside the session span, so it reports the closed
    # serve.session aggregate rather than a provisional open one.
    if snapshot_every is not None:
        obs.emit("serve.snapshot", obs.snapshot())
    return served
