"""Model registry + online format-selection inference service.

The deployment layer of the reproduction: persist trained selection
models as versioned, checksummed, pure-numpy artifacts
(:class:`ModelRegistry`), serve them behind a cached, micro-batched
request/response API (:class:`SelectionService`), run that service for
many concurrent network clients with cross-client micro-batching,
backpressure and graceful drain (:class:`SelectionServer`,
:class:`MicroBatcher`), and close the loop with observed-execution
feedback, regret tracking and latency/cache telemetry
(:class:`FeedbackLog`, :class:`ServiceTelemetry`, :func:`serve_jsonl`).
:class:`AdaptiveController` closes the loop end to end: feedback-driven
warm-restart retraining, shadow evaluation of candidates, regret-gated
auto-promotion with an audited registry trail, and drift detection.
"""

from .adaptive import (
    AdaptiveController,
    AdaptiveError,
    DriftMonitor,
    ExperienceBuffer,
    PageHinkley,
    PromotionPolicy,
    ShadowScoreboard,
)
from .batcher import MicroBatcher, QueueFull
from .daemon import handle_line, handle_request, serve_jsonl
from .feedback import FeedbackEvent, FeedbackLog
from .registry import ARTIFACT_SCHEMA, ModelRecord, ModelRegistry, RegistryError
from .server import SelectionServer
from .service import Decision, SelectionService
from .telemetry import ServiceTelemetry

__all__ = [
    "ARTIFACT_SCHEMA",
    "AdaptiveController",
    "AdaptiveError",
    "Decision",
    "DriftMonitor",
    "ExperienceBuffer",
    "FeedbackEvent",
    "FeedbackLog",
    "MicroBatcher",
    "ModelRecord",
    "ModelRegistry",
    "PageHinkley",
    "PromotionPolicy",
    "QueueFull",
    "RegistryError",
    "ShadowScoreboard",
    "SelectionServer",
    "SelectionService",
    "ServiceTelemetry",
    "handle_line",
    "handle_request",
    "serve_jsonl",
]
