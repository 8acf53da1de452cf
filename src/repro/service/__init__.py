"""Always-on render service: the daemon layer above :mod:`repro.api`.

Everything below this package is a library you import; this package is the
server you send traffic to.  It promotes :class:`~repro.api.session.Session`
/ :class:`~repro.engine.service.RenderService` into a long-lived asyncio
daemon modeled on a proactor/actor runtime:

* :mod:`repro.service.protocol` — newline-delimited JSON over TCP or a
  unix socket (:class:`ServiceRequest` / :class:`ServiceResponse`), plus a
  minimal HTTP shim so ``GET /healthz`` and ``GET /metrics`` work from any
  scraper on the same port.
* :mod:`repro.service.queueing` — the bounded admission queue with
  per-client fair scheduling (:class:`FairQueue`): one heavy client
  cannot starve others, and excess load is rejected with a retry-after
  hint instead of hanging.
* :mod:`repro.service.actors` — worker actors: threads owning a private
  :class:`Session` that shares the daemon's render service (frame caches)
  and result store, executing requests off the event loop.
* :mod:`repro.service.supervisor` — heartbeat watchdog supervision: a
  crashed actor is restarted and its in-flight request re-enqueued
  (retried once); the :class:`Journal` persists in-flight work so a
  daemon restart resumes rather than loses requests.
* :mod:`repro.service.daemon` — :class:`ServiceDaemon` wires it together:
  asyncio server, dispatcher and the live telemetry snapshot behind
  ``/metrics``.  An admitted request runs exactly as sent, however deep
  the queue; overload is bounded by admission and deadline shedding, and
  a request that keeps crashing workers by the crash-retry budget.  Every
  admitted request ends through one :meth:`ServiceDaemon.settle`, so its
  counters balance: ``accepted + resumed == completed + failed`` plus
  whatever is still queued or in flight, daemon-wide and per client and
  kind.
* :mod:`repro.service.client` — :class:`ServiceClient`, the blocking
  client used by the examples, benchmarks and CI smoke; mints stable
  idempotency keys and reconnects-and-resends on connection loss.

Failure is a first-class input: the daemon threads named
:mod:`repro.chaos` fault points through transport, actors and
persistence (``ServiceConfig.chaos`` / ``repro-serve --chaos-plan``), and
the hardening they exercise — end-to-end deadlines, idempotent resends,
crash retries, wedged-actor quarantine — surfaces through the
``/healthz`` state machine (``healthy`` / ``degraded`` / ``critical``).
* :mod:`repro.service.cli` — the ``repro-serve`` console entry point
  (also reachable as ``python -m repro.service.cli`` and
  ``python -m repro.analysis.runner serve``).
"""

from repro.service.client import ServiceClient, ServiceConnectionError, ServiceError
from repro.service.daemon import DaemonHandle, ServiceConfig, ServiceDaemon
from repro.service.protocol import (
    ProtocolError,
    REQUEST_KINDS,
    ServiceRequest,
    ServiceResponse,
)
from repro.service.queueing import FairQueue, QueueFull
from repro.service.supervisor import Journal, Supervisor

__all__ = [
    "DaemonHandle",
    "FairQueue",
    "Journal",
    "ProtocolError",
    "QueueFull",
    "REQUEST_KINDS",
    "ServiceClient",
    "ServiceConfig",
    "ServiceConnectionError",
    "ServiceDaemon",
    "ServiceError",
    "ServiceRequest",
    "ServiceResponse",
    "Supervisor",
]
