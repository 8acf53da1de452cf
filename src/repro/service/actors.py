"""Worker actors: threads that execute service requests off the event loop.

A :class:`WorkerActor` is the resource-owning actor of the runtime: it
holds a private :class:`~repro.api.session.Session` built by the daemon's
session factory — sharing the daemon's
:class:`~repro.engine.service.RenderService` (so frame-preparation and
renderer caches are shared across actors) and its
:class:`~repro.api.store.ResultStore` — and executes one
:class:`RequestRecord` at a time from its inbox.  Completion is reported
back into the asyncio loop via a thread-safe callback; the actor never
touches the event loop directly.

Heartbeats: the actor stamps ``last_beat`` every inbox poll and around
every request, so the supervisor can distinguish *busy* from *wedged*.
The ``actor.crash`` chaos point (:mod:`repro.chaos`) makes the thread die
mid-request exactly like a real fault would — the supervision tests and
the chaos benchmark drive recovery through it.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro import chaos
from repro.service.protocol import ServiceRequest, ServiceResponse, error_response


@dataclass
class RequestRecord:
    """One admitted request moving through queue, actor and response path."""

    request: ServiceRequest
    #: asyncio.Future created by the daemon's loop; resolved exactly once,
    #: by ``ServiceDaemon.settle``, so ``future.done()`` is the record's
    #: only done flag.
    future: Any
    attempts: int = 0
    dispatch_index: int = -1
    dispatched_at: float = 0.0
    #: Absolute monotonic deadline computed at admission from the
    #: request's relative ``deadline_s``; ``None`` means no deadline.
    deadline_at: Optional[float] = None


def _image_checksum(image: Any) -> str:
    """Stable content hash of a rendered image (parity across retries)."""
    import numpy as np

    data = np.ascontiguousarray(image)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def execute_request(session, record: RequestRecord) -> ServiceResponse:
    """Evaluate one work request on a session; never raises.

    Evaluation errors come back as ``ok: false`` responses with code
    ``evaluation_failed`` — a bad request must not look like a worker
    crash to the supervisor.
    """
    request = record.request
    if record.deadline_at is not None and time.monotonic() >= record.deadline_at:
        # The deadline passed between dispatch and execution; starting the
        # work now would only burn an actor on a response nobody wants.
        return error_response(
            "deadline_exceeded",
            f"request {request.id} passed its deadline before execution",
            request_id=request.id,
        )
    payload = dict(request.payload)
    try:
        result = _execute(session, request.kind, payload)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as error:
        return error_response(
            "evaluation_failed",
            f"{type(error).__name__}: {error}",
            request_id=request.id,
        )
    response = ServiceResponse(ok=True, result=result, id=request.id)
    response.meta["attempts"] = record.attempts
    response.meta["dispatch_index"] = record.dispatch_index
    return response


def _execute(session, kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    if kind == "sleep":
        # ``ServiceRequest`` admitted only 0 <= seconds <= MAX_SLEEP_S.
        seconds = float(payload.get("seconds", 0.0))
        time.sleep(seconds)
        return {"slept_s": seconds}

    if kind == "render":
        context = session.context(
            payload["scene"],
            algorithm=payload.get("algorithm", "3dgs"),
            voxel_size=payload.get("voxel_size"),
            resolution_scale=float(payload.get("resolution_scale", 1.0)),
        )
        image = context.streaming_output.image
        return {
            "scene": context.scene,
            "algorithm": context.algorithm,
            "resolution_scale": float(payload.get("resolution_scale", 1.0)),
            "width": int(image.shape[1]),
            "height": int(image.shape[0]),
            "baseline_psnr": float(context.baseline_psnr),
            "streaming_psnr": float(context.streaming_psnr),
            "image_sha256": _image_checksum(image),
            "telemetry": {
                **(getattr(context.streaming_output, "telemetry", {}) or {}),
                # Where the context build's time went (repeated when a
                # cached context serves the request).
                "context_stages_s": dict(context.stages_s),
            },
        }

    if kind == "trajectory":
        from repro.api.spec import TrajectorySpec

        spec = TrajectorySpec.from_dict(payload["spec"])
        result = session.run_trajectory(spec)
        return {
            "label": spec.label,
            "scene": spec.scene,
            "path": spec.path_name,
            "frames": int(result.metrics.get("frames", spec.frames)),
            "resolution_scale": float(spec.resolution_scale),
            "metrics": result.metrics,
            "summary": dict(result.payload.get("summary") or {}),
            "image_checksums": list(result.payload.get("image_checksums") or []),
        }

    if kind == "sweep":
        from repro.api.spec import ExperimentSpec

        base = payload.get("base")
        spec = ExperimentSpec.from_dict(base) if base else None
        grid = dict(payload.get("grid") or {})
        if not grid:
            raise ValueError("sweep payload needs a non-empty 'grid'")
        sweep_result = session.sweep(spec, **grid)
        return {
            "swept": sweep_result.swept,
            "labels": [point.meta.get("label", "") for point in sweep_result.results],
            "metrics": [point.metrics for point in sweep_result.results],
            "execution": sweep_result.meta.get("execution"),
        }

    raise ValueError(f"kind {kind!r} is not an actor-executed request")


class WorkerActor(threading.Thread):
    """One supervised worker thread with an inbox and a warm session.

    Parameters
    ----------
    name:
        Actor name (``worker-N``; shows up in metrics and events).
    session_factory:
        Builds the actor's session on its own thread (so session state is
        thread-affine from birth).
    on_complete:
        ``(actor, record, response)`` callback, invoked from the actor
        thread; the daemon trampolines it into the event loop.
    heartbeat_interval:
        Inbox poll period — also the heartbeat resolution.
    """

    #: Sentinel shutting the actor down cleanly.
    _POISON = object()

    def __init__(
        self,
        name: str,
        session_factory: Callable[[], Any],
        on_complete: Callable[["WorkerActor", RequestRecord, ServiceResponse], None],
        heartbeat_interval: float = 0.05,
    ) -> None:
        super().__init__(name=name, daemon=True)
        self._session_factory = session_factory
        self._on_complete = on_complete
        self.heartbeat_interval = heartbeat_interval
        self.inbox: "queue.Queue[Any]" = queue.Queue(maxsize=1)
        self.session = None
        self.last_beat = time.monotonic()
        self.busy = False
        self.current: Optional[RequestRecord] = None
        self.crashed = False
        self.stopped = False
        self.tasks_done = 0
        #: Supervisor bookkeeping: the current stall incident has been
        #: counted/logged (reset when the heartbeat recovers).
        self.stall_flagged = False
        #: Wedged beyond the quarantine threshold: replaced in the fleet,
        #: excluded from dispatch, poisoned when it finally completes.
        self.quarantined = False

    # ------------------------------------------------------------------
    def submit(self, record: RequestRecord) -> None:
        """Hand one record to the actor (dispatcher side)."""
        self.current = record
        self.busy = True
        self.inbox.put(record)

    def stop(self) -> None:
        """Ask the actor to exit after its current request."""
        self.inbox.put(self._POISON)

    def heartbeat_age(self) -> float:
        """Seconds since the actor last proved liveness."""
        return time.monotonic() - self.last_beat

    # ------------------------------------------------------------------
    def run(self) -> None:  # pragma: no cover - exercised via the daemon
        self.session = self._session_factory()
        try:
            while True:
                self.last_beat = time.monotonic()
                try:
                    item = self.inbox.get(timeout=self.heartbeat_interval)
                except queue.Empty:
                    continue
                if item is self._POISON:
                    self.stopped = True
                    return
                record: RequestRecord = item
                self.last_beat = time.monotonic()
                if chaos.fault("actor.crash") is not None:
                    # Simulated fault: die mid-request, leaving ``current``
                    # set, exactly like an uncaught worker failure.  The
                    # supervisor restarts us and re-enqueues the record.
                    self.crashed = True
                    return
                hang = chaos.fault("actor.hang")
                if hang is not None:
                    # Wedge without heartbeats: the watchdog sees a stall
                    # and, past the quarantine threshold, replaces us.
                    time.sleep(hang.delay_s)
                slow = chaos.fault("actor.slow_render")
                if slow is not None:
                    time.sleep(slow.delay_s)
                response = execute_request(self.session, record)
                self.busy = False
                self.current = None
                self.tasks_done += 1
                self.last_beat = time.monotonic()
                self._on_complete(self, record, response)
        finally:
            session, self.session = self.session, None
            if session is not None and self.stopped:
                # Clean shutdown releases the session's pool and contexts;
                # a crash keeps the session object alive for post-mortem.
                try:
                    session.close()
                except Exception:
                    pass

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Liveness/throughput snapshot for the metrics endpoint."""
        return {
            "name": self.name,
            "alive": self.is_alive(),
            "busy": self.busy,
            "crashed": self.crashed,
            "quarantined": self.quarantined,
            "tasks_done": self.tasks_done,
            "heartbeat_age_s": round(self.heartbeat_age(), 3),
        }
