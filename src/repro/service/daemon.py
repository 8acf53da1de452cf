"""The render service daemon: asyncio server + dispatcher + telemetry.

:class:`ServiceDaemon` is the long-lived process around the library:

* it owns **one** :class:`~repro.engine.service.RenderService` and (when
  configured) **one** :class:`~repro.api.store.ResultStore`, shared by
  every worker actor's session — frame caches and cached results are
  process-wide, exactly as in a single embedded session;
* an asyncio server speaks the NDJSON protocol on TCP or a unix socket
  and answers plain ``GET /healthz`` / ``GET /metrics`` HTTP requests on
  the same port (first-line sniffing);
* admitted work flows through the bounded :class:`FairQueue`; a
  dispatcher coroutine pairs fair-order records with idle actors;
  completions are trampolined back into the loop thread-safely;
* overload is bounded at admission (``queue_full`` with a retry-after
  hint) and by deadline shedding, never by changing the work: an
  admitted payload runs exactly as sent, so one request id always gets
  the answer it asked for;
* the :class:`~repro.service.supervisor.Supervisor` task restarts crashed
  actors and re-enqueues their requests; the
  :class:`~repro.service.supervisor.Journal` resumes in-flight work after
  a daemon restart;
* every terminal outcome of an admitted request — a response, a crash
  past the retry budget, a timeout, a deadline shed, a hard stop — goes
  through :meth:`ServiceDaemon.settle`, which counts it once, so
  ``accepted + resumed == completed + failed + len(_pending)`` holds
  daemon-wide and for every client and kind in ``/metrics``.

:meth:`ServiceDaemon.serve` blocks (the CLI path);
:meth:`ServiceDaemon.start_in_thread` returns a :class:`DaemonHandle`
(tests, benchmarks, and the examples embed the daemon this way).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import chaos
from repro.api.result import jsonify
from repro.api.session import Session
from repro.api.store import ResultStore
from repro.engine.service import RenderService
from repro.service.actors import RequestRecord, WorkerActor
from repro.service.protocol import (
    CONTROL_KINDS,
    MAX_MESSAGE_BYTES,
    ProtocolError,
    ServiceRequest,
    ServiceResponse,
    WORK_KINDS,
    decode_message,
    encode_message,
    error_response,
)
from repro.service.queueing import FairQueue, QueueFull
from repro.service.supervisor import Journal, Supervisor, now

#: Upper bound on waiting for in-flight work at graceful shutdown.
DRAIN_TIMEOUT_S = 30.0

#: Completed responses remembered by request id (LRU), so a client resend
#: after connection loss is answered from cache instead of re-rendered.
RESPONSE_CACHE_SIZE = 256

#: Counters ``/metrics`` keeps per client and per kind.
TALLIES = ("accepted", "resumed", "completed", "failed", "rejected")


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance.

    Attributes
    ----------
    host / port:
        TCP listen address; ``port=0`` picks a free port (tests).
    unix_path:
        When set, listen on a unix socket instead of TCP.
    workers:
        Worker-actor fleet size (concurrent requests in execution).
    queue_limit:
        Bound on admitted-but-undispatched requests; beyond it the daemon
        rejects with ``queue_full`` + ``retry_after_s``.
    request_timeout_s:
        Per-request deadline from admission to response.
    heartbeat_timeout_s:
        Busy actor silent beyond this is reported as stalled.
    journal_dir:
        Directory persisting in-flight requests across daemon restarts;
        ``None`` disables journaling.
    cache_dir:
        :class:`ResultStore` root shared by all actors; ``None`` disables.
    quarantine_after_s:
        A busy actor heartbeat-silent beyond this is quarantined (slot
        replaced, wedged thread excluded from dispatch); ``None``
        defaults to 4x ``heartbeat_timeout_s``.
    chaos:
        A :class:`~repro.chaos.plan.FaultPlan` (or its dict form)
        installed for the daemon's lifetime; ``None`` disables fault
        injection entirely (the hooks are a single global read).
    """

    host: str = "127.0.0.1"
    port: int = 0
    unix_path: Optional[str] = None
    workers: int = 2
    queue_limit: int = 64
    request_timeout_s: float = 300.0
    heartbeat_timeout_s: float = 5.0
    journal_dir: Optional[str] = None
    cache_dir: Optional[str] = None
    quarantine_after_s: Optional[float] = None
    chaos: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.quarantine_after_s is None:
            self.quarantine_after_s = 4.0 * self.heartbeat_timeout_s
        if self.quarantine_after_s <= 0:
            raise ValueError(
                f"quarantine_after_s must be > 0, got {self.quarantine_after_s}"
            )


class DaemonHandle:
    """A daemon running on a background thread (embedded mode)."""

    def __init__(self, daemon: "ServiceDaemon", thread: threading.Thread) -> None:
        self.daemon = daemon
        self.thread = thread

    @property
    def address(self) -> Tuple[str, ...]:
        """``("tcp", host, port)`` or ``("unix", path)`` once listening."""
        assert self.daemon.address is not None, "daemon is not listening yet"
        return self.daemon.address

    def client(self, client: str = "anon", timeout: float = 60.0, reconnect: int = 1):
        """A connected :class:`~repro.service.client.ServiceClient`."""
        from repro.service.client import ServiceClient

        return ServiceClient.connect(
            self.address, client=client, timeout=timeout, reconnect=reconnect
        )

    def stop(self, drain: bool = True) -> None:
        """Ask the daemon to shut down (optionally draining the queue)."""
        self.daemon.request_stop(drain=drain)

    def join(self, timeout: Optional[float] = 30.0) -> None:
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():  # pragma: no cover - deadlock guard
            raise RuntimeError("service daemon thread did not exit")


class ServiceDaemon:
    """The long-lived render service around :mod:`repro.api`."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        #: Shared frame-preparation/renderer caches across all actors.
        self.service = RenderService()
        self.store: Optional[ResultStore] = (
            ResultStore(self.config.cache_dir) if self.config.cache_dir else None
        )
        self.queue = FairQueue(max_depth=self.config.queue_limit)
        self.journal = Journal(
            Path(self.config.journal_dir) if self.config.journal_dir else None
        )
        self.supervisor = Supervisor(
            self,
            heartbeat_timeout=self.config.heartbeat_timeout_s,
            quarantine_after=self.config.quarantine_after_s,
        )
        self.chaos_injector = chaos.build_injector(self.config.chaos)
        self.actors: List[WorkerActor] = []
        #: Wedged actors replaced in the fleet, still running outside
        #: dispatch; poisoned (and dropped) when they finally complete.
        self.quarantined_actors: List[WorkerActor] = []
        self.events: List[Dict[str, Any]] = []
        self.address: Optional[Tuple[str, ...]] = None
        self.started_at: Optional[float] = None
        self.draining = False
        self.metrics = {
            "accepted": 0,
            "rejected": 0,
            "completed": 0,
            "failed": 0,
            "timeouts": 0,
            "deadline_exceeded": 0,
            "resends_served": 0,
            # Always 0: nothing degrades a request or trips a breaker.
            # Kept for scrapers (perfbench's cold-start probe reads both).
            "breaker_rejected": 0,
            "degraded": 0,
            "resumed": 0,
            "abandoned": 0,
        }
        self.per_client: Dict[str, Dict[str, int]] = {}
        self.per_kind: Dict[str, Dict[str, int]] = {}
        #: Completed responses by request id (LRU): resends after a
        #: connection loss are answered here instead of re-executed.
        self._responses: "OrderedDict[str, ServiceResponse]" = OrderedDict()
        #: Live (queued or in-flight) records by request id: a resend of
        #: an unfinished request joins the existing future.
        self._pending: Dict[str, RequestRecord] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._queue_event: Optional[asyncio.Event] = None
        self._idle: Optional["asyncio.Queue[WorkerActor]"] = None
        self._drain_on_stop = True
        self._in_flight = 0
        self._dispatch_count = 0
        self._actor_serial = 0
        self._request_serial = 0
        #: EMA of per-request service seconds, feeding retry-after hints.
        self._service_ema: Optional[float] = None
        self._ready = threading.Event()

    # ------------------------------------------------------------------
    # actor fleet
    # ------------------------------------------------------------------
    def session_factory(self) -> Session:
        """A per-actor session sharing the daemon's service and store."""
        return Session(service=self.service, store=self.store)

    def spawn_actor(self, position: Optional[int] = None) -> WorkerActor:
        """Start one actor and register it as idle.

        ``position`` replaces a dead actor in place (supervisor path);
        ``None`` appends (startup path).
        """
        self._actor_serial += 1
        actor = WorkerActor(
            name=f"worker-{self._actor_serial}",
            session_factory=self.session_factory,
            on_complete=self._on_complete_threadsafe,
            heartbeat_interval=min(0.05, self.config.heartbeat_timeout_s / 4),
        )
        actor.start()
        if position is None:
            self.actors.append(actor)
        else:
            self.actors[position] = actor
        assert self._idle is not None
        self._idle.put_nowait(actor)
        return actor

    def _on_complete_threadsafe(
        self, actor: WorkerActor, record: RequestRecord, response: ServiceResponse
    ) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():  # pragma: no cover - late completion
            return
        loop.call_soon_threadsafe(self._finish, actor, record, response)

    # ------------------------------------------------------------------
    # dispatch / completion (event-loop context)
    # ------------------------------------------------------------------
    def _finish(
        self, actor: WorkerActor, record: RequestRecord, response: ServiceResponse
    ) -> None:
        self._in_flight -= 1
        if record.dispatched_at:
            self._note_service_time(time.monotonic() - record.dispatched_at)
        self.settle(record, response)
        if actor.quarantined:
            # The wedged thread finally completed; it is not in the fleet
            # anymore (a replacement holds its slot), so retire it.
            actor.stop()
            if actor in self.quarantined_actors:
                self.quarantined_actors.remove(actor)
            self.log_event("actor_unquarantined", actor=actor.name)
        elif actor.is_alive() and not actor.crashed and not actor.stopped:
            assert self._idle is not None
            self._idle.put_nowait(actor)

    def settle(self, record: RequestRecord, response: ServiceResponse) -> None:
        """The one terminal path of an admitted request.

        The first call resolves the record's future and counts
        ``completed`` or ``failed`` once for the daemon, the client and the
        kind (a ``timeout`` or ``deadline_exceeded`` failure also bumps its
        own daemon-wide counter).  It forgets the journal entry unless the
        answer is ``draining``: a request a hard stop drained is exactly
        what the next start resumes.  A later call is an actor finishing
        work its awaiter gave up on, counted ``abandoned``.  Either way the
        response is cached by id (LRU), so a resend gets the real result
        instead of a stale timeout.
        """
        request = record.request
        if record.future.done():
            self.metrics["abandoned"] += 1
        else:
            record.future.set_result(response)
            self._tally(request, "completed" if response.ok else "failed")
            if response.code == "timeout":
                self.metrics["timeouts"] += 1
            elif response.code == "deadline_exceeded":
                self.metrics["deadline_exceeded"] += 1
            self._pending.pop(request.id, None)
            if response.code != "draining":
                self.journal.discard(request.id)
        self._responses[request.id] = response
        self._responses.move_to_end(request.id)
        while len(self._responses) > RESPONSE_CACHE_SIZE:
            self._responses.popitem(last=False)

    def _tally(self, request: ServiceRequest, key: str) -> None:
        """Count one event daemon-wide and for the request's client and kind."""
        self.metrics[key] += 1
        for table, name in (
            (self.per_client, request.client),
            (self.per_kind, request.kind),
        ):
            table.setdefault(name, dict.fromkeys(TALLIES, 0))[key] += 1

    def quarantine_actor(self, position: int, actor: WorkerActor) -> None:
        """Replace a wedged actor's fleet slot (supervisor path).

        The stuck thread cannot be killed; it keeps running outside the
        fleet list so the dispatcher never hands it work again, and its
        eventual completion (handled in :meth:`_finish`) retires it.  The
        replacement restores dispatch capacity immediately.
        """
        actor.quarantined = True
        self.quarantined_actors.append(actor)
        self.spawn_actor(position)

    def settle_crashed(self, record: RequestRecord) -> None:
        """Close dispatch accounting of a record whose actor died."""
        self._in_flight -= 1

    def requeue(self, record: RequestRecord) -> None:
        """Re-admit a crash-interrupted record ahead of the backlog."""
        self.queue.push(record.request.client, record, front=True)
        self._wake_dispatcher()

    def log_event(self, event: str, **fields: Any) -> None:
        """Append one supervision/lifecycle event (kept bounded)."""
        entry = {"event": event, "at": round(now(), 3)}
        entry.update(fields)
        self.events.append(entry)
        del self.events[:-256]

    def _wake_dispatcher(self) -> None:
        if self._queue_event is not None:
            self._queue_event.set()

    def _note_service_time(self, seconds: float) -> None:
        if seconds < 0:
            return
        if self._service_ema is None:
            self._service_ema = seconds
        else:
            self._service_ema = 0.7 * self._service_ema + 0.3 * seconds

    def retry_after_estimate(self) -> float:
        """Backoff hint: expected time until a queue slot frees up."""
        ema = self._service_ema if self._service_ema is not None else 0.1
        backlog = len(self.queue) + self._in_flight
        estimate = ema * max(1, backlog) / max(1, self.config.workers)
        return max(0.05, min(60.0, estimate))

    async def _dispatcher(self) -> None:
        """Pair idle actors with fair-order records, forever."""
        assert self._idle is not None and self._queue_event is not None
        while True:
            actor = await self._idle.get()
            if not actor.is_alive() or actor.crashed or actor.stopped:
                # A crashed actor's idle token; the supervisor already
                # enqueued its replacement.
                continue
            record = await self._next_record()
            record.attempts += 1
            record.dispatch_index = self._dispatch_count
            self._dispatch_count += 1
            record.dispatched_at = time.monotonic()
            self._in_flight += 1
            actor.submit(record)

    async def _next_record(self) -> RequestRecord:
        assert self._queue_event is not None
        while True:
            record = self.queue.pop()
            if record is None:
                self._queue_event.clear()
                await self._queue_event.wait()
            elif not self._dead(record):
                return record

    def _dead(self, record: RequestRecord) -> bool:
        """True for a queued record that must not run: one already settled
        (its awaiter timed out) or one whose deadline passed, which is
        settled here — running it would waste an actor on an answer
        nobody is waiting for."""
        if record.future.done():
            return True
        if record.deadline_at is None or time.monotonic() < record.deadline_at:
            return False
        self.settle(
            record,
            error_response(
                "deadline_exceeded",
                f"request {record.request.id} spent its deadline queued "
                "and was shed before dispatch",
                request_id=record.request.id,
            ),
        )
        return True

    # ------------------------------------------------------------------
    # admission (event-loop context)
    # ------------------------------------------------------------------
    def admit(self, request: ServiceRequest, resumed: bool = False) -> RequestRecord:
        """Admit one work request into the fair queue.

        ``resumed`` marks a request the journal carried over from a
        previous run: it is counted ``resumed`` instead of ``accepted`` and
        not journaled again.  Raises :class:`QueueFull` at capacity and
        :class:`RuntimeError` while draining; the connection handler
        converts both into reject responses.
        """
        assert self._loop is not None
        if self.draining:
            raise RuntimeError("draining")
        if not request.id:
            self._request_serial += 1
            request.id = f"{os.getpid():x}-{self._request_serial:x}"
        record = RequestRecord(request=request, future=self._loop.create_future())
        if request.deadline_s is not None:
            record.deadline_at = time.monotonic() + request.deadline_s
        try:
            self.queue.push(request.client, record, cost=self._cost_of(request))
        except QueueFull:
            # Before refusing, evict dead weight: records that expired or
            # were abandoned while queued hold slots but will never run.
            if not self.queue.shed(self._dead):
                raise
            self.queue.push(request.client, record, cost=self._cost_of(request))
        self._pending[request.id] = record
        if not resumed:
            self.journal.record(request, accepted_at=now())
        self._tally(request, "resumed" if resumed else "accepted")
        self._wake_dispatcher()
        return record

    @staticmethod
    def _cost_of(request: ServiceRequest) -> float:
        """Fair-share cost: sweeps charge per grid point, trajectories per frame."""
        if request.kind == "sweep":
            cost = 1.0
            for values in (request.payload.get("grid") or {}).values():
                try:
                    cost *= max(1, len(values))
                except TypeError:
                    pass
            return cost
        if request.kind == "trajectory":
            spec = request.payload.get("spec") or {}
            path = spec.get("path", "orbit")
            if not isinstance(path, str):
                try:
                    return float(max(1, len(path)))
                except TypeError:
                    return 1.0
            try:
                return float(max(1, int(spec.get("frames", 16))))
            except (TypeError, ValueError):
                return 1.0
        return 1.0

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            if line.startswith((b"GET ", b"HEAD ", b"POST ")):
                await self._serve_http(line, reader, writer)
                return
            while line:
                stop_after = await self._serve_line(line, writer)
                if stop_after:
                    break
                line = await reader.readline()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter) -> bool:
        """Answer one NDJSON request line; returns True to close the stream."""
        try:
            request = ServiceRequest.from_wire(decode_message(line))
        except ProtocolError as error:
            await self._write_response(writer, error_response("bad_request", str(error)))
            return False
        response = await self.handle_request(request)
        severed = await self._write_response(
            writer, response, faultable=request.kind in WORK_KINDS
        )
        return severed or request.kind == "shutdown"

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: ServiceResponse,
        faultable: bool = False,
    ) -> bool:
        """Write one response frame; returns True if the connection was
        (deliberately) severed by an injected transport fault.

        Only work responses are faultable — failing control/HTTP answers
        would test the scraper, not the retry path.
        """
        frame = encode_message(jsonify(response.to_wire()))
        if faultable:
            slow = chaos.fault("transport.slow_write")
            if slow is not None:
                await asyncio.sleep(slow.delay_s)
            if chaos.fault("transport.drop_response") is not None:
                self.log_event("chaos_drop_response", id=response.id)
                return True
            if chaos.fault("transport.partial_write") is not None:
                self.log_event("chaos_partial_write", id=response.id)
                writer.write(frame[: max(1, len(frame) // 2)])
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                    pass
                return True
        writer.write(frame)
        await writer.drain()
        return False

    async def handle_request(self, request: ServiceRequest) -> ServiceResponse:
        """Route one request: control inline, work through the queue.

        Work requests carrying a client-minted id are idempotent: a
        resend of a completed request is answered from the response
        cache, and a resend of a still-running request joins the
        existing record's future — connection loss between response and
        client never causes double execution.
        """
        if request.kind in CONTROL_KINDS:
            return self._handle_control(request)
        assert request.kind in WORK_KINDS
        if request.id:
            cached = self._responses.get(request.id)
            if cached is not None:
                self.metrics["resends_served"] += 1
                self._responses.move_to_end(request.id)
                return cached
            pending = self._pending.get(request.id)
            if pending is not None:
                self.metrics["resends_served"] += 1
                return await self._await_record(pending)
        try:
            record = self.admit(request)
        except QueueFull as full:
            retry_after = self.retry_after_estimate()
            self._tally(request, "rejected")
            return error_response(
                "queue_full",
                f"{full}; retry after {retry_after:.2f}s",
                request_id=request.id,
                retry_after_s=retry_after,
            )
        except RuntimeError:
            return error_response(
                "draining",
                "daemon is draining and not accepting new work",
                request_id=request.id,
                retry_after_s=1.0,
            )
        return await self._await_record(record)

    async def _await_record(self, record: RequestRecord) -> ServiceResponse:
        """Wait for a record's terminal response, bounded by timeout/deadline."""
        request = record.request
        timeout = self.config.request_timeout_s
        code, error = "timeout", f"request {request.id} exceeded {timeout}s"
        if record.deadline_at is not None:
            remaining = record.deadline_at - time.monotonic()
            if remaining < timeout:
                timeout = max(0.0, remaining)
                code = "deadline_exceeded"
                error = (
                    f"request {request.id} missed its {request.deadline_s}s deadline"
                )
        try:
            return await asyncio.wait_for(
                asyncio.shield(record.future), timeout=timeout
            )
        except asyncio.TimeoutError:
            if not record.future.done():
                # The first awaiter to give up settles the record; a joined
                # resend giving up later gets the same response.
                self.settle(record, error_response(code, error, request_id=request.id))
            return record.future.result()

    def _handle_control(self, request: ServiceRequest) -> ServiceResponse:
        if request.kind == "ping":
            return ServiceResponse(
                ok=True, result={"pong": True, "uptime_s": self.uptime()}, id=request.id
            )
        if request.kind == "health":
            return ServiceResponse(ok=True, result=self.healthz(), id=request.id)
        if request.kind == "metrics":
            return ServiceResponse(
                ok=True, result=self.metrics_snapshot(), id=request.id
            )
        if request.kind == "shutdown":
            drain = bool(request.payload.get("drain", True))
            self.request_stop(drain=drain)
            return ServiceResponse(
                ok=True, result={"stopping": True, "drain": drain}, id=request.id
            )
        raise AssertionError(f"unhandled control kind {request.kind!r}")

    # ------------------------------------------------------------------
    # HTTP shim
    # ------------------------------------------------------------------
    async def _serve_http(
        self,
        first_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Minimal HTTP/1.0 answers for ``/healthz`` and ``/metrics``."""
        import json as _json

        try:
            while True:  # drain request headers
                header = await asyncio.wait_for(reader.readline(), timeout=2.0)
                if header in (b"", b"\r\n", b"\n"):
                    break
        except asyncio.TimeoutError:  # pragma: no cover - slowloris guard
            pass
        parts = first_line.decode("latin-1", "replace").split()
        path = parts[1] if len(parts) >= 2 else "/"
        path = path.split("?", 1)[0]
        if path == "/healthz":
            status, body = 200, self.healthz()
            if body["status"] == "critical":
                status = 503
        elif path == "/metrics":
            status, body = 200, self.metrics_snapshot()
        else:
            status, body = 404, {"error": f"unknown path {path!r}"}
        payload = _json.dumps(jsonify(body), indent=2).encode("utf-8")
        reason = {200: "OK", 404: "Not Found", 503: "Service Unavailable"}[status]
        writer.write(
            f"HTTP/1.0 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        writer.write(payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def uptime(self) -> float:
        if self.started_at is None:
            return 0.0
        return round(time.monotonic() - self.started_at, 3)

    def healthz(self) -> Dict[str, Any]:
        """Liveness state machine: healthy / degraded / critical.

        * **critical** — no live actor at all: the daemon cannot serve
          work (HTTP shim answers 503).
        * **degraded** — serving, but impaired: draining for shutdown or
          a quarantined actor is still wedged.
        * **healthy** — full capacity.
        """
        alive = sum(1 for actor in self.actors if actor.is_alive())
        quarantined = sum(
            1 for actor in self.quarantined_actors if actor.is_alive()
        )
        if alive == 0 and self.actors:
            status = "critical"
        elif self.draining or quarantined:
            status = "degraded"
        else:
            status = "healthy"
        return {
            "status": status,
            "draining": self.draining,
            "uptime_s": self.uptime(),
            "queue_depth": len(self.queue),
            "in_flight": self._in_flight,
            "actors_alive": alive,
            "actors_total": len(self.actors),
            "quarantined": quarantined,
            "restarts": self.supervisor.restarts,
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The full live-telemetry document behind ``/metrics``."""
        return {
            "uptime_s": self.uptime(),
            "address": list(self.address) if self.address else None,
            "draining": self.draining,
            "requests": dict(self.metrics),
            "in_flight": self._in_flight,
            "queue": self.queue.stats(),
            "clients": {name: dict(c) for name, c in self.per_client.items()},
            "kinds": {name: dict(c) for name, c in self.per_kind.items()},
            "retry_after_s": self.retry_after_estimate(),
            "actors": [actor.snapshot() for actor in self.actors],
            "quarantined_actors": [
                actor.snapshot() for actor in self.quarantined_actors
            ],
            "supervision": self.supervisor.stats(),
            "response_cache": {
                "size": len(self._responses),
                "capacity": RESPONSE_CACHE_SIZE,
            },
            "chaos": (
                self.chaos_injector.stats()
                if self.chaos_injector is not None
                else None
            ),
            "events": list(self.events[-20:]),
            "engine": self.service.stats(),
            "store": self.store.stats() if self.store is not None else None,
            "journal_pending": len(self.journal),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def request_stop(self, drain: bool = True) -> None:
        """Thread-safe shutdown request (drain first unless told not to)."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return

        def _stop() -> None:
            self._drain_on_stop = drain and self._drain_on_stop
            self.draining = True
            assert self._stop_event is not None
            self._stop_event.set()

        loop.call_soon_threadsafe(_stop)

    def _resume_journal(self) -> None:
        """Re-admit journaled requests from a previous run.

        No client waits for them; a reconnecting client resending the same
        id joins the resumed record instead of duplicating the work.  A
        deadline counts from the request's first admission (the journaled
        wall-clock ``accepted_at``): a resumed request keeps only the time
        left, and one already past its deadline is shed by the dispatcher
        (:meth:`_dead`) without running.
        """
        for entry in self.journal.pending():  # shapes pre-checked
            try:
                record = self.admit(ServiceRequest.from_wire(entry), resumed=True)
            except QueueFull:  # pragma: no cover - journal larger than queue
                self.journal.discard(entry["id"])
                continue
            if record.deadline_at is not None:
                record.deadline_at -= now() - entry["accepted_at"]
        if self.metrics["resumed"]:
            self.log_event("journal_resumed", requests=self.metrics["resumed"])

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._queue_event = asyncio.Event()
        self._idle = asyncio.Queue()
        self.started_at = time.monotonic()
        if self.chaos_injector is not None:
            chaos.install(self.chaos_injector)
            self.log_event(
                "chaos_installed",
                seed=self.chaos_injector.plan.seed,
                rules=len(self.chaos_injector.plan),
                points=self.chaos_injector.plan.points(),
            )
        for _ in range(self.config.workers):
            self.spawn_actor()
        self._resume_journal()
        if self.config.unix_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.config.unix_path,
                limit=MAX_MESSAGE_BYTES + 1024,
            )
            self.address = ("unix", self.config.unix_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_MESSAGE_BYTES + 1024,
            )
            sockname = self._server.sockets[0].getsockname()
            self.address = ("tcp", sockname[0], int(sockname[1]))
        dispatcher = asyncio.ensure_future(self._dispatcher())
        supervision = asyncio.ensure_future(self.supervisor.run())
        self.log_event("daemon_started", address=list(self.address))
        self._ready.set()
        try:
            await self._stop_event.wait()
            self.draining = True
            if self._drain_on_stop:
                await self._drain(deadline=time.monotonic() + DRAIN_TIMEOUT_S)
        finally:
            self.supervisor.stop()
            for task in (dispatcher, supervision):
                task.cancel()
            await asyncio.gather(dispatcher, supervision, return_exceptions=True)
            self._shutdown_actors()
            self._reject_leftovers()
            self._server.close()
            await self._server.wait_closed()
            if self.config.unix_path:
                try:
                    os.unlink(self.config.unix_path)
                except OSError:
                    pass
            if self.chaos_injector is not None:
                # Identity-guarded: never clobber a newer daemon's injector.
                chaos.uninstall(expected=self.chaos_injector)
            self.log_event("daemon_stopped", drained=self._drain_on_stop)

    async def _drain(self, deadline: float) -> None:
        """Wait for queued + in-flight work to finish (bounded)."""
        while (len(self.queue) or self._in_flight) and time.monotonic() < deadline:
            await asyncio.sleep(0.02)

    def _shutdown_actors(self) -> None:
        fleet = self.actors + self.quarantined_actors
        for actor in fleet:
            if actor.is_alive():
                actor.stop()
        for actor in fleet:
            actor.join(timeout=2.0)

    def _reject_leftovers(self) -> None:
        """Answer still-queued records ``draining`` at a hard stop
        (``settle`` keeps their journal entries for the next start)."""
        for record in self.queue.drain():
            if not record.future.done():
                self.settle(
                    record,
                    error_response(
                        "draining",
                        "daemon stopped before this request was dispatched",
                        request_id=record.request.id,
                        retry_after_s=1.0,
                    ),
                )

    def serve(self) -> None:
        """Run the daemon on the calling thread until stopped (CLI path)."""
        asyncio.run(self._main())

    def start_in_thread(self, ready_timeout: float = 30.0) -> DaemonHandle:
        """Run the daemon on a background thread; returns once listening."""
        thread = threading.Thread(
            target=self.serve, name="repro-service-daemon", daemon=True
        )
        thread.start()
        if not self._ready.wait(timeout=ready_timeout):
            raise RuntimeError("service daemon did not start listening in time")
        return DaemonHandle(self, thread)
