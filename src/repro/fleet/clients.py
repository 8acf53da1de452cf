"""Trace replay: synthetic clients driving a daemon over the wire.

The replayer spawns one thread per synthetic client identity in the
trace.  Each thread opens its own NDJSON connection (so fair-queueing,
admission control and backoff all see real per-client state), sleeps
until each of its events is due, submits it with bounded-jitter retry
backoff, and records an :class:`EventOutcome`.  Timing is open-loop: a
slow response delays only that client's subsequent events, exactly like
a real fleet of independent frontends.

``speed`` compresses the trace's schedule (``speed=10`` replays a
10-second trace in about one second of wall clock), which keeps CI smoke
fast without changing the request mix or ordering.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.fleet.traces import Trace, TraceEvent
from repro.service.client import ServiceClient

Address = Sequence[str]


@dataclass
class EventOutcome:
    """What happened to one trace event during replay."""

    client: str
    klass: str
    kind: str
    scheduled_s: float
    started_s: float = 0.0
    finished_s: float = 0.0
    ok: bool = False
    code: Optional[str] = None
    #: Daemon-side dispatch attempts (>1 means a crash retry happened).
    attempts: int = 1
    #: Client-side admission-reject resubmissions for this event.
    backoffs: int = 0
    #: Reconnect-and-resend cycles taken after a severed connection.
    resends: int = 0
    frames: float = 1.0

    @property
    def latency_s(self) -> float:
        """Submission to response, including backoff sleeps."""
        return max(0.0, self.finished_s - self.started_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "client": self.client,
            "class": self.klass,
            "kind": self.kind,
            "scheduled_s": self.scheduled_s,
            "latency_s": self.latency_s,
            "ok": self.ok,
            "code": self.code,
            "attempts": self.attempts,
            "backoffs": self.backoffs,
            "resends": self.resends,
            "frames": self.frames,
        }


@dataclass
class ReplayReport:
    """Outcome of one trace replay against a live daemon."""

    outcomes: List[EventOutcome] = field(default_factory=list)
    wall_s: float = 0.0
    speed: float = 1.0
    #: The daemon's ``metrics`` snapshot scraped right after the replay.
    daemon_metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.completed


def _replay_client(
    address: Address,
    name: str,
    events: List[TraceEvent],
    started_at: float,
    speed: float,
    retries: int,
    max_backoff_s: float,
    timeout: float,
    reconnect: int,
    sink: List[EventOutcome],
    lock: threading.Lock,
) -> None:
    """One synthetic client's replay loop (runs on its own thread)."""
    outcomes: List[EventOutcome] = []
    try:
        client = ServiceClient.connect(
            address, client=name, timeout=timeout, reconnect=reconnect
        )
    except OSError as error:
        for event in events:
            outcomes.append(
                EventOutcome(
                    client=name,
                    klass=event.klass,
                    kind=event.kind,
                    scheduled_s=event.at_s / speed,
                    code=f"connect_error:{type(error).__name__}",
                    frames=event.frames,
                )
            )
        with lock:
            sink.extend(outcomes)
        return

    try:
        for position, event in enumerate(events):
            due = event.at_s / speed
            delay = due - (time.perf_counter() - started_at)
            if delay > 0:
                time.sleep(delay)
            outcome = EventOutcome(
                client=name,
                klass=event.klass,
                kind=event.kind,
                scheduled_s=due,
                frames=event.frames,
            )
            outcome.started_s = time.perf_counter() - started_at
            backoffs_before = client.backoffs
            resends_before = client.resends
            try:
                response = client.submit(
                    event.kind,
                    dict(event.payload),
                    retries=retries,
                    max_backoff_s=max_backoff_s,
                )
            except (OSError, ConnectionError) as error:
                # The connection is gone past the reconnect budget.  Record
                # this event AND the client's remaining tail as terminal
                # outcomes so every trace event is accounted for.
                outcome.finished_s = time.perf_counter() - started_at
                outcome.resends = client.resends - resends_before
                outcome.code = f"transport_error:{type(error).__name__}"
                outcomes.append(outcome)
                for lost in events[position + 1 :]:
                    outcomes.append(
                        EventOutcome(
                            client=name,
                            klass=lost.klass,
                            kind=lost.kind,
                            scheduled_s=lost.at_s / speed,
                            code="connection_lost",
                            frames=lost.frames,
                        )
                    )
                break
            outcome.finished_s = time.perf_counter() - started_at
            outcome.backoffs = client.backoffs - backoffs_before
            outcome.resends = client.resends - resends_before
            outcome.ok = bool(response.ok)
            outcome.code = response.code
            meta = response.meta or {}
            outcome.attempts = int(meta.get("attempts", 1) or 1)
            outcomes.append(outcome)
    finally:
        try:
            client.close()
        except OSError:
            pass
        with lock:
            sink.extend(outcomes)


def replay_trace(
    trace: Trace,
    address: Address,
    speed: float = 1.0,
    retries: int = 5,
    max_backoff_s: float = 2.0,
    timeout: float = 300.0,
    reconnect: int = 1,
    scrape_metrics: bool = True,
) -> ReplayReport:
    """Replay ``trace`` against the daemon at ``address``.

    Returns once every client thread has drained its schedule.  The
    report's outcomes are sorted by schedule time for stable downstream
    aggregation.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    address = tuple(address)
    sink: List[EventOutcome] = []
    lock = threading.Lock()
    started_at = time.perf_counter()
    threads = [
        threading.Thread(
            target=_replay_client,
            name=f"fleet-{name}",
            args=(
                address,
                name,
                events,
                started_at,
                speed,
                retries,
                max_backoff_s,
                timeout,
                reconnect,
                sink,
                lock,
            ),
            daemon=True,
        )
        for name, events in trace.by_client().items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started_at

    daemon_metrics: Dict[str, Any] = {}
    if scrape_metrics:
        try:
            with ServiceClient.connect(address, client="fleet-metrics") as probe:
                daemon_metrics = probe.metrics()
        except (OSError, ConnectionError):
            daemon_metrics = {}

    sink.sort(key=lambda outcome: (outcome.scheduled_s, outcome.client))
    return ReplayReport(
        outcomes=sink, wall_s=wall_s, speed=speed, daemon_metrics=daemon_metrics
    )
