"""Supervision: heartbeat watchdog, actor restart, in-flight journaling.

The supervisor is the daemon's fault boundary.  It runs as an asyncio
task, periodically sweeping the actor fleet:

* a **dead actor** (thread exited without clean shutdown — real fault or
  injected crash) is replaced by a fresh actor, and its in-flight
  :class:`~repro.service.actors.RequestRecord` is re-admitted at the
  front of the fair queue with bounded retries
  (``attempts <= MAX_RETRIES + 1``); a record past its retry budget gets
  a ``worker_crashed`` failure response instead of vanishing;
* a **wedged actor** (alive but heartbeat-stale beyond the watchdog
  timeout) is surfaced in metrics/health — Python threads cannot be
  killed, so the per-request timeout owns the client-facing outcome while
  the watchdog owns visibility.

:class:`Journal` persists admitted-but-unfinished work to disk (one JSON
file per request, atomic writes): a daemon that dies mid-flight resumes
its journaled requests on the next start instead of losing them.  Results
land in the shared :class:`~repro.api.store.ResultStore` where configured,
so resumed evaluation work is not wasted even though the original client
connection is gone.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro import chaos
from repro.api.store import atomic_write_json
from repro.service.protocol import ServiceRequest, error_response

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.daemon import ServiceDaemon

#: How many times one request is re-dispatched after a worker crash: 1
#: means retried exactly once, then failed ``worker_crashed``.
MAX_RETRIES = 1

#: Supervision sweep period in seconds (crash-detection latency).
SWEEP_INTERVAL_S = 0.05


class Journal:
    """Disk persistence of admitted, unfinished requests.

    ``root=None`` disables journaling (every method is a no-op), so the
    daemon code never branches.  Entries are one JSON file per request id;
    writes are atomic (temp + rename), corrupt entries are moved aside to
    ``<name>.corrupt`` and skipped — a damaged journal degrades to losing
    that one request, never to failing startup.
    """

    def __init__(self, root: Optional[Path]) -> None:
        self.root = Path(root) if root else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, request_id: str) -> Path:
        assert self.root is not None
        return self.root / f"req-{request_id}.json"

    def record(self, request: ServiceRequest, accepted_at: float) -> None:
        """Persist one admitted request (idempotent per id).

        The entry is the request's wire form (its ``deadline_s`` included)
        plus ``accepted_at``, the wall-clock admission time its deadline
        counts from.
        """
        if self.root is None:
            return
        entry = dict(request.to_wire(), accepted_at=accepted_at)
        if chaos.fault("journal.torn_write") is not None:
            # Simulated torn write: truncated JSON landing without the
            # atomic rename — exactly what a crash mid-write leaves behind.
            text = json.dumps(entry)
            self._path(request.id).write_text(text[: max(1, len(text) // 2)])
            return
        atomic_write_json(self._path(request.id), entry)

    def discard(self, request_id: str) -> None:
        """Forget one finished request."""
        if self.root is None or not request_id:
            return
        try:
            self._path(request_id).unlink()
        except FileNotFoundError:
            pass

    def pending(self) -> List[Dict[str, Any]]:
        """Journaled requests of a previous run, oldest first."""
        if self.root is None:
            return []
        entries: List[Dict[str, Any]] = []
        for path in sorted(self.root.glob("req-*.json")):
            try:
                entry = json.loads(path.read_text())
                ServiceRequest.from_wire(entry)  # shape check
                entry["accepted_at"] = float(entry["accepted_at"])
                entries.append(entry)
            except (json.JSONDecodeError, OSError, ValueError, KeyError, TypeError):
                try:
                    path.replace(path.with_name(path.name + ".corrupt"))
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        entries.sort(key=lambda entry: entry["accepted_at"])
        return entries

    def __len__(self) -> int:
        if self.root is None:
            return 0
        return sum(1 for _ in self.root.glob("req-*.json"))


class Supervisor:
    """Watchdog task restarting crashed actors and retrying their work.

    Parameters
    ----------
    daemon:
        The owning :class:`~repro.service.daemon.ServiceDaemon`.
    heartbeat_timeout:
        An alive-but-silent actor is reported as stalled beyond this.
    quarantine_after:
        A busy actor heartbeat-silent beyond this is *quarantined*: a
        replacement is spawned in its fleet slot so capacity is restored,
        while the wedged thread keeps running outside dispatch (Python
        threads cannot be killed).  ``None`` derives 4x the heartbeat
        timeout — long legitimate renders stall first, quarantine later.
    """

    def __init__(
        self,
        daemon: "ServiceDaemon",
        heartbeat_timeout: float = 5.0,
        quarantine_after: Optional[float] = None,
    ) -> None:
        self.daemon = daemon
        self.heartbeat_timeout = heartbeat_timeout
        self.quarantine_after = (
            4.0 * heartbeat_timeout if quarantine_after is None else quarantine_after
        )
        self.restarts = 0
        self.retried = 0
        self.dropped = 0
        #: Stall *incidents*, not sweeps: a wedged actor counts once per
        #: incident and is re-armed when its heartbeat recovers.
        self.stalled = 0
        self.quarantined = 0
        self._stopping = False

    def stop(self) -> None:
        self._stopping = True

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """The supervision loop; cancelled (or stopped) at shutdown."""
        while not self._stopping:
            self.sweep()
            await asyncio.sleep(SWEEP_INTERVAL_S)

    def sweep(self) -> None:
        """One pass over the fleet (synchronous, also called by tests)."""
        for position, actor in enumerate(list(self.daemon.actors)):
            if actor.stopped:
                continue
            if not actor.is_alive() and actor.ident is not None:
                self._restart(position, actor)
                continue
            age = actor.heartbeat_age()
            if actor.is_alive() and actor.busy and age > self.heartbeat_timeout:
                if not actor.stall_flagged:
                    # One incident, counted once; threads cannot be
                    # killed, and the per-request timeout still owns the
                    # client outcome.
                    actor.stall_flagged = True
                    self.stalled += 1
                    self.daemon.log_event(
                        "actor_stalled",
                        actor=actor.name,
                        heartbeat_age_s=round(age, 3),
                    )
                if age > self.quarantine_after and not actor.quarantined:
                    # Wedged beyond doubt: restore fleet capacity by
                    # replacing the slot; the stuck thread is tracked and
                    # excluded from dispatch until it completes or dies.
                    self.quarantined += 1
                    self.daemon.log_event(
                        "actor_quarantined",
                        actor=actor.name,
                        heartbeat_age_s=round(age, 3),
                        request=(
                            actor.current.request.id
                            if actor.current is not None
                            else None
                        ),
                    )
                    self.daemon.quarantine_actor(position, actor)
            elif actor.stall_flagged:
                actor.stall_flagged = False
                self.daemon.log_event("actor_recovered", actor=actor.name)

    def _restart(self, position: int, actor) -> None:
        """Replace one dead actor and re-admit (or fail) its request."""
        self.restarts += 1
        record = actor.current
        self.daemon.log_event(
            "actor_restart",
            actor=actor.name,
            crashed=actor.crashed,
            request=record.request.id if record is not None else None,
            attempts=record.attempts if record is not None else None,
        )
        self.daemon.spawn_actor(position)
        if record is None:
            return
        # The crashed actor held an in-flight record: it left dispatch
        # accounting open, so close it here, then retry the record or
        # settle it as a terminal failure.
        self.daemon.settle_crashed(record)
        if record.future.done():
            return  # its awaiter already gave up; nobody waits for a retry
        if record.attempts <= MAX_RETRIES:
            self.retried += 1
            self.daemon.log_event(
                "request_retried", request=record.request.id, attempts=record.attempts
            )
            self.daemon.requeue(record)
        else:
            self.dropped += 1
            self.daemon.settle(
                record,
                error_response(
                    "worker_crashed",
                    f"worker crashed {record.attempts} time(s) executing "
                    f"request {record.request.id}; retry budget exhausted",
                    request_id=record.request.id,
                ),
            )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "restarts": self.restarts,
            "retried": self.retried,
            "dropped": self.dropped,
            "stalled": self.stalled,
            "quarantined": self.quarantined,
        }


def now() -> float:
    """Wall-clock seconds (journal timestamps; monotonic is per-boot)."""
    return time.time()
