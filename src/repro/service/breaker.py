"""Per-work-kind circuit breaker over crash-retry failures.

A worker crash is expensive: the actor thread dies, the supervisor
respawns it (a fresh session, cold caches) and re-dispatches the record.
When one request *kind* keeps crashing workers — a poisoned payload
class, a bug in one evaluation path — retrying every arrival burns the
whole fleet on it.  :class:`CircuitBreaker` watches consecutive crash
failures per kind and, past a threshold, rejects that kind at admission
with ``circuit_open`` + a retry-after hint while the rest of the service
keeps running.

Standard three-state machine per kind:

* **closed** — normal operation; consecutive crash failures are counted,
  any success resets the count.
* **open** — admissions rejected until ``cooldown_s`` elapses.
* **half_open** — one probe request is admitted; success closes the
  circuit, another crash re-opens it for a fresh cooldown.  A probe that
  never reports — refused ``queue_full``, shed by its deadline, abandoned
  while queued — lapses ``cooldown_s`` after its admission, and the next
  arrival is the new probe.

The breaker lives on the daemon's event loop thread (admission and the
supervisor both run there), so it needs no locking.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Consecutive worker crashes executing one kind that open its circuit.
BREAKER_THRESHOLD = 3


class CircuitBreaker:
    """Trips one work kind after ``threshold`` consecutive crash failures."""

    def __init__(
        self, threshold: int = BREAKER_THRESHOLD, cooldown_s: float = 5.0
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.tripped = 0
        self._kinds: Dict[str, Dict[str, float]] = {}

    def _entry(self, kind: str) -> Dict[str, float]:
        # ``since``: when the circuit opened, or when its probe was admitted.
        return self._kinds.setdefault(
            kind, {"state": CLOSED, "failures": 0, "since": 0.0}
        )

    # ------------------------------------------------------------------
    def allow(self, kind: str) -> Tuple[bool, Optional[float]]:
        """Admission gate: ``(allowed, retry_after_s)``.

        An open circuit whose cooldown has elapsed admits exactly one
        probe (half-open); arrivals within ``cooldown_s`` of the probe's
        admission are still rejected, and after that the probe has lapsed
        and the next arrival is admitted as a new one.
        """
        entry = self._kinds.get(kind)
        if entry is None or entry["state"] == CLOSED:
            return True, None
        elapsed = time.monotonic() - entry["since"]
        if elapsed < self.cooldown_s:
            return False, max(0.05, self.cooldown_s - elapsed)
        entry["state"] = HALF_OPEN
        entry["since"] = time.monotonic()
        return True, None

    def record_failure(self, kind: str) -> None:
        """One worker crash executing ``kind`` (supervisor restart path)."""
        entry = self._entry(kind)
        entry["failures"] += 1
        if entry["state"] == HALF_OPEN or entry["failures"] >= self.threshold:
            if entry["state"] != OPEN:
                self.tripped += 1
            entry["state"] = OPEN
            entry["since"] = time.monotonic()

    def record_success(self, kind: str) -> None:
        """A live worker produced a response for ``kind`` (crash-free)."""
        entry = self._kinds.get(kind)
        if entry is None:
            return
        entry["failures"] = 0
        entry["state"] = CLOSED

    # ------------------------------------------------------------------
    def state(self, kind: str) -> str:
        entry = self._kinds.get(kind)
        return entry["state"] if entry is not None else CLOSED  # type: ignore[return-value]

    def open_kinds(self) -> List[str]:
        """Kinds currently not accepting normal traffic (open/half-open)."""
        return sorted(
            kind for kind, entry in self._kinds.items() if entry["state"] != CLOSED
        )

    def stats(self) -> Dict[str, object]:
        return {
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "tripped": self.tripped,
            "kinds": {
                kind: {
                    "state": entry["state"],
                    "failures": int(entry["failures"]),
                }
                for kind, entry in self._kinds.items()
            },
        }
