"""Bounded admission queue with per-client fair scheduling.

:class:`FairQueue` is the daemon's request queue.  Two properties matter:

* **Admission control** — the queue is bounded; a push beyond
  ``max_depth`` raises :class:`QueueFull` instead of growing without
  limit, and the daemon converts that into a reject-with-retry-after
  response.  Excess load is *never* silently buffered: a client either
  gets a slot or an immediate, bounded-cost refusal.

* **Fair scheduling** — requests are popped in virtual-time order
  (fair queueing with equal client weights): each client's request gets
  a virtual finish tag ``start + cost`` where ``start`` is the later of
  the queue's virtual clock and the client's previous finish tag.  A
  client that enqueues a burst only advances *its own* finish tags, so
  another client's single request scheduled at the current virtual time
  overtakes most of the burst — one heavy client cannot starve light
  ones.

The queue is synchronous and lock-free by construction (the daemon's
event loop is its only caller); :meth:`pop` order for a fixed push
sequence is fully deterministic, which the fairness tests pin.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: Default bound on queued (not yet dispatched) requests.
DEFAULT_MAX_DEPTH = 64


class QueueFull(RuntimeError):
    """The admission queue is at capacity; the caller must reject."""

    def __init__(self, depth: int, max_depth: int) -> None:
        self.depth = depth
        self.max_depth = max_depth
        super().__init__(f"admission queue full ({depth}/{max_depth})")


@dataclass
class _Entry:
    """One queued item with its virtual finish tag and arrival sequence."""

    finish: float
    seq: int
    item: Any


@dataclass
class FairQueue:
    """Bounded fair request queue (virtual-time fair queueing).

    Parameters
    ----------
    max_depth:
        Maximum queued items; pushes beyond it raise :class:`QueueFull`.
    """

    max_depth: int = DEFAULT_MAX_DEPTH

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        #: Per-client FIFO of entries; tags within one client are monotonic.
        self._queues: "OrderedDict[str, Deque[_Entry]]" = OrderedDict()
        #: Virtual clock: the finish tag of the last popped entry.
        self._virtual = 0.0
        #: Last assigned finish tag per client (idle clients rejoin at the
        #: current virtual time, not at their stale tag).
        self._last_finish: Dict[str, float] = {}
        self._depth = 0
        self._seq = 0
        self.pushed = 0
        self.popped = 0
        self.rejected = 0
        self.peak_depth = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._depth

    def clients(self) -> List[str]:
        """Clients with queued items, in first-seen order."""
        return [client for client, entries in self._queues.items() if entries]

    # ------------------------------------------------------------------
    def push(
        self,
        client: str,
        item: Any,
        cost: float = 1.0,
        front: bool = False,
    ) -> None:
        """Enqueue one item for ``client``.

        ``cost`` scales the virtual finish tag (an expensive request eats
        more of its client's share).  ``front=True`` re-admits a
        supervisor-retried request at the current virtual time ahead of
        its client's backlog — a retry never re-queues behind work that
        arrived after it.  Raises :class:`QueueFull` at capacity (retries
        are exempt: re-admitting in-flight work can never exceed the
        depth the queue already admitted).
        """
        if not front and self._depth >= self.max_depth:
            self.rejected += 1
            raise QueueFull(self._depth, self.max_depth)
        entries = self._queues.setdefault(client, deque())
        self._seq += 1
        if front:
            entries.appendleft(_Entry(finish=self._virtual, seq=self._seq, item=item))
        else:
            start = max(self._virtual, self._last_finish.get(client, 0.0))
            finish = start + max(cost, 0.0)
            self._last_finish[client] = finish
            entries.append(_Entry(finish=finish, seq=self._seq, item=item))
        self._depth += 1
        self.pushed += 1
        self.peak_depth = max(self.peak_depth, self._depth)

    def pop(self) -> Optional[Any]:
        """The next item in fair order, or ``None`` when empty."""
        best: Optional[Tuple[float, int, str]] = None
        for client, entries in self._queues.items():
            if not entries:
                continue
            head = entries[0]
            tag = (head.finish, head.seq, client)
            if best is None or tag < best:
                best = tag
        if best is None:
            return None
        entry = self._queues[best[2]].popleft()
        self._virtual = max(self._virtual, entry.finish)
        self._depth -= 1
        self.popped += 1
        return entry.item

    def drain(self) -> List[Any]:
        """Pop everything in fair order (used at shutdown)."""
        items = []
        while self._depth:
            items.append(self.pop())
        return items

    def shed(self, predicate: Callable[[Any], bool]) -> List[Any]:
        """Remove and return every queued item matching ``predicate``.

        Used by the daemon to evict dead weight — expired-deadline or
        already-done records — *before* rejecting new work: an entry that
        will never be dispatched should not hold a queue slot against
        live traffic.  Fair-scheduling state (virtual clock, finish tags)
        is untouched; surviving entries keep their order.
        """
        shed: List[Any] = []
        for entries in self._queues.values():
            kept: Deque[_Entry] = deque()
            for entry in entries:
                if predicate(entry.item):
                    shed.append(entry.item)
                else:
                    kept.append(entry)
            if len(kept) != len(entries):
                entries.clear()
                entries.extend(kept)
        self._depth -= len(shed)
        self.popped += len(shed)
        return shed

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counter snapshot for the metrics endpoint."""
        return {
            "depth": self._depth,
            "max_depth": self.max_depth,
            "peak_depth": self.peak_depth,
            "pushed": self.pushed,
            "popped": self.popped,
            "rejected": self.rejected,
            "per_client_depth": {
                client: len(entries)
                for client, entries in self._queues.items()
                if entries
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FairQueue(depth={self._depth}/{self.max_depth}, clients={self.clients()})"
