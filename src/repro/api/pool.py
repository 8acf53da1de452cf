"""The persistent process pool shared across sweeps and schedules.

:class:`WorkerPool` keeps one ``concurrent.futures.ProcessPoolExecutor``
alive between runs, so repeated ``run_sweep`` calls and experiment
schedules in one process pay worker startup (process start, imports) once
and keep each worker's warm scene contexts (a worker runs every task in its
process's default session);
:class:`~repro.api.session.Session` owns one lazily, and every fan-out
(:func:`~repro.api.executor.fan_out`, behind ``Session.run_sweep`` and
:func:`~repro.api.executor.schedule_experiments`) runs on its session's.

Lifecycle: the pool is created on first use, grown (recreated larger) when
a run asks for more workers than it holds, discarded when it breaks
mid-run, and shut down by ``Session.close()`` — or by the ``atexit`` hook
the session registers, so leaked sessions never hang interpreter exit.
"""

from __future__ import annotations

import concurrent.futures
from typing import Dict, Optional


class WorkerPool:
    """A lazily created, reusable process pool.

    ``executor(workers)`` returns a live
    :class:`concurrent.futures.ProcessPoolExecutor`; the existing one is
    reused when it has at least ``workers`` workers (``reuse_count``
    increments), a smaller one is replaced by a bigger one.  Callers never
    shut the returned executor down — the pool owns it; a broken pool is
    dropped with :meth:`discard` and the next request creates a fresh one.
    """

    def __init__(self) -> None:
        self._executor: Optional[concurrent.futures.ProcessPoolExecutor] = None
        #: Worker count of the live executor (0 when none exists).
        self.size = 0
        self.created = 0
        self.reuse_count = 0
        self.closed = False

    # ------------------------------------------------------------------
    def executor(self, workers: int) -> concurrent.futures.ProcessPoolExecutor:
        """A live process pool with capacity for ``workers`` tasks."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if self.closed:
            raise RuntimeError("worker pool is closed")
        if self._executor is not None and self.size >= workers:
            self.reuse_count += 1
            return self._executor
        # Too small for this run (or absent): the pool is only handed out
        # between runs, so the old workers finish nothing anyone waits for
        # and a non-waiting shutdown is safe.
        self.discard()
        self._executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        self.size = workers
        self.created += 1
        return self._executor

    def discard(self) -> None:
        """Drop the live executor (used after it breaks mid-run)."""
        pool, self._executor, self.size = self._executor, None, 0
        if pool is not None:
            try:
                pool.shutdown(wait=False)
            except Exception:  # pragma: no cover - broken pools may refuse
                pass

    def shutdown(self) -> None:
        """Shut the executor down; the pool object is unusable afterwards."""
        self.discard()
        self.closed = True

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counter snapshot: pools created, reuses, live pools."""
        return {
            "created": self.created,
            "reuse_count": self.reuse_count,
            "alive": int(self._executor is not None),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(size={self.size}, created={self.created}, "
            f"reuses={self.reuse_count})"
        )
