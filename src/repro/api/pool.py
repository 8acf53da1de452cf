"""The persistent process pool shared across sweeps.

:class:`WorkerPool` keeps one ``concurrent.futures.ProcessPoolExecutor``
alive between sweeps, so repeated ``run_sweep`` calls in one process pay
worker startup (process start, imports) once and keep each worker's warm
scene contexts;
:class:`~repro.api.session.Session` owns one lazily and hands it to every
parallel :class:`~repro.api.executor.SweepExecutor` run and to
:func:`~repro.api.executor.schedule_experiments`.

Lifecycle: the pool is created on first use, grown (recreated larger) when
a sweep asks for more workers than it holds, discarded when it breaks
mid-run, and shut down by ``Session.close()`` — or by the ``atexit`` hook
the session registers, so leaked sessions never hang interpreter exit.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.api.session import Session

# ----------------------------------------------------------------------
# Warm per-worker sessions.
# ----------------------------------------------------------------------
#: The warm session of *this* process when it is a pool worker: one
#: session per worker process, kept across tasks and sweeps, so scene
#: contexts built by an earlier task are cache hits.  Never populated in
#: the main process.
_WORKER_SESSION: Optional["Session"] = None


def worker_session(seed: int) -> "Session":
    """The session a pool worker should evaluate tasks in.

    In a worker *process* (anything with a parent process) this returns a
    warm session kept for the process's lifetime — rebuilt only when the
    requested seed changes, so repeated sweeps with one seed share every
    context the worker ever built.  In the main process (direct calls) it
    returns a fresh private session, so no state is shared with the
    caller's sessions.
    """
    global _WORKER_SESSION
    from repro.api.session import Session

    if multiprocessing.parent_process() is None:
        return Session(seed=seed)
    if _WORKER_SESSION is None or _WORKER_SESSION.seed != seed:
        _WORKER_SESSION = Session(seed=seed)
    return _WORKER_SESSION


def reset_worker_session() -> None:
    """Drop the warm worker session (tests)."""
    global _WORKER_SESSION
    _WORKER_SESSION = None


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
        # Too small for this sweep (or absent): the old workers finish
        # nothing — the pool is only handed out between sweeps — so a
        # non-waiting shutdown is safe.
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
