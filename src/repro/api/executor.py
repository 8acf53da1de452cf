"""Parallel execution of experiment sweeps and of whole experiments.

One fan-out (:func:`fan_out`) runs a list of independent tasks: in the
caller when ``jobs == 1`` or there is one task, otherwise on the calling
session's **persistent process pool** (:class:`~repro.api.pool.WorkerPool`).
It keeps every task that finishes and re-raises a task's own exception at
once and unchanged.  When the pool itself fails — it cannot be built,
refuses a task or loses a worker — it discards the pool, records
``degraded_reason`` and runs only the unfinished tasks in the caller.  Pool
workers run every task in their process's
:func:`~repro.api.session.get_default_session`, which stays warm across
tasks, so a context an earlier task built is a cache hit.

:meth:`Session.run_sweep <repro.api.session.Session.run_sweep>` runs a
sweep's *shards* on it: the specs its store does not hold, grouped by the
scene context they need (:func:`group_by_context`; scene x algorithm x
resolution scale x resolved streaming config).  The expensive part of a
point is building that context, and every spec in a shard shares it
through :meth:`~repro.api.session.Session.run_many`.  A shard is never
split across workers: once its context exists, a point is an analytic
hardware-model evaluation (16 Fig. 13 points take ~3 ms in total), while
shipping the context to another process costs tens of milliseconds each
way, so a one-context grid runs fastest where the context is built.

:func:`schedule_experiments` runs whole registry experiments (``fig2`` ...
``engine``) for ``runner``, one task per experiment.  Experiments are
mutually independent, so ordering only affects makespan: the pool gets
them heaviest :attr:`~repro.api.experiments.ExperimentDefinition.cost_hint`
first, while results return in request order.

What one run actually did — mode, tasks, per-task wall times, store hits,
pool reuse — is recorded in an :class:`ExecutionReport`, surfaced as
``SweepResult.meta["execution"]`` for a sweep.
"""

from __future__ import annotations

import concurrent.futures
import functools
from concurrent.futures.process import BrokenProcessPool
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.result import ExperimentResult
from repro.api.spec import ExperimentSpec
from repro.api.store import ResultStore

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.api.session import Session

#: Failures of building a pool or handing it a task, which send the
#: unfinished tasks back to the caller.  ``RuntimeError`` covers
#: thread-spawn exhaustion in the pool's manager and submits to a pool that
#: was shut down.  A finished task's exception never passes through here:
#: only :class:`BrokenProcessPool` from a future is the pool's.
_POOL_FAILURES = (
    BrokenProcessPool,
    OSError,
    ValueError,
    NotImplementedError,
    RuntimeError,
)


class SpecEvaluationError(RuntimeError):
    """One spec of a batch failed; names the offending point.

    Raised by :meth:`Session.run_many` (and therefore by every sweep,
    serial or pooled) wrapping the original exception, so a sweep
    failure always says *which* grid point died — not just that a worker
    raised somewhere.  The original exception is ``__cause__`` and
    :attr:`error`.
    """

    def __init__(self, spec: ExperimentSpec, error: BaseException) -> None:
        self.spec = spec
        self.error = error
        super().__init__(
            f"evaluating spec {spec.label!r} ({spec.to_dict()}) failed: "
            f"{type(error).__name__}: {error}"
        )

    def __reduce__(self):  # pool workers pickle exceptions back to the caller
        return (type(self), (self.spec, self.error))


def context_group_key(spec: ExperimentSpec) -> Tuple:
    """The shard key of a spec: everything that selects its scene context.

    Specs with equal keys share one calibrated scene context (model
    fitting, reference render, streaming render, workload derivation), so
    they are evaluated back to back in one worker.
    """
    return (
        spec.scene,
        spec.algorithm,
        float(spec.resolution_scale),
        spec.streaming_config(),
    )


def group_by_context(
    pairs: Iterable[Tuple[int, ExperimentSpec]]
) -> "OrderedDict[Tuple, List[Tuple[int, ExperimentSpec]]]":
    """Group (index, spec) pairs by :func:`context_group_key`, first-seen order.

    The one grouping primitive behind sharding and
    :meth:`Session.run_many`: specs in one group share a scene context and
    are evaluated back to back.
    """
    groups: "OrderedDict[Tuple, List[Tuple[int, ExperimentSpec]]]" = OrderedDict()
    for index, spec in pairs:
        groups.setdefault(context_group_key(spec), []).append((index, spec))
    return groups


def _worker_id() -> str:
    """Identity of the executing worker (process id / thread id)."""
    import os
    import threading

    return f"{os.getpid()}:{threading.get_ident()}"


def _session_or_default(session: Optional["Session"]) -> "Session":
    """``session``, or this process's default session (a pool worker's)."""
    if session is not None:
        return session
    from repro.api.session import get_default_session

    return get_default_session()


def _timed_task(session: "Session", work: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    """Run one task's ``work`` and add the telemetry every payload carries:
    wall time, worker id and the scene contexts the task built."""
    start = time.perf_counter()
    builds_before = session.context_misses
    payload = work()
    payload["elapsed_s"] = time.perf_counter() - start
    payload["worker"] = _worker_id()
    payload["context_builds"] = session.context_misses - builds_before
    return payload


def evaluate_shard(
    specs: Sequence[ExperimentSpec], session: Optional["Session"] = None
) -> Dict[str, Any]:
    """Evaluate one shard in ``session`` (a pool worker's default session).

    Returns plain ``to_dict()`` payloads (cheap to pickle, lossless to
    reconstruct) plus the task telemetry of :func:`_timed_task`.
    """
    session = _session_or_default(session)
    return _timed_task(
        session,
        lambda: {"results": [result.to_dict() for result in session.run_many(list(specs))]},
    )


def _run_experiment(
    name: str,
    options: Optional[Mapping[str, Any]] = None,
    cache_dir: Optional[str] = None,
    session: Optional["Session"] = None,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Run one registry experiment in ``session`` with its sweeps at ``jobs``.

    A pool worker passes neither, so the experiment runs in its default
    session with serial sweeps: parallelism already lives at the
    experiment level, and nested pools would oversubscribe the host.
    ``cache_dir`` roots the experiment's result store.  Returns the
    result's ``to_dict()``, the store's hit/miss counters, the
    :class:`ExecutionReport` of the last sweep the experiment ran (``None``
    if it ran none) and the task telemetry of :func:`_timed_task`.
    """
    from repro.api.experiments import get_experiment

    session = _session_or_default(session)
    store = ResultStore(cache_dir) if cache_dir else None
    last_sweep = session.last_execution

    def work() -> Dict[str, Any]:
        previous = (session.jobs, session.store)
        session.jobs, session.store = jobs, store
        try:
            result = get_experiment(name).build(session, **dict(options or {}))
        finally:
            session.jobs, session.store = previous
        sweep = session.last_execution
        return {
            "result": result.to_dict(),
            "store_hits": store.hits if store is not None else 0,
            "store_misses": store.misses if store is not None else 0,
            "sweep": sweep if sweep is not last_sweep else None,
        }

    return _timed_task(session, work)


@dataclass
class ExecutionReport:
    """What one sweep or one experiment schedule actually did.

    Each shard of a sweep, and each experiment of a schedule, is one task
    (``shards``; ``specs`` counts a sweep's points and a schedule's
    experiments).  ``mode`` is ``serial`` or ``process`` — ``serial`` also
    when a broken pool sent its unfinished tasks back to the caller, in
    which case ``degraded_reason`` says why.  ``worker_reuse`` is the
    session pool's cumulative reuse counter — how many times a run got
    handed an already-warm pool instead of paying startup — and
    ``workers_used`` counts the distinct processes that ran tasks.
    ``sweeps`` holds, for a schedule, the report of the last sweep each
    experiment ran, by experiment name.
    """

    mode: str = "serial"
    jobs: int = 1
    shards: int = 0
    specs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shard_sizes: List[int] = field(default_factory=list)
    shard_times_s: List[float] = field(default_factory=list)
    workers: int = 0
    workers_used: int = 0
    worker_reuse: int = 0
    wall_time_s: float = 0.0
    #: Bytes of task arguments pickled to pool workers, and how many scene
    #: contexts the run built (in the caller or in workers without a warm
    #: copy).
    pickled_bytes: int = 0
    context_rebuilds: int = 0
    degraded_reason: str = ""
    sweeps: Dict[str, "ExecutionReport"] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native form (stored in ``SweepResult.meta["execution"]``)."""
        return {
            "mode": self.mode,
            "jobs": self.jobs,
            "shards": self.shards,
            "specs": self.specs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "shard_sizes": list(self.shard_sizes),
            "shard_times_s": [round(t, 6) for t in self.shard_times_s],
            "workers": self.workers,
            "workers_used": self.workers_used,
            "worker_reuse": self.worker_reuse,
            "wall_time_s": round(self.wall_time_s, 6),
            "pickled_bytes": self.pickled_bytes,
            "context_rebuilds": self.context_rebuilds,
            "degraded_reason": self.degraded_reason,
            "sweeps": {name: sweep.to_dict() for name, sweep in self.sweeps.items()},
        }

    def summary(self) -> str:
        """One-line telemetry (the runner's ``[execution]`` and
        ``[scheduler]`` lines)."""
        line = (
            f"mode={self.mode} jobs={self.jobs} shards={self.shards} "
            f"specs={self.specs} "
            f"store_hits={self.cache_hits} store_misses={self.cache_misses} "
            f"workers_used={self.workers_used} "
            f"reuse={self.worker_reuse} "
            f"pickled_bytes={self.pickled_bytes} "
            f"context_rebuilds={self.context_rebuilds} "
            f"wall={self.wall_time_s:.2f}s"
        )
        if self.degraded_reason:
            line += f" degraded_reason={self.degraded_reason!r}"
        return line


def _gather(
    futures: Dict[concurrent.futures.Future, int],
    payloads: List[Optional[Dict[str, Any]]],
) -> Optional[BaseException]:
    """Keep the payload of every task that finishes; return the pool's
    failure, if any.

    A task's own exception is re-raised at once and unchanged, after the
    tasks not yet started are cancelled.
    """
    failure: Optional[BaseException] = None
    try:
        for future in concurrent.futures.as_completed(futures):
            try:
                payloads[futures[future]] = future.result()
            except BrokenProcessPool as error:
                failure = failure or error
    except BaseException:
        for future in futures:
            future.cancel()
        raise
    return failure


def fan_out(
    report: ExecutionReport,
    session: "Session",
    remote: Callable[..., Dict[str, Any]],
    tasks: Sequence[Tuple],
    local: Callable[..., Dict[str, Any]],
    order: Optional[Sequence[int]] = None,
) -> List[Dict[str, Any]]:
    """Run every task and return the payloads in task order.

    ``remote(*task)`` runs a task in a worker of ``session``'s pool and
    ``local(*task)`` in the caller; both return a payload with
    :func:`_timed_task`'s telemetry.  ``order`` is the pool's submission
    order (default: task order).  Fills ``report``'s mode and per-task
    fields.
    """
    payloads: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    workers = min(report.jobs, len(tasks))
    report.workers = max(workers, 1)
    if workers > 1:
        report.mode = "process"
        owner = session.worker_pool()
        futures: Dict[concurrent.futures.Future, int] = {}
        failure: Optional[BaseException] = None
        try:
            pool = owner.executor(workers)
            report.worker_reuse = owner.reuse_count
            for position in order if order is not None else range(len(tasks)):
                task = tasks[position]
                report.pickled_bytes += len(
                    pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                )
                futures[pool.submit(remote, *task)] = position
        except _POOL_FAILURES as error:
            failure = error
        gathered = _gather(futures, payloads)
        failure = failure or gathered
        if failure is not None:
            owner.discard()
            report.mode = "serial"
            report.degraded_reason = f"{type(failure).__name__}: {failure}"
    for position, task in enumerate(tasks):
        if payloads[position] is None:
            payloads[position] = local(*task)
    report.shard_times_s = [payload["elapsed_s"] for payload in payloads]
    report.workers_used = len({payload["worker"] for payload in payloads})
    report.context_rebuilds = sum(payload["context_builds"] for payload in payloads)
    return payloads  # type: ignore[return-value]


def schedule_experiments(
    names: Sequence[str],
    jobs: int = 1,
    options: Optional[Mapping[str, Mapping[str, Any]]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    session: Optional["Session"] = None,
) -> Tuple[List[ExperimentResult], ExecutionReport]:
    """Run registry experiments, one fan-out task each.

    Results come back in the order of ``names``; the pool gets the
    heaviest ``cost_hint`` first (minimising makespan).  ``options`` maps
    experiment names to builder kwargs; ``cache_dir`` points every
    experiment, in the caller or in a worker, at one shared disk store.
    Experiments run in ``session`` (``None``: the process's default
    session): in the caller with their sweeps at ``jobs``, or on the
    session's persistent pool with serial sweeps.  ``runner`` passes the
    process-wide default session, so repeated schedules and any sweeps
    inside the experiments reuse one warm pool.
    """
    from repro.api.experiments import get_experiment

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    session = _session_or_default(session)
    names = list(names)
    options = dict(options or {})
    costs = [get_experiment(name).cost_hint for name in names]  # validates early
    cache = str(cache_dir) if cache_dir else None
    report = ExecutionReport(
        jobs=jobs, shards=len(names), specs=len(names), shard_sizes=[1] * len(names)
    )
    payloads = fan_out(
        report,
        session,
        _run_experiment,
        [(name, options.get(name), cache) for name in names],
        functools.partial(_run_experiment, session=session, jobs=jobs),
        order=sorted(range(len(names)), key=lambda position: costs[position], reverse=True),
    )
    report.cache_hits = sum(payload["store_hits"] for payload in payloads)
    report.cache_misses = sum(payload["store_misses"] for payload in payloads)
    report.sweeps = {
        name: payload["sweep"]
        for name, payload in zip(names, payloads)
        if payload["sweep"] is not None
    }
    report.wall_time_s = time.perf_counter() - started
    return [ExperimentResult.from_dict(payload["result"]) for payload in payloads], report
