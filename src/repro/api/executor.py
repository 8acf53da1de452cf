"""Parallel, sharded execution of experiment sweeps — and of experiments.

:class:`SweepExecutor` evaluates a list of
:class:`~repro.api.spec.ExperimentSpec` points by

1. resolving every point it can against an optional
   :class:`~repro.api.store.ResultStore` (so warm sweeps re-render
   nothing),
2. grouping the remaining specs into *shards* by the scene context they
   need (scene x algorithm x resolution scale x resolved streaming
   config) — the expensive part of a point is building that context, and
   every spec in a shard shares it through
   :meth:`~repro.api.session.Session.run_many`,
3. running the shards whole: serially in the calling session when
   ``jobs == 1`` or the grid has one shard, otherwise on the calling
   session's **persistent process pool**
   (:class:`~repro.api.pool.WorkerPool`; an ephemeral pool when no
   session is given) — if that pool cannot be built or breaks, the shards
   it did not finish run serially in the caller and the reason is
   recorded, and
4. merging the per-shard outputs back into one
   :class:`~repro.api.result.SweepResult` in the original spec order —
   the tables are byte-identical to a serial run regardless of worker
   scheduling, because every evaluation is deterministic and results are
   placed by input index, never by completion order.

A shard is never split across workers: once its context exists, a point
is an analytic hardware-model evaluation (16 Fig. 13 points take ~3 ms in
total), while shipping the context to another process costs tens of
milliseconds each way, so a one-context grid runs fastest where the
context is built.

What one run actually did — mode, shards, per-shard wall times, store
hits, pool reuse — is recorded in an :class:`ExecutionReport` and surfaced
as ``SweepResult.meta["execution"]``.

:func:`schedule_experiments` applies the same machinery one level up:
whole registry experiments (``fig2`` ... ``engine``) are dispatched across
a process pool for ``runner all --jobs N``.  Experiments are mutually
independent (dependency-free), so ordering only affects makespan; dispatch
is by descending :attr:`~repro.api.experiments.ExperimentDefinition.cost_hint`
(heaviest first), while results return in request order.
"""

from __future__ import annotations

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.api.result import ExperimentResult, SweepResult
from repro.api.spec import ExperimentSpec
from repro.api.store import ResultStore, resolve_store

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.api.session import Session

#: Pool-level failures that send the unfinished work back to the caller.
#: ``RuntimeError`` covers thread-spawn exhaustion in the pool's manager
#: and submits to a pool that was shut down; user errors are wrapped in
#: :class:`SpecEvaluationError` and always re-raised first.
_POOL_FAILURES = (
    BrokenProcessPool,
    OSError,
    ValueError,
    NotImplementedError,
    RuntimeError,
)


class SpecEvaluationError(RuntimeError):
    """One spec of a batch failed; names the offending point.

    Raised by :meth:`Session.run_many` (and therefore by every executor
    path, serial or pooled) wrapping the original exception, so a sweep
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


def _evaluate_shard(specs: Sequence[ExperimentSpec], seed: int) -> Dict[str, Any]:
    """Worker entry point: evaluate one shard.

    Runs in a pool worker, which keeps one **warm session** alive across
    tasks and sweeps (:func:`repro.api.pool.worker_session`), so a context
    an earlier task built is a cache hit.  Returns plain ``to_dict()``
    payloads (cheap to pickle, lossless to reconstruct) plus shard
    telemetry, including how many contexts this task actually built
    (``context_builds``).
    """
    from repro.api.pool import worker_session

    start = time.perf_counter()
    session = worker_session(seed)
    builds_before = session.context_misses
    payloads = [result.to_dict() for result in session.run_many(list(specs))]
    return {
        "results": payloads,
        "elapsed_s": time.perf_counter() - start,
        "worker": _worker_id(),
        "context_builds": session.context_misses - builds_before,
    }


@dataclass
class ExecutionReport:
    """What one :meth:`SweepExecutor.run` actually did.

    ``mode`` is ``serial`` or ``process`` — ``serial`` also when a broken
    pool sent its unfinished shards back to the caller, in which case
    ``degraded_reason`` says why.  ``shards`` counts context groups, each
    one dispatch unit.  ``worker_reuse`` is the session pool's cumulative
    reuse counter — how many times a sweep got handed an already-warm
    pool instead of paying startup.
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
    pool: str = "none"
    worker_reuse: int = 0
    wall_time_s: float = 0.0
    #: Bytes of specs pickled to pool workers, and how many scene contexts
    #: the run built (in the caller or in workers without a warm copy).
    pickled_bytes: int = 0
    context_rebuilds: int = 0
    degraded_reason: str = ""

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
            "pool": self.pool,
            "worker_reuse": self.worker_reuse,
            "wall_time_s": round(self.wall_time_s, 6),
            "pickled_bytes": self.pickled_bytes,
            "context_rebuilds": self.context_rebuilds,
            "degraded_reason": self.degraded_reason,
        }

    def summary(self) -> str:
        """One-line telemetry (the runner's ``[execution]`` line)."""
        line = (
            f"mode={self.mode} jobs={self.jobs} shards={self.shards} "
            f"specs={self.specs} "
            f"store_hits={self.cache_hits} store_misses={self.cache_misses} "
            f"pool={self.pool} reuse={self.worker_reuse} "
            f"pickled_bytes={self.pickled_bytes} "
            f"context_rebuilds={self.context_rebuilds} "
            f"wall={self.wall_time_s:.2f}s"
        )
        if self.degraded_reason:
            line += f" degraded_reason={self.degraded_reason!r}"
        return line


class SweepExecutor:
    """Sharded sweep runner with optional disk-backed result caching.

    Parameters
    ----------
    jobs:
        Worker count.  ``1`` — or a grid with one shard — evaluates
        serially in the calling session; otherwise whole shards run on a
        process pool of ``min(jobs, shards)`` workers.
    store:
        Optional :class:`ResultStore` (or a directory path for one)
        consulted before evaluation and updated after it.
    seed:
        Seed of the private sessions (workers, and serial runs without a
        session).
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[Union[ResultStore, str, Path]] = None,
        seed: int = 0,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.store = resolve_store(store)
        self.seed = seed
        self.report = ExecutionReport()

    # ------------------------------------------------------------------
    def shard(
        self, specs: Sequence[ExperimentSpec]
    ) -> "OrderedDict[Tuple, List[Tuple[int, ExperimentSpec]]]":
        """Group (index, spec) pairs by shared scene context, in first-seen order."""
        return group_by_context(enumerate(specs))

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[ExperimentSpec],
        swept: Optional[Sequence[str]] = None,
        session: Optional["Session"] = None,
    ) -> SweepResult:
        """Evaluate every spec and return results in input order.

        ``session`` evaluates serial shards (so warm contexts are reused),
        supplies the worker seed and provides the persistent worker pool;
        a private session (and an ephemeral pool) is used when omitted.
        """
        started = time.perf_counter()
        specs = list(specs)
        results: List[Optional[ExperimentResult]] = [None] * len(specs)
        self.report = ExecutionReport(jobs=self.jobs, specs=len(specs))

        pending: List[Tuple[int, ExperimentSpec]] = []
        for index, spec in enumerate(specs):
            cached = self.store.get(spec) if self.store is not None else None
            if cached is not None:
                results[index] = cached
            else:
                pending.append((index, spec))
        self.report.cache_hits = len(specs) - len(pending)
        self.report.cache_misses = len(pending)

        if pending:
            shards = list(group_by_context(pending).values())
            self.report.shards = len(shards)
            self.report.shard_sizes = [len(members) for members in shards]
            self.report.shard_times_s = [0.0] * len(shards)
            done = [False] * len(shards)
            ran_on: Set[str] = set()
            if self.jobs > 1 and len(shards) > 1:
                self.report.mode = "process"
                self._run_pool(shards, results, done, ran_on, session)
            self._run_serial(shards, results, done, ran_on, session)
            self.report.workers_used = len(ran_on)

            if self.store is not None:
                for index, spec in pending:
                    try:
                        self.store.put(spec, results[index])
                    except OSError:
                        # Best-effort cache: losing the entry only costs a
                        # future hit, never the sweep that computed it.
                        continue

        missing = [i for i, result in enumerate(results) if result is None]
        if missing:  # pragma: no cover - defensive; pools propagate errors
            raise RuntimeError(f"sweep left {len(missing)} specs unevaluated: {missing}")
        self.report.wall_time_s = time.perf_counter() - started
        return SweepResult(
            results=list(results),
            swept=list(swept or []),
            meta={"execution": self.report.to_dict()},
        )

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        shards: List[List[Tuple[int, ExperimentSpec]]],
        results: List[Optional[ExperimentResult]],
        done: List[bool],
        ran_on: Set[str],
        session: Optional["Session"],
    ) -> None:
        """Evaluate, in the calling process, every shard no pool finished."""
        if all(done):
            return
        if session is None:
            from repro.api.session import Session

            session = Session(seed=self.seed)
        self.report.workers = max(self.report.workers, 1)
        ran_on.add(_worker_id())
        builds_before = session.context_misses
        for position, members in enumerate(shards):
            if done[position]:
                continue
            start = time.perf_counter()
            evaluated = session.run_many([spec for _, spec in members])
            self.report.shard_times_s[position] = time.perf_counter() - start
            for (index, _), result in zip(members, evaluated):
                results[index] = result
            done[position] = True
        self.report.context_rebuilds += session.context_misses - builds_before

    def _run_pool(
        self,
        shards: List[List[Tuple[int, ExperimentSpec]]],
        results: List[Optional[ExperimentResult]],
        done: List[bool],
        ran_on: Set[str],
        session: Optional["Session"],
    ) -> None:
        """Run whole shards on a process pool: the session's persistent
        one, or an ephemeral one created and torn down here.

        Pools can fail lazily — construction succeeds but the workers die
        at submit or fork time (rlimits, sandboxes).  Either way the pool
        is dropped and the run degrades to serial: shards the pool
        finished stand as they are (evaluation is deterministic), and
        :meth:`_run_serial` evaluates the rest in the caller.
        """
        seed = session.seed if session is not None else self.seed
        workers = min(self.jobs, len(shards))
        self.report.workers = workers
        owner = session.worker_pool() if session is not None else None
        self.report.pool = "persistent" if owner is not None else "ephemeral"
        try:
            if owner is not None:
                pool = owner.executor(workers)
                self.report.worker_reuse = owner.reuse_count
                self._collect(pool, shards, results, done, ran_on, seed)
            else:
                with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                    self._collect(pool, shards, results, done, ran_on, seed)
        except SpecEvaluationError:
            raise  # a grid point failed — that is the caller's error
        except _POOL_FAILURES as error:
            if owner is not None:
                owner.discard()
            self.report.mode = "serial"
            self.report.pool = "none"
            self.report.degraded_reason = f"{type(error).__name__}: {error}"

    def _collect(
        self,
        pool: concurrent.futures.Executor,
        shards: List[List[Tuple[int, ExperimentSpec]]],
        results: List[Optional[ExperimentResult]],
        done: List[bool],
        ran_on: Set[str],
        seed: int,
    ) -> None:
        """Submit every shard to ``pool`` and keep each one that finishes.

        A pool failure, at submit or in a future, is raised only after
        every finished shard has been collected, so the serial fallback
        recomputes just the shards the pool did not finish.
        """
        futures = {}
        failure: Optional[BaseException] = None
        try:
            for position, members in enumerate(shards):
                specs = [spec for _, spec in members]
                self.report.pickled_bytes += len(
                    pickle.dumps(specs, protocol=pickle.HIGHEST_PROTOCOL)
                )
                futures[pool.submit(_evaluate_shard, specs, seed)] = position
        except _POOL_FAILURES as error:
            failure = error
        for future in concurrent.futures.as_completed(futures):
            position = futures[future]
            try:
                payload = future.result()
            except SpecEvaluationError:
                raise
            except _POOL_FAILURES as error:
                failure = failure or error
                continue
            self.report.shard_times_s[position] = payload["elapsed_s"]
            ran_on.add(payload["worker"])
            for (index, _), result in zip(shards[position], payload["results"]):
                results[index] = ExperimentResult.from_dict(result)
            done[position] = True
            self.report.context_rebuilds += int(payload["context_builds"])
        if failure is not None:
            raise failure


# ----------------------------------------------------------------------
# Experiment-level scheduling (``runner all --jobs N``).
# ----------------------------------------------------------------------
@dataclass
class ScheduleReport:
    """What one :func:`schedule_experiments` call actually did."""

    mode: str = "serial"
    jobs: int = 1
    experiments: int = 0
    workers: int = 0
    workers_used: int = 0
    worker_reuse: int = 0
    wall_time_s: float = 0.0
    elapsed_s: Dict[str, float] = field(default_factory=dict)
    store_hits: int = 0
    store_misses: int = 0
    pool: str = "none"
    degraded_reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "jobs": self.jobs,
            "experiments": self.experiments,
            "workers": self.workers,
            "workers_used": self.workers_used,
            "worker_reuse": self.worker_reuse,
            "wall_time_s": round(self.wall_time_s, 6),
            "elapsed_s": {name: round(t, 6) for name, t in self.elapsed_s.items()},
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "pool": self.pool,
            "degraded_reason": self.degraded_reason,
        }

    def summary(self) -> str:
        """One-line telemetry (the runner's ``[scheduler]`` line)."""
        line = (
            f"mode={self.mode} jobs={self.jobs} experiments={self.experiments} "
            f"workers={self.workers} pool={self.pool} "
            f"worker_reuse={self.worker_reuse} "
            f"wall={self.wall_time_s:.2f}s"
        )
        if self.degraded_reason:
            line += f" degraded_reason={self.degraded_reason!r}"
        return line


def schedule_experiments(
    names: Sequence[str],
    jobs: int = 1,
    options: Optional[Mapping[str, Mapping[str, Any]]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    session: Optional["Session"] = None,
) -> Tuple[List[ExperimentResult], ScheduleReport]:
    """Run registry experiments, fanned out over a process pool.

    Experiments are mutually independent, so the schedule is dependency
    free; dispatch order is by descending ``cost_hint`` (heaviest first
    minimises makespan), results come back in the order of ``names``.
    ``options`` maps experiment names to builder kwargs; ``cache_dir``
    points every worker at one shared disk store.  ``session`` routes the
    fan-out through the session's persistent
    :class:`~repro.api.pool.WorkerPool` — ``runner all`` passes the
    process-wide default session, so repeated scheduled runs (and any
    sweeps inside the experiments) reuse one warm pool instead of paying
    worker startup per invocation; without a session an ephemeral pool is
    created and torn down here.  A pool that cannot be created — or that
    breaks mid-run — degrades to in-process serial execution of whatever
    is still missing, with the reason recorded in the report.
    """
    from repro.api.experiments import get_experiment, run_experiment_payload

    names = list(names)
    options = dict(options or {})
    definitions = {name: get_experiment(name) for name in names}  # validates early
    report = ScheduleReport(jobs=jobs, experiments=len(names))
    started = time.perf_counter()
    payloads: Dict[str, Dict[str, Any]] = {}

    workers = min(jobs, len(names))
    if workers > 1:
        dispatch = sorted(
            names, key=lambda name: definitions[name].cost_hint, reverse=True
        )
        owner = session.worker_pool() if session is not None else None
        report.pool = "persistent" if owner is not None else "ephemeral"

        def _fan_out(pool: concurrent.futures.Executor) -> None:
            futures = {
                pool.submit(
                    run_experiment_payload,
                    name,
                    options.get(name),
                    str(cache_dir) if cache_dir else None,
                ): name
                for name in dispatch
            }
            for future in concurrent.futures.as_completed(futures):
                payloads[futures[future]] = future.result()

        try:
            if owner is not None:
                _fan_out(owner.executor(workers))
            else:
                with concurrent.futures.ProcessPoolExecutor(
                    max_workers=workers
                ) as pool:
                    _fan_out(pool)
            report.mode = "process"
            report.workers = workers
        except (KeyboardInterrupt, SystemExit):
            raise
        except _POOL_FAILURES as error:
            # Keep whatever completed; the serial pass below fills the rest.
            if owner is not None:
                owner.discard()
            report.pool = "none"
            report.degraded_reason = f"{type(error).__name__}: {error}"

    # Reuse is a pool property: only experiments that actually completed on
    # pool workers count, so a serial fallback never fabricates reuse.
    pool_workers = {payload["worker"] for payload in payloads.values()}
    report.worker_reuse = max(0, len(payloads) - len(pool_workers))

    for name in names:
        if name not in payloads:
            payloads[name] = run_experiment_payload(
                name, options.get(name), str(cache_dir) if cache_dir else None
            )

    report.workers_used = len({payload["worker"] for payload in payloads.values()})
    report.elapsed_s = {name: payloads[name]["elapsed_s"] for name in names}
    report.store_hits = sum(p["store_hits"] for p in payloads.values())
    report.store_misses = sum(p["store_misses"] for p in payloads.values())
    report.wall_time_s = time.perf_counter() - started
    return (
        [ExperimentResult.from_dict(payloads[name]["result"]) for name in names],
        report,
    )
