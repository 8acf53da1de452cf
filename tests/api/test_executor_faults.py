"""Fault injection for sharded sweeps and scheduled experiments.

Every failure mode the scheduling layer promises to survive is simulated
here: a worker raising mid-shard (the offending spec must be named), pool
creation failing (the shards run serially in the caller), a worker dying
mid-run (only the unfinished shards are recomputed in the caller), and a
persistent pool breaking (discarded, not reused).  After any failure the
result store must hold no orphaned temporary files — atomic writes either
land or vanish.  Scheduled experiments share the sweeps' fan-out and are
held to the same contract: an experiment's own error is re-raised and the
pool kept; a broken pool sends only the unfinished experiments back to the
caller.
"""

import concurrent.futures
import dataclasses
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import (
    ExecutionReport,
    ExperimentResult,
    ExperimentSpec,
    ResultStore,
    Session,
    SpecEvaluationError,
    get_default_session,
    reset_default_session,
    schedule_experiments,
    sweep,
)
from repro.api.experiments import REGISTRY, ExperimentDefinition

#: Reduced evaluation resolution keeps each scene context cheap.
SCALE = 0.5


@pytest.fixture(scope="module")
def specs():
    return sweep(
        ExperimentSpec(scene="lego", resolution_scale=SCALE), voxel_size=(0.4, 0.8)
    )


@pytest.fixture(scope="module")
def serial(specs):
    return Session().run_sweep(specs, swept=["voxel_size"])


@pytest.fixture
def poisoned_run_point(monkeypatch):
    """Make every spec tagged ``boom`` raise inside evaluation."""
    original = Session.run_point

    def run_point(self, spec):
        if spec.tag == "boom":
            raise ValueError("injected mid-shard failure")
        return original(self, spec)

    monkeypatch.setattr(Session, "run_point", run_point)



class _DyingPool:
    """A process pool whose futures fail like dead workers."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_exception(BrokenProcessPool("worker died mid-run"))
        return future

    def shutdown(self, wait=True, **kwargs):
        pass


class _HalfDyingPool(_DyingPool):
    """A process pool that finishes the first shard, then loses its workers."""

    def __init__(self, max_workers=None):
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        if self.submitted > 1:
            return super().submit(fn, *args, **kwargs)
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


class _RecordingPool(_DyingPool):
    """A pool that runs each task in-process and records its arguments."""

    def __init__(self, max_workers=None):
        self.submitted = []

    def submit(self, fn, *args, **kwargs):
        self.submitted.append(args)
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


class _UnbuildablePool:
    """A pool class whose construction itself fails (rlimits, sandboxes)."""

    def __init__(self, max_workers=None):
        raise OSError("no more processes")


class TestWorkerRaisesMidShard:
    def test_serial_batch_names_the_offending_spec(self, poisoned_run_point):
        session = Session()
        good = ExperimentSpec(scene="lego", resolution_scale=SCALE)
        bad = good.with_options(tag="boom")
        with pytest.raises(SpecEvaluationError, match="boom") as excinfo:
            session.run_many([good, bad])
        assert excinfo.value.spec == bad
        assert isinstance(excinfo.value.error, ValueError)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_pool_worker_failure_propagates_with_the_spec(
        self, poisoned_run_point, specs
    ):
        grid = list(specs) + [
            ExperimentSpec(scene="lego", resolution_scale=SCALE, tag="boom")
        ]
        with Session(jobs=2) as session:
            with pytest.raises(SpecEvaluationError, match="boom"):
                session.run_sweep(grid)

    def test_spec_errors_are_not_mistaken_for_pool_failures(
        self, poisoned_run_point, specs, monkeypatch
    ):
        """A ValueError from user code must not trigger serial degradation
        (which would re-run the failing grid and raise late)."""
        grid = list(specs) + [
            ExperimentSpec(scene="lego", resolution_scale=SCALE, tag="boom")
        ]
        # A failed sweep returns no report: record the one it made.
        reports = []
        original = ExecutionReport.__init__

        def recorded(self, *args, **kwargs):
            original(self, *args, **kwargs)
            reports.append(self)

        monkeypatch.setattr(ExecutionReport, "__init__", recorded)
        with Session(jobs=2) as session:
            with pytest.raises(SpecEvaluationError):
                session.run_sweep(grid)
        (report,) = reports
        assert report.mode == "process"  # never degraded
        assert report.degraded_reason == ""

    def test_spec_error_keeps_the_persistent_pool(self, poisoned_run_point, specs):
        grid = list(specs) + [
            ExperimentSpec(scene="lego", resolution_scale=SCALE, tag="boom")
        ]
        with Session(jobs=2) as session:
            with pytest.raises(SpecEvaluationError, match="boom"):
                session.run_sweep(grid)
            assert session.stats()["pool"]["alive"] == 1
            # Nothing was evaluated again in the caller.
            assert session.context_misses == 0

    def test_failed_sweep_leaves_no_orphaned_store_files(
        self, poisoned_run_point, specs, tmp_path
    ):
        store = ResultStore(tmp_path / "cache")
        grid = list(specs) + [
            ExperimentSpec(scene="lego", resolution_scale=SCALE, tag="boom")
        ]
        with Session(jobs=2, store=store) as session:
            with pytest.raises(SpecEvaluationError):
                session.run_sweep(grid)
        # Atomic writes either landed or vanished; nothing half-written.
        assert list((tmp_path / "cache").rglob("*.tmp*")) == []
        # Store writes are all-or-nothing per sweep: the failing sweep
        # persisted nothing, so a retry recomputes from scratch.
        assert len(store) == 0


class TestPoolCreationFailure:
    def test_total_pool_failure_degrades_to_serial(self, specs, serial, monkeypatch):
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _UnbuildablePool
        )
        with Session(jobs=2) as session:
            result = session.run_sweep(specs, swept=["voxel_size"])
            assert result.table_dict() == serial.table_dict()
            assert session.last_execution.mode == "serial"
            assert "no more processes" in session.last_execution.degraded_reason
            assert session.worker_pool().size == 0


class TestWorkerDeath:
    def test_dying_workers_degrade_to_serial_and_recompute(
        self, specs, serial, monkeypatch
    ):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _DyingPool)
        with Session(jobs=2) as session:
            result = session.run_sweep(specs, swept=["voxel_size"])
            report = session.last_execution
        assert result.table_dict() == serial.table_dict()
        assert report.mode == "serial"
        assert "worker died" in report.degraded_reason

    def test_only_unfinished_shards_are_recomputed(self, specs, serial, monkeypatch):
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _HalfDyingPool
        )
        with Session(jobs=2) as session:
            result = session.run_sweep(specs, swept=["voxel_size"])
            report = session.last_execution
            assert result.table_dict() == serial.table_dict()
            assert report.mode == "serial"
            assert "worker died" in report.degraded_reason
            # The pool finished the first shard; the caller evaluated only
            # the second, building its context and nothing else.
            assert session.context_misses == 1
            assert session.points_run == 1
            assert all(seconds > 0 for seconds in report.shard_times_s)

    def test_broken_persistent_pool_is_discarded(self, specs, serial, monkeypatch):
        with Session(jobs=2) as session:
            with monkeypatch.context() as patched:
                patched.setattr(
                    concurrent.futures, "ProcessPoolExecutor", _DyingPool
                )
                session.run_sweep(specs, swept=["voxel_size"])
            assert session.last_execution.mode == "serial"
            assert session.last_execution.degraded_reason
            pool = session.worker_pool()
            assert pool.size == 0
            assert pool.stats()["alive"] == 0
            # The next sweep builds a fresh, working pool instead of
            # reusing the broken one.
            result = session.run_sweep(specs, swept=["voxel_size"])
            assert session.last_execution.mode == "process"
            assert pool.created == 2
            assert result.table_dict() == serial.table_dict()


@pytest.fixture
def cheap_experiments(monkeypatch):
    """Register ``light`` and ``heavy`` experiments that record each run.

    A run is recorded as ``(name, ran_in_caller)``: the caller's session
    is the ``Session`` the test passes, a pool task uses the process's
    default session.
    """
    runs = []
    caller = Session()

    def register(name, cost_hint):
        def build(session, **kwargs):
            runs.append((name, session is caller))
            return ExperimentResult(name=name, title=name, text=f"{name} {kwargs}")

        monkeypatch.setitem(
            REGISTRY, name, ExperimentDefinition(name, name, build, cost_hint=cost_hint)
        )

    register("light", 0.1)
    register("heavy", 5.0)
    yield caller, runs
    caller.close()


class TestScheduledExperiments:
    def test_experiment_error_is_reraised_once_and_the_pool_kept(self, monkeypatch):
        """An experiment's own ValueError is the caller's error: the warm
        pool survives and the experiment is not run again in the caller."""
        fig12 = REGISTRY["fig12"]
        caller_runs = []

        def build(session, **kwargs):
            caller_runs.append(os.getpid())
            return fig12.build(session, **kwargs)

        monkeypatch.setitem(REGISTRY, "fig12", dataclasses.replace(fig12, build=build))
        options = {"fig12": {"scene": "lego", "voxel_sizes": [-1.0, 2.0]}}
        with Session() as session:
            with pytest.raises(ValueError, match="voxel_size must be positive"):
                schedule_experiments(
                    ["fig12", "tab1"], jobs=2, options=options, session=session
                )
            assert session.stats()["pool"]["alive"] == 1
        # Pool workers append to their own copy of the list, never to this one.
        assert os.getpid() not in caller_runs

    def test_pool_gets_the_heaviest_experiment_first(self, cheap_experiments, monkeypatch):
        caller, runs = cheap_experiments
        pool = _RecordingPool()
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda max_workers=None: pool
        )
        results, report = schedule_experiments(["light", "heavy"], jobs=2, session=caller)
        assert [args[0] for args in pool.submitted] == ["heavy", "light"]
        assert [result.name for result in results] == ["light", "heavy"]
        assert report.mode == "process"
        assert report.degraded_reason == ""
        assert runs == [("heavy", False), ("light", False)]

    def test_schedule_without_a_session_uses_the_default_sessions_pool(
        self, cheap_experiments, monkeypatch
    ):
        pool = _RecordingPool()
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", lambda max_workers=None: pool
        )
        reset_default_session()
        try:
            results, report = schedule_experiments(["light", "heavy"], jobs=2)
            assert [result.name for result in results] == ["light", "heavy"]
            assert report.mode == "process"
            assert [args[0] for args in pool.submitted] == ["heavy", "light"]
            assert get_default_session().stats()["pool"] == {
                "created": 1, "reuse_count": 0, "alive": 1
            }
        finally:
            reset_default_session()

    def test_unbuildable_pool_runs_every_experiment_in_the_caller(
        self, cheap_experiments, monkeypatch
    ):
        caller, runs = cheap_experiments
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _UnbuildablePool)
        results, report = schedule_experiments(
            ["light", "heavy"], jobs=2, options={"light": {"k": 1}}, session=caller
        )
        assert [result.text for result in results] == ["light {'k': 1}", "heavy {}"]
        assert report.mode == "serial"
        assert "no more processes" in report.degraded_reason
        assert sorted(runs) == [("heavy", True), ("light", True)]
        assert caller.worker_pool().size == 0

    def test_only_unfinished_experiments_are_recomputed(
        self, cheap_experiments, monkeypatch
    ):
        caller, runs = cheap_experiments
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _HalfDyingPool)
        results, report = schedule_experiments(
            ["light", "heavy"], jobs=2, session=caller
        )
        assert [result.name for result in results] == ["light", "heavy"]
        assert report.mode == "serial"
        assert "worker died" in report.degraded_reason
        # The pool got the heaviest experiment first and finished it; the
        # caller ran only the one it lost.
        assert runs == [("heavy", False), ("light", True)]
        assert report.shards == 2
        assert all(seconds >= 0 for seconds in report.shard_times_s)
        assert caller.stats()["pool"]["alive"] == 0
