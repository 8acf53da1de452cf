"""Fault injection for the sweep executor.

Every failure mode the scheduling layer promises to survive is simulated
here: a worker raising mid-shard (the offending spec must be named), pool
creation failing (the shards run serially in the caller), a worker dying
mid-run (only the unfinished shards are recomputed in the caller), and a
persistent pool breaking (discarded, not reused).  After any failure the
result store must hold no orphaned temporary files — atomic writes either
land or vanish.
"""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import (
    ExperimentSpec,
    ResultStore,
    Session,
    SpecEvaluationError,
    SweepExecutor,
    sweep,
)

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
        executor = SweepExecutor(jobs=2)
        with pytest.raises(SpecEvaluationError, match="boom"):
            executor.run(grid)

    def test_spec_errors_are_not_mistaken_for_pool_failures(
        self, poisoned_run_point, specs
    ):
        """A ValueError from user code must not trigger serial degradation
        (which would re-run the failing grid and raise late)."""
        grid = list(specs) + [
            ExperimentSpec(scene="lego", resolution_scale=SCALE, tag="boom")
        ]
        executor = SweepExecutor(jobs=2)
        with pytest.raises(SpecEvaluationError):
            executor.run(grid)
        assert executor.report.mode == "process"  # never degraded
        assert executor.report.degraded_reason == ""

    def test_failed_sweep_leaves_no_orphaned_store_files(
        self, poisoned_run_point, specs, tmp_path
    ):
        store = ResultStore(tmp_path / "cache")
        grid = list(specs) + [
            ExperimentSpec(scene="lego", resolution_scale=SCALE, tag="boom")
        ]
        executor = SweepExecutor(jobs=2, store=store)
        with pytest.raises(SpecEvaluationError):
            executor.run(grid)
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
        executor = SweepExecutor(jobs=2)
        result = executor.run(specs, swept=["voxel_size"])
        assert result.table_dict() == serial.table_dict()
        assert executor.report.mode == "serial"
        assert executor.report.pool == "none"
        assert "no more processes" in executor.report.degraded_reason

    def test_session_pool_failure_also_reaches_serial(
        self, specs, serial, monkeypatch
    ):
        """The persistent-pool path degrades exactly like the ephemeral one."""
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
        executor = SweepExecutor(jobs=2)
        result = executor.run(specs, swept=["voxel_size"])
        assert result.table_dict() == serial.table_dict()
        assert executor.report.mode == "serial"
        assert "worker died" in executor.report.degraded_reason

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
