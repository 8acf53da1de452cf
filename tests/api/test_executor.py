"""Tests for the sharded sweep executor and batched ``Session.run_many``."""

import pytest

from repro.api import ExperimentSpec, ResultStore, Session, SweepExecutor, sweep
from repro.api.executor import context_group_key


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


class TestContextGrouping:
    def test_group_key_tracks_context_inputs(self):
        base = ExperimentSpec(scene="lego", resolution_scale=SCALE)
        assert context_group_key(base) == context_group_key(
            base.with_options(arch="gscore", tag="other")
        )
        assert context_group_key(base) != context_group_key(
            base.with_options(config={"voxel_size": 9.0})
        )
        assert context_group_key(base) != context_group_key(
            base.with_options(scene="train")
        )

    def test_shard_preserves_first_seen_order(self, specs):
        executor = SweepExecutor()
        interleaved = [specs[0], specs[1], specs[0], specs[1]]
        shards = executor.shard(interleaved)
        assert len(shards) == 2
        assert [[i for i, _ in members] for members in shards.values()] == [[0, 2], [1, 3]]


class TestRunMany:
    def test_results_in_input_order_with_one_build_per_context(self):
        session = Session()
        base = ExperimentSpec(scene="lego", resolution_scale=SCALE)
        coarse = base.with_options(config={"voxel_size": 0.8})
        # Interleave two contexts x two archs: four points, two contexts.
        batch = [
            base,
            coarse,
            base.with_options(arch="gscore"),
            coarse.with_options(arch="gscore"),
        ]
        results = session.run_many(batch)
        assert [r.payload["spec"]["arch"] for r in results] == [
            "streaminggs",
            "streaminggs",
            "gscore",
            "gscore",
        ]
        assert [r.payload["spec"]["config"].get("voxel_size") for r in results] == [
            None,
            0.8,
            None,
            0.8,
        ]
        assert session.context_misses == 2
        assert session.points_run == 4


class TestModeSelection:
    """The mode is derived from the inputs: serial in the caller for one job
    or one shard, whole shards on a process pool otherwise."""

    def test_auto_serial_for_one_job_or_one_shard(self, specs):
        session = Session()
        one_job = SweepExecutor(jobs=1)
        one_job.run(specs, session=session)
        assert one_job.report.mode == "serial"
        assert one_job.report.shards == 2
        one_shard = SweepExecutor(jobs=2)
        one_shard.run(
            sweep(ExperimentSpec(scene="lego", resolution_scale=SCALE), num_hfu=(2, 4)),
            session=session,
        )
        assert one_shard.report.mode == "serial"
        assert one_shard.report.shards == 1
        assert one_shard.report.pool == "none"
        assert session.stats()["pool"] is None

    def test_repeated_one_shard_sweep_rebuilds_nothing(self):
        # One scene context: the grid runs in the calling session, on the
        # context that session already holds.
        specs = sweep(ExperimentSpec(scene="lego", resolution_scale=SCALE), num_hfu=range(1, 9))
        with Session() as session:
            serial = session.run_many(specs)
            for _ in range(2):
                executor = SweepExecutor(jobs=2)
                result = executor.run(specs, swept=["num_hfu"], session=session)
                assert [r.metrics for r in result.results] == [r.metrics for r in serial]
                assert executor.report.mode == "serial"
                assert executor.report.context_rebuilds == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepExecutor(jobs=0)
        with pytest.raises(TypeError, match="mode"):
            SweepExecutor(mode="process")


class TestParallelEquality:
    def test_process_pool_matches_serial(self, specs, serial):
        # Two one-spec shards and two jobs: the shards run on a process pool.
        executor = SweepExecutor(jobs=2)
        result = executor.run(specs, swept=["voxel_size"])
        assert result.table_dict() == serial.table_dict()
        assert executor.report.mode == "process"
        assert executor.report.shards == 2
        assert executor.report.workers == 2
        assert executor.report.degraded_reason == ""

    def test_broken_process_pool_degrades_to_serial(self, specs, serial, monkeypatch):
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        class BrokenPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("workers cannot be spawned")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        executor = SweepExecutor(jobs=2)
        result = executor.run(specs, swept=["voxel_size"])
        assert result.table_dict() == serial.table_dict()
        assert executor.report.mode == "serial"
        assert "cannot be spawned" in executor.report.degraded_reason

    def test_merge_order_is_input_order(self, specs, serial):
        reversed_result = SweepExecutor(jobs=2).run(
            list(reversed(specs)), swept=["voxel_size"]
        )
        assert [r.meta["tag"] for r in reversed_result] == [
            r.meta["tag"] for r in reversed(serial.results)
        ]


class TestStoreIntegration:
    def test_cold_then_warm(self, tmp_path, specs, serial):
        store = ResultStore(tmp_path / "cache")
        cold_executor = SweepExecutor(jobs=2, store=store)
        cold = cold_executor.run(specs, swept=["voxel_size"])
        assert cold.table_dict() == serial.table_dict()
        assert cold_executor.report.cache_misses == len(specs)
        assert cold_executor.report.cache_hits == 0
        assert len(store) == len(specs)

        warm_session = Session(store=store)
        warm = warm_session.run_sweep(specs, swept=["voxel_size"], jobs=2)
        assert warm.table_dict() == serial.table_dict()
        # Every point came from disk: no renders, no contexts built.
        assert warm_session.service.requests_served == 0
        assert warm_session.context_misses == 0
        assert warm_session.stats()["points_run"] == 0

    def test_partial_warm_store(self, tmp_path, specs, serial):
        store = ResultStore(tmp_path / "cache")
        store.put(specs[0], serial.results[0])
        executor = SweepExecutor(store=store)
        result = executor.run(specs, swept=["voxel_size"])
        assert result.table_dict() == serial.table_dict()
        assert executor.report.cache_hits == 1
        assert executor.report.cache_misses == len(specs) - 1
        assert len(store) == len(specs)

    def test_store_from_path(self, tmp_path):
        executor = SweepExecutor(store=tmp_path / "cache")
        assert isinstance(executor.store, ResultStore)

    def test_store_false_disables(self):
        assert SweepExecutor(store=False).store is None

    def test_store_true_is_rejected(self):
        with pytest.raises(ValueError, match="ambiguous"):
            SweepExecutor(store=True)


class TestSessionSweepParams:
    def test_sweep_with_jobs_and_cache(self, tmp_path, specs, serial):
        session = Session()
        result = session.sweep(
            ExperimentSpec(scene="lego", resolution_scale=SCALE),
            jobs=2,
            cache=tmp_path / "cache",
            voxel_size=(0.4, 0.8),
        )
        assert result.table_dict() == serial.table_dict()

    def test_cache_false_disables_session_store(self, tmp_path, specs):
        session = Session(store=tmp_path / "cache")
        session.run_sweep(specs[:1], cache=False)
        assert len(session.store) == 0

    def test_cache_true_is_rejected(self, specs):
        with pytest.raises(ValueError, match="ambiguous"):
            Session().run_sweep(specs[:1], cache=True)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            Session(jobs=0)


class TestPersistentPool:
    def test_second_sweep_reuses_the_pool(self, specs, serial):
        with Session(jobs=2) as session:
            first = session.run_sweep(specs, swept=["voxel_size"])
            assert first.meta["execution"]["pool"] == "persistent"
            assert first.meta["execution"]["worker_reuse"] == 0
            second = session.run_sweep(specs, swept=["voxel_size"])
            assert second.meta["execution"]["worker_reuse"] >= 1
            assert first.table_dict() == serial.table_dict()
            assert second.table_dict() == serial.table_dict()
            assert session.worker_pool().created == 1

    def test_executor_without_session_uses_ephemeral_pool(self, specs):
        executor = SweepExecutor(jobs=2)
        result = executor.run(specs, swept=["voxel_size"])
        assert result.meta["execution"]["pool"] == "ephemeral"

    def test_serial_sweep_never_creates_a_pool(self, specs):
        session = Session()
        session.run_sweep(specs, swept=["voxel_size"])
        assert session.stats()["pool"] is None


class TestExecutionReport:
    def test_report_reaches_sweep_meta(self, specs):
        session = Session()
        result = session.run_sweep(specs, swept=["voxel_size"])
        report = result.meta["execution"]
        assert report["mode"] == "serial"
        assert report["specs"] == len(specs)
        assert report["shards"] == 2
        assert len(report["shard_times_s"]) == report["shards"]
        assert report["wall_time_s"] > 0
        assert session.last_execution.to_dict() == report

    def test_summary_line_is_greppable(self, specs):
        session = Session()
        session.run_sweep(specs, swept=["voxel_size"])
        summary = session.last_execution.summary()
        for token in ("mode=", "shards=", "pool=", "reuse=", "wall="):
            assert token in summary

    def test_store_counters_in_report(self, tmp_path, specs):
        store = ResultStore(tmp_path / "cache")
        session = Session(store=store)
        cold = session.run_sweep(specs, swept=["voxel_size"])
        warm = session.run_sweep(specs, swept=["voxel_size"])
        assert cold.meta["execution"]["cache_misses"] == len(specs)
        assert warm.meta["execution"]["cache_hits"] == len(specs)
        assert warm.meta["execution"]["shards"] == 0
