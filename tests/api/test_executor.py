"""Tests for sharded sweeps (``Session.run_sweep``) and batched ``Session.run_many``."""

import pytest

from repro.api import ExperimentSpec, ResultStore, Session, sweep
from repro.api.executor import context_group_key, group_by_context


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
        interleaved = [specs[0], specs[1], specs[0], specs[1]]
        shards = group_by_context(enumerate(interleaved))
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
    or one shard, whole shards on the session's process pool otherwise."""

    def test_auto_serial_for_one_job_or_one_shard(self, specs):
        one_job = Session(jobs=1)
        one_job.run_sweep(specs)
        assert one_job.last_execution.mode == "serial"
        assert one_job.last_execution.shards == 2
        with Session(jobs=2) as one_shard:
            one_shard.run_sweep(
                sweep(ExperimentSpec(scene="lego", resolution_scale=SCALE), num_hfu=(2, 4))
            )
            assert one_shard.last_execution.mode == "serial"
            assert one_shard.last_execution.shards == 1
            assert one_shard.stats()["pool"] is None

    def test_repeated_one_shard_sweep_rebuilds_nothing(self):
        # One scene context: the grid runs in the calling session, on the
        # context that session already holds.
        specs = sweep(ExperimentSpec(scene="lego", resolution_scale=SCALE), num_hfu=range(1, 9))
        with Session(jobs=2) as session:
            serial = session.run_many(specs)
            for _ in range(2):
                result = session.run_sweep(specs, swept=["num_hfu"])
                assert [r.metrics for r in result.results] == [r.metrics for r in serial]
                assert session.last_execution.mode == "serial"
                assert session.last_execution.context_rebuilds == 0

    def test_sweeps_take_no_per_call_settings(self, specs):
        session = Session()
        with pytest.raises(TypeError, match="jobs"):
            session.run_sweep(specs, jobs=2)
        with pytest.raises(TypeError, match="cache"):
            session.run_sweep(specs, cache=False)
        with pytest.raises(ValueError, match="unknown sweep axis 'jobs'"):
            session.sweep(specs[0], jobs=2)


class TestParallelEquality:
    def test_process_pool_matches_serial(self, specs, serial):
        # Two one-spec shards and two jobs: the shards run on a process pool.
        with Session(jobs=2) as session:
            result = session.run_sweep(specs, swept=["voxel_size"])
            report = session.last_execution
        assert result.table_dict() == serial.table_dict()
        assert report.mode == "process"
        assert report.shards == 2
        assert report.workers == 2
        assert report.degraded_reason == ""

    def test_broken_process_pool_degrades_to_serial(self, specs, serial, monkeypatch):
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        class BrokenPool:
            def __init__(self, max_workers=None):
                pass

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("workers cannot be spawned")

            def shutdown(self, wait=True, **kwargs):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        with Session(jobs=2) as session:
            result = session.run_sweep(specs, swept=["voxel_size"])
            report = session.last_execution
        assert result.table_dict() == serial.table_dict()
        assert report.mode == "serial"
        assert "cannot be spawned" in report.degraded_reason

    def test_merge_order_is_input_order(self, specs, serial):
        with Session(jobs=2) as session:
            reversed_result = session.run_sweep(list(reversed(specs)), swept=["voxel_size"])
        assert [r.meta["tag"] for r in reversed_result] == [
            r.meta["tag"] for r in reversed(serial.results)
        ]


class TestStoreIntegration:
    def test_cold_then_warm(self, tmp_path, specs, serial):
        store = ResultStore(tmp_path / "cache")
        with Session(jobs=2, store=store) as cold_session:
            cold = cold_session.run_sweep(specs, swept=["voxel_size"])
            report = cold_session.last_execution
        assert cold.table_dict() == serial.table_dict()
        assert report.cache_misses == len(specs)
        assert report.cache_hits == 0
        assert len(store) == len(specs)

        with Session(jobs=2, store=store) as warm_session:
            warm = warm_session.run_sweep(specs, swept=["voxel_size"])
            assert warm.table_dict() == serial.table_dict()
            # Every point came from disk: no renders, no contexts built.
            assert warm_session.service.requests_served == 0
            assert warm_session.context_misses == 0
            assert warm_session.stats()["points_run"] == 0

    def test_partial_warm_store(self, tmp_path, specs, serial):
        store = ResultStore(tmp_path / "cache")
        store.put(specs[0], serial.results[0])
        session = Session(store=store)
        result = session.run_sweep(specs, swept=["voxel_size"])
        assert result.table_dict() == serial.table_dict()
        assert session.last_execution.cache_hits == 1
        assert session.last_execution.cache_misses == len(specs) - 1
        assert len(store) == len(specs)

    def test_store_from_path(self, tmp_path):
        assert isinstance(Session(store=tmp_path / "cache").store, ResultStore)

    @pytest.mark.parametrize("store", [True, False])
    def test_store_booleans_are_rejected(self, store):
        with pytest.raises(TypeError, match="result store"):
            Session(store=store)


class TestSessionSweepParams:
    def test_sweep_with_session_jobs_and_store(self, tmp_path, specs, serial):
        with Session(jobs=2, store=tmp_path / "cache") as session:
            result = session.sweep(
                ExperimentSpec(scene="lego", resolution_scale=SCALE),
                voxel_size=(0.4, 0.8),
            )
            assert len(session.store) == len(specs)
        assert result.table_dict() == serial.table_dict()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            Session(jobs=0)


class TestPersistentPool:
    def test_second_sweep_reuses_the_pool(self, specs, serial):
        with Session(jobs=2) as session:
            first = session.run_sweep(specs, swept=["voxel_size"])
            assert first.meta["execution"]["mode"] == "process"
            assert first.meta["execution"]["worker_reuse"] == 0
            second = session.run_sweep(specs, swept=["voxel_size"])
            assert second.meta["execution"]["worker_reuse"] >= 1
            assert first.table_dict() == serial.table_dict()
            assert second.table_dict() == serial.table_dict()
            assert session.worker_pool().created == 1

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
        for token in ("mode=", "shards=", "workers_used=", "reuse=", "wall="):
            assert token in summary

    def test_store_counters_in_report(self, tmp_path, specs):
        store = ResultStore(tmp_path / "cache")
        session = Session(store=store)
        cold = session.run_sweep(specs, swept=["voxel_size"])
        warm = session.run_sweep(specs, swept=["voxel_size"])
        assert cold.meta["execution"]["cache_misses"] == len(specs)
        assert warm.meta["execution"]["cache_hits"] == len(specs)
        assert warm.meta["execution"]["shards"] == 0
