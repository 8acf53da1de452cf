"""Tests for the Session front-end: caching, point runs, sweeps."""

import hashlib

import pytest

from repro.api import ExperimentSpec, Session, get_default_session, reset_default_session
from repro.api.result import ExperimentResult, SweepResult
from repro.core.config import StreamingConfig
from tests.conftest import make_camera, make_model

#: A reduced evaluation resolution keeps each context cheap.
SCALE = 0.5


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.fixture(scope="module")
def lego_spec():
    return ExperimentSpec(scene="lego", resolution_scale=SCALE)


class TestContexts:
    def test_context_is_cached(self, session):
        first = session.context("lego", resolution_scale=SCALE)
        again = session.context("lego", resolution_scale=SCALE)
        assert again is first
        assert session.context_hits >= 1

    def test_context_voxel_override_is_distinct(self, session):
        default = session.context("lego", resolution_scale=SCALE)
        coarse = session.context("lego", voxel_size=0.8, resolution_scale=SCALE)
        assert coarse is not default
        assert coarse.streaming_config.voxel_size == 0.8

    def test_context_accepts_config_mapping(self, session):
        context = session.context(
            "lego", resolution_scale=SCALE, config={"streaming_kernel": "reference"}
        )
        assert context.streaming_config.streaming_kernel == "reference"
        assert context.streaming_config.voxel_size == 0.4  # scene default

    def test_context_accepts_full_config(self, session):
        config = StreamingConfig(voxel_size=0.8)
        context = session.context("lego", resolution_scale=SCALE, config=config)
        # Equal configs share one cache entry, so identity is not guaranteed.
        assert context.streaming_config == config

    def test_voxel_size_and_config_are_exclusive(self, session):
        with pytest.raises(ValueError, match="not both"):
            session.context("lego", voxel_size=1.0, config={"tile_size": 8})

    def test_unknown_scene(self, session):
        with pytest.raises(KeyError, match="unknown scene"):
            session.context("not-a-scene")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"voxel_size": -1.0},
            {"voxel_size": 0.0},
            {"voxel_size": float("nan")},
            {"voxel_size": float("inf")},
            {"resolution_scale": 0.0},
            {"resolution_scale": -0.5},
            {"resolution_scale": float("nan")},
        ],
        ids=lambda kwargs: "=".join(map(str, next(iter(kwargs.items())))),
    )
    def test_bad_voxel_size_or_scale_is_refused(self, kwargs):
        field = next(iter(kwargs))
        with Session() as fresh:
            with pytest.raises(ValueError, match=f"{field} must be"):
                fresh.context("lego", **{"resolution_scale": SCALE, **kwargs})
            assert fresh.context_misses == 0

    def test_sessions_are_isolated(self, session):
        other = Session()
        assert other.context("lego", resolution_scale=SCALE) is not session.context(
            "lego", resolution_scale=SCALE
        )
        assert other.service is not session.service

    def test_isolated_probe_session(self, session):
        probe = session.isolated(max_renderers=1)
        assert probe.service is not session.service
        assert probe.service.max_renderers == 1


class TestRendering:
    def test_frames_of_one_model_hash_it_once(self, monkeypatch):
        model = make_model(num_gaussians=120, seed=5)
        config = StreamingConfig(voxel_size=1.0, use_vq=False)
        calls = []
        blake2b = hashlib.blake2b

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return blake2b(*args, **kwargs)

        monkeypatch.setattr(hashlib, "blake2b", counted)
        with Session() as session:
            for distance in (6.0, 7.0, 6.0, 8.0):
                camera = make_camera(width=32, height=24, distance=distance)
                session.render(model, camera, config)
            assert session.service.renderer_misses == 1
        assert len(calls) == 1


class TestPointRuns:
    def test_run_point_metrics(self, session, lego_spec):
        result = session.run(lego_spec)
        assert isinstance(result, ExperimentResult)
        assert result.name == "point"
        assert result.metrics["speedup"] > 1.0
        assert result.metrics["energy_savings"] > 1.0
        assert result.metrics["baseline_psnr"] > 20.0
        assert result.metrics["area_mm2"] > 0
        assert result.payload["spec"]["scene"] == "lego"
        assert "experiment point" in result.format()

    def test_run_point_json_roundtrip(self, session, lego_spec):
        result = session.run(lego_spec)
        restored = ExperimentResult.from_json(result.to_json())
        assert restored.to_dict() == result.to_dict()

    def test_gpu_arch_is_the_baseline(self, session, lego_spec):
        result = session.run(lego_spec.with_options(arch="gpu"))
        assert result.metrics["speedup"] == pytest.approx(1.0)
        assert result.metrics["energy_savings"] == pytest.approx(1.0)
        assert "area_mm2" not in result.metrics

    def test_gscore_arch(self, session, lego_spec):
        result = session.run(lego_spec.with_options(arch="gscore"))
        assert result.metrics["speedup"] > 1.0
        assert "area_mm2" not in result.metrics

    def test_overrides_apply_to_spec(self, session, lego_spec):
        result = session.run(lego_spec, arch="wo_cgf")
        assert result.payload["spec"]["arch"] == "wo_cgf"

    def test_points_share_context(self, session, lego_spec):
        before = session.context_misses
        session.run(lego_spec.with_options(arch="gscore"))
        session.run(lego_spec.with_options(arch="wo_cgf"))
        assert session.context_misses == before


class TestSweeps:
    def test_sweep_runs_grid(self, session, lego_spec):
        study = session.sweep(lego_spec, voxel_size=(0.4, 0.8))
        assert isinstance(study, SweepResult)
        assert len(study) == 2
        assert study.swept == ["voxel_size"]
        assert all(value > 1.0 for value in study.metric("energy_savings"))
        assert study.labels() == ["voxel_size=0.4", "voxel_size=0.8"]

    def test_sweep_arch_options(self, session, lego_spec):
        study = session.sweep(lego_spec, cfus_per_hfu=(1, 4))
        assert study.metric("speedup")[1] >= study.metric("speedup")[0]
        assert study.metric("area_mm2")[1] > study.metric("area_mm2")[0]


class TestRegistryRuns:
    def test_run_named_experiment(self, session):
        result = session.run("tab1")
        assert isinstance(result, ExperimentResult)
        assert result.name == "tab1"
        assert "Table I" in result.format()
        assert "total" in result.format()
        assert result.metrics["total_mm2"] == pytest.approx(5.37, abs=0.01)

    def test_run_unknown_name(self, session):
        with pytest.raises(KeyError, match="unknown experiment"):
            session.run("fig99")

    def test_run_named_rejects_unknown_kwargs(self, session):
        with pytest.raises(TypeError):
            session.run("tab1", cfus_per_hfu=4)


class TestLifecycle:
    def test_worker_pool_is_lazy_and_shared(self):
        session = Session()
        assert session.stats()["pool"] is None
        pool = session.worker_pool()
        assert session.worker_pool() is pool
        session.close()

    def test_close_shuts_the_pool_down(self):
        session = Session()
        pool = session.worker_pool()
        executor = pool.executor(2)
        assert executor.submit(int, "7").result() == 7
        session.close()
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.executor(2)

    def test_close_drops_contexts_and_renderers(self):
        session = Session()
        session.context("lego", resolution_scale=SCALE)
        assert session.stats()["contexts_alive"] == 1
        session.close()
        assert session.stats()["contexts_alive"] == 0
        assert session.stats()["service"]["renderers_alive"] == 0

    def test_closed_session_remains_usable(self):
        session = Session()
        session.close()
        fresh = session.worker_pool()
        assert not fresh.closed
        session.close()

    def test_context_manager_closes(self):
        with Session() as session:
            pool = session.worker_pool()
        assert pool.closed


class TestDefaultSession:
    def test_default_session_is_shared_and_resettable(self):
        reset_default_session()
        first = get_default_session()
        assert get_default_session() is first
        reset_default_session()
        assert get_default_session() is not first

    def test_default_session_wraps_default_service(self):
        from repro.engine.service import get_default_service

        reset_default_session()
        assert get_default_session().service is get_default_service()
