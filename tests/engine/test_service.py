"""RenderService: batched requests, renderer sharing, equivalence."""

import numpy as np
import pytest

from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer
from repro.engine.service import (
    RenderOptions,
    RenderRequest,
    RenderService,
    get_default_service,
)
from repro.gaussians.rasterizer import TileRasterizer
from tests.conftest import make_camera, make_model


@pytest.fixture(scope="module")
def scene():
    model = make_model(num_gaussians=180, extent=5.0, scale=0.1, seed=20)
    camera = make_camera(width=48, height=32, distance=6.0)
    config = StreamingConfig(voxel_size=1.5, use_vq=False)
    return model, camera, config


def test_request_validates_mode(scene):
    model, camera, config = scene
    with pytest.raises(ValueError):
        RenderRequest(model=model, camera=camera, config=config, mode="raytrace")


def test_service_matches_direct_renders(scene):
    model, camera, config = scene
    service = RenderService()
    tile_out, streaming_out = service.render_pair(model, camera, config)
    direct_tile = TileRasterizer(
        tile_size=config.tile_size,
        background=config.background,
        sh_degree=config.sh_degree,
        kernel=config.streaming_kernel,
    ).render(model, camera)
    direct_streaming = StreamingRenderer(model, config).render(camera)
    np.testing.assert_array_equal(tile_out.image, direct_tile.image)
    np.testing.assert_array_equal(streaming_out.image, direct_streaming.image)
    assert streaming_out.stats.blended_fragments == direct_streaming.stats.blended_fragments


def test_batch_shares_streaming_renderer(scene):
    model, camera, config = scene
    other_camera = make_camera(width=48, height=32, distance=7.0)
    service = RenderService()
    responses = service.render_batch(
        [
            RenderRequest(model=model, camera=camera, config=config, tag="a"),
            RenderRequest(model=model, camera=other_camera, config=config, tag="b"),
            RenderRequest(model=model, camera=camera, config=config, tag="c"),
        ]
    )
    assert [r.tag for r in responses] == ["a", "b", "c"]
    # One renderer built, reused for the remaining requests of the group.
    assert service.renderer_misses == 1
    assert service.renderer_hits == 2
    # Identical poses share the prepared frame.
    renderer = service.streaming_renderer(model, config)
    assert renderer.frame_cache.hits >= 1
    np.testing.assert_array_equal(responses[0].image, responses[2].image)


def test_batch_mixes_modes(scene):
    model, camera, config = scene
    service = RenderService()
    responses = service.render_batch(
        [
            RenderRequest(model=model, camera=camera, config=config, mode="tile"),
            RenderRequest(model=model, camera=camera, config=config, mode="streaming"),
        ]
    )
    assert responses[0].output.__class__.__name__ == "RenderOutput"
    assert responses[1].output.__class__.__name__ == "StreamingRenderOutput"
    assert service.requests_served == 2


def test_renderer_cache_eviction(scene):
    _, camera, config = scene
    service = RenderService(max_renderers=1)
    model_a = make_model(num_gaussians=80, extent=5.0, scale=0.1, seed=21)
    model_b = make_model(num_gaussians=80, extent=5.0, scale=0.1, seed=22)
    service.render(RenderRequest(model=model_a, camera=camera, config=config))
    service.render(RenderRequest(model=model_b, camera=camera, config=config))
    service.render(RenderRequest(model=model_a, camera=camera, config=config))
    # model_a's renderer was evicted by model_b's, so it was rebuilt.
    assert service.renderer_misses == 3


def test_default_service_is_shared():
    assert get_default_service() is get_default_service()


def test_parallel_tile_rendering_through_service(scene):
    model, camera, config = scene
    service = RenderService()
    request = RenderRequest(model=model, camera=camera, config=config)
    serial = service.render(request)
    parallel = service.render(request, options=RenderOptions(tile_workers=3))
    np.testing.assert_array_equal(parallel.image, serial.image)
    np.testing.assert_array_equal(parallel.alpha, serial.alpha)
    assert parallel.stats.blended_fragments == serial.stats.blended_fragments
    stats = service.stats()
    assert stats["parallel_tile_frames"] == 1
    assert stats["last_frame"]["tile_workers"] == 3
    # The telemetry names the path once.
    assert stats["last_frame"]["path"] == "frame"
    assert "streaming_kernel" not in stats["last_frame"]
    assert stats["last_frame"]["seconds"] > 0.0


def test_frame_telemetry_recorded_per_streaming_render(scene):
    model, camera, config = scene
    service = RenderService()
    assert service.stats()["last_frame"] is None
    service.render(RenderRequest(model=model, camera=camera, config=config))
    telemetry = service.stats()["last_frame"]
    assert telemetry["tile_workers"] == 1
    assert telemetry["tiles"] > 0
    assert service.stats()["parallel_tile_frames"] == 0
    # Tile-mode renders leave the streaming telemetry untouched.
    service.render(
        RenderRequest(model=model, camera=camera, config=config, mode="tile")
    )
    assert service.stats()["last_frame"] == telemetry


# ----------------------------------------------------------------------
# RenderOptions.
# ----------------------------------------------------------------------
def test_render_options_validation():
    with pytest.raises(ValueError, match="tile_workers"):
        RenderOptions(tile_workers=0)
    with pytest.raises(ValueError, match="resolution_scale"):
        RenderOptions(resolution_scale=0.0)
    # One frame path: there is no tile mode or temporal mode to choose, and
    # the render path is chosen on the config only.
    for removed in ("tile_mode", "temporal_mode", "streaming_kernel"):
        with pytest.raises(ValueError, match="unknown RenderOptions fields"):
            RenderOptions.from_dict({removed: "process"})


def test_render_options_dict_roundtrip():
    options = RenderOptions(tile_workers=2, resolution_scale=0.5)
    assert RenderOptions.from_dict(options.to_dict()) == options
    with pytest.raises(ValueError, match="unknown RenderOptions fields"):
        RenderOptions.from_dict({"tile_worker": 2})


def test_render_options_overrides(scene):
    model, camera, config = scene
    service = RenderService()
    request = RenderRequest(model=model, camera=camera, config=config)
    plain = service.render(request)
    assert service.last_frame["path"] == "frame"
    scaled = service.render(request, options=RenderOptions(resolution_scale=0.5))
    assert scaled.image.shape == (camera.height // 2, camera.width // 2, 3)
    assert plain.image.shape == (camera.height, camera.width, 3)
    # The reference loop is chosen on the config, the one path knob.
    reference = service.render(
        RenderRequest(
            model=model,
            camera=camera,
            config=config.with_options(streaming_kernel="reference"),
        )
    )
    assert service.last_frame["path"] == "reference"
    np.testing.assert_allclose(reference.image, plain.image, atol=1e-9)


def test_trajectory_telemetry(scene):
    model, camera, config = scene
    service = RenderService()
    cameras = [camera, camera.scaled(0.5), camera]
    responses = service.render_trajectory(model, cameras, config=config)
    assert len(responses) == 3
    np.testing.assert_array_equal(responses[0].image, responses[2].image)
    summary = service.last_trajectory
    assert summary["frames"] == 3
    assert [f["path"] for f in summary["per_frame"]] == ["frame"] * 3
    for frame in summary["per_frame"]:
        assert set(frame["stages_s"]) == {"prepare", "filter", "blend", "account"}
    # The repeated pose reuses its prepared frame.
    renderer = service.streaming_renderer(model, config)
    assert renderer.frame_cache.hits >= 1
    stats = service.stats()
    assert "temporal" not in stats
    assert stats["last_trajectory"]["frames"] == 3
