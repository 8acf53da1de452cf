"""RenderService: one render call per frame, renderer sharing, equivalence."""

import numpy as np
import pytest

from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer
from repro.engine import tile_parallel
from repro.engine.service import RenderService, get_default_service
from repro.gaussians.rasterizer import TileRasterizer
from tests.conftest import make_camera, make_model


@pytest.fixture(scope="module")
def scene():
    model = make_model(num_gaussians=180, extent=5.0, scale=0.1, seed=20)
    camera = make_camera(width=48, height=32, distance=6.0)
    config = StreamingConfig(voxel_size=1.5, use_vq=False)
    return model, camera, config


def test_render_validates_mode(scene):
    model, camera, config = scene
    with pytest.raises(ValueError, match="unknown render mode 'raytrace'"):
        RenderService().render(model, camera, config, mode="raytrace")


def test_service_matches_direct_renders(scene):
    model, camera, config = scene
    service = RenderService()
    tile_out = service.render(model, camera, config, mode="tile").output
    streaming_out = service.render(model, camera, config).output
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


def test_renders_share_streaming_renderer(scene):
    model, camera, config = scene
    other_camera = make_camera(width=48, height=32, distance=7.0)
    service = RenderService()
    responses = [
        service.render(model, view, config) for view in (camera, other_camera, camera)
    ]
    # One renderer built, reused for the later frames.
    assert service.renderer_misses == 1
    assert service.renderer_hits == 2
    # Identical poses share the prepared frame.
    renderer = service.streaming_renderer(model, config)
    assert renderer.frame_cache.hits >= 1
    np.testing.assert_array_equal(responses[0].image, responses[2].image)


def test_render_modes(scene):
    model, camera, config = scene
    service = RenderService()
    tile = service.render(model, camera, config, mode="tile")
    streaming = service.render(model, camera, config, mode="streaming")
    assert tile.output.__class__.__name__ == "RenderOutput"
    assert streaming.output.__class__.__name__ == "StreamingRenderOutput"
    assert service.requests_served == 2


def test_renderer_cache_eviction(scene):
    _, camera, config = scene
    service = RenderService(max_renderers=1)
    model_a = make_model(num_gaussians=80, extent=5.0, scale=0.1, seed=21)
    model_b = make_model(num_gaussians=80, extent=5.0, scale=0.1, seed=22)
    service.render(model_a, camera, config)
    service.render(model_b, camera, config)
    service.render(model_a, camera, config)
    # model_a's renderer was evicted by model_b's, so it was rebuilt.
    assert service.renderer_misses == 3


def test_clear_drops_renderers_and_keeps_counters(scene):
    model, camera, config = scene
    service = RenderService()
    before = service.render(model, camera, config)
    service.clear()
    stats = service.stats()
    assert stats["renderers_alive"] == 0
    assert (stats["requests_served"], stats["renderer_misses"]) == (1, 1)
    # The next frame builds a new renderer and renders the same image.
    after = service.render(model, camera, config)
    assert service.renderer_misses == 2 and service.renderer_hits == 0
    np.testing.assert_array_equal(after.image, before.image)


def test_default_service_is_shared():
    assert get_default_service() is get_default_service()


def test_parallel_tile_rendering_through_service(scene, monkeypatch):
    model, _, config = scene
    camera = make_camera(width=64, height=48, distance=6.0)  # 3072 pixels
    monkeypatch.setattr(tile_parallel, "available_cpus", lambda: 3)
    service = RenderService()
    # A renderer's first frame renders in one process, its second on three.
    serial = service.render(model, camera, config)
    parallel = service.render(model, camera, config)
    assert serial.output.telemetry["tile_workers"] == 1
    np.testing.assert_array_equal(parallel.image, serial.image)
    np.testing.assert_array_equal(parallel.output.alpha, serial.output.alpha)
    assert parallel.output.stats.blended_fragments == serial.output.stats.blended_fragments
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
    response = service.render(model, camera, config)
    telemetry = service.stats()["last_frame"]
    assert telemetry == response.output.telemetry
    assert telemetry["tile_workers"] == 1
    assert telemetry["tiles"] > 0
    assert service.stats()["parallel_tile_frames"] == 0
    # Tile-mode renders leave the streaming telemetry untouched.
    service.render(model, camera, config, mode="tile")
    assert service.stats()["last_frame"] == telemetry


def test_config_chooses_the_path_and_the_camera_the_size(scene):
    model, camera, config = scene
    service = RenderService()
    plain = service.render(model, camera, config)
    assert service.last_frame["path"] == "frame"
    scaled = service.render(model, camera.scaled(0.5), config)
    assert scaled.image.shape == (camera.height // 2, camera.width // 2, 3)
    assert plain.image.shape == (camera.height, camera.width, 3)
    # The reference loop is chosen on the config, the one path knob.
    reference = service.render(
        model, camera, config.with_options(streaming_kernel="reference")
    )
    assert service.last_frame["path"] == "reference"
    np.testing.assert_allclose(reference.image, plain.image, atol=1e-9)
