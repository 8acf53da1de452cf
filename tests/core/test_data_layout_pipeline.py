"""Tests for the DRAM data layout and the streaming renderer."""

import numpy as np
import pytest

from repro.compression.codebook import CodebookSpec
from repro.compression.vq import VectorQuantizer
from repro.core.config import StreamingConfig
from repro.core.data_layout import (
    DataLayout,
    FIRST_HALF_BYTES,
    LayoutTraffic,
    PIXEL_WRITE_BYTES,
    RAW_SECOND_HALF_BYTES,
    render_model,
)
from repro.core.pipeline import StreamingRenderer
from repro.core.voxel_grid import VoxelGrid
from repro.engine.service import RenderService
from repro.gaussians.metrics import psnr
from repro.gaussians.model import GaussianModel
from tests.conftest import make_camera, make_model


def small_quantizer(model):
    specs = (
        CodebookSpec(name="scale", num_entries=32, vector_dim=3),
        CodebookSpec(name="rotation", num_entries=32, vector_dim=4),
        CodebookSpec(name="dc", num_entries=32, vector_dim=3),
        CodebookSpec(name="sh", num_entries=16, vector_dim=45),
    )
    return VectorQuantizer(specs=specs, kmeans_iterations=5).fit(model)


# ---------------------------------------------------------------------------
# StreamingConfig
# ---------------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        StreamingConfig(voxel_size=0)
    with pytest.raises(ValueError):
        StreamingConfig(tile_size=-1)
    with pytest.raises(ValueError):
        StreamingConfig(ray_stride=0)
    with pytest.raises(ValueError):
        StreamingConfig(sh_degree=5)


def test_config_for_scene_category():
    assert StreamingConfig.for_scene_category("real").voxel_size == 2.0
    assert StreamingConfig.for_scene_category("synthetic").voxel_size == 0.4
    with pytest.raises(ValueError):
        StreamingConfig.for_scene_category("other")


def test_config_with_options():
    config = StreamingConfig().with_options(voxel_size=1.0, use_vq=False)
    assert config.voxel_size == 1.0
    assert not config.use_vq


# ---------------------------------------------------------------------------
# Data layout
# ---------------------------------------------------------------------------
def test_layout_constants_match_paper():
    assert FIRST_HALF_BYTES == 16
    assert RAW_SECOND_HALF_BYTES == 220
    assert PIXEL_WRITE_BYTES == 16


def test_layout_traffic_merge():
    a = LayoutTraffic(first_half_bytes=10, second_half_bytes=5, pixel_write_bytes=3)
    b = LayoutTraffic(first_half_bytes=1, metadata_bytes=2)
    merged = a.merge(b)
    assert merged.first_half_bytes == 11
    assert merged.total_bytes == 11 + 5 + 3 + 2
    assert merged.read_bytes == 11 + 5 + 2
    assert merged.write_bytes == 3


def test_layout_without_vq_uses_raw_bytes(small_model):
    grid = VoxelGrid.build(small_model, voxel_size=2.0)
    layout = DataLayout(grid=grid, quantizer=None, use_vq=False)
    assert layout.second_half_bytes_per_gaussian == RAW_SECOND_HALF_BYTES
    assert layout.second_half_traffic_reduction() == 0.0
    assert layout.codebook_sram_bytes() == 0
    assert render_model(small_model, layout) is small_model


def test_layout_with_vq_reduces_traffic(small_model):
    grid = VoxelGrid.build(small_model, voxel_size=2.0)
    quantizer = small_quantizer(small_model)
    layout = DataLayout(grid=grid, quantizer=quantizer, use_vq=True)
    assert layout.second_half_bytes_per_gaussian < RAW_SECOND_HALF_BYTES
    assert layout.second_half_traffic_reduction() > 0.8
    assert layout.codebook_sram_bytes() > 0
    rendered = render_model(small_model, layout)
    assert rendered is not small_model
    np.testing.assert_array_equal(rendered.positions, small_model.positions)


def test_layout_addresses_are_contiguous_and_disjoint(small_model):
    grid = VoxelGrid.build(small_model, voxel_size=2.0)
    layout = DataLayout(grid=grid, quantizer=None, use_vq=False)
    previous_end = 0
    for voxel_id in range(grid.num_voxels):
        start, size = layout.voxel_addresses[voxel_id]
        assert start == previous_end
        assert size > 0
        previous_end = start + size
    assert layout.total_model_bytes() == previous_end


def test_voxel_stream_traffic_bounds(small_model):
    grid = VoxelGrid.build(small_model, voxel_size=2.0)
    layout = DataLayout(grid=grid, quantizer=None, use_vq=False)
    count = int(grid.voxel_counts[0])
    traffic = layout.voxel_stream_traffic(0, coarse_passed=count)
    assert traffic.first_half_bytes >= count * FIRST_HALF_BYTES
    assert traffic.second_half_bytes >= count * RAW_SECOND_HALF_BYTES
    with pytest.raises(ValueError):
        layout.voxel_stream_traffic(0, coarse_passed=count + 1)


def test_pixel_and_metadata_traffic():
    assert DataLayout.pixel_write_traffic(10).pixel_write_bytes == 160
    assert DataLayout.ordering_metadata_traffic(7).metadata_bytes == 28


# ---------------------------------------------------------------------------
# Streaming renderer
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def streaming_setup():
    model = make_model(num_gaussians=350, extent=6.0, scale=0.1, seed=15)
    camera = make_camera(width=64, height=48, distance=7.0)
    config = StreamingConfig(voxel_size=1.5, use_vq=False)
    renderer = StreamingRenderer(model, config)
    output = renderer.render(camera)
    return model, camera, config, renderer, output


def test_streaming_renderer_rejects_empty_model():
    with pytest.raises(ValueError):
        StreamingRenderer(GaussianModel.empty(), StreamingConfig())


def test_streaming_output_shape(streaming_setup):
    _, camera, _, _, output = streaming_setup
    assert output.image.shape == (camera.height, camera.width, 3)
    assert output.alpha.shape == (camera.height, camera.width)
    assert output.width == camera.width and output.height == camera.height
    assert np.all(output.image >= 0) and np.all(output.image <= 1)


def test_streaming_matches_tile_centric_reference(streaming_setup):
    """The memory-centric renderer approximates the tile-centric image."""
    model, camera, config, _, output = streaming_setup
    reference = RenderService.tile_rasterizer(config).render(model, camera)
    assert psnr(reference.image, output.image) > 25.0


def test_streaming_stats_consistency(streaming_setup):
    model, camera, config, renderer, output = streaming_setup
    stats = output.stats
    assert stats.num_tiles == ((camera.width + 15) // 16) * ((camera.height + 15) // 16)
    assert stats.num_tile_voxel_pairs > 0
    assert stats.gaussians_streamed >= stats.filter.fine_passed
    assert stats.filter.gaussians_in == stats.gaussians_streamed
    assert 0.0 <= stats.filtering_reduction <= 1.0
    assert stats.traffic.pixel_write_bytes == camera.num_pixels * PIXEL_WRITE_BYTES
    assert stats.traffic.total_bytes > 0
    assert stats.mean_voxels_per_tile > 0
    assert 0.0 <= stats.error_gaussian_ratio <= 1.0
    assert stats.rendered_gaussian_count <= len(model)


def test_streaming_error_tracking(streaming_setup):
    _, _, _, _, output = streaming_setup
    stats = output.stats
    flagged = stats.error_gaussian_indices()
    top = stats.top_violating_gaussians(0.9)
    violators = set(np.flatnonzero(stats.gaussian_violation_weight > 0.0))
    assert set(top) <= violators
    assert len(flagged) <= stats.rendered_gaussian_count
    with pytest.raises(ValueError):
        stats.top_violating_gaussians(0.0)


def test_streaming_with_vq_close_to_without():
    model = make_model(num_gaussians=250, extent=5.0, scale=0.1, seed=16)
    camera = make_camera(width=48, height=32, distance=6.0)
    quantizer = small_quantizer(model)
    base = StreamingRenderer(model, StreamingConfig(voxel_size=1.5, use_vq=False)).render(camera)
    vq = StreamingRenderer(
        model, StreamingConfig(voxel_size=1.5, use_vq=True), quantizer=quantizer
    ).render(camera)
    assert psnr(base.image, vq.image) > 20.0
    # VQ reduces the second-half DRAM traffic.
    assert vq.stats.traffic.second_half_bytes < base.stats.traffic.second_half_bytes


def test_disabling_coarse_filter_same_image():
    model = make_model(num_gaussians=200, extent=5.0, scale=0.1, seed=17)
    camera = make_camera(width=48, height=32, distance=6.0)
    with_cgf = StreamingRenderer(model, StreamingConfig(voxel_size=1.5, use_vq=False))
    without_cgf = StreamingRenderer(
        model, StreamingConfig(voxel_size=1.5, use_vq=False, use_coarse_filter=False)
    )
    image_a = with_cgf.render(camera).image
    image_b = without_cgf.render(camera).image
    np.testing.assert_allclose(image_a, image_b, atol=1e-9)
