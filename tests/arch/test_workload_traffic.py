"""Tests for the full-scale workload model and traffic models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.traffic import (
    StreamingTraffic,
    TileCentricTraffic,
    streaming_traffic,
    tile_centric_traffic,
)
from repro.arch.workload import FullScaleWorkload, build_workload
from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer
from repro.gaussians.rasterizer import TileRasterizer
from repro.scenes.registry import SCENE_REGISTRY
from tests.conftest import make_camera, make_model


def make_workload(**overrides) -> FullScaleWorkload:
    """A hand-written workload in the truck-scene ballpark."""
    values = dict(
        scene="synthetic-test",
        num_gaussians=1_000_000,
        width=960,
        height=540,
        num_voxels=800,
        voxel_size=2.0,
        visible_fraction=0.8,
        mean_depth=15.0,
        focal_px=800.0,
        blend_efficiency=0.1,
        voxels_per_ray=10.0,
        mean_radius_px=4.0,
        group_size=32,
    )
    values.update(overrides)
    return FullScaleWorkload(**values)


def test_workload_basic_counts():
    w = make_workload()
    assert w.num_pixels == 960 * 540
    assert w.num_tiles == 60 * 34
    assert w.num_groups == 30 * 17
    assert w.visible_gaussians == pytest.approx(800_000)
    assert w.duplication_factor > 1.0
    assert w.num_pairs > w.visible_gaussians
    assert w.blended_fragments > 0


def test_workload_streaming_quantities_consistent():
    w = make_workload()
    assert w.gaussians_per_voxel == pytest.approx(1250)
    assert w.voxel_instances == pytest.approx(w.num_groups * w.voxels_per_group)
    assert w.gaussians_streamed == pytest.approx(w.voxel_instances * w.gaussians_per_voxel)
    assert 0.0 < w.coarse_pass_rate <= 1.0
    assert 0.0 < w.fine_pass_rate_given_coarse <= 1.0
    assert w.survivors <= w.coarse_passed <= w.gaussians_streamed
    assert 0.0 <= w.filtering_reduction <= 1.0


def test_second_half_fetch_bounded_by_visible():
    w = make_workload()
    with_cgf = w.second_half_fetched(use_coarse_filter=True)
    without_cgf = w.second_half_fetched(use_coarse_filter=False)
    assert with_cgf <= without_cgf
    assert without_cgf == pytest.approx(w.first_half_fetched)


def test_with_group_size_rederives_quantities():
    w = make_workload()
    larger = w.with_group_size(64)
    assert larger.num_groups < w.num_groups
    assert larger.groups_per_voxel < w.groups_per_voxel
    assert larger.coarse_pass_rate >= w.coarse_pass_rate
    with pytest.raises(ValueError):
        w.with_group_size(0)


def test_smaller_groups_filter_more():
    w = make_workload()
    small = w.with_group_size(16)
    large = w.with_group_size(128)
    assert small.filtering_reduction >= large.filtering_reduction


# ---------------------------------------------------------------------------
# Tile-centric traffic (Fig. 2 / Fig. 4)
# ---------------------------------------------------------------------------
def test_tile_centric_traffic_structure():
    w = make_workload()
    traffic = tile_centric_traffic(w)
    assert isinstance(traffic, TileCentricTraffic)
    assert traffic.total_bytes == pytest.approx(
        traffic.projection_bytes + traffic.sorting_bytes + traffic.rendering_bytes
    )
    fractions = traffic.fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert 0 < traffic.intermediate_bytes < traffic.total_bytes
    assert traffic.required_bandwidth(90.0) == pytest.approx(traffic.total_bytes * 90.0)


def test_sorting_dominates_tile_centric_traffic():
    """Sec. II-B: projection + sorting account for ~90 % of the traffic."""
    w = make_workload()
    fractions = tile_centric_traffic(w).fractions()
    assert fractions["projection"] + fractions["sorting"] > 0.8
    assert fractions["rendering"] < 0.2


def test_intermediate_share_is_large():
    w = make_workload()
    traffic = tile_centric_traffic(w)
    assert traffic.intermediate_bytes / traffic.total_bytes > 0.6


# ---------------------------------------------------------------------------
# Streaming traffic
# ---------------------------------------------------------------------------
def test_streaming_traffic_much_lower_than_tile_centric():
    w = make_workload()
    tile = tile_centric_traffic(w).total_bytes
    streaming = streaming_traffic(w).total_bytes
    assert streaming < 0.25 * tile


def test_streaming_traffic_has_no_intermediate():
    w = make_workload()
    traffic = streaming_traffic(w)
    assert isinstance(traffic, StreamingTraffic)
    assert traffic.intermediate_bytes == 0.0
    assert set(traffic.breakdown()) == {
        "first_half",
        "second_half",
        "ordering_metadata",
        "pixel_writes",
    }


def test_vq_reduces_streaming_traffic():
    w = make_workload()
    with_vq = streaming_traffic(w, use_vq=True).total_bytes
    without_vq = streaming_traffic(w, use_vq=False).total_bytes
    assert with_vq < without_vq


def test_coarse_filter_reduces_streaming_traffic():
    w = make_workload()
    with_cgf = streaming_traffic(w, use_coarse_filter=True).second_half_bytes
    without_cgf = streaming_traffic(w, use_coarse_filter=False).second_half_bytes
    assert with_cgf <= without_cgf


@settings(max_examples=20, deadline=None)
@given(
    num_gaussians=st.integers(100_000, 4_000_000),
    radius=st.floats(1.0, 12.0),
)
def test_traffic_monotone_in_scene_size(num_gaussians, radius):
    small = make_workload(num_gaussians=num_gaussians, mean_radius_px=radius)
    big = make_workload(num_gaussians=num_gaussians * 2, mean_radius_px=radius)
    assert tile_centric_traffic(big).total_bytes > tile_centric_traffic(small).total_bytes
    assert streaming_traffic(big).total_bytes > streaming_traffic(small).total_bytes


# ---------------------------------------------------------------------------
# build_workload from measured statistics
# ---------------------------------------------------------------------------
def test_build_workload_from_simulated_scene():
    model = make_model(num_gaussians=400, extent=8.0, scale=0.1, seed=20)
    camera = make_camera(width=64, height=48, distance=8.0)
    tile_output = TileRasterizer().render(model, camera)
    renderer = StreamingRenderer(model, StreamingConfig(voxel_size=2.0, use_vq=False))
    streaming_output = renderer.render(camera)
    descriptor = SCENE_REGISTRY["train"]
    workload = build_workload(
        descriptor=descriptor,
        tile_stats=tile_output.stats,
        projected=tile_output.projected,
        streaming_stats=streaming_output.stats,
        num_voxels=renderer.grid.num_voxels,
        sim_width=camera.width,
        sim_focal=camera.fx,
    )
    assert workload.num_gaussians == descriptor.full_num_gaussians
    assert workload.width, workload.height == descriptor.full_resolution
    assert 0 < workload.visible_fraction <= 1.0
    assert workload.mean_radius_px > 0
    assert workload.voxels_per_ray > 0
    assert workload.blend_efficiency > 0
