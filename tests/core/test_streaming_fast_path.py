"""Golden-equivalence suite for the vectorized streaming render path.

The acceptance bar of the streaming frame path: across scenes,
compression variants and filter configurations, the frame path
(``StreamingConfig.streaming_kernel="vectorized"``) must produce images
within 1e-9 of the voxel-at-a-time reference loop and *exactly* equal
workload statistics — fragment counts, hierarchical-filter reductions,
DRAM traffic, sort-list shapes and depth-order violation sets.  The same
bar applies to the batched building blocks (frame-level hierarchical
filter, DDA traversal, traffic accounting) against their serial
counterparts, and to process-parallel frames against one-process frames.
Randomized and degenerate inputs live in ``test_frame_path_differential``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StreamingConfig
from repro.core.data_layout import DataLayout, LayoutTraffic
from repro.core.hierarchical_filter import FilterStats, HierarchicalFilter
from repro.core.pipeline import StreamingRenderer
from repro.core.ray_voxel import _tile_ray_pixels, traverse_ray, traverse_rays
from repro.core.voxel_grid import VoxelGrid
from repro.engine.bench import streaming_stats_equal
from repro.engine.kernels import RENDER_PATHS
from repro.gaussians.tiles import TileGrid
from tests.conftest import make_camera, make_model

GOLDEN_ATOL = 1e-9

#: Two scene shapes: a mid-density cloud and a dense, near-opaque cloud
#: whose saturated tiles exercise the voxel-granular early termination.
SCENES = {
    "sparse": dict(num_gaussians=300, extent=5.0, scale=0.1, seed=3, opacity=0.8),
    "opaque": dict(num_gaussians=1200, extent=3.0, scale=0.25, seed=11, opacity=0.98),
}

#: Per-scene render geometry (the opaque scene is viewed close up through
#: small voxels so whole tiles saturate mid-stream).
SCENE_SETUP = {
    "sparse": dict(voxel_size=0.8, distance=5.0),
    "opaque": dict(voxel_size=0.6, distance=4.0),
}


def render_pair(scene: str, **config_options):
    model = make_model(**SCENES[scene])
    camera = make_camera(width=48, height=32, distance=SCENE_SETUP[scene]["distance"])
    base = StreamingConfig(
        voxel_size=SCENE_SETUP[scene]["voxel_size"], **config_options
    )
    outputs = {}
    for kernel in RENDER_PATHS:
        renderer = StreamingRenderer(
            model, base.with_options(streaming_kernel=kernel)
        )
        outputs[kernel] = renderer.render(camera)
    return outputs["reference"], outputs["vectorized"]


class TestStreamingGoldenEquivalence:
    @pytest.mark.parametrize("scene", sorted(SCENES))
    @pytest.mark.parametrize("use_vq", [False, True])
    @pytest.mark.parametrize("use_coarse_filter", [False, True])
    def test_vectorized_path_matches_reference(self, scene, use_vq, use_coarse_filter):
        reference, vectorized = render_pair(
            scene, use_vq=use_vq, use_coarse_filter=use_coarse_filter
        )
        np.testing.assert_allclose(
            vectorized.image, reference.image, atol=GOLDEN_ATOL
        )
        np.testing.assert_allclose(
            vectorized.alpha, reference.alpha, atol=GOLDEN_ATOL
        )
        equal, detail = streaming_stats_equal(reference.stats, vectorized.stats)
        assert equal, detail

    def test_early_termination_truncates_statistics_identically(self):
        """Saturated tiles stop streaming voxels at the same point."""
        reference, vectorized = render_pair("opaque", use_vq=False)
        # The opaque scene must actually terminate early somewhere, or the
        # scenario is untested.
        renderer = StreamingRenderer(
            make_model(**SCENES["opaque"]),
            StreamingConfig(voxel_size=SCENE_SETUP["opaque"]["voxel_size"], use_vq=False),
        )
        preparation = renderer.prepare_frame(
            make_camera(width=48, height=32, distance=SCENE_SETUP["opaque"]["distance"])
        )
        total_order_entries = sum(
            len(order.order) for order in preparation.tile_orders.values()
        )
        assert reference.stats.num_tile_voxel_pairs < total_order_entries
        assert (
            vectorized.stats.num_tile_voxel_pairs
            == reference.stats.num_tile_voxel_pairs
        )
        assert vectorized.stats.filter == reference.stats.filter
        assert vectorized.stats.traffic == reference.stats.traffic

    def test_streaming_kernel_is_validated(self):
        with pytest.raises(ValueError, match="streaming_kernel"):
            StreamingConfig(streaming_kernel="nope")

    def test_default_streaming_kernel_is_vectorized(self):
        assert StreamingConfig().streaming_kernel == "vectorized"
        assert set(RENDER_PATHS) == {"reference", "vectorized"}


class TestFrameTelemetry:
    """What path ran and where its time went, without a profiler."""

    def test_stages_cover_the_frame(self):
        model = make_model(num_gaussians=1500, extent=5.0, scale=0.1, seed=21)
        camera = make_camera(width=160, height=96, distance=7.0)
        renderer = StreamingRenderer(
            model, StreamingConfig(voxel_size=0.6, use_vq=False)
        )
        telemetry = renderer.render(camera).telemetry
        assert telemetry["path"] == "frame"
        assert telemetry["tile_mode"] == "serial"
        stages = telemetry["stages_s"]
        assert list(stages) == ["prepare", "filter", "blend", "account"]
        assert all(seconds > 0.0 for seconds in stages.values())
        assert 0.95 * telemetry["seconds"] <= sum(stages.values()) <= telemetry["seconds"]

    def test_reference_path_reports_its_loop(self):
        model = make_model(num_gaussians=120, extent=4.0, seed=2)
        renderer = StreamingRenderer(
            model,
            StreamingConfig(voxel_size=1.0, use_vq=False, streaming_kernel="reference"),
        )
        telemetry = renderer.render(make_camera(width=32, height=24)).telemetry
        assert telemetry["path"] == "reference"
        assert list(telemetry["stages_s"]) == ["prepare", "reference"]


class TestBatchedHierarchicalFilter:
    """The frame-level filter against one ``filter_voxel`` call per voxel."""

    #: Three tiles with overlapping voxel orders (every voxel, the odd
    #: ones reversed, and a short prefix) over different pixel rectangles.
    TILE_BOUNDS = [(16, 0, 48, 32), (0, 16, 32, 48), (40, 8, 64, 24)]

    @pytest.fixture
    def scene(self):
        model = make_model(num_gaussians=400, extent=6.0, seed=8)
        grid = VoxelGrid.build(model, voxel_size=1.2)
        camera = make_camera(width=64, height=48, distance=7.0)
        voxels = np.arange(grid.num_voxels, dtype=np.int64)
        orders = [voxels, voxels[1::2][::-1].copy(), voxels[:5]]
        return model, grid, camera, orders

    @pytest.mark.parametrize("use_coarse_filter", [False, True])
    def test_batch_matches_serial_per_voxel(self, scene, use_coarse_filter):
        model, grid, camera, orders = scene
        hfilter = HierarchicalFilter(use_coarse_filter=use_coarse_filter)
        batch = hfilter.filter_voxel_batch(
            model, grid, orders, self.TILE_BOUNDS, camera
        )
        stream_starts = np.concatenate(([0], np.cumsum(batch.fine_passed)))
        slot = 0
        for tile, (order, bounds) in enumerate(zip(orders, self.TILE_BOUNDS)):
            assert batch.voxel_offsets[tile] == slot
            assert batch.stream_offsets[tile] == stream_starts[slot]
            for voxel in order:
                serial = hfilter.filter_voxel(
                    model, grid.gaussians_in_voxel(voxel), camera, bounds
                )
                assert batch.voxels[slot] == voxel
                assert batch.stats_of(slice(slot, slot + 1)) == serial.stats
                count = int(batch.fine_passed[slot])
                assert count == len(serial.indices)
                # Survivors stream in the reference loop's per-voxel
                # stable depth order.
                depth_order = np.argsort(serial.projected.depths, kind="stable")
                rows = batch.stream_rows[stream_starts[slot] : stream_starts[slot] + count]
                np.testing.assert_array_equal(
                    batch.union[rows], serial.indices[depth_order]
                )
                # Projection math is row-independent but BLAS kernels may
                # pick different instruction paths per batch size, so
                # survivor projections agree to the last few ulps.
                for name in ("depths", "means2d", "conics", "colors"):
                    np.testing.assert_allclose(
                        getattr(batch.projected, name)[rows],
                        getattr(serial.projected, name)[depth_order],
                        rtol=1e-12,
                        atol=1e-12,
                    )
                slot += 1
        assert slot == len(batch.voxels)

    def test_prefix_stats_matches_serial_accumulation(self, scene):
        model, grid, camera, orders = scene
        hfilter = HierarchicalFilter()
        batch = hfilter.filter_voxel_batch(
            model, grid, orders, self.TILE_BOUNDS, camera
        )
        for tile, (order, bounds) in enumerate(zip(orders, self.TILE_BOUNDS)):
            first = int(batch.voxel_offsets[tile])
            accumulated = FilterStats()
            assert batch.stats_of(slice(first, first)) == accumulated
            for position, voxel in enumerate(order):
                accumulated = accumulated.merge(
                    hfilter.filter_voxel(
                        model, grid.gaussians_in_voxel(voxel), camera, bounds
                    ).stats
                )
                assert batch.stats_of(slice(first, first + position + 1)) == accumulated

    def test_empty_batch(self, scene):
        model, grid, camera, _ = scene
        hfilter = HierarchicalFilter()
        batch = hfilter.filter_voxel_batch(model, grid, [], [], camera)
        assert list(batch.voxel_offsets) == [0]
        assert len(batch.voxels) == 0
        assert len(batch.stream_rows) == 0
        empty_tiles = hfilter.filter_voxel_batch(
            model,
            grid,
            [np.zeros(0, dtype=np.int64)] * 2,
            [(0, 0, 16, 16), (16, 0, 32, 16)],
            camera,
        )
        assert len(empty_tiles.projected) == 0
        assert list(empty_tiles.stream_offsets) == [0, 0, 0]
        assert empty_tiles.stats_of(slice(0, 0)) == FilterStats()


#: Strategy for one random-but-valid FilterStats record.
filter_stats = st.builds(
    FilterStats,
    gaussians_in=st.integers(0, 10_000),
    coarse_tested=st.integers(0, 10_000),
    coarse_passed=st.integers(0, 10_000),
    fine_tested=st.integers(0, 10_000),
    fine_passed=st.integers(0, 10_000),
    coarse_macs=st.integers(0, 10_000_000),
    fine_macs=st.integers(0, 10_000_000),
)


class TestFilterStatsMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(a=filter_stats, b=filter_stats, c=filter_stats)
    def test_merge_is_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=50, deadline=None)
    @given(a=filter_stats, b=filter_stats)
    def test_merge_commutes(self, a, b):
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=50, deadline=None)
    @given(a=filter_stats)
    def test_empty_is_identity(self, a):
        assert a.merge(FilterStats()) == a
        assert FilterStats().merge(a) == a


class TestBatchedTraversal:
    def test_batch_matches_scalar_per_ray(self):
        model = make_model(num_gaussians=500, extent=5.0, seed=9)
        grid = VoxelGrid.build(model, 0.7)
        camera = make_camera(width=64, height=48)
        tile_grid = TileGrid(64, 48, 16)
        for tile_id in range(tile_grid.num_tiles):
            px, py = _tile_ray_pixels(tile_grid.tile_pixel_bounds(tile_id), 4)
            origins, directions = camera.pixel_rays(px, py)
            batch = traverse_rays(grid, origins, directions)
            for ray in range(len(origins)):
                assert list(batch[ray]) == traverse_ray(
                    grid, origins[ray], directions[ray]
                )

    def test_max_voxels_bound_respected(self):
        model = make_model(num_gaussians=300, extent=5.0, seed=4)
        grid = VoxelGrid.build(model, 0.3)
        camera = make_camera(width=32, height=32)
        px, py = _tile_ray_pixels((0, 0, 32, 32), 8)
        origins, directions = camera.pixel_rays(px, py)
        short = traverse_rays(grid, origins, directions, max_voxels=3)
        full = traverse_rays(grid, origins, directions)
        for bounded, reference in zip(short, full):
            assert len(bounded) <= 3
            assert list(bounded) == list(reference[: len(bounded)])

    def test_zero_direction_raises(self):
        model = make_model(num_gaussians=50, seed=1)
        grid = VoxelGrid.build(model, 1.0)
        with pytest.raises(ValueError, match="non-zero"):
            traverse_rays(grid, np.zeros((1, 3)), np.zeros((1, 3)))


class TestBatchedTraffic:
    def test_batch_matches_per_voxel_merge(self):
        model = make_model(num_gaussians=400, extent=5.0, seed=6)
        grid = VoxelGrid.build(model, 1.0)
        layout = DataLayout(grid=grid, use_vq=False)
        rng = np.random.default_rng(0)
        voxel_ids = np.arange(grid.num_voxels, dtype=np.int64)
        passed = rng.integers(0, grid.voxel_counts + 1)
        merged = LayoutTraffic()
        for voxel_id, count in zip(voxel_ids, passed):
            merged = merged.merge(
                layout.voxel_stream_traffic(int(voxel_id), int(count))
            )
        assert layout.voxel_stream_traffic_batch(voxel_ids, passed) == merged

    def test_batch_validates_bounds(self):
        model = make_model(num_gaussians=100, seed=2)
        grid = VoxelGrid.build(model, 1.0)
        layout = DataLayout(grid=grid, use_vq=False)
        with pytest.raises(ValueError):
            layout.voxel_stream_traffic_batch(
                np.array([0]), np.array([int(grid.voxel_counts[0]) + 1])
            )
        assert layout.voxel_stream_traffic_batch(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        ) == LayoutTraffic()


class TestParallelTileRendering:
    @pytest.mark.parametrize("streaming_kernel", RENDER_PATHS)
    def test_parallel_tiles_match_serial(self, streaming_kernel):
        model = make_model(num_gaussians=350, extent=5.0, scale=0.12, seed=5)
        camera = make_camera(width=64, height=48, distance=6.0)
        renderer = StreamingRenderer(
            model,
            StreamingConfig(
                voxel_size=1.0, use_vq=False, streaming_kernel=streaming_kernel
            ),
        )
        serial = renderer.render(camera)
        parallel = renderer.render(camera, tile_workers=4)
        # Tiles are independent: images are identical, not merely close.
        np.testing.assert_array_equal(parallel.image, serial.image)
        np.testing.assert_array_equal(parallel.alpha, serial.alpha)
        equal, detail = streaming_stats_equal(serial.stats, parallel.stats)
        assert equal, detail
        assert parallel.telemetry["tile_workers"] == 4
        assert serial.telemetry["tile_workers"] == 1

    def test_parallel_render_is_deterministic(self):
        model = make_model(num_gaussians=250, extent=4.0, seed=12)
        camera = make_camera(width=48, height=32)
        renderer = StreamingRenderer(
            model, StreamingConfig(voxel_size=1.0, use_vq=False)
        )
        first = renderer.render(camera, tile_workers=3)
        second = renderer.render(camera, tile_workers=3)
        np.testing.assert_array_equal(first.image, second.image)
        np.testing.assert_array_equal(
            first.stats.gaussian_blend_weight, second.stats.gaussian_blend_weight
        )
        assert first.stats.sort_list_lengths == second.stats.sort_list_lengths

    def test_tile_workers_validated(self):
        model = make_model(num_gaussians=50, seed=1)
        renderer = StreamingRenderer(model, StreamingConfig(voxel_size=1.0, use_vq=False))
        with pytest.raises(ValueError, match="tile_workers"):
            renderer.render(make_camera(width=32, height=32), tile_workers=0)
