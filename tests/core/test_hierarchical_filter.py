"""Tests for the two-phase hierarchical filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchical_filter import (
    COARSE_FILTER_MACS,
    FINE_FILTER_MACS,
    FilterStats,
    HierarchicalFilter,
    _overlaps_tile,
)
from repro.core.voxel_grid import VoxelGrid
from repro.gaussians.projection import coarse_project_centers, project_gaussians
from tests.conftest import make_camera, make_model


def coarse_filter_is_sound(model, voxel_indices, camera, tile_bounds):
    """True when no Gaussian rejected by the coarse phase would pass the fine phase.

    The coarse radius is a conservative over-approximation, so coarse
    rejection must imply fine rejection.
    """
    voxel_indices = np.asarray(voxel_indices, dtype=np.int64)
    means2d, depths, coarse_radii = coarse_project_centers(
        model.positions[voxel_indices], model.max_scales[voxel_indices], camera
    )
    coarse_pass = _overlaps_tile(means2d, coarse_radii, depths, tile_bounds, camera.near)
    rejected = voxel_indices[~coarse_pass]
    if len(rejected) == 0:
        return True
    projected = project_gaussians(model, camera, sh_degree=0, indices=rejected)
    fine_pass = projected.valid & _overlaps_tile(
        projected.means2d, projected.radii, projected.depths, tile_bounds, camera.near
    )
    return not bool(np.any(fine_pass))


@pytest.fixture
def scene():
    model = make_model(num_gaussians=400, extent=6.0, seed=8)
    grid = VoxelGrid.build(model, voxel_size=1.5)
    camera = make_camera(width=64, height=48, distance=7.0)
    return model, grid, camera


def test_mac_constants_match_paper():
    assert COARSE_FILTER_MACS == 55
    assert FINE_FILTER_MACS == 427


def test_filter_stats_merge():
    a = FilterStats(gaussians_in=10, coarse_tested=10, coarse_passed=5, fine_tested=5, fine_passed=2)
    b = FilterStats(gaussians_in=4, coarse_tested=4, coarse_passed=4, fine_tested=4, fine_passed=4)
    merged = a.merge(b)
    assert merged.gaussians_in == 14
    assert merged.fine_passed == 6
    assert 0 <= merged.overall_reduction <= 1


def test_filter_stats_empty_rates():
    empty = FilterStats()
    assert empty.overall_reduction == 0.0


def test_filter_empty_voxel(scene):
    model, grid, camera = scene
    result = HierarchicalFilter().filter_voxel(model, np.array([], dtype=np.int64), camera, (0, 0, 16, 16))
    assert len(result.indices) == 0
    assert result.stats.gaussians_in == 0


def test_filter_counts_consistent(scene):
    model, grid, camera = scene
    hfilter = HierarchicalFilter()
    tile = (16, 16, 32, 32)
    total = FilterStats()
    for voxel_id in range(grid.num_voxels):
        result = hfilter.filter_voxel(model, grid.gaussians_in_voxel(voxel_id), camera, tile)
        stats = result.stats
        assert stats.coarse_passed <= stats.coarse_tested
        assert stats.fine_passed <= stats.fine_tested
        assert stats.fine_tested == stats.coarse_passed
        assert len(result.indices) == stats.fine_passed
        total = total.merge(stats)
    assert total.gaussians_in == len(model)
    assert total.coarse_macs == COARSE_FILTER_MACS * total.coarse_tested
    assert total.fine_macs == FINE_FILTER_MACS * total.fine_tested


def test_survivors_overlap_tile(scene):
    """Every survivor's precise footprint must overlap the tile rectangle."""
    model, grid, camera = scene
    hfilter = HierarchicalFilter()
    tile = (0, 0, 32, 24)
    x0, y0, x1, y1 = tile
    for voxel_id in range(grid.num_voxels):
        result = hfilter.filter_voxel(model, grid.gaussians_in_voxel(voxel_id), camera, tile)
        p = result.projected
        for i in range(len(result.indices)):
            assert p.means2d[i, 0] + p.radii[i] >= x0
            assert p.means2d[i, 0] - p.radii[i] < x1
            assert p.means2d[i, 1] + p.radii[i] >= y0
            assert p.means2d[i, 1] - p.radii[i] < y1


def test_disabling_coarse_filter_gives_same_survivors(scene):
    """The coarse filter is a pure optimisation: survivors must not change."""
    model, grid, camera = scene
    with_cgf = HierarchicalFilter(use_coarse_filter=True)
    without_cgf = HierarchicalFilter(use_coarse_filter=False)
    tile = (16, 0, 48, 32)
    for voxel_id in range(grid.num_voxels):
        indices = grid.gaussians_in_voxel(voxel_id)
        a = with_cgf.filter_voxel(model, indices, camera, tile)
        b = without_cgf.filter_voxel(model, indices, camera, tile)
        np.testing.assert_array_equal(a.indices, b.indices)
    # Without the coarse filter no coarse MACs are spent but more fine MACs are.
    stats_a = with_cgf.filter_voxel(model, grid.gaussians_in_voxel(0), camera, tile).stats
    stats_b = without_cgf.filter_voxel(model, grid.gaussians_in_voxel(0), camera, tile).stats
    assert stats_b.coarse_macs == 0
    assert stats_b.fine_macs >= stats_a.fine_macs


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 300))
def test_coarse_filter_soundness(seed):
    """Property: the coarse filter never rejects a Gaussian the fine filter accepts."""
    model = make_model(num_gaussians=120, extent=5.0, scale=0.12, seed=seed)
    grid = VoxelGrid.build(model, voxel_size=1.25)
    camera = make_camera(width=48, height=48, distance=6.0)
    rng = np.random.default_rng(seed)
    x0 = int(rng.integers(0, 32))
    y0 = int(rng.integers(0, 32))
    tile = (x0, y0, x0 + 16, y0 + 16)
    for voxel_id in range(grid.num_voxels):
        assert coarse_filter_is_sound(model, grid.gaussians_in_voxel(voxel_id), camera, tile)
