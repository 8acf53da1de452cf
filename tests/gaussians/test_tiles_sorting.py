"""Tests for tile binning and depth sorting."""

import numpy as np
import pytest

from repro.gaussians.projection import project_gaussians
from repro.gaussians.sorting import (
    GlobalSortStats,
    global_sort_statistics,
    sort_tile_gaussians,
)
from repro.gaussians.tiles import TileGrid, bin_gaussians_to_tiles
from tests.conftest import make_camera, make_model


@pytest.fixture
def projected_and_grid():
    camera = make_camera(width=64, height=48)
    model = make_model(num_gaussians=150, seed=3)
    projected = project_gaussians(model, camera)
    grid = TileGrid(camera.width, camera.height, tile_size=16)
    return projected, grid


def test_tile_grid_dimensions():
    grid = TileGrid(width=65, height=48, tile_size=16)
    assert grid.tiles_x == 5
    assert grid.tiles_y == 3
    assert grid.num_tiles == 15


def test_tile_grid_validation():
    with pytest.raises(ValueError):
        TileGrid(width=0, height=10)
    with pytest.raises(ValueError):
        TileGrid(width=10, height=10, tile_size=0)


def test_tile_id_roundtrip():
    grid = TileGrid(width=64, height=64, tile_size=16)
    for tid in range(grid.num_tiles):
        tx, ty = grid.tile_coords(tid)
        assert grid.tile_id(tx, ty) == tid


def test_tile_pixel_bounds_cover_image_exactly():
    grid = TileGrid(width=50, height=30, tile_size=16)
    covered = np.zeros((30, 50), dtype=int)
    for tid in range(grid.num_tiles):
        x0, y0, x1, y1 = grid.tile_pixel_bounds(tid)
        covered[y0:y1, x0:x1] += 1
    assert np.all(covered == 1)


def test_tile_pixel_centers_count():
    grid = TileGrid(width=50, height=30, tile_size=16)
    xs, ys = grid.tile_pixel_centers(grid.num_tiles - 1)
    x0, y0, x1, y1 = grid.tile_pixel_bounds(grid.num_tiles - 1)
    assert len(xs) == (x1 - x0) * (y1 - y0)


def test_gaussian_tile_range_offscreen():
    grid = TileGrid(width=64, height=64, tile_size=16)
    means = np.array([[1000.0, 1000.0], [32.0, 32.0]])
    radii = np.array([5.0, 5.0])
    ranges = grid.gaussian_tile_range(means, radii)
    assert ranges[0, 2] < ranges[0, 0]      # off-screen -> empty range
    assert ranges[1, 2] >= ranges[1, 0]


def test_huge_footprint_covers_every_tile():
    # A radius far beyond int64 pixels is clipped to the grid, not wrapped.
    grid = TileGrid(width=40, height=28, tile_size=8)
    ranges = grid.gaussian_tile_range(np.array([[20.0, 14.0]]), np.array([1e31]))
    assert ranges.tolist() == [[0, 0, grid.tiles_x - 1, grid.tiles_y - 1]]


def test_binning_covers_projected_extent(projected_and_grid):
    projected, grid = projected_and_grid
    binning = bin_gaussians_to_tiles(projected, grid)
    assert binning.num_duplicates >= projected.num_valid * 0 and binning.num_duplicates > 0
    # Every duplicated entry is a valid Gaussian index.
    for indices in binning.tile_lists.values():
        assert np.all(projected.valid[indices])


def test_binning_duplicate_count_matches_lists(projected_and_grid):
    projected, grid = projected_and_grid
    binning = bin_gaussians_to_tiles(projected, grid)
    assert binning.num_duplicates == sum(len(v) for v in binning.tile_lists.values())


def test_gaussian_lands_in_tile_containing_its_center(projected_and_grid):
    projected, grid = projected_and_grid
    binning = bin_gaussians_to_tiles(projected, grid)
    for gid in np.flatnonzero(projected.valid)[:50]:
        x, y = projected.means2d[gid]
        if not (0 <= x < grid.width and 0 <= y < grid.height):
            continue
        tid = grid.tile_id(int(x // grid.tile_size), int(y // grid.tile_size))
        assert gid in binning.tile_lists.get(tid, [])


def test_sorted_lists_are_depth_ordered(projected_and_grid):
    projected, grid = projected_and_grid
    binning = bin_gaussians_to_tiles(projected, grid)
    sorted_lists = sort_tile_gaussians(projected, binning)
    for indices in sorted_lists.values():
        depths = projected.depths[indices]
        assert np.all(np.diff(depths) >= -1e-9)


def test_sort_preserves_membership(projected_and_grid):
    projected, grid = projected_and_grid
    binning = bin_gaussians_to_tiles(projected, grid)
    sorted_lists = sort_tile_gaussians(projected, binning)
    for tid, indices in binning.tile_lists.items():
        assert sorted(sorted_lists[tid].tolist()) == sorted(indices.tolist())


def test_global_sort_statistics(projected_and_grid):
    projected, grid = projected_and_grid
    binning = bin_gaussians_to_tiles(projected, grid)
    stats = global_sort_statistics(binning)
    assert isinstance(stats, GlobalSortStats)
    assert stats.num_pairs == binning.num_duplicates
    assert stats.total_bytes == stats.key_bytes_read + stats.key_bytes_written
    assert stats.total_bytes > 0
