"""Differential tests: array-based tile binning against the nested loop."""

import numpy as np
import pytest

from repro.gaussians.projection import ProjectedGaussians, project_gaussians
from repro.gaussians.tiles import TileBinning, TileGrid, bin_gaussians_to_tiles
from tests.conftest import make_camera, make_model


def _oracle_binning(projected, grid):
    """The original per-pair loop, frozen."""
    valid_idx = np.flatnonzero(projected.valid)
    tile_lists = {}
    num_duplicates = 0
    if len(valid_idx) == 0:
        return TileBinning(tile_lists={}, num_duplicates=0)
    ranges = grid.gaussian_tile_range(
        projected.means2d[valid_idx], projected.radii[valid_idx]
    )
    for local, gid in enumerate(valid_idx):
        tx_min, ty_min, tx_max, ty_max = ranges[local]
        if tx_max < tx_min or ty_max < ty_min:
            continue
        for ty in range(ty_min, ty_max + 1):
            for tx in range(tx_min, tx_max + 1):
                tid = grid.tile_id(tx, ty)
                tile_lists.setdefault(tid, []).append(int(gid))
                num_duplicates += 1
    return TileBinning(
        tile_lists={tid: np.asarray(lst, dtype=np.int64) for tid, lst in tile_lists.items()},
        num_duplicates=num_duplicates,
    )


def _projected(means2d, radii, valid):
    n = len(radii)
    return ProjectedGaussians(
        means2d=np.asarray(means2d, dtype=np.float64).reshape(n, 2),
        depths=np.ones(n),
        conics=np.tile([1.0, 0.0, 1.0], (n, 1)),
        radii=np.asarray(radii, dtype=np.float64),
        colors=np.zeros((n, 3)),
        opacities=np.full(n, 0.5),
        valid=np.asarray(valid, dtype=bool),
    )


def _random_projected(seed, n, width, height, max_radius):
    rng = np.random.default_rng(seed)
    means = rng.uniform(-0.5, 1.5, size=(n, 2)) * [width, height]
    radii = rng.uniform(0.0, max_radius, size=n)
    return _projected(means, radii, rng.random(n) < 0.8)


def assert_same_binning(projected, grid):
    actual = bin_gaussians_to_tiles(projected, grid)
    expected = _oracle_binning(projected, grid)
    assert list(actual.tile_lists) == list(expected.tile_lists)
    assert all(type(tid) is int for tid in actual.tile_lists)
    for tid, members in expected.tile_lists.items():
        got = actual.tile_lists[tid]
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, members)
    assert actual.num_duplicates == expected.num_duplicates
    assert type(actual.num_duplicates) is int


@pytest.mark.parametrize(
    "width,height,tile_size",
    [(97, 61, 16), (64, 48, 16), (33, 17, 8), (1, 1, 16), (23, 19, 1), (5, 130, 4)],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_binning_matches_loop_on_random_frames(width, height, tile_size, seed):
    max_radius = max(width, height) / 3
    grid = TileGrid(width, height, tile_size)
    assert_same_binning(_random_projected(seed, 200, width, height, max_radius), grid)


def test_binning_matches_loop_on_projected_model():
    camera = make_camera(width=64, height=48)
    projected = project_gaussians(make_model(num_gaussians=300, seed=5), camera)
    assert_same_binning(projected, TileGrid(camera.width, camera.height))


def test_off_screen_and_invalid_gaussians_are_skipped():
    grid = TileGrid(40, 30, 8)
    means = [[-50.0, 10.0], [100.0, 10.0], [10.0, -40.0], [10.0, 90.0], [20.0, 15.0]]
    projected = _projected(means, [5.0, 5.0, 5.0, 5.0, 3.0], [True] * 5)
    assert_same_binning(projected, grid)
    tiles = [grid.tile_id(2, 1), grid.tile_id(2, 2)]
    assert list(bin_gaussians_to_tiles(projected, grid).tile_lists) == tiles
    # Nothing on screen at all.
    assert_same_binning(_projected(means[:4], [5.0] * 4, [True] * 4), grid)


def test_no_valid_gaussian():
    grid = TileGrid(40, 30, 8)
    projected = _projected([[10.0, 10.0], [20.0, 20.0]], [4.0, 4.0], [False, False])
    assert_same_binning(projected, grid)
    assert bin_gaussians_to_tiles(projected, grid).num_duplicates == 0


def test_one_gaussian_covering_every_tile():
    grid = TileGrid(45, 37, 8)
    projected = _projected([[5.0, 5.0], [22.0, 18.0], [40.0, 30.0]], [1.0, 500.0, 0.0], [True] * 3)
    assert_same_binning(projected, grid)
    binning = bin_gaussians_to_tiles(projected, grid)
    assert len(binning.tile_lists) == grid.num_tiles
    assert binning.num_duplicates == grid.num_tiles + 2


def test_gaussians_on_tile_borders():
    grid = TileGrid(64, 48, 16)
    xs, ys = np.meshgrid(np.arange(0, 65, 8.0), np.arange(0, 49, 8.0))
    means = np.stack([xs.ravel(), ys.ravel()], axis=1)
    radii = np.resize([0.0, 8.0, 16.0, 0.5], len(means))
    assert_same_binning(_projected(means, radii, np.ones(len(means), bool)), grid)
