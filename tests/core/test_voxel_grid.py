"""Tests for the voxel grid partition and cross-boundary detection."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.voxel_grid import VoxelGrid, cross_boundary_mask
from repro.engine.bench import benchmark_scene
from repro.gaussians.model import GaussianModel
from tests.conftest import empty_model, make_model, voxel_box


@pytest.fixture
def grid_and_model():
    model = make_model(num_gaussians=400, extent=8.0, seed=4)
    grid = VoxelGrid.build(model, voxel_size=2.0)
    return grid, model


def test_build_validation(small_model):
    with pytest.raises(ValueError):
        VoxelGrid.build(small_model, voxel_size=0.0)
    with pytest.raises(ValueError):
        VoxelGrid.build(empty_model(), voxel_size=1.0)


def with_outlier(model, row, position):
    positions = np.array(model.positions)
    positions[row] = position
    return replace(model, positions=positions)


def test_far_outlier_beyond_int64_voxels_is_rejected():
    # ceil(1e19 / 1.0) used to wrap to one voxel along x.
    model = with_outlier(benchmark_scene(num_gaussians=100, seed=3), 5, (1e19, 0.0, 0.0))
    with pytest.raises(ValueError, match="int64"):
        VoxelGrid.build(model, voxel_size=1.0)


def test_raw_id_range_beyond_int64_is_rejected():
    # Each axis fits in int64 but the product of the three does not.
    model = with_outlier(benchmark_scene(num_gaussians=100, seed=3), 5, (1e7, 1e7, 1e7))
    with pytest.raises(ValueError, match="int64"):
        VoxelGrid.build(model, voxel_size=1.0)


def test_far_outlier_within_int64_gets_its_own_voxel():
    clean = benchmark_scene(num_gaussians=100, seed=3)
    model = with_outlier(clean, 5, (1e4, 0.0, 0.0))
    grid = VoxelGrid.build(model, voxel_size=1.0)
    assert grid.dims[0] > 1e4
    assert grid.num_voxels == VoxelGrid.build(clean, voxel_size=1.0).num_voxels + 1


def test_every_gaussian_assigned_exactly_once(grid_and_model):
    grid, model = grid_and_model
    assert grid.voxel_counts.sum() == len(model)
    all_indices = np.concatenate(
        [grid.gaussians_in_voxel(v) for v in range(grid.num_voxels)]
    )
    assert sorted(all_indices.tolist()) == list(range(len(model)))


def test_gaussians_lie_inside_their_voxel(grid_and_model):
    grid, model = grid_and_model
    for voxel_id in range(grid.num_voxels):
        lo, hi = voxel_box(grid, voxel_id)
        members = grid.gaussians_in_voxel(voxel_id)
        positions = model.positions[members]
        assert np.all(positions >= lo - 1e-4)
        assert np.all(positions <= hi + 1e-4)


def test_renaming_is_dense(grid_and_model):
    grid, _ = grid_and_model
    renamed = sorted(grid.raw_to_renamed.values())
    assert renamed == list(range(grid.num_voxels))
    assert grid.num_voxels <= int(np.prod(grid.dims))


def test_rename_of_empty_voxel_is_negative(grid_and_model):
    grid, _ = grid_and_model
    # Out-of-range raw ids always map to -1.
    num_raw = int(np.prod(grid.dims))
    assert grid.rename(num_raw + 10) == -1
    # If the spatial grid has empty cells, they must map to -1 as well.
    occupied_raw = set(int(r) for r in grid.renamed_to_raw)
    empty_raw = next(
        (r for r in range(num_raw) if r not in occupied_raw), None
    )
    if empty_raw is not None:
        assert grid.rename(empty_raw) == -1


def test_gaussians_in_voxel_bounds_checked(grid_and_model):
    grid, _ = grid_and_model
    with pytest.raises(IndexError):
        grid.gaussians_in_voxel(grid.num_voxels)


def test_contiguous_storage_order(grid_and_model):
    grid, model = grid_and_model
    lists = [grid.gaussians_in_voxel(v) for v in range(grid.num_voxels)]
    assert len(lists) == grid.num_voxels
    assert sum(len(lst) for lst in lists) == len(model)


def test_cross_boundary_small_gaussians_rare():
    """Tiny Gaussians are only flagged when they hug a voxel boundary."""
    positions = np.array([[1.0, 1.0, 1.0], [1.999, 1.0, 1.0]])
    model = GaussianModel(
        positions=positions,
        scales=np.full((2, 3), 0.01),
        rotations=np.tile([1.0, 0, 0, 0], (2, 1)),
        opacities=np.full(2, 0.5),
        sh_dc=np.zeros((2, 3)),
    )
    mask = cross_boundary_mask(model, voxel_size=2.0, origin=np.zeros(3))
    assert not mask[0]     # centred in its voxel, far from every boundary
    assert mask[1]         # 0.001 away from the boundary at x = 2.0


def test_cross_boundary_detects_spanning_gaussian():
    model = GaussianModel(
        positions=np.array([[1.95, 1.0, 1.0], [1.0, 1.0, 1.0]]),
        scales=np.array([[0.2, 0.01, 0.01], [0.01, 0.01, 0.01]]),
        rotations=np.tile([1.0, 0, 0, 0], (2, 1)),
        opacities=np.full(2, 0.5),
        sh_dc=np.zeros((2, 3)),
    )
    mask = cross_boundary_mask(model, voxel_size=2.0, origin=np.zeros(3))
    assert mask[0]
    assert not mask[1]


def test_cross_boundary_empty_model():
    assert cross_boundary_mask(empty_model(), 1.0).shape == (0,)


def test_cross_boundary_invalid_voxel_size(small_model):
    with pytest.raises(ValueError):
        cross_boundary_mask(small_model, 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500), voxel_size=st.floats(0.5, 4.0))
def test_grid_partition_is_permutation(seed, voxel_size):
    model = make_model(num_gaussians=120, extent=6.0, seed=seed)
    grid = VoxelGrid.build(model, voxel_size=voxel_size)
    order = np.sort(grid.gaussian_order)
    np.testing.assert_array_equal(order, np.arange(len(model)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_smaller_voxels_flag_more_crossings(seed):
    model = make_model(num_gaussians=150, extent=6.0, scale=0.1, seed=seed)
    coarse = cross_boundary_mask(model, voxel_size=3.0).mean()
    fine = cross_boundary_mask(model, voxel_size=0.75).mean()
    assert fine >= coarse
