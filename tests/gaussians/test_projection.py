"""Tests for EWA projection."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.projection import (
    build_covariance_3d,
    coarse_project_centers,
    project_covariance_2d,
    project_gaussians,
    quaternion_to_rotation_matrix,
)
from tests.conftest import empty_model, make_camera, make_model


def test_quaternion_identity():
    rot = quaternion_to_rotation_matrix(np.array([[1.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(rot[0], np.eye(3), atol=1e-12)


def test_quaternion_90deg_about_z():
    q = np.array([[np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)]])
    rot = quaternion_to_rotation_matrix(q)[0]
    np.testing.assert_allclose(rot @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    q=st.lists(
        st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=4, max_size=4
    ).filter(lambda q: sum(abs(x) for x in q) > 1e-3)
)
def test_quaternion_matrices_are_rotations(q):
    rot = quaternion_to_rotation_matrix(np.array([q]))[0]
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-6)
    assert np.isclose(np.linalg.det(rot), 1.0, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_covariance_3d_is_positive_semidefinite(seed):
    rng = np.random.default_rng(seed)
    scales = rng.lognormal(0.0, 0.5, size=(8, 3))
    quats = rng.normal(size=(8, 4))
    cov = build_covariance_3d(scales, quats)
    for c in cov:
        np.testing.assert_allclose(c, c.T, atol=1e-9)
        eigenvalues = np.linalg.eigvalsh(c)
        assert np.all(eigenvalues >= -1e-9)


def test_covariance_eigenvalues_match_scales():
    scales = np.array([[0.5, 1.0, 2.0]])
    quats = np.array([[1.0, 0.0, 0.0, 0.0]])
    cov = build_covariance_3d(scales, quats)[0]
    np.testing.assert_allclose(np.sort(np.diag(cov)), np.sort(scales[0] ** 2), atol=1e-9)


def test_projected_covariance_is_psd(small_model):
    camera = make_camera()
    means_cam = camera.world_to_camera(small_model.positions)
    cov3d = build_covariance_3d(small_model.scales, small_model.rotations)
    w = camera.rotation
    cov_cam = np.einsum("ij,njk,lk->nil", w, cov3d, w)
    cov2d = project_covariance_2d(cov_cam, means_cam, camera)
    dets = cov2d[:, 0, 0] * cov2d[:, 1, 1] - cov2d[:, 0, 1] ** 2
    assert np.all(dets > 0)
    assert np.all(cov2d[:, 0, 0] > 0)


def test_project_gaussians_shapes(small_model):
    camera = make_camera()
    projected = project_gaussians(small_model, camera)
    n = len(small_model)
    assert projected.means2d.shape == (n, 2)
    assert projected.conics.shape == (n, 3)
    assert projected.colors.shape == (n, 3)
    assert projected.valid.dtype == bool
    assert projected.num_valid > 0


def test_project_gaussians_subset_indices(small_model):
    camera = make_camera()
    subset = project_gaussians(small_model, camera, indices=np.array([2, 4, 6]))
    assert len(subset) == 3
    full = project_gaussians(small_model, camera)
    np.testing.assert_allclose(subset.means2d[1], full.means2d[4])


def test_project_empty_model():
    camera = make_camera()
    empty = empty_model()
    projected = project_gaussians(empty, camera)
    assert len(projected) == 0
    assert projected.num_valid == 0


def test_behind_camera_marked_invalid():
    camera = make_camera(distance=2.0)
    model = make_model(num_gaussians=20, extent=0.5)
    # Put half of the Gaussians far behind the camera.
    positions = np.array(model.positions)
    positions[:10, 0] = 50.0
    model = replace(model, positions=positions)
    projected = project_gaussians(model, camera)
    assert not projected.valid[:10].any()
    assert projected.valid[10:].any()


def test_projected_rows_do_not_depend_on_batch_size():
    camera = make_camera()
    model = make_model(num_gaussians=64, seed=9)
    batch = project_gaussians(model, camera, indices=np.arange(len(model)))
    for i in range(len(model)):
        one = project_gaussians(model, camera, indices=np.array([i]))
        for field in ("means2d", "depths", "conics", "radii", "colors", "valid"):
            np.testing.assert_array_equal(getattr(one, field)[0], getattr(batch, field)[i])


def test_projected_center_matches_camera_projection(small_model):
    camera = make_camera()
    projected = project_gaussians(small_model, camera)
    pixels, _ = camera.project(small_model.positions)
    np.testing.assert_allclose(projected.means2d, pixels, atol=1e-9)


def test_radii_grow_with_scale():
    camera = make_camera()
    base = make_model(num_gaussians=30, scale=0.05, seed=7)
    bigger = replace(base, scales=base.scales * 4.0)
    r_small = project_gaussians(base, camera).radii
    r_big = project_gaussians(bigger, camera).radii
    valid = project_gaussians(base, camera).valid
    assert np.all(r_big[valid] >= r_small[valid])


def test_coarse_radius_is_conservative(small_model):
    """The coarse-filter radius must over-approximate the precise radius."""
    camera = make_camera()
    projected = project_gaussians(small_model, camera)
    _, depths, coarse_radii = coarse_project_centers(
        small_model.positions, small_model.max_scales, camera
    )
    valid = projected.valid & (depths > camera.near)
    assert np.all(coarse_radii[valid] >= projected.radii[valid] - 1e-6)


def test_coarse_centers_match_projection(small_model):
    camera = make_camera()
    means, depths, _ = coarse_project_centers(
        small_model.positions, small_model.max_scales, camera
    )
    pixels, proj_depths = camera.project(small_model.positions)
    np.testing.assert_allclose(means, pixels, atol=1e-9)
    np.testing.assert_allclose(depths, proj_depths, atol=1e-9)
