"""Tests for the pinhole camera and trajectories."""

import numpy as np
import pytest

from repro.gaussians.camera import Camera, look_at, orbit_trajectory
from tests.conftest import make_camera


def test_lookat_rotation_is_orthonormal():
    rot = look_at(np.array([3.0, 2.0, 1.0]), np.zeros(3))
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-9)
    assert np.isclose(np.linalg.det(rot), 1.0, atol=1e-9)


def test_lookat_forward_points_at_target():
    eye = np.array([5.0, 0.0, 0.0])
    rot = look_at(eye, np.zeros(3))
    forward = rot[2]
    expected = -eye / np.linalg.norm(eye)
    np.testing.assert_allclose(forward, expected, atol=1e-9)


def test_lookat_rejects_coincident_points():
    with pytest.raises(ValueError):
        look_at(np.zeros(3), np.zeros(3))


def test_lookat_handles_view_parallel_to_up():
    rot = look_at(np.array([0.0, 0.0, 5.0]), np.zeros(3), up=(0.0, 0.0, 1.0))
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-9)


def test_camera_validation():
    with pytest.raises(ValueError):
        Camera(rotation=np.eye(3), translation=np.zeros(3), width=0, height=10, fx=10, fy=10)
    with pytest.raises(ValueError):
        Camera(rotation=np.eye(3), translation=np.zeros(3), width=10, height=10, fx=-1, fy=10)
    with pytest.raises(ValueError):
        Camera(
            rotation=np.eye(3),
            translation=np.zeros(3),
            width=10,
            height=10,
            fx=10,
            fy=10,
            near=5.0,
            far=1.0,
        )


def test_target_projects_to_image_center():
    camera = make_camera()
    pixels, depths = camera.project(np.zeros((1, 3)))
    assert depths[0] > 0
    np.testing.assert_allclose(pixels[0, 0], camera.cx, atol=1e-6)
    np.testing.assert_allclose(pixels[0, 1], camera.cy, atol=1e-6)


def test_point_behind_camera_has_negative_depth():
    camera = make_camera(distance=6.0)
    behind = np.array([[20.0, 0.5, 1.0]])
    _, depths = camera.project(behind)
    assert depths[0] < 0


def test_world_to_camera_roundtrip_depth():
    camera = make_camera()
    points = np.random.default_rng(0).uniform(-1, 1, size=(10, 3))
    cam_points = camera.world_to_camera(points)
    distances = np.linalg.norm(points - camera.position, axis=1)
    np.testing.assert_allclose(np.linalg.norm(cam_points, axis=1), distances, atol=1e-9)


def test_world_to_camera_rows_do_not_depend_on_batch_size():
    camera = make_camera()
    points = np.random.default_rng(0).uniform(-3, 3, size=(64, 3))
    batch = camera.world_to_camera(points)
    for i in range(len(points)):
        np.testing.assert_array_equal(camera.world_to_camera(points[i : i + 1])[0], batch[i])


def test_pixel_rays_are_unit_and_hit_projection():
    camera = make_camera()
    origins, directions = camera.pixel_rays(np.array([10, 20]), np.array([5, 30]))
    np.testing.assert_allclose(np.linalg.norm(directions, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(origins[0], camera.position)
    # Marching along the centre-pixel ray keeps the point projected there.
    cx, cy = int(camera.cx), int(camera.cy)
    __, dirs = camera.pixel_rays(np.array([cx]), np.array([cy]))
    point = camera.position + 4.0 * dirs[0]
    pixels, _ = camera.project(point[None, :])
    assert abs(pixels[0, 0] - (cx + 0.5)) < 1.0
    assert abs(pixels[0, 1] - (cy + 0.5)) < 1.0


def test_view_directions_are_unit(small_model):
    camera = make_camera()
    dirs = camera.view_directions(small_model.positions)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)


def test_scaled_camera():
    camera = make_camera(width=64, height=48)
    half = camera.scaled(0.5)
    assert half.width == 32
    assert half.height == 24
    np.testing.assert_allclose(half.fx, camera.fx * 0.5)


def test_orbit_trajectory_count_and_target():
    cameras = orbit_trajectory(
        center=(0, 0, 0), radius=5.0, num_views=6, width=32, height=32
    )
    assert len(cameras) == 6
    for cam in cameras:
        np.testing.assert_allclose(np.linalg.norm(cam.position), 5.0, atol=1e-9)
        pixels, depth = cam.project(np.zeros((1, 3)))
        assert depth[0] > 0
        np.testing.assert_allclose(pixels[0], [cam.cx, cam.cy], atol=1e-6)


def test_num_pixels(camera):
    assert camera.num_pixels == camera.width * camera.height
