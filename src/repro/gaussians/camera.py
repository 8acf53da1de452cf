"""Pinhole cameras and camera trajectories.

The renderers (both the tile-centric reference and the streaming pipeline)
consume :class:`Camera` objects; the trajectory helpers generate the test
views used by the experiment harness (the paper evaluates held-out views of
each scene).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


def look_at(
    eye: np.ndarray, target: np.ndarray, up: np.ndarray = (0.0, 0.0, 1.0)
) -> np.ndarray:
    """World-to-camera rotation matrix for a camera at ``eye`` looking at ``target``.

    Returns a ``(3, 3)`` rotation whose rows are the camera's right, down and
    forward axes expressed in world coordinates (OpenCV convention: +z is the
    viewing direction, +y is down in the image).
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide; cannot build a view")
    forward = forward / norm
    right = np.cross(forward, up)
    right_norm = np.linalg.norm(right)
    if right_norm < 1e-12:
        # Viewing direction parallel to up: pick an arbitrary perpendicular.
        right = np.cross(forward, np.array([1.0, 0.0, 0.0]))
        right_norm = np.linalg.norm(right)
        if right_norm < 1e-12:
            right = np.cross(forward, np.array([0.0, 1.0, 0.0]))
            right_norm = np.linalg.norm(right)
    right = right / right_norm
    down = np.cross(forward, right)
    return np.stack([right, down, forward], axis=0)


@dataclass
class Camera:
    """A pinhole camera.

    Attributes
    ----------
    rotation:
        ``(3, 3)`` world-to-camera rotation (rows = camera axes).
    translation:
        ``(3,)`` camera centre in world coordinates.
    width, height:
        Image resolution in pixels.
    fx, fy:
        Focal lengths in pixels.
    near, far:
        Clipping planes along the viewing direction.
    """

    rotation: np.ndarray
    translation: np.ndarray
    width: int
    height: int
    fx: float
    fy: float
    near: float = 0.05
    far: float = 1000.0

    def __post_init__(self) -> None:
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if self.width <= 0 or self.height <= 0:
            raise ValueError("camera resolution must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 < self.near < self.far):
            raise ValueError("require 0 < near < far")

    # ------------------------------------------------------------------
    @classmethod
    def from_lookat(
        cls,
        eye,
        target,
        width: int,
        height: int,
        fov_deg: float = 60.0,
        up=(0.0, 0.0, 1.0),
        near: float = 0.05,
        far: float = 1000.0,
    ) -> "Camera":
        """Build a camera from eye/target points and a horizontal field of view."""
        rotation = look_at(eye, target, up)
        fov = np.deg2rad(fov_deg)
        fx = width / (2.0 * np.tan(fov / 2.0))
        fy = fx
        return cls(
            rotation=rotation,
            translation=np.asarray(eye, dtype=np.float64),
            width=width,
            height=height,
            fx=fx,
            fy=fy,
            near=near,
            far=far,
        )

    # ------------------------------------------------------------------
    def pose_key(self) -> tuple:
        """Hashable fingerprint of the camera's pose and intrinsics.

        Two cameras with equal pose keys render identical view geometry;
        the engine's frame-preparation cache is keyed by it.
        """
        return (
            self.rotation.tobytes(),
            self.translation.tobytes(),
            self.width,
            self.height,
            float(self.fx),
            float(self.fy),
            float(self.near),
            float(self.far),
        )

    # ------------------------------------------------------------------
    @property
    def cx(self) -> float:
        """Principal point x (image centre)."""
        return self.width / 2.0

    @property
    def cy(self) -> float:
        """Principal point y (image centre)."""
        return self.height / 2.0

    @property
    def num_pixels(self) -> int:
        """Total pixel count of the image."""
        return self.width * self.height

    @property
    def position(self) -> np.ndarray:
        """Camera centre in world coordinates (alias of ``translation``)."""
        return self.translation

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Transform ``(N, 3)`` world points into camera coordinates."""
        points = np.asarray(points, dtype=np.float64)
        return (points - self.translation) @ self.rotation.T

    def project(self, points: np.ndarray) -> tuple:
        """Project ``(N, 3)`` world points to pixel coordinates.

        Returns
        -------
        (pixels, depths):
            ``(N, 2)`` pixel coordinates and ``(N,)`` camera-space depths.
            Points behind the camera receive negative depths; callers are
            expected to cull them.
        """
        cam = self.world_to_camera(points)
        depths = cam[:, 2]
        safe_z = np.where(np.abs(depths) < 1e-9, 1e-9, depths)
        px = self.fx * cam[:, 0] / safe_z + self.cx
        py = self.fy * cam[:, 1] / safe_z + self.cy
        return np.stack([px, py], axis=1), depths

    def pixel_rays(self, pixels_x: np.ndarray, pixels_y: np.ndarray) -> tuple:
        """Rays through pixel centres.

        Parameters
        ----------
        pixels_x, pixels_y:
            Arrays of pixel coordinates (may be non-integer).

        Returns
        -------
        (origins, directions):
            ``(N, 3)`` ray origins (all the camera centre) and unit
            direction vectors in world space.
        """
        pixels_x = np.asarray(pixels_x, dtype=np.float64).reshape(-1)
        pixels_y = np.asarray(pixels_y, dtype=np.float64).reshape(-1)
        dirs_cam = np.stack(
            [
                (pixels_x + 0.5 - self.cx) / self.fx,
                (pixels_y + 0.5 - self.cy) / self.fy,
                np.ones_like(pixels_x),
            ],
            axis=1,
        )
        dirs_world = dirs_cam @ self.rotation
        dirs_world = dirs_world / np.linalg.norm(dirs_world, axis=1, keepdims=True)
        origins = np.tile(self.translation, (len(pixels_x), 1))
        return origins, dirs_world

    def view_directions(self, points: np.ndarray) -> np.ndarray:
        """Unit directions from the camera centre towards ``(N, 3)`` world points."""
        points = np.asarray(points, dtype=np.float64)
        dirs = points - self.translation
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms = np.where(norms < 1e-12, 1.0, norms)
        return dirs / norms

    def scaled(self, factor: float) -> "Camera":
        """A copy with the image resolution (and focal lengths) scaled by ``factor``."""
        return Camera(
            rotation=self.rotation.copy(),
            translation=self.translation.copy(),
            width=max(1, int(round(self.width * factor))),
            height=max(1, int(round(self.height * factor))),
            fx=self.fx * factor,
            fy=self.fy * factor,
            near=self.near,
            far=self.far,
        )


def orbit_trajectory(
    center,
    radius: float,
    num_views: int,
    width: int,
    height: int,
    fov_deg: float = 60.0,
    elevation_deg: float = 25.0,
    arc_deg: float = 360.0,
) -> List[Camera]:
    """Cameras on a circular orbit (or arc) around ``center``.

    This is the trajectory used to generate held-out test views of the
    procedural scenes (stand-in for the datasets' test splits).  With the
    default full-circle arc the views are spread over the whole orbit; a
    smaller ``arc_deg`` produces the closely spaced poses of a smooth
    camera pan, the bread-and-butter trajectory workload.
    """
    center = np.asarray(center, dtype=np.float64)
    elevation = np.deg2rad(elevation_deg)
    full_circle = abs(arc_deg - 360.0) < 1e-9
    cameras = []
    for i in range(num_views):
        # A full circle must not duplicate the closing pose; an open arc
        # should include both endpoints.  The full-circle expression is
        # kept bit-identical to the historical one (pose keys feed caches
        # and golden statistics).
        if full_circle or num_views <= 1:
            azimuth = 2.0 * np.pi * i / max(num_views, 1)
        else:
            azimuth = np.deg2rad(arc_deg) * i / (num_views - 1)
        eye = center + radius * np.array(
            [
                np.cos(azimuth) * np.cos(elevation),
                np.sin(azimuth) * np.cos(elevation),
                np.sin(elevation),
            ]
        )
        cameras.append(
            Camera.from_lookat(
                eye=eye,
                target=center,
                width=width,
                height=height,
                fov_deg=fov_deg,
            )
        )
    return cameras


def walkthrough_trajectory(
    start,
    end,
    num_views: int,
    width: int,
    height: int,
    fov_deg: float = 60.0,
    look_ahead: float = 1.0,
) -> List[Camera]:
    """Cameras walking a straight line, looking along the direction of travel.

    A stand-in for the hand-held walkthrough captures of the real-world
    datasets: the eye moves from ``start`` to ``end`` and each view looks
    ``look_ahead`` times the remaining path length past the current
    position, so consecutive poses differ by a small translation and an
    even smaller rotation.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    direction = end - start
    if np.linalg.norm(direction) < 1e-12:
        raise ValueError("walkthrough start and end coincide")
    cameras = []
    for i in range(num_views):
        t = i / max(num_views - 1, 1)
        eye = start + t * direction
        target = eye + look_ahead * direction
        cameras.append(
            Camera.from_lookat(
                eye=eye, target=target, width=width, height=height, fov_deg=fov_deg
            )
        )
    return cameras


def dolly_trajectory(
    center,
    start_radius: float,
    end_radius: float,
    num_views: int,
    width: int,
    height: int,
    fov_deg: float = 60.0,
    elevation_deg: float = 25.0,
    azimuth_deg: float = 0.0,
) -> List[Camera]:
    """Cameras dollying towards (or away from) ``center`` along a fixed bearing.

    The eye slides between ``start_radius`` and ``end_radius`` on the ray
    defined by ``azimuth_deg``/``elevation_deg`` while always looking at
    ``center`` — pure translation along the viewing axis, the classic
    dolly shot.
    """
    if start_radius <= 0 or end_radius <= 0:
        raise ValueError("dolly radii must be positive")
    center = np.asarray(center, dtype=np.float64)
    elevation = np.deg2rad(elevation_deg)
    azimuth = np.deg2rad(azimuth_deg)
    bearing = np.array(
        [
            np.cos(azimuth) * np.cos(elevation),
            np.sin(azimuth) * np.cos(elevation),
            np.sin(elevation),
        ]
    )
    cameras = []
    for i in range(num_views):
        t = i / max(num_views - 1, 1)
        radius = start_radius + t * (end_radius - start_radius)
        cameras.append(
            Camera.from_lookat(
                eye=center + radius * bearing,
                target=center,
                width=width,
                height=height,
                fov_deg=fov_deg,
            )
        )
    return cameras
