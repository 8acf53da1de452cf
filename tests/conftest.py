"""Shared fixtures for the test suite.

The fixtures build *small* models and cameras (tens to hundreds of
Gaussians, tiny images) so the whole suite runs in seconds; the full-size
procedural scenes are exercised by the benchmark harness instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.sh import rgb_to_sh_dc


def make_model(
    num_gaussians: int = 200,
    extent: float = 4.0,
    scale: float = 0.08,
    seed: int = 0,
    opacity: float = 0.8,
) -> GaussianModel:
    """A random but reproducible Gaussian cloud centred at the origin."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-extent / 2, extent / 2, size=(num_gaussians, 3))
    scales = rng.lognormal(np.log(scale), 0.3, size=(num_gaussians, 3))
    rotations = rng.normal(size=(num_gaussians, 4))
    opacities = np.clip(rng.normal(opacity, 0.1, size=num_gaussians), 0.05, 0.99)
    colors = rng.uniform(0.1, 0.9, size=(num_gaussians, 3))
    sh_rest = rng.normal(0.0, 0.02, size=(num_gaussians, 15, 3))
    return GaussianModel(
        positions=positions,
        scales=scales,
        rotations=rotations,
        opacities=opacities,
        sh_dc=rgb_to_sh_dc(colors),
        sh_rest=sh_rest,
    )


def make_camera(width: int = 64, height: int = 48, distance: float = 6.0) -> Camera:
    """A camera looking at the origin from +x."""
    return Camera.from_lookat(
        eye=(distance, 0.5, 1.0),
        target=(0.0, 0.0, 0.0),
        width=width,
        height=height,
        fov_deg=60.0,
    )


def voxel_box(grid, renamed_id: int):
    """World-space AABB ``(lo, hi)`` of a renamed voxel of ``grid``."""
    raw = int(grid.renamed_to_raw[renamed_id])
    nx, ny = int(grid.dims[0]), int(grid.dims[1])
    coords = np.array([raw % nx, (raw // nx) % ny, raw // (nx * ny)], dtype=np.int64)
    lo = grid.origin + coords * grid.voxel_size
    return lo, lo + grid.voxel_size


@pytest.fixture
def small_model() -> GaussianModel:
    return make_model(num_gaussians=200, seed=1)


@pytest.fixture
def tiny_model() -> GaussianModel:
    return make_model(num_gaussians=40, seed=2)


@pytest.fixture
def camera() -> Camera:
    return make_camera()


@pytest.fixture
def tiny_camera() -> Camera:
    return make_camera(width=32, height=32)
