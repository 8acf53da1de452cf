"""Shared fixtures for the test suite.

The fixtures build *small* models and cameras (tens to hundreds of
Gaussians, tiny images) so the whole suite runs in seconds; the full-size
procedural scenes are exercised by the benchmark harness instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.engine.kernels import ALPHA_EPSILON, ALPHA_MAX
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


def empty_model() -> GaussianModel:
    """A model with zero Gaussians: a subset of no indices."""
    return make_model(num_gaussians=1).subset(np.zeros(1, dtype=bool))


def make_camera(width: int = 64, height: int = 48, distance: float = 6.0) -> Camera:
    """A camera looking at the origin from +x."""
    return Camera.from_lookat(
        eye=(distance, 0.5, 1.0),
        target=(0.0, 0.0, 0.0),
        width=width,
        height=height,
        fov_deg=60.0,
    )


def _float32_neighbours(value: float) -> tuple:
    value = np.float32(value)
    below, above = np.nextafter(value, np.float32(0)), np.nextafter(value, np.float32(2))
    return float(below), float(value), float(above)


_FLOAT32_MAX = float(np.finfo(np.float32).max)
_FLOAT32_SUBNORMAL = float(np.finfo(np.float32).smallest_subnormal)
#: Finite extremes the differential fuzz pushes single Gaussians to.
EXTREME_SCALES = (1e-30, 3e-30, 1e30, 3e30, _FLOAT32_MAX, _FLOAT32_SUBNORMAL, 1e-40, 0.1)
EXTREME_OPACITIES = (
    _float32_neighbours(ALPHA_EPSILON) + _float32_neighbours(ALPHA_MAX) + (-1.0, 0.0, 1.0, 2.0)
)
DEGENERATE_ROTATIONS = (
    (0.0, 0.0, 0.0, 0.0),
    (1e-30, 0.0, 0.0, 0.0),
    (_FLOAT32_SUBNORMAL, _FLOAT32_SUBNORMAL, 0.0, 0.0),
    (0.0, 1e-13, 0.0, 0.0),
    (1e-7, -1e-7, 1e-7, 1e-7),
    (1e20, -1e20, 0.0, 0.0),
    (_FLOAT32_MAX, 0.0, _FLOAT32_MAX, 0.0),
)
#: Outlier coordinates reach 1e17: at voxel sizes near 1 the grid then
#: nears the int64 voxel-id limit, and beyond it ``VoxelGrid.build`` refuses.
MAX_OUTLIER_EXPONENT = 17.0


@st.composite
def extreme_models(draw) -> GaussianModel:
    """A small random model with a few Gaussians pushed to finite extremes.

    Scales near 1e±30, float32 max and subnormal; opacities on the
    ``ALPHA_EPSILON`` and ``ALPHA_MAX`` thresholds and outside [0, 1]; far
    outliers; coincident means (some exact twins but for colour); zero or
    degenerate quaternions.
    """
    n = draw(st.integers(2, 40))
    base = make_model(num_gaussians=n, extent=4.0, scale=0.15, seed=draw(st.integers(0, 2**16)))
    arrays = {
        name: np.array(getattr(base, name), dtype=np.float64)
        for name in ("positions", "scales", "rotations", "opacities")
    }
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("scale", "opacity", "outlier", "coincident", "rotation")))
        if kind == "scale":
            arrays["scales"][row] = draw(st.tuples(*[st.sampled_from(EXTREME_SCALES)] * 3))
        elif kind == "opacity":
            arrays["opacities"][row] = draw(st.sampled_from(EXTREME_OPACITIES))
        elif kind == "outlier":
            axis = draw(st.integers(0, 2))
            sign = draw(st.sampled_from((-1, 1)))
            arrays["positions"][row, axis] = sign * 10.0 ** draw(st.floats(1.0, MAX_OUTLIER_EXPONENT))
        elif kind == "coincident":
            other = draw(st.integers(0, n - 1))
            for name in arrays if draw(st.booleans()) else ("positions",):
                arrays[name][row] = arrays[name][other]
        else:
            arrays["rotations"][row] = draw(st.sampled_from(DEGENERATE_ROTATIONS))
    return GaussianModel(sh_dc=base.sh_dc, sh_rest=base.sh_rest, **arrays)


@st.composite
def fuzz_cameras(draw) -> Camera:
    """A small frame looking at the origin from 2.5 to 6 units away."""
    azimuth = draw(st.floats(0.0, 2.0 * np.pi))
    elevation = draw(st.floats(-1.4, 1.4))
    distance = draw(st.floats(2.5, 6.0))
    eye = distance * np.array(
        [np.cos(elevation) * np.cos(azimuth), np.cos(elevation) * np.sin(azimuth), np.sin(elevation)]
    )
    return Camera.from_lookat(
        eye=eye,
        target=(0.0, 0.0, 0.0),
        width=draw(st.integers(8, 40)),
        height=draw(st.integers(8, 32)),
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
