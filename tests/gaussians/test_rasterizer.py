"""Tests for the tile-centric reference rasterizer and alpha blending."""

import numpy as np
import pytest

from repro.gaussians.model import GaussianModel
from repro.gaussians.projection import project_gaussians
from repro.engine.kernels import blend_reference
from repro.gaussians.rasterizer import BlendState, TileRasterizer
from repro.gaussians.sh import rgb_to_sh_dc
from tests.conftest import make_camera


def single_gaussian(color=(1.0, 0.0, 0.0), opacity=0.9, scale=0.4, position=(0.0, 0.0, 0.0)):
    return GaussianModel(
        positions=np.array([position]),
        scales=np.full((1, 3), scale),
        rotations=np.array([[1.0, 0.0, 0.0, 0.0]]),
        opacities=np.array([opacity]),
        sh_dc=rgb_to_sh_dc(np.array([color])),
        sh_rest=np.zeros((1, 15, 3)),
    )


def stacked(*models):
    """One model holding the Gaussians of ``models``, in order."""
    fields = ("positions", "scales", "rotations", "opacities", "sh_dc", "sh_rest")
    return GaussianModel(**{f: np.concatenate([getattr(m, f) for m in models]) for f in fields})


def test_render_output_shape_and_range(small_model, camera):
    output = TileRasterizer().render(small_model, camera)
    assert output.image.shape == (camera.height, camera.width, 3)
    assert output.alpha.shape == (camera.height, camera.width)
    assert np.all(output.image >= 0.0) and np.all(output.image <= 1.0)
    assert np.all(output.alpha >= 0.0) and np.all(output.alpha <= 1.0)


def test_empty_scene_renders_background():
    camera = make_camera(width=32, height=32)
    # The Gaussian sits far off screen so nothing renders.
    model = single_gaussian(opacity=0.9, position=(0.0, 100.0, 0.0))
    output = TileRasterizer(background=(0.2, 0.3, 0.4)).render(model, camera)
    np.testing.assert_allclose(output.image[0, 0], [0.2, 0.3, 0.4], atol=1e-6)
    assert output.alpha.max() == 0.0


def test_single_gaussian_renders_its_colour():
    camera = make_camera(width=48, height=48, distance=4.0)
    model = single_gaussian(color=(0.9, 0.1, 0.1), opacity=0.95, scale=0.6)
    output = TileRasterizer().render(model, camera)
    center = output.image[24, 24]
    assert center[0] > 0.5
    assert center[0] > center[1] and center[0] > center[2]
    assert output.alpha[24, 24] > 0.5


def test_front_gaussian_occludes_back():
    camera = make_camera(width=48, height=48, distance=5.0)
    # The camera looks along -x from +x, so larger x is closer to the camera.
    front = single_gaussian(color=(1.0, 0.0, 0.0), opacity=0.95, scale=0.5, position=(1.0, 0.0, 0.0))
    back = single_gaussian(color=(0.0, 1.0, 0.0), opacity=0.95, scale=0.5, position=(-1.0, 0.0, 0.0))
    model = stacked(front, back)
    output = TileRasterizer().render(model, camera)
    center = output.image[24, 24]
    assert center[0] > center[1]


def test_render_stats_populated(small_model, camera):
    output = TileRasterizer().render(small_model, camera)
    stats = output.stats
    assert stats.num_gaussians == len(small_model)
    assert stats.num_projected > 0
    assert stats.num_tile_pairs > 0
    assert stats.num_blended_fragments > 0
    assert stats.sort_pairs == stats.num_tile_pairs


def test_rasterizer_rejects_bad_tile_size():
    with pytest.raises(ValueError):
        TileRasterizer(tile_size=0)


def test_blend_state_transmittance_bounds(small_model, camera):
    projected = project_gaussians(small_model, camera)
    order = np.argsort(projected.depths)
    xs = np.arange(0, 16)
    ys = np.zeros(16, dtype=int) + camera.height // 2
    state = blend_reference(
        xs, ys, projected, order, BlendState.fresh(len(xs)),
        np.arange(len(projected)), np.zeros(len(projected)), np.zeros(len(projected)),
    )
    assert np.all(state.transmittance >= 0.0)
    assert np.all(state.transmittance <= 1.0)
    assert state.blended_fragments >= 0


def test_blend_resume_matches_single_pass(small_model, camera):
    """Blending voxel-by-voxel (resumed state) equals blending all at once."""
    projected = project_gaussians(small_model, camera)
    order = np.argsort(projected.depths)
    xs, ys = np.meshgrid(np.arange(16, 32), np.arange(16, 32))
    xs, ys = xs.reshape(-1), ys.reshape(-1)

    full = blend_reference(xs, ys, projected, order, BlendState.fresh(len(xs)))

    half = len(order) // 2
    state = blend_reference(xs, ys, projected, order[:half], BlendState.fresh(len(xs)))
    state = blend_reference(xs, ys, projected, order[half:], state)

    np.testing.assert_allclose(state.color, full.color, atol=1e-9)
    np.testing.assert_allclose(state.transmittance, full.transmittance, atol=1e-9)


def test_depth_order_violations_detected():
    """Blending back-to-front must register per-pixel depth violations."""
    camera = make_camera(width=32, height=32, distance=5.0)
    # a is closer to the camera at +x.
    a = single_gaussian(color=(1, 0, 0), opacity=0.6, scale=0.5, position=(1.0, 0.0, 0.0))
    b = single_gaussian(color=(0, 1, 0), opacity=0.6, scale=0.5, position=(-1.0, 0.0, 0.0))
    model = stacked(a, b)
    projected = project_gaussians(model, camera)
    xs, ys = np.meshgrid(np.arange(32), np.arange(32))
    xs, ys = xs.reshape(-1), ys.reshape(-1)
    rows = np.arange(len(projected))
    violation_weights = np.zeros(len(projected))
    correct = blend_reference(
        xs,
        ys,
        projected,
        np.argsort(projected.depths),
        BlendState.fresh(len(xs)),
        rows,
        np.zeros(len(projected)),
        violation_weights,
    )
    assert correct.depth_violations == 0
    assert violation_weights.sum() == 0.0
    wrong = blend_reference(
        xs,
        ys,
        projected,
        np.argsort(-projected.depths),
        BlendState.fresh(len(xs)),
        rows,
        np.zeros(len(projected)),
        violation_weights,
    )
    assert wrong.depth_violations > 0
    assert violation_weights.sum() > 0.0
    # Without weight targets the violations are still counted.
    untracked = blend_reference(
        xs, ys, projected, np.argsort(-projected.depths), BlendState.fresh(len(xs)), rows
    )
    assert untracked.depth_violations == wrong.depth_violations


def test_blend_state_fresh():
    state = BlendState.fresh(10)
    assert state.color.shape == (10, 3)
    assert np.all(state.transmittance == 1.0)
    assert np.all(np.isneginf(state.max_depth))
