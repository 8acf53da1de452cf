"""Tests for the cross-boundary penalty, colour refinement and boundary-aware fine-tuning."""

from dataclasses import replace

import numpy as np
import pytest

from repro.gaussians.metrics import psnr
from repro.gaussians.rasterizer import TileRasterizer
from repro.training.boundary_finetune import (
    boundary_aware_finetune,
    geometric_probe,
)
from repro.training.color_refinement import dc_color_refinement_step
from repro.training.losses import cross_boundary_penalty
from tests.conftest import make_camera, make_model


# ---------------------------------------------------------------------------
# Cross-boundary penalty
# ---------------------------------------------------------------------------
def test_cross_boundary_penalty_zero_without_crossings():
    model = make_model(num_gaussians=50, extent=4.0, scale=0.001, seed=3)
    penalty = cross_boundary_penalty(model, voxel_size=100.0)
    assert penalty == pytest.approx(0.0)


def test_cross_boundary_penalty_scales_with_size():
    model = make_model(num_gaussians=100, extent=4.0, scale=0.3, seed=4)
    small_voxels = cross_boundary_penalty(model, voxel_size=0.5)
    large_voxels = cross_boundary_penalty(model, voxel_size=50.0)
    assert small_voxels >= large_voxels


# ---------------------------------------------------------------------------
# Colour refinement
# ---------------------------------------------------------------------------
def test_color_refinement_reduces_error():
    model = make_model(num_gaussians=250, extent=4.0, scale=0.12, seed=7)
    camera = make_camera(width=40, height=40)
    rasterizer = TileRasterizer()
    target = rasterizer.render(model, camera).image
    # Perturb colours, then refine back towards the target.
    perturbed = replace(model, sh_dc=model.sh_dc + 0.3)
    before = psnr(target, rasterizer.render(perturbed, camera).image)
    refined = perturbed
    for _ in range(3):
        refined = dc_color_refinement_step(refined, [camera], [target], damping=0.4)
    after = psnr(target, rasterizer.render(refined, camera).image)
    assert after > before


def test_color_refinement_validation(small_model, camera):
    image = np.zeros((camera.height, camera.width, 3))
    with pytest.raises(ValueError):
        dc_color_refinement_step(small_model, [camera], [image, image])
    with pytest.raises(ValueError):
        dc_color_refinement_step(small_model, [], [])
    with pytest.raises(ValueError):
        dc_color_refinement_step(small_model, [camera], [image], damping=0.0)
    with pytest.raises(ValueError):
        dc_color_refinement_step(small_model, [camera], [np.zeros((2, 2, 3))])


# ---------------------------------------------------------------------------
# Boundary-aware fine-tuning
# ---------------------------------------------------------------------------
def test_geometric_probe_flags_crossing_gaussians():
    model = make_model(num_gaussians=120, extent=4.0, scale=0.25, seed=8)
    probe = geometric_probe(voxel_size=0.5)
    flagged, quality, ratio = probe(model)
    assert 0.0 <= ratio <= 1.0
    assert len(flagged) == int(round(ratio * len(model)))
    assert np.isnan(quality)


def test_boundary_finetune_reduces_crossings_and_keeps_positions():
    model = make_model(num_gaussians=200, extent=4.0, scale=0.25, seed=9)
    result = boundary_aware_finetune(
        model, voxel_size=0.75, iterations=400, learning_rate=0.4, probe_every=100
    )
    assert result.cross_boundary_ratio[-1] <= result.cross_boundary_ratio[0]
    np.testing.assert_array_equal(result.model.positions, model.positions)
    # Scales never grow and never shrink below the trust region.
    assert np.all(result.model.scales <= model.scales + 1e-6)
    assert np.all(result.model.scales >= 0.29 * model.scales)


def test_boundary_finetune_validation(small_model):
    with pytest.raises(ValueError):
        boundary_aware_finetune(small_model, 1.0, iterations=-1)
    with pytest.raises(ValueError):
        boundary_aware_finetune(small_model, 1.0, beta=-0.1)
    with pytest.raises(ValueError):
        boundary_aware_finetune(small_model, 1.0, probe_every=0)


def test_boundary_finetune_zero_iterations_is_noop(small_model):
    result = boundary_aware_finetune(small_model, 1.0, iterations=0)
    np.testing.assert_allclose(result.model.scales, small_model.scales)
    assert len(result.iterations) == 1


def test_boundary_finetune_history_monotone_iterations(small_model):
    result = boundary_aware_finetune(small_model, 0.5, iterations=300, probe_every=100)
    assert result.iterations == sorted(result.iterations)
    assert len(result.error_gaussian_ratio) == len(result.iterations)
    assert len(result.penalty) == len(result.iterations)
