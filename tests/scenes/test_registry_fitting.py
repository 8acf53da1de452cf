"""Tests for the scene registry and the trained-model calibration."""

import numpy as np
import pytest

from repro.gaussians.metrics import psnr
from repro.gaussians.rasterizer import TileRasterizer
from repro.scenes.fitting import fit_trained_model, perturb_model
from repro.scenes.registry import (
    BASE_ALGORITHMS,
    SCENE_REGISTRY,
    build_scene,
    default_eval_camera,
)
from tests.conftest import make_camera, make_model


def test_registry_contains_paper_scenes():
    assert set(SCENE_REGISTRY) == {
        "lego",
        "palace",
        "train",
        "truck",
        "playroom",
        "drjohnson",
    }


def test_registry_categories_and_voxel_defaults():
    for descriptor in SCENE_REGISTRY.values():
        if descriptor.category == "real":
            assert descriptor.default_voxel_size == 2.0
        else:
            assert descriptor.default_voxel_size == 0.4


def test_registry_target_psnrs_cover_all_algorithms():
    for descriptor in SCENE_REGISTRY.values():
        for algorithm in BASE_ALGORITHMS:
            assert algorithm in descriptor.target_psnr


def test_build_scene_respects_override():
    model = build_scene("lego", num_gaussians=321)
    assert len(model) == 321


def test_build_scene_unknown():
    with pytest.raises(KeyError):
        build_scene("nonexistent")


def test_default_eval_camera_resolution():
    camera = default_eval_camera("lego")
    assert (camera.width, camera.height) == SCENE_REGISTRY["lego"].sim_resolution
    half = default_eval_camera("lego", resolution_scale=0.5)
    assert half.width == camera.width // 2


def test_eval_camera_views_are_distinct():
    cameras = [default_eval_camera("train", view_index=i) for i in range(3)]
    assert not np.allclose(cameras[0].position, cameras[1].position)


def test_perturb_model_zero_noise_is_copy():
    model = make_model(100)
    same = perturb_model(model, 0.0)
    np.testing.assert_array_equal(same.positions, model.positions)
    np.testing.assert_array_equal(same.sh_dc, model.sh_dc)


def test_perturb_model_rejects_negative_noise():
    with pytest.raises(ValueError):
        perturb_model(make_model(10), -0.1)


def test_perturbation_reduces_psnr_monotonically():
    model = make_model(300, scale=0.15, seed=9)
    camera = make_camera(width=48, height=48)
    rasterizer = TileRasterizer()
    reference = rasterizer.render(model, camera).image
    small = psnr(reference, rasterizer.render(perturb_model(model, 0.02, seed=1), camera).image)
    large = psnr(reference, rasterizer.render(perturb_model(model, 0.3, seed=1), camera).image)
    assert small > large


def test_fit_trained_model_reaches_target():
    model = make_model(300, scale=0.15, seed=11)
    camera = make_camera(width=48, height=48)
    fitted = fit_trained_model(model, camera, target_psnr=30.0, max_iterations=6)
    assert abs(fitted.achieved_psnr - 30.0) < 1.5
    assert fitted.ground_truth.shape == (camera.height, camera.width, 3)
    assert len(fitted.trained) == len(model)
