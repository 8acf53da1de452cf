"""Tests for the Mini-Splatting and LightGaussian re-implementations."""

from dataclasses import replace

import numpy as np
import pytest

from repro.gaussians.metrics import psnr
from repro.gaussians.rasterizer import TileRasterizer
from repro.variants.base import BaseAlgorithm, gaussian_importance, get_algorithm, list_algorithms
from repro.variants.light_gaussian import LightGaussian
from repro.variants.mini_splatting import MiniSplatting
from tests.conftest import make_camera, make_model


def test_registry_contains_all_algorithms():
    names = list_algorithms()
    assert {"3dgs", "mini_splatting", "light_gaussian"} <= set(names)


def test_get_algorithm_unknown():
    with pytest.raises(KeyError):
        get_algorithm("does_not_exist")


def test_identity_algorithm_is_copy(small_model):
    out = get_algorithm("3dgs").transform(small_model)
    assert out is not small_model
    np.testing.assert_array_equal(out.positions, small_model.positions)


def test_importance_requires_cameras(small_model):
    with pytest.raises(ValueError):
        gaussian_importance(small_model, [])


def test_importance_favours_big_opaque_gaussians(small_model):
    camera = make_camera()
    scales = np.array(small_model.scales)
    scales[:10] = scales[:10] * 5
    opacities = np.array(small_model.opacities)
    opacities[:10] = 0.99
    boosted = replace(small_model, scales=scales, opacities=opacities)
    scores = gaussian_importance(boosted, [camera])
    assert scores[:10].mean() > scores[10:].mean()


def test_mini_splatting_keeps_requested_fraction(small_model):
    camera = make_camera()
    algo = MiniSplatting(keep_fraction=0.4, seed=3)
    out = algo.transform(small_model, cameras=[camera])
    assert len(out) == int(round(0.4 * len(small_model)))


def test_mini_splatting_keep_all_is_copy(small_model):
    out = MiniSplatting(keep_fraction=1.0).transform(small_model)
    assert len(out) == len(small_model)


def test_mini_splatting_validation():
    with pytest.raises(ValueError):
        MiniSplatting(keep_fraction=0.0)
    with pytest.raises(ValueError):
        MiniSplatting(deterministic_fraction=2.0)


def test_mini_splatting_without_cameras(small_model):
    out = MiniSplatting(keep_fraction=0.3).transform(small_model)
    assert len(out) == int(round(0.3 * len(small_model)))


def test_light_gaussian_prunes_and_distills(small_model):
    algo = LightGaussian(prune_fraction=0.5, distill_sh_degree=1)
    out = algo.transform(small_model, cameras=[make_camera()])
    assert len(out) == int(round(0.5 * len(small_model)))
    # Degree 1 keeps the first 3 rest coefficients; the rest must be zero.
    assert np.all(out.sh_rest[:, 3:, :] == 0.0)
    assert np.any(out.sh_rest[:, :3, :] != 0.0)


def test_light_gaussian_validation():
    with pytest.raises(ValueError):
        LightGaussian(prune_fraction=1.0)
    with pytest.raises(ValueError):
        LightGaussian(distill_sh_degree=5)


def test_compacted_models_still_render_similar_images():
    """Pruned models must stay visually close to the original render."""
    model = make_model(600, scale=0.12, opacity=0.85, seed=21)
    camera = make_camera(width=48, height=48)
    rasterizer = TileRasterizer()
    reference = rasterizer.render(model, camera).image
    for algorithm in (MiniSplatting(keep_fraction=0.5), LightGaussian(prune_fraction=0.4)):
        compact = algorithm.transform(model, cameras=[camera])
        image = rasterizer.render(compact, camera).image
        assert psnr(reference, image) > 18.0


def test_base_algorithm_repr():
    assert "BaseAlgorithm" in repr(BaseAlgorithm())
