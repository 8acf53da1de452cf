"""Tests for image-quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.metrics import mse, psnr


def random_image(seed=0, shape=(24, 32, 3)):
    return np.random.default_rng(seed).uniform(0, 1, size=shape)


def test_mse_zero_for_identical():
    image = random_image()
    assert mse(image, image) == 0.0


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse(np.zeros((4, 4)), np.zeros((5, 4)))


def test_psnr_identical_is_infinite():
    image = random_image()
    assert psnr(image, image) == float("inf")


def test_psnr_known_value():
    a = np.zeros((10, 10))
    b = np.full((10, 10), 0.1)
    assert abs(psnr(a, b) - 20.0) < 1e-9


def test_psnr_decreases_with_noise():
    image = random_image()
    rng = np.random.default_rng(1)
    low_noise = np.clip(image + rng.normal(0, 0.01, image.shape), 0, 1)
    high_noise = np.clip(image + rng.normal(0, 0.1, image.shape), 0, 1)
    assert psnr(image, low_noise) > psnr(image, high_noise)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), sigma=st.floats(0.005, 0.2))
def test_psnr_matches_mse_definition(seed, sigma):
    image = random_image(seed)
    noisy = np.clip(image + np.random.default_rng(seed + 1).normal(0, sigma, image.shape), 0, 1)
    err = mse(image, noisy)
    assert abs(psnr(image, noisy) - 10 * np.log10(1.0 / err)) < 1e-9
