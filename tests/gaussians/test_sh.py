"""Tests for spherical harmonics evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.sh import (
    SH_C0,
    eval_sh,
    num_sh_coeffs,
    rgb_to_sh_dc,
    sh_basis,
)


def unit_vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize("degree,expected", [(0, 1), (1, 4), (2, 9), (3, 16)])
def test_num_sh_coeffs(degree, expected):
    assert num_sh_coeffs(degree) == expected


def test_num_sh_coeffs_rejects_bad_degree():
    with pytest.raises(ValueError):
        num_sh_coeffs(4)
    with pytest.raises(ValueError):
        num_sh_coeffs(-1)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_basis_shape(degree):
    dirs = unit_vectors(17)
    basis = sh_basis(dirs, degree=degree)
    assert basis.shape == (17, num_sh_coeffs(degree))


def test_basis_dc_is_constant():
    dirs = unit_vectors(32)
    basis = sh_basis(dirs, degree=3)
    np.testing.assert_allclose(basis[:, 0], SH_C0)


def test_basis_single_direction_promoted_to_batch():
    basis = sh_basis(np.array([0.0, 0.0, 1.0]), degree=1)
    assert basis.shape == (1, 4)


def test_dc_only_gives_view_independent_colour():
    dirs = unit_vectors(16)
    sh_dc = rgb_to_sh_dc(np.tile([0.3, 0.6, 0.9], (16, 1)))
    sh_rest = np.zeros((16, 15, 3))
    colors = eval_sh(sh_dc, sh_rest, dirs, degree=3)
    np.testing.assert_allclose(colors, np.tile([0.3, 0.6, 0.9], (16, 1)), atol=1e-6)


def test_rgb_sh_roundtrip():
    rgb = np.random.default_rng(0).uniform(0, 1, size=(20, 3))
    colors = eval_sh(rgb_to_sh_dc(rgb), np.zeros((20, 15, 3)), unit_vectors(20), degree=0)
    np.testing.assert_allclose(colors, rgb, atol=1e-9)


def test_colors_are_clamped_non_negative():
    dirs = unit_vectors(8)
    sh_dc = np.full((8, 3), -10.0)
    colors = eval_sh(sh_dc, np.zeros((8, 15, 3)), dirs)
    assert np.all(colors >= 0.0)


def test_higher_degrees_add_view_dependence():
    dirs = unit_vectors(2, seed=3)
    sh_dc = rgb_to_sh_dc(np.tile([0.5, 0.5, 0.5], (2, 1)))
    sh_rest = np.zeros((2, 15, 3))
    sh_rest[:, 0, :] = 0.5
    colors = eval_sh(sh_dc, sh_rest, dirs, degree=3)
    assert not np.allclose(colors[0], colors[1])


def test_degree_zero_ignores_rest_coefficients():
    dirs = unit_vectors(4)
    sh_dc = rgb_to_sh_dc(np.tile([0.2, 0.4, 0.6], (4, 1)))
    sh_rest = np.random.default_rng(0).normal(size=(4, 15, 3))
    colors = eval_sh(sh_dc, sh_rest, dirs, degree=0)
    np.testing.assert_allclose(colors, np.tile([0.2, 0.4, 0.6], (4, 1)), atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sh_basis_orthogonality_montecarlo(seed):
    """SH basis functions are orthogonal under uniform sphere sampling.

    With Monte-Carlo integration the off-diagonal Gram entries should be
    much smaller than the diagonal ones.
    """
    dirs = unit_vectors(4096, seed=seed)
    basis = sh_basis(dirs, degree=2)
    gram = basis.T @ basis / len(dirs)
    diag = np.diag(gram)
    off = gram - np.diag(diag)
    assert np.all(np.abs(off) < 0.25 * diag.min() + 0.05)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), degree=st.integers(0, 3))
def test_eval_sh_is_linear_in_coefficients(seed, degree):
    rng = np.random.default_rng(seed)
    dirs = unit_vectors(8, seed=seed)
    dc_a, dc_b = rng.normal(size=(2, 8, 3))
    rest_a, rest_b = rng.normal(size=(2, 8, 15, 3)) * 0.1
    # Work in the un-clamped regime by shifting well into positive colours.
    dc_a = dc_a * 0.1 + 3.0
    dc_b = dc_b * 0.1 + 3.0
    combined = eval_sh(dc_a + dc_b, rest_a + rest_b, dirs, degree=degree)
    separate = (
        eval_sh(dc_a, rest_a, dirs, degree=degree)
        + eval_sh(dc_b, rest_b, dirs, degree=degree)
    )
    # eval_sh adds the +0.5 offset once per call, so subtract it.
    np.testing.assert_allclose(combined + 0.5, separate, atol=1e-8)
