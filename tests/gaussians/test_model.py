"""Tests for the Gaussian parameter model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians.model import (
    COARSE_PARAMS_PER_GAUSSIAN,
    FINE_PARAMS_PER_GAUSSIAN,
    PARAMS_PER_GAUSSIAN,
    GaussianModel,
)
from tests.conftest import make_model


def test_parameter_count_matches_paper():
    assert PARAMS_PER_GAUSSIAN == 59
    assert COARSE_PARAMS_PER_GAUSSIAN == 4
    assert FINE_PARAMS_PER_GAUSSIAN == 55


def test_len_and_num_gaussians(small_model):
    assert len(small_model) == 200
    assert small_model.num_gaussians == 200


def test_first_and_second_half_shapes(small_model):
    first = small_model.first_half()
    second = small_model.second_half()
    assert first.shape == (200, 4)
    assert second.shape == (200, 55)


def test_first_half_contains_position_and_max_scale(small_model):
    first = small_model.first_half()
    np.testing.assert_allclose(first[:, :3], small_model.positions)
    np.testing.assert_allclose(first[:, 3], small_model.scales.max(axis=1))


def test_max_scales(small_model):
    np.testing.assert_allclose(small_model.max_scales, small_model.scales.max(axis=1))


def test_rotations_are_normalized(small_model):
    norms = np.linalg.norm(small_model.rotations, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-5)


def test_copy_is_independent(small_model):
    clone = small_model.copy()
    clone.positions[0] = 99.0
    assert small_model.positions[0, 0] != 99.0


def test_subset_selects_rows(small_model):
    subset = small_model.subset(np.array([3, 5, 7]))
    assert len(subset) == 3
    np.testing.assert_allclose(subset.positions[1], small_model.positions[5])


def test_bounding_box_contains_all_points(small_model):
    lo, hi = small_model.bounding_box()
    assert np.all(small_model.positions >= lo - 1e-5)
    assert np.all(small_model.positions <= hi + 1e-5)


def test_bounding_box_padding(small_model):
    lo, hi = small_model.bounding_box()
    lo_pad, hi_pad = small_model.bounding_box(padding=1.0)
    np.testing.assert_allclose(lo_pad, lo - 1.0, atol=1e-5)
    np.testing.assert_allclose(hi_pad, hi + 1.0, atol=1e-5)


def test_empty_model():
    empty = GaussianModel.empty()
    assert len(empty) == 0
    lo, hi = empty.bounding_box()
    np.testing.assert_allclose(lo, 0.0)
    np.testing.assert_allclose(hi, 0.0)


def test_invalid_scales_rejected():
    model = make_model(10)
    with pytest.raises(ValueError):
        GaussianModel(
            positions=model.positions,
            scales=np.zeros_like(model.scales),
            rotations=model.rotations,
            opacities=model.opacities,
            sh_dc=model.sh_dc,
            sh_rest=model.sh_rest,
        )


def test_mismatched_row_counts_rejected():
    model = make_model(10)
    with pytest.raises(ValueError):
        GaussianModel(
            positions=model.positions,
            scales=model.scales[:5],
            rotations=model.rotations,
            opacities=model.opacities,
            sh_dc=model.sh_dc,
            sh_rest=model.sh_rest,
        )


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        GaussianModel(
            positions=np.zeros((4, 2)),
            scales=np.ones((4, 3)),
            rotations=np.tile([1.0, 0, 0, 0], (4, 1)),
            opacities=np.ones(4),
            sh_dc=np.zeros((4, 3)),
        )


def test_sh_rest_defaults_to_zero():
    model = GaussianModel(
        positions=np.zeros((3, 3)),
        scales=np.ones((3, 3)),
        rotations=np.tile([1.0, 0, 0, 0], (3, 1)),
        opacities=np.ones(3),
        sh_dc=np.zeros((3, 3)),
    )
    assert model.sh_rest.shape == (3, 15, 3)
    assert np.all(model.sh_rest == 0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=64), seed=st.integers(0, 1000))
def test_subset_of_all_indices_is_identity(n, seed):
    model = make_model(num_gaussians=n, seed=seed)
    subset = model.subset(np.arange(n))
    np.testing.assert_allclose(subset.positions, model.positions)
    np.testing.assert_allclose(subset.scales, model.scales)
