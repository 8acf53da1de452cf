"""Golden-equivalence tests: the vectorized blend must match the reference.

The acceptance bar of the engine: images, alpha maps, fragment counts and
violation statistics of :func:`~repro.engine.kernels.blend_streaming` agree
with the per-Gaussian :func:`~repro.engine.kernels.blend_reference` loop on
seeded scenes, for both the tile-centric rasterizer and the memory-centric
streaming renderer, and for single streams blended directly.
"""

import numpy as np
import pytest

from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer
from repro.engine.kernels import blend_reference, blend_streaming, column_blocks
from repro.engine.state import BlendState
from repro.gaussians.projection import project_gaussians
from repro.gaussians.rasterizer import TileRasterizer
from tests.conftest import make_camera, make_model

GOLDEN_ATOL = 1e-9


def stream_one_tile(xs, ys, projected, rows, attribution=True):
    """``blend_streaming`` of one tile whose stream is ``rows``.

    Returns the blend and, with ``attribution``, the per-Gaussian blended
    and out-of-order weight arrays (keyed by row of ``projected``).
    """
    weights = np.zeros(len(projected))
    violation_weights = np.zeros(len(projected))
    tracking = (np.arange(len(projected)), weights, violation_weights)
    blend = blend_streaming(
        xs,
        ys,
        np.array([0, len(xs)]),
        projected,
        np.asarray(rows, dtype=np.int64),
        np.array([0, len(rows)]),
        column_blocks([len(xs)]),
        *(tracking if attribution else ()),
    )
    return blend, weights, violation_weights


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_tile_render_golden_equivalence(seed):
    model = make_model(num_gaussians=300, seed=seed)
    camera = make_camera(width=80, height=64)
    reference = TileRasterizer(kernel="reference").render(model, camera)
    vectorized = TileRasterizer(kernel="vectorized").render(model, camera)
    np.testing.assert_allclose(vectorized.image, reference.image, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(vectorized.alpha, reference.alpha, atol=GOLDEN_ATOL)
    assert vectorized.stats == reference.stats


@pytest.mark.parametrize("seed", [2, 7])
def test_streaming_render_golden_equivalence(seed):
    model = make_model(num_gaussians=250, extent=5.0, scale=0.1, seed=seed)
    camera = make_camera(width=48, height=32, distance=6.0)
    config = StreamingConfig(voxel_size=1.5, use_vq=False)
    reference = StreamingRenderer(
        model, config.with_options(streaming_kernel="reference")
    ).render(camera)
    vectorized = StreamingRenderer(
        model, config.with_options(streaming_kernel="vectorized")
    ).render(camera)
    np.testing.assert_allclose(vectorized.image, reference.image, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(vectorized.alpha, reference.alpha, atol=GOLDEN_ATOL)
    assert vectorized.stats.blended_fragments == reference.stats.blended_fragments
    assert vectorized.stats.depth_order_errors == reference.stats.depth_order_errors
    np.testing.assert_allclose(
        vectorized.stats.gaussian_blend_weight,
        reference.stats.gaussian_blend_weight,
        atol=GOLDEN_ATOL,
    )
    np.testing.assert_allclose(
        vectorized.stats.gaussian_violation_weight,
        reference.stats.gaussian_violation_weight,
        atol=GOLDEN_ATOL,
    )
    np.testing.assert_array_equal(
        vectorized.stats.error_gaussian_indices(),
        reference.stats.error_gaussian_indices(),
    )


def test_kernels_agree_on_resumed_state():
    """Voxel-style resumed reference blending agrees with one stream."""
    model = make_model(num_gaussians=150, seed=4)
    camera = make_camera(width=48, height=48)
    projected = project_gaussians(model, camera)
    order = np.argsort(projected.depths)
    order = order[projected.valid[order]]
    xs, ys = np.meshgrid(np.arange(16, 32), np.arange(16, 32))
    xs, ys = xs.reshape(-1), ys.reshape(-1)
    half = len(order) // 2

    reference = blend_reference(
        xs, ys, projected, order[:half], BlendState.fresh(len(xs)),
        track_depth_order=True,
    )
    reference = blend_reference(
        xs, ys, projected, order[half:], reference, track_depth_order=True
    )
    blend, weights, violation_weights = stream_one_tile(xs, ys, projected, order)

    assert reference.blended_fragments > 0
    np.testing.assert_allclose(blend.color, reference.color, atol=GOLDEN_ATOL)
    np.testing.assert_array_equal(blend.transmittance, reference.transmittance)
    assert blend.fragments.tolist() == [reference.blended_fragments]
    assert blend.violations.tolist() == [reference.depth_violations]
    np.testing.assert_allclose(weights, reference.gaussian_weights, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(
        violation_weights, reference.gaussian_violation_weights, atol=GOLDEN_ATOL
    )


def test_vectorized_out_of_order_violations_match():
    """Back-to-front blending registers identical violations in both kernels."""
    model = make_model(num_gaussians=80, seed=6)
    camera = make_camera(width=32, height=32)
    projected = project_gaussians(model, camera)
    wrong_order = np.argsort(-projected.depths)
    wrong_order = wrong_order[projected.valid[wrong_order]]
    xs, ys = np.meshgrid(np.arange(32), np.arange(32))
    xs, ys = xs.reshape(-1), ys.reshape(-1)
    reference = blend_reference(
        xs, ys, projected, wrong_order, BlendState.fresh(len(xs)),
        track_depth_order=True,
    )
    blend, _, violation_weights = stream_one_tile(xs, ys, projected, wrong_order)
    assert reference.depth_violations > 0
    assert blend.violations.tolist() == [reference.depth_violations]
    assert blend.fragments.tolist() == [reference.blended_fragments]
    np.testing.assert_allclose(
        violation_weights, reference.gaussian_violation_weights, atol=GOLDEN_ATOL
    )


@pytest.mark.parametrize("seed", [3, 11])
def test_streaming_blend_without_attribution_is_bit_identical(seed):
    """Leaving out the attribution arrays changes no colour or count bit."""
    model = make_model(num_gaussians=200, seed=seed)
    camera = make_camera(width=40, height=36)
    projected = project_gaussians(model, camera)
    # Back to front, so the attributed run has violations to count.
    order = np.argsort(-projected.depths)
    order = order[projected.valid[order]]
    xs, ys = np.meshgrid(np.arange(40), np.arange(36))
    xs, ys = xs.reshape(-1), ys.reshape(-1)
    tracked, weights, _ = stream_one_tile(xs, ys, projected, order)
    plain, _, _ = stream_one_tile(xs, ys, projected, order, attribution=False)
    assert tracked.violations.sum() > 0 and weights.sum() > 0.0
    np.testing.assert_array_equal(plain.color, tracked.color)
    np.testing.assert_array_equal(plain.transmittance, tracked.transmittance)
    np.testing.assert_array_equal(plain.saturation, tracked.saturation)
    np.testing.assert_array_equal(plain.fragments, tracked.fragments)
    assert not plain.violations.any()


def test_blend_state_weight_array_binding():
    """Bound external arrays receive attribution in place."""
    model = make_model(num_gaussians=60, seed=8)
    camera = make_camera(width=32, height=32)
    projected = project_gaussians(model, camera)
    order = np.argsort(projected.depths)
    xs, ys = np.meshgrid(np.arange(16), np.arange(16))
    xs, ys = xs.reshape(-1), ys.reshape(-1)

    external_w = np.zeros(len(model))
    external_v = np.zeros(len(model))
    state = BlendState.fresh(len(xs))
    state.bind_weight_arrays(external_w, external_v)
    state = blend_reference(xs, ys, projected, order, state, track_depth_order=True)
    assert state.gaussian_weights is external_w
    assert external_w.sum() > 0.0
