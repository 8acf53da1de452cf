"""Differential test of the tile-centric frame blend against the reference loop.

``TileRasterizer(kernel="reference")`` blends every tile's depth-sorted
list through the per-Gaussian :func:`~repro.engine.kernels.blend_reference`
loop; it is the oracle.  On seeded random models, cameras and tile sizes,
and on named degenerate cases, the default rasterizer (every tile's list
one stream of :func:`~repro.engine.kernels.blend_streaming`) must report
exactly equal :class:`~repro.gaussians.rasterizer.RenderStats` and render
images and alpha maps within 1e-9 of the oracle.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.vq import VectorQuantizer
from repro.engine.kernels import TRANSMITTANCE_EPSILON
from repro.gaussians.camera import Camera
from repro.gaussians.rasterizer import TileRasterizer
from repro.gaussians.tiles import TileGrid
from tests.conftest import extreme_models, fuzz_cameras, make_model

GOLDEN_ATOL = 1e-9

#: Seeded random cases (model, camera, tile size and background per seed).
RANDOM_CASES = 100

#: Fuzzed extreme-input frames per VQ setting.
EXTREME_EXAMPLES = 200


def look(eye, target=(0.0, 0.0, 0.0), width=32, height=24, fov_deg=60.0) -> Camera:
    return Camera.from_lookat(
        eye=eye, target=target, width=width, height=height, fov_deg=fov_deg
    )


def check_frame(model, camera, tile_size=16, background=(0.0, 0.0, 0.0)):
    """Render ``camera`` through the frame blend and the oracle; compare."""
    frame = TileRasterizer(tile_size=tile_size, background=background).render(
        model, camera
    )
    reference = TileRasterizer(
        tile_size=tile_size, background=background, kernel="reference"
    ).render(model, camera)
    assert frame.stats == reference.stats
    np.testing.assert_allclose(frame.image, reference.image, rtol=0.0, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(frame.alpha, reference.alpha, rtol=0.0, atol=GOLDEN_ATOL)
    return frame, reference


def test_frame_blend_is_the_default():
    assert TileRasterizer().kernel == "vectorized"


# ----------------------------------------------------------------------
# Seeded random cases.
# ----------------------------------------------------------------------
def random_case(seed: int):
    """A seeded (model, camera, tile size, background) tuple."""
    rng = np.random.default_rng(2000 + seed)
    extent = float(rng.uniform(1.0, 6.0))
    model = make_model(
        num_gaussians=int(rng.integers(1, 400)),
        extent=extent,
        scale=float(rng.uniform(0.03, 0.3)),
        seed=seed,
        opacity=float(rng.uniform(0.3, 0.98)),
    )
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    camera = look(
        direction * rng.uniform(0.3, 2.5) * extent,
        target=rng.uniform(-0.3, 0.3, size=3) * extent,
        width=int(rng.integers(1, 49)),
        height=int(rng.integers(1, 41)),
        fov_deg=float(rng.uniform(30.0, 90.0)),
    )
    tile_size = int(rng.choice([2, 3, 4, 5, 8, 13, 16, 16]))
    background = tuple(rng.uniform(0.0, 1.0, size=3)) if rng.random() < 0.5 else (0.0,) * 3
    return model, camera, tile_size, background


@pytest.mark.parametrize("seed", range(RANDOM_CASES))
def test_random_frame_matches_reference(seed):
    check_frame(*random_case(seed))


# ----------------------------------------------------------------------
# Named degenerate cases.
# ----------------------------------------------------------------------
def test_no_gaussian_in_view():
    model = make_model(num_gaussians=200, extent=2.0, seed=32)
    camera = look((6.0, 0.0, 0.0), target=(12.0, 0.0, 0.0))
    background = (0.25, 0.5, 0.75)
    frame, _ = check_frame(model, camera, background=background)
    assert frame.stats.num_tiles_rendered == 0
    assert frame.stats.num_blended_fragments == 0
    np.testing.assert_array_equal(frame.alpha, 0.0)
    np.testing.assert_array_equal(frame.image, np.broadcast_to(background, frame.image.shape))


def test_empty_model():
    model = make_model(num_gaussians=5, seed=41)
    empty = model.subset(np.zeros(len(model), dtype=bool))
    frame, _ = check_frame(empty, look((4.0, 0.0, 0.0), width=17, height=9), tile_size=8)
    assert frame.stats.num_gaussians == 0
    np.testing.assert_array_equal(frame.alpha, 0.0)


def test_one_pixel_frame():
    model = make_model(num_gaussians=200, extent=3.0, scale=0.2, seed=36)
    frame, _ = check_frame(model, look((5.0, 0.5, 0.5), width=1, height=1))
    assert frame.stats.num_blended_fragments > 0


@pytest.mark.parametrize("tile_size", [1, 5, 8, 16])
def test_odd_frame_with_tiles_that_do_not_divide_it(tile_size):
    model = make_model(num_gaussians=250, extent=4.0, scale=0.12, seed=37)
    camera = look((6.0, 0.5, 1.0), width=37, height=23)
    frame, _ = check_frame(model, camera, tile_size=tile_size)
    grid = TileGrid(37, 23, tile_size)
    assert 0 < frame.stats.num_tiles_rendered <= grid.num_tiles


def test_one_gaussian_over_every_tile():
    model = make_model(num_gaussians=1, extent=0.01, scale=3.0, seed=40, opacity=0.6)
    camera = look((4.0, 0.0, 0.0), width=40, height=28)
    frame, _ = check_frame(model, camera, tile_size=8)
    assert frame.stats.num_tiles_rendered == TileGrid(40, 28, 8).num_tiles
    assert frame.stats.num_tile_pairs == frame.stats.num_tiles_rendered


def test_opaque_scene_saturates_early():
    model = make_model(num_gaussians=1200, extent=3.0, scale=0.25, seed=11, opacity=0.98)
    camera = look((4.0, 0.5, 1.0), width=48, height=32)
    frame, _ = check_frame(model, camera)
    # Pixels saturate part-way through their tile's list, so far fewer
    # pairs blend than the lists hold.
    assert np.count_nonzero(frame.alpha >= 1.0 - TRANSMITTANCE_EPSILON) > 0
    assert frame.stats.num_blended_fragments < frame.stats.num_tile_pairs * 16 * 16 // 4


def test_non_black_background():
    model = make_model(num_gaussians=150, extent=0.6, scale=0.05, seed=33)
    camera = look((6.0, 0.0, 0.0), target=(0.0, 1.8, 1.2), width=48, height=40)
    background = (0.9, 0.4, 0.1)
    frame, _ = check_frame(model, camera, tile_size=8, background=background)
    # The cloud covers part of the frame; every pixel it leaves uncovered
    # shows the background exactly.
    empty = frame.alpha == 0.0
    assert 0 < np.count_nonzero(empty) < empty.size
    np.testing.assert_array_equal(frame.image[empty], np.tile(background, (empty.sum(), 1)))


# ----------------------------------------------------------------------
# Extreme finite inputs.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_vq", [False, True], ids=["raw", "vq"])
@settings(max_examples=EXTREME_EXAMPLES, deadline=None, derandomize=True)
@given(model=extreme_models(), camera=fuzz_cameras(), tile_size=st.sampled_from([4, 8, 16]))
def test_extreme_finite_inputs_match_reference(use_vq, model, camera, tile_size):
    if use_vq:
        model = VectorQuantizer().fit(model).roundtrip(model)
    frame, reference = check_frame(model, camera, tile_size=tile_size)
    assert np.isfinite(frame.image).all() and np.isfinite(reference.image).all()


def test_huge_gaussian_covers_every_tile():
    # A 1e30 scale projects to a radius beyond int64 pixels.
    model = make_model(num_gaussians=3, extent=0.5, seed=42)
    scales = np.array(model.scales)
    scales[1] = 1e30
    model = replace(model, scales=scales)
    frame, _ = check_frame(model, look((4.0, 0.0, 0.0), width=40, height=28), tile_size=8)
    assert frame.stats.num_tiles_rendered == TileGrid(40, 28, 8).num_tiles
