"""Soundness of the streaming blend's footprint culling.

:func:`~repro.engine.kernels.blend_streaming` splits each tile's columns
into 8x8 subtiles, and each subtile blends only the entries of its tile's
stream whose opacity-aware box (:func:`~repro.engine.kernels.footprint_boxes`)
meets the subtile's pixel centres.  Skipping is exact only if every skipped
(entry, pixel) pair has alpha at most ``ALPHA_EPSILON`` under the blend's
own arithmetic.  These tests enumerate every skipped pair on seeded random
scenes and on adversarial synthetic Gaussians, and hold named edge cases to
the :func:`~repro.engine.kernels.blend_reference` oracle tile by tile:
transmittance, saturation positions, fragment and violation counts
bit-identical, colours and per-Gaussian weights within 1e-9.
"""

import numpy as np
import pytest

from repro.engine.kernels import (
    ALPHA_EPSILON,
    ALPHA_MAX,
    FOOTPRINT_EXPONENT_SLACK,
    FOOTPRINT_PIXEL_MARGIN,
    TRANSMITTANCE_EPSILON,
    blend_reference,
    blend_streaming,
    column_blocks,
    footprint_boxes,
    subtile_streams,
    tile_columns,
)
from repro.engine.state import BlendState
from repro.gaussians.camera import Camera
from repro.gaussians.projection import ProjectedGaussians, project_gaussians
from repro.gaussians.tiles import TileGrid, bin_gaussians_to_tiles
from tests.conftest import make_model

GOLDEN_ATOL = 1e-9

#: Seeded random cases: even seeds project random models, odd seeds draw
#: synthetic Gaussians with extreme shapes and opacities.
RANDOM_CASES = 100


def synthetic(means, conics, opacities, depths=None) -> ProjectedGaussians:
    """Valid projected Gaussians with the given screen parameters."""
    means = np.asarray(means, dtype=np.float64).reshape(-1, 2)
    n = len(means)
    rng = np.random.default_rng(n)
    return ProjectedGaussians(
        means2d=means,
        depths=np.arange(1.0, n + 1.0) if depths is None else np.asarray(depths),
        conics=np.asarray(conics, dtype=np.float64).reshape(n, 3),
        radii=np.full(n, 1.0),
        colors=rng.uniform(0.1, 0.9, size=(n, 3)),
        opacities=np.asarray(opacities, dtype=np.float64).reshape(n),
        valid=np.ones(n, dtype=bool),
    )


def frame_tiles(width, height, tile_size):
    grid = TileGrid(width, height, tile_size)
    return [grid.tile_pixel_bounds(tile) for tile in range(grid.num_tiles)]


def pack(streams):
    """``(stream_rows, stream_offsets)`` of a list of per-tile streams."""
    streams = [np.asarray(stream, dtype=np.int64) for stream in streams]
    rows = np.concatenate([np.zeros(0, dtype=np.int64), *streams])
    return rows, np.concatenate(([0], np.cumsum([len(s) for s in streams])))


def kernel_alpha(px, py, projected, rows):
    """(rows, pixels) alpha with the blend's own arithmetic and clamp."""
    mean_x = projected.means2d[rows, 0][:, None]
    mean_y = projected.means2d[rows, 1][:, None]
    a, b, c = (projected.conics[rows, k][:, None] for k in range(3))
    dx = px[None, :] - mean_x
    dy = py[None, :] - mean_y
    power = a * (dx * dx)
    power += c * (dy * dy)
    power *= -0.5
    power -= b * (dx * dy)
    alpha = np.exp(np.minimum(power, 0.0)) * projected.opacities[rows][:, None]
    return np.minimum(alpha, ALPHA_MAX)


def skipped_alphas(xs, ys, column_offsets, projected, stream_rows, stream_offsets):
    """Kernel alpha of every (stream entry, pixel) pair the culling skips."""
    subtiles = subtile_streams(
        xs, ys, column_offsets, projected, stream_rows, stream_offsets
    )
    alphas = [np.zeros(0)]
    for tile in range(len(column_offsets) - 1):
        stream = stream_rows[stream_offsets[tile] : stream_offsets[tile + 1]]
        for sub in range(subtiles.tile_offsets[tile], subtiles.tile_offsets[tile + 1]):
            lo, hi = subtiles.stream_offsets[sub], subtiles.stream_offsets[sub + 1]
            kept = subtiles.positions[lo:hi]
            # A subtile's stream is an ordered subsequence of its tile's.
            assert np.all(np.diff(kept) > 0)
            np.testing.assert_array_equal(subtiles.rows[lo:hi], stream[kept])
            skipped = np.setdiff1d(np.arange(len(stream)), kept)
            c0, c1 = subtiles.column_offsets[sub], subtiles.column_offsets[sub + 1]
            px, py = xs[c0:c1] + 0.5, ys[c0:c1] + 0.5
            alphas.append(kernel_alpha(px, py, projected, stream[skipped]).ravel())
    return np.concatenate(alphas)


def reference_tiles(xs, ys, column_offsets, projected, stream_rows, stream_offsets):
    """Per-tile ``blend_reference``, one stream entry at a time.

    Returns colour, transmittance, saturation positions, per-tile fragment
    and violation counts, and per-row blended / out-of-order weights.
    """
    num_tiles = len(column_offsets) - 1
    color = np.zeros((len(xs), 3))
    transmittance = np.ones(len(xs))
    saturation = np.zeros(len(xs), dtype=np.int64)
    fragments = np.zeros(num_tiles, dtype=np.int64)
    violations = np.zeros(num_tiles, dtype=np.int64)
    weights = np.zeros(len(projected))
    violation_weights = np.zeros(len(projected))
    for tile in range(num_tiles):
        c0, c1 = column_offsets[tile], column_offsets[tile + 1]
        stream = stream_rows[stream_offsets[tile] : stream_offsets[tile + 1]]
        state = BlendState.fresh(c1 - c0)
        saturated = np.full(c1 - c0, len(stream))
        for position in range(len(stream)):
            blend_reference(
                xs[c0:c1], ys[c0:c1], projected, stream[position : position + 1],
                state, np.arange(len(projected)), weights, violation_weights,
            )
            newly = (saturated == len(stream)) & (
                state.transmittance <= TRANSMITTANCE_EPSILON
            )
            saturated[newly] = position
        color[c0:c1], transmittance[c0:c1] = state.color, state.transmittance
        saturation[c0:c1] = saturated
        fragments[tile] = state.blended_fragments
        violations[tile] = state.depth_violations
    return (
        color, transmittance, saturation, fragments, violations,
        weights, violation_weights,
    )


def check_tiles(projected, bounds, streams):
    """``blend_streaming`` against the per-tile oracle; returns the blend."""
    xs, ys, column_offsets = tile_columns(bounds)
    stream_rows, stream_offsets = pack(streams)
    weights = np.zeros(len(projected))
    violation_weights = np.zeros(len(projected))
    blend = blend_streaming(
        xs, ys, column_offsets, projected, stream_rows, stream_offsets,
        column_blocks(np.diff(column_offsets)),
        np.arange(len(projected)), weights, violation_weights,
    )
    color, transmittance, saturation, fragments, violations, ref_w, ref_v = (
        reference_tiles(xs, ys, column_offsets, projected, stream_rows, stream_offsets)
    )
    np.testing.assert_array_equal(blend.transmittance, transmittance)
    np.testing.assert_array_equal(blend.saturation, saturation)
    np.testing.assert_array_equal(blend.fragments, fragments)
    np.testing.assert_array_equal(blend.violations, violations)
    np.testing.assert_allclose(blend.color, color, rtol=0.0, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(weights, ref_w, rtol=0.0, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(violation_weights, ref_v, rtol=0.0, atol=GOLDEN_ATOL)
    assert int(blend.fragments.sum()) <= blend.pairs_kept <= blend.pairs_offered
    assert blend.pairs_offered == int(np.diff(stream_offsets) @ np.diff(column_offsets))
    # Nothing skipped could have contributed.
    assert np.all(
        skipped_alphas(xs, ys, column_offsets, projected, stream_rows, stream_offsets)
        <= ALPHA_EPSILON
    )
    return blend


# ----------------------------------------------------------------------
# Seeded random cases: every skipped pair, evaluated.
# ----------------------------------------------------------------------
def random_projection(seed: int):
    """A random model seen by a random camera; every tile offered every row."""
    rng = np.random.default_rng(3000 + seed)
    extent = float(rng.uniform(1.0, 6.0))
    model = make_model(
        num_gaussians=int(rng.integers(1, 200)),
        extent=extent,
        scale=float(rng.uniform(0.03, 0.4)),
        seed=seed,
        opacity=float(rng.uniform(0.05, 0.98)),
    )
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    camera = Camera.from_lookat(
        eye=direction * rng.uniform(0.3, 2.5) * extent,
        target=rng.uniform(-0.3, 0.3, size=3) * extent,
        width=int(rng.integers(1, 41)),
        height=int(rng.integers(1, 33)),
        fov_deg=float(rng.uniform(30.0, 90.0)),
    )
    projected = project_gaussians(model, camera)
    valid = np.flatnonzero(projected.valid)
    return projected, camera.width, camera.height, valid, rng


def random_synthetic(seed: int):
    """Synthetic Gaussians: tiny to huge, round to needle-thin, faint to opaque."""
    rng = np.random.default_rng(4000 + seed)
    width, height = int(rng.integers(1, 41)), int(rng.integers(1, 33))
    n = int(rng.integers(1, 120))
    sigma_major = 10.0 ** rng.uniform(-2.0, 3.5, size=n)
    sigma_minor = sigma_major / 10.0 ** rng.uniform(0.0, 3.5, size=n)
    angle = rng.uniform(0.0, np.pi, size=n)
    cos, sin = np.cos(angle), np.sin(angle)
    sxx = (cos * sigma_major) ** 2 + (sin * sigma_minor) ** 2
    syy = (sin * sigma_major) ** 2 + (cos * sigma_minor) ** 2
    sxy = cos * sin * (sigma_major**2 - sigma_minor**2)
    det = sxx * syy - sxy * sxy
    conics = np.stack([syy / det, -sxy / det, sxx / det], axis=1)
    opacities = rng.choice(
        [
            rng.uniform(0.0, 1.0),
            ALPHA_EPSILON,
            np.nextafter(ALPHA_EPSILON, 1.0),
            ALPHA_EPSILON * (1.0 + 10.0 ** rng.uniform(-12.0, 0.0)),
            ALPHA_MAX,
            1.0,
        ],
        size=n,
    )
    margin = 3.0 * sigma_major
    means = np.stack(
        [
            rng.uniform(-margin, width + margin),
            rng.uniform(-margin, height + margin),
        ],
        axis=1,
    )
    # Some centres exactly on pixel centres, where alpha equals opacity.
    on_centre = rng.random(n) < 0.2
    means[on_centre] = np.floor(means[on_centre]) + 0.5
    projected = synthetic(means, conics, opacities, depths=rng.uniform(1.0, 9.0, n))
    return projected, width, height, np.arange(n), rng


@pytest.mark.parametrize("seed", range(RANDOM_CASES))
def test_no_skipped_pair_could_contribute(seed):
    build = random_synthetic if seed % 2 else random_projection
    projected, width, height, rows, rng = build(seed)
    tile_size = int(rng.choice([1, 3, 5, 8, 13, 16, 16, 32]))
    bounds = frame_tiles(width, height, tile_size)
    # Every tile is offered every row, in its own random order, so the
    # culling sees Gaussians far outside the tile too.
    stream_rows, stream_offsets = pack([rng.permutation(rows) for _ in bounds])
    xs, ys, column_offsets = tile_columns(bounds)
    alphas = skipped_alphas(
        xs, ys, column_offsets, projected, stream_rows, stream_offsets
    )
    assert np.all(alphas <= ALPHA_EPSILON), float(alphas.max())


@pytest.mark.parametrize("seed", range(1, 40, 2))
def test_synthetic_frames_match_the_oracle(seed):
    projected, width, height, rows, rng = random_synthetic(seed)
    bounds = frame_tiles(min(width, 24), min(height, 24), int(rng.choice([4, 8, 16])))
    check_tiles(projected, bounds, [rng.permutation(rows)[:60] for _ in bounds])


# ----------------------------------------------------------------------
# Named cases, each against the oracle.
# ----------------------------------------------------------------------
def test_box_is_the_threshold_ellipse_widened_by_the_margins():
    a, b, c, opacity = 0.5, 0.1, 0.25, 0.6
    projected = synthetic([[10.0, 20.0]], [(a, b, c)], [opacity])
    x_lo, x_hi, y_lo, y_hi = footprint_boxes(projected)[:, 0]
    det = a * c - b * b
    tau = 2.0 * np.log(255.0 * opacity)
    for lo, hi, mean, variance in (
        (x_lo, x_hi, 10.0, c / det),
        (y_lo, y_hi, 20.0, a / det),
    ):
        half = np.sqrt((tau + FOOTPRINT_EXPONENT_SLACK) * variance)
        half += FOOTPRINT_PIXEL_MARGIN
        assert hi - mean == pytest.approx(half, rel=1e-12)
        assert mean - lo == pytest.approx(half, rel=1e-12)
        # Strictly wider than the ellipse where alpha exceeds 1/255.
        assert hi - mean > np.sqrt(tau * variance) + 0.5 * FOOTPRINT_PIXEL_MARGIN


def with_bound(index: int, edge: float) -> ProjectedGaussians:
    """A round Gaussian whose box bound ``index`` lies exactly on ``edge``.

    ``index`` picks ``x_lo, x_hi, y_lo, y_hi``; the other axis is centred
    on the subtiles' shared pixel row or column 4.
    """
    axis, upper = divmod(index, 2)
    # The bound is the mean plus or minus the half-extent, rounded: search
    # a few widths and, for each, the means a few ulps around the exact
    # one for a pair that rounds onto the edge.
    for width in np.linspace(1.0, 1.1, 11):
        conic = [[width, 0.0, width]]
        half = footprint_boxes(synthetic([[0.0, 0.0]], conic, [0.5]))[1, 0]
        centre = edge - half if upper else edge + half
        for ulps in range(-4, 5):
            mean = centre + ulps * np.spacing(centre)
            means = [[mean, 4.0]] if axis == 0 else [[4.0, mean]]
            projected = synthetic(means, conic, [0.5])
            if footprint_boxes(projected)[index, 0] == edge:
                return projected
    raise AssertionError("no Gaussian puts the bound on the edge")


@pytest.mark.parametrize("index, edge", [(1, 8.5), (0, 7.5), (3, 8.5), (2, 7.5)])
@pytest.mark.parametrize("touching", [True, False])
def test_box_ending_on_a_subtile_edge_pixel_centre(index, edge, touching):
    """A box that ends exactly on a subtile's first or last pixel centre meets it."""
    if not touching:
        # Move the bound half a pixel away from the other subtile.
        edge += -0.5 if index % 2 else 0.5
    projected = with_bound(index, edge)
    # Two 8x8 subtiles side by side along the bound's axis.
    bounds = [(0, 0, 16, 8)] if index < 2 else [(0, 0, 8, 16)]
    blend = check_tiles(projected, bounds, [[0]])
    assert blend.pairs_kept == (128 if touching else 64)


@pytest.mark.parametrize(
    "conic",
    [
        (1.0, 2.0, 1.0),  # indefinite
        (1.0, 0.0, -1.0),  # indefinite, axis-aligned
        (-1.0, 0.0, -1.0),  # negative definite
        (1.0, 1.0, 1.0),  # degenerate (det 0)
        (1.0, 1.0 - 1e-9, 1.0),  # positive definite but nearly degenerate
        (0.0, 0.0, 0.0),  # zero
    ],
)
def test_conics_that_are_not_safely_positive_definite_are_never_culled(conic):
    # Centred far outside the frame: only an unbounded box reaches it.
    projected = synthetic(
        [[60.0, -40.0], [8.0, 8.0]], [conic, (0.5, 0.1, 0.5)], [0.7, 0.6]
    )
    bounds = frame_tiles(32, 24, 16)
    streams = [[0, 1]] * len(bounds)
    blend = check_tiles(projected, bounds, streams)
    kept = subtile_streams(*tile_columns(bounds), projected, *pack(streams)).rows
    assert np.count_nonzero(kept == 0) == 12  # all 12 subtiles keep it
    assert blend.pairs_offered == 2 * 32 * 24


def test_opacity_at_alpha_epsilon_is_always_dropped():
    projected = synthetic([[4.5, 4.5]], [(0.1, 0.0, 0.1)], [ALPHA_EPSILON])
    blend = check_tiles(projected, [(0, 0, 16, 16)], [[0]])
    assert blend.pairs_kept == 0 and blend.fragments.tolist() == [0]


def test_opacity_just_above_alpha_epsilon_keeps_its_centre_pixel():
    # Alpha equals the opacity at the centre pixel only: one fragment, kept.
    opacity = np.nextafter(ALPHA_EPSILON, 1.0)
    projected = synthetic(
        [[4.5, 4.5], [20.25, 4.5]], [(1.0, 0.0, 1.0)] * 2, [opacity] * 2
    )
    blend = check_tiles(projected, [(0, 0, 16, 16), (16, 0, 32, 16)], [[0, 1]] * 2)
    assert blend.fragments.tolist() == [1, 0]
    assert blend.pairs_kept == 2 * 64  # each Gaussian in its centre's subtile


@pytest.mark.parametrize("opacity", [ALPHA_MAX, 0.995, 1.0])
def test_opacity_at_or_above_alpha_max(opacity):
    rng = np.random.default_rng(7)
    means = rng.uniform(-4.0, 36.0, size=(60, 2))
    conics = np.tile([0.08, 0.02, 0.1], (60, 1))
    projected = synthetic(means, conics, np.full(60, opacity), rng.uniform(1, 5, 60))
    bounds = frame_tiles(32, 32, 16)
    blend = check_tiles(projected, bounds, [rng.permutation(60) for _ in bounds])
    assert blend.pairs_kept < blend.pairs_offered
    # Opaque enough that pixels saturate part-way through their streams.
    assert np.count_nonzero(blend.saturation < 60) > 0


@pytest.mark.parametrize("tile_size", [1, 5, 8, 16])
def test_odd_frame_with_partial_edge_tiles(tile_size):
    model = make_model(num_gaussians=120, extent=4.0, scale=0.12, seed=37)
    camera = Camera.from_lookat((6.0, 0.5, 1.0), (0.0, 0.0, 0.0), 37, 23, fov_deg=60.0)
    projected = project_gaussians(model, camera)
    grid = TileGrid(37, 23, tile_size)
    binning = bin_gaussians_to_tiles(projected, grid)
    rng = np.random.default_rng(tile_size)
    # Tile lists in random order, so out-of-order contributions are counted.
    empty = np.zeros(0, dtype=np.int64)
    streams = [
        rng.permutation(binning.tile_lists.get(tile, empty))
        for tile in range(grid.num_tiles)
    ]
    blend = check_tiles(projected, frame_tiles(37, 23, tile_size), streams)
    assert blend.fragments.sum() > 0 and blend.violations.sum() > 0


def test_one_gaussian_covering_the_frame():
    projected = synthetic(
        [[20.0, 12.0], [20.0, 12.0]],
        [(1e-4, 0.0, 1e-4), (1e-2, 9.9e-3, 1e-2)],
        [0.6, 0.9],
    )
    bounds = frame_tiles(40, 24, 16)
    blend = check_tiles(projected, bounds, [[0, 1]] * len(bounds))
    assert blend.pairs_kept == blend.pairs_offered
    assert blend.fragments.sum() == 2 * 40 * 24


def test_empty_streams():
    projected = synthetic([[4.0, 4.0]], [(0.5, 0.0, 0.5)], [0.8])
    bounds = frame_tiles(32, 16, 16)
    blend = check_tiles(projected, bounds, [[], [0]])
    assert blend.saturation[:256].tolist() == [0] * 256
    assert blend.transmittance[:256].tolist() == [1.0] * 256
    nothing = check_tiles(projected, bounds, [[], []])
    assert nothing.pairs_offered == nothing.pairs_kept == 0
