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
from repro.engine import kernels
from repro.engine.kernels import (
    STREAM_BLOCK_COLUMNS,
    STREAM_CHUNK_ROWS,
    STREAM_GROUP_COLUMNS,
    blend_reference,
    blend_streaming,
    column_blocks,
    tile_columns,
)
from repro.engine.state import BlendState, WeightLog
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


def reference_one_tile(xs, ys, projected, *streams):
    """``blend_reference`` of ``streams`` in turn, resuming one state.

    Returns the state and the per-Gaussian blended and out-of-order weight
    arrays (keyed by row of ``projected``).
    """
    weights = np.zeros(len(projected))
    violation_weights = np.zeros(len(projected))
    state = BlendState.fresh(len(xs))
    for rows in streams:
        state = blend_reference(
            xs, ys, projected, rows, state,
            np.arange(len(projected)), weights, violation_weights,
        )
    return state, weights, violation_weights


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

    reference, ref_w, ref_v = reference_one_tile(
        xs, ys, projected, order[:half], order[half:]
    )
    blend, weights, violation_weights = stream_one_tile(xs, ys, projected, order)

    assert reference.blended_fragments > 0
    np.testing.assert_allclose(blend.color, reference.color, atol=GOLDEN_ATOL)
    np.testing.assert_array_equal(blend.transmittance, reference.transmittance)
    assert blend.fragments.tolist() == [reference.blended_fragments]
    assert blend.violations.tolist() == [reference.depth_violations]
    np.testing.assert_allclose(weights, ref_w, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(violation_weights, ref_v, atol=GOLDEN_ATOL)


def test_vectorized_out_of_order_violations_match():
    """Back-to-front blending registers identical violations in both kernels."""
    model = make_model(num_gaussians=80, seed=6)
    camera = make_camera(width=32, height=32)
    projected = project_gaussians(model, camera)
    wrong_order = np.argsort(-projected.depths)
    wrong_order = wrong_order[projected.valid[wrong_order]]
    xs, ys = np.meshgrid(np.arange(32), np.arange(32))
    xs, ys = xs.reshape(-1), ys.reshape(-1)
    reference, _, ref_v = reference_one_tile(xs, ys, projected, wrong_order)
    blend, _, violation_weights = stream_one_tile(xs, ys, projected, wrong_order)
    assert reference.depth_violations > 0
    assert blend.violations.tolist() == [reference.depth_violations]
    assert blend.fragments.tolist() == [reference.blended_fragments]
    np.testing.assert_allclose(violation_weights, ref_v, atol=GOLDEN_ATOL)


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


def test_reference_blend_attributes_into_weight_logs():
    """A log in place of the arrays records the additions bit for bit."""
    model = make_model(num_gaussians=60, seed=8)
    camera = make_camera(width=32, height=32)
    projected = project_gaussians(model, camera)
    order = np.argsort(-projected.depths)
    order = order[projected.valid[order]]
    xs, ys = np.meshgrid(np.arange(16), np.arange(16))
    xs, ys = xs.reshape(-1), ys.reshape(-1)
    _, weights, violation_weights = reference_one_tile(xs, ys, projected, order)
    logs = (WeightLog(len(projected)), WeightLog(len(projected)))
    blend_reference(
        xs, ys, projected, order, BlendState.fresh(len(xs)),
        np.arange(len(projected)), *logs,
    )
    replayed = (np.zeros(len(projected)), np.zeros(len(projected)))
    for log, target in zip(logs, replayed):
        log.replay(target)
    assert weights.sum() > 0.0 and violation_weights.sum() > 0.0
    np.testing.assert_array_equal(replayed[0], weights)
    np.testing.assert_array_equal(replayed[1], violation_weights)


#: Where a blend kernel can add per-Gaussian weights: an array, a log, or
#: nowhere (untracked).
TARGET_KINDS = ("array", "log", None)


def weight_target(kind, size):
    """An empty weight target of ``kind`` (see :data:`TARGET_KINDS`)."""
    if kind == "array":
        return np.zeros(size)
    return WeightLog(size) if kind == "log" else None


def settled(target):
    """The additions ``target`` holds as an array (``None`` if untracked)."""
    if isinstance(target, WeightLog):
        replayed = np.zeros(len(target))
        target.replay(replayed)
        return replayed
    return target


def back_to_front_tile(seed, num_gaussians=90, size=24):
    """A projected scene, its back-to-front valid rows and one tile's pixels."""
    model = make_model(num_gaussians=num_gaussians, seed=seed)
    projected = project_gaussians(model, make_camera(width=32, height=32))
    # Back to front, so there are out-of-order weights to attribute.
    order = np.argsort(-projected.depths)
    order = order[projected.valid[order]]
    xs, ys = np.meshgrid(np.arange(size), np.arange(size))
    return projected, order, xs.reshape(-1), ys.reshape(-1)


@pytest.mark.parametrize("violation_kind", TARGET_KINDS)
@pytest.mark.parametrize("weight_kind", TARGET_KINDS)
def test_blend_kernels_fill_each_weight_target_on_its_own(weight_kind, violation_kind):
    """Either kernel gives each target what a tracked array gets, bit for bit.

    Whatever the other target is (an array, a log or untracked), neither
    the target's additions nor any bit of the blend itself change.
    """
    projected, order, xs, ys = back_to_front_tile(seed=12)
    size = len(projected)
    full_state, full_w, full_v = reference_one_tile(xs, ys, projected, order)
    full_blend, stream_w, stream_v = stream_one_tile(xs, ys, projected, order)
    assert full_w.sum() > 0.0 and full_v.sum() > 0.0

    targets = (weight_target(weight_kind, size), weight_target(violation_kind, size))
    state = blend_reference(
        xs, ys, projected, order, BlendState.fresh(len(xs)), np.arange(size), *targets
    )
    for field in ("color", "transmittance", "max_depth"):
        np.testing.assert_array_equal(getattr(state, field), getattr(full_state, field))
    assert state.blended_fragments == full_state.blended_fragments
    assert state.depth_violations == full_state.depth_violations
    for target, kind, expected in zip(
        targets, (weight_kind, violation_kind), (full_w, full_v)
    ):
        if kind is None:
            assert target is None
        else:
            np.testing.assert_array_equal(settled(target), expected)

    targets = (weight_target(weight_kind, size), weight_target(violation_kind, size))
    blend = blend_streaming(
        xs, ys, np.array([0, len(xs)]), projected, order, np.array([0, len(order)]),
        column_blocks([len(xs)]), np.arange(size), *targets,
    )
    for field in ("color", "transmittance", "saturation", "fragments", "violations"):
        np.testing.assert_array_equal(getattr(blend, field), getattr(full_blend, field))
    for target, kind, expected in zip(
        targets, (weight_kind, violation_kind), (stream_w, stream_v)
    ):
        if kind is None:
            assert target is None
        else:
            np.testing.assert_array_equal(settled(target), expected)


def test_blend_kernels_key_weights_by_model_index():
    """Row ``r``'s weights land at ``model_indices[r]``, nowhere else."""
    projected, order, xs, ys = back_to_front_tile(seed=13)
    size = len(projected)
    _, ref_w, ref_v = reference_one_tile(xs, ys, projected, order)
    _, stream_w, stream_v = stream_one_tile(xs, ys, projected, order)
    # Rows of a culled projection map to scattered ids of a larger model.
    model_indices = 3 * np.arange(size)[::-1] + 1
    kernels = {
        "reference": lambda targets: blend_reference(
            xs, ys, projected, order, BlendState.fresh(len(xs)), model_indices, *targets
        ),
        "streaming": lambda targets: blend_streaming(
            xs, ys, np.array([0, len(xs)]), projected, order,
            np.array([0, len(order)]), column_blocks([len(xs)]),
            model_indices, *targets,
        ),
    }
    expected = {"reference": (ref_w, ref_v), "streaming": (stream_w, stream_v)}
    for name, run in kernels.items():
        targets = (np.zeros(3 * size + 1), np.zeros(3 * size + 1))
        run(targets)
        for target, by_row in zip(targets, expected[name]):
            np.testing.assert_array_equal(target[model_indices], by_row)
            untouched = np.ones(len(target), dtype=bool)
            untouched[model_indices] = False
            assert not target[untouched].any()


def test_reference_blend_without_model_indices_tracks_nothing():
    """No ``model_indices``: targets stay empty and no depth order is kept."""
    projected, order, xs, ys = back_to_front_tile(seed=14)
    tracked, _, _ = reference_one_tile(xs, ys, projected, order)
    weights, violation_weights = np.zeros(len(projected)), np.zeros(len(projected))
    plain = blend_reference(
        xs, ys, projected, order, BlendState.fresh(len(xs)), None,
        weights, violation_weights,
    )
    assert tracked.depth_violations > 0
    np.testing.assert_array_equal(plain.color, tracked.color)
    np.testing.assert_array_equal(plain.transmittance, tracked.transmittance)
    assert plain.blended_fragments == tracked.blended_fragments
    assert plain.depth_violations == 0
    assert np.all(plain.max_depth == -np.inf)
    assert not weights.any() and not violation_weights.any()


#: Shapes of the scan checks: the blend's steps, 1 to
#: ``STREAM_CHUNK_ROWS + 1`` rows (the depth scan carries one more) of
#: whole 64-lane lattices, with power-of-two and other lattice counts.
SCAN_SHAPES = [
    (1, 64), (2, 64), (33, 64), (32, 192), (33, 512), (17, 1344), (32, 2048)
]

#: Values that test a scan's IEEE arithmetic: exact zeros and ones,
#: subnormals, infinities and NaNs of both signs.
SCAN_SPECIALS = np.array(
    [0.0, -0.0, 1.0, 5e-324, -5e-324, 2.0**-1050, np.inf, -np.inf, np.nan, -np.nan]
)


def scan_values(shape, seed, special_rate=0.05):
    """Factors in [0, 1] like the blend's, ``special_rate`` of them special."""
    rng = np.random.default_rng(seed)
    values = rng.random(shape)
    special = rng.random(shape) < special_rate
    values[special] = rng.choice(SCAN_SPECIALS, int(special.sum()))
    return values


@pytest.mark.parametrize("shape", SCAN_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize(
    "ufunc", [np.multiply, np.maximum, np.fmax], ids=lambda u: u.__name__
)
def test_accumulate_rows_matches_accumulate_byte_for_byte(ufunc, shape):
    """The blend's scan is ``ufunc.accumulate(axis=0)``, into ``out`` or in place."""
    values = scan_values(shape, seed=shape[0] * 4099 + shape[1])
    with np.errstate(all="ignore"):
        expected = ufunc.accumulate(values, axis=0)
        out = np.empty_like(values)
        returned = kernels._accumulate_rows(ufunc, values, out)
        in_place = values.copy()
        kernels._accumulate_rows(ufunc, in_place, in_place)
    assert returned is out
    assert out.tobytes() == expected.tobytes()
    assert in_place.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "shape", [(33, 101), (40, 50), (17, 333)], ids=lambda s: "x".join(map(str, s))
)
@pytest.mark.parametrize(
    "ufunc", [np.multiply, np.maximum, np.fmax], ids=lambda u: u.__name__
)
def test_accumulate_rows_on_odd_widths_differs_at_most_in_nan_signs(ufunc, shape):
    """Walked rows whose width no SIMD step divides keep every value.

    Which NaN a step of two NaNs returns is left open by IEEE 754, and
    NumPy's row loop may take the other operand's at a row's tail, so
    there only NaN bits may differ; every other value is byte-equal.  The
    values are dense in NaNs of both signs, so such steps occur.
    """
    values = scan_values(shape, seed=shape[0] * 4099 + shape[1], special_rate=0.3)
    with np.errstate(all="ignore"):
        expected = ufunc.accumulate(values, axis=0)
        out = kernels._accumulate_rows(ufunc, values, np.empty_like(values))
    nan = np.isnan(expected)
    assert nan.any() and not nan.all()
    np.testing.assert_array_equal(np.isnan(out), nan)
    assert out[~nan].tobytes() == expected[~nan].tobytes()


def wide_saturating_frame(seed=21):
    """Projected Gaussians and a 64x32 frame of 16x16 tiles that all stream them.

    Large, nearly opaque Gaussians reach every 8x8 subtile, so every
    subtile of the frame's one step group starts live, and pixels
    saturate.  The stream is shuffled, so contributions also arrive out
    of depth order.
    """
    model = make_model(num_gaussians=160, extent=3.0, scale=0.5, seed=seed, opacity=0.9)
    projected = project_gaussians(model, make_camera(width=64, height=32, distance=4.0))
    order = np.random.default_rng(seed).permutation(np.flatnonzero(projected.valid))
    bounds = [(x, y, x + 16, y + 16) for y in (0, 16) for x in (0, 16, 32, 48)]
    xs, ys, column_offsets = tile_columns(bounds)
    return projected, order, xs, ys, column_offsets


@pytest.mark.parametrize("tracked", [True, False], ids=["model_indices", "untracked"])
def test_blend_streaming_scans_are_bit_identical_to_axis0_accumulate(
    monkeypatch, tracked
):
    """Walking the blend's scans by rows moves no bit of the blend."""
    projected, order, xs, ys, column_offsets = wide_saturating_frame()
    num_tiles = len(column_offsets) - 1
    size = len(projected)

    def blend():
        targets = (np.zeros(size), np.zeros(size)) if tracked else ()
        attribution = (np.arange(size), *targets) if tracked else ()
        result = blend_streaming(
            xs, ys, column_offsets, projected,
            np.tile(order, num_tiles), np.arange(num_tiles + 1) * len(order),
            column_blocks(np.diff(column_offsets)), *attribution,
        )
        return result, targets

    scans = []
    walk_rows = kernels._accumulate_rows

    def spy(ufunc, values, out):
        scans.append((ufunc, values.shape))
        return walk_rows(ufunc, values, out)

    monkeypatch.setattr(kernels, "_accumulate_rows", spy)
    walked, walked_weights = blend()
    monkeypatch.setattr(
        kernels,
        "_accumulate_rows",
        lambda ufunc, values, out: ufunc.accumulate(values, axis=0, out=out),
    )
    accumulated, accumulated_weights = blend()

    # The frame's four blocks share one group, whose 32 whole subtiles'
    # lattices were walked row by row in full-height steps, and columns
    # saturated.
    lanes = len(xs)
    assert lanes == STREAM_GROUP_COLUMNS == 4 * STREAM_BLOCK_COLUMNS
    assert (np.multiply, (STREAM_CHUNK_ROWS, lanes)) in scans
    assert ((np.fmax, (STREAM_CHUNK_ROWS + 1, lanes)) in scans) == tracked
    assert any(ufunc is np.fmax for ufunc, _ in scans) == tracked
    assert (walked.saturation < len(order)).any()
    assert walked.fragments.sum() > 0
    assert walked.violations.any() == tracked
    for field in ("color", "transmittance", "saturation", "fragments", "violations"):
        left, right = getattr(walked, field), getattr(accumulated, field)
        assert left.dtype == right.dtype and left.tobytes() == right.tobytes(), field
    for left, right in zip(walked_weights, accumulated_weights):
        assert left.any() and left.tobytes() == right.tobytes()
