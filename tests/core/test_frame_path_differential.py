"""Differential test of the streaming frame path against the reference loop.

The voxel-at-a-time reference loop (``streaming_kernel="reference"``) is
the oracle.  On seeded random scenes, cameras and configurations, on
named degenerate cases and on short camera trajectories, the frame path
must render images within 1e-9 of the oracle with exactly equal
:class:`~repro.core.pipeline.StreamingStats`; the same frame split
across 2, 3 and 4 processes must equal the one-process frame exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.compression.vq import VectorQuantizer
from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer
from repro.core.voxel_grid import VoxelGrid
from repro.engine.bench import streaming_stats_equal
from repro.gaussians.camera import Camera
from tests.conftest import extreme_models, fuzz_cameras, make_model

GOLDEN_ATOL = 1e-9

#: Seeded random cases (scene, camera and configuration per seed).
RANDOM_CASES = 100

#: Fuzzed extreme-input frames per VQ setting.
EXTREME_EXAMPLES = 150


def look(eye, target=(0.0, 0.0, 0.0), width=32, height=24, fov_deg=60.0) -> Camera:
    return Camera.from_lookat(
        eye=eye, target=target, width=width, height=height, fov_deg=fov_deg
    )


def check_frame(model, camera, config, workers=(2,), quantizer=None):
    """Render ``camera`` through both paths and the process split; compare.

    Without a ``quantizer`` the frame renderer fits one when the config
    uses VQ and the reference renderer encodes with it.
    """
    frame_renderer = StreamingRenderer(model, config, quantizer=quantizer)
    reference_renderer = StreamingRenderer(
        model,
        config.with_options(streaming_kernel="reference"),
        quantizer=frame_renderer.quantizer,
    )
    frame = frame_renderer.render(camera)
    reference = reference_renderer.render(camera)
    assert frame.telemetry["path"] == "frame"
    assert reference.telemetry["path"] == "reference"
    np.testing.assert_allclose(frame.image, reference.image, rtol=0.0, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(frame.alpha, reference.alpha, rtol=0.0, atol=GOLDEN_ATOL)
    equal, detail = streaming_stats_equal(reference.stats, frame.stats)
    assert equal, detail
    for count in workers:
        split = frame_renderer.render(camera, tile_workers=count)
        np.testing.assert_array_equal(split.image, frame.image)
        np.testing.assert_array_equal(split.alpha, frame.alpha)
        equal, detail = streaming_stats_equal(frame.stats, split.stats)
        assert equal, f"{count} workers: {detail}"
    return frame, reference


# ----------------------------------------------------------------------
# Seeded random cases.
# ----------------------------------------------------------------------
def random_case(seed: int):
    """A seeded (model, camera, config) triple."""
    rng = np.random.default_rng(1000 + seed)
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
    eye = direction * rng.uniform(0.3, 2.5) * extent
    camera = look(
        eye,
        target=rng.uniform(-0.3, 0.3, size=3) * extent,
        width=int(rng.integers(1, 49)),
        height=int(rng.integers(1, 41)),
        fov_deg=float(rng.uniform(30.0, 90.0)),
    )
    config = StreamingConfig(
        voxel_size=float(rng.uniform(0.15, 0.6)) * extent,
        tile_size=int(rng.choice([4, 5, 8, 13, 16])),
        ray_stride=int(rng.choice([1, 2, 3, 4, 7])),
        use_coarse_filter=bool(rng.random() < 0.75),
        use_vq=bool(rng.random() < 0.15),
        max_voxels_per_ray=int(rng.choice([2, 5, 512, 512])),
    )
    return model, camera, config


@pytest.mark.parametrize("seed", range(RANDOM_CASES))
def test_random_frame_matches_reference(seed):
    model, camera, config = random_case(seed)
    check_frame(model, camera, config, workers=(2 + seed % 3,))


# ----------------------------------------------------------------------
# Named degenerate cases.
# ----------------------------------------------------------------------
ALL_WORKERS = (2, 3, 4)


def test_camera_inside_voxel_grid():
    # Gaussians on every side of the camera, some straddling the near plane.
    model = make_model(num_gaussians=300, extent=4.0, scale=0.1, seed=31)
    camera = look((0.2, 0.1, 0.0), target=(2.0, 0.3, 0.1))
    check_frame(model, camera, StreamingConfig(voxel_size=0.5, use_vq=False), ALL_WORKERS)


def test_no_gaussian_in_view():
    model = make_model(num_gaussians=200, extent=2.0, seed=32)
    camera = look((6.0, 0.0, 0.0), target=(12.0, 0.0, 0.0))
    frame, _ = check_frame(
        model, camera, StreamingConfig(voxel_size=0.5, use_vq=False), ALL_WORKERS
    )
    assert frame.stats.gaussians_streamed == 0
    np.testing.assert_array_equal(frame.alpha, 0.0)


def test_cloud_in_one_corner_leaves_empty_tiles():
    model = make_model(num_gaussians=150, extent=0.6, scale=0.05, seed=33)
    camera = look((6.0, 0.0, 0.0), target=(0.0, 1.8, 1.2), width=48, height=40)
    frame, _ = check_frame(
        model, camera, StreamingConfig(voxel_size=0.2, tile_size=8, use_vq=False), ALL_WORKERS
    )
    assert 0.0 < float(np.mean(frame.alpha > 0.0)) < 0.5


def test_voxels_with_a_single_gaussian():
    model = make_model(num_gaussians=60, extent=6.0, scale=0.08, seed=34)
    config = StreamingConfig(voxel_size=0.3, tile_size=8, use_vq=False)
    renderer = StreamingRenderer(model, config)
    assert int(renderer.grid.voxel_counts.max()) == 1
    check_frame(model, look((7.0, 0.5, 1.0)), config, ALL_WORKERS)


def test_model_with_one_gaussian():
    model = make_model(num_gaussians=1, extent=0.1, scale=0.4, seed=35)
    check_frame(
        model, look((3.0, 0.0, 0.5)), StreamingConfig(voxel_size=1.0, use_vq=False), ALL_WORKERS
    )


def test_one_pixel_frame():
    model = make_model(num_gaussians=200, extent=3.0, scale=0.2, seed=36)
    check_frame(
        model, look((5.0, 0.5, 0.5), width=1, height=1), StreamingConfig(voxel_size=0.5, use_vq=False)
    )


@pytest.mark.parametrize("tile_size", [5, 8, 16])
def test_odd_frame_with_tiles_that_do_not_divide_it(tile_size):
    model = make_model(num_gaussians=250, extent=4.0, scale=0.12, seed=37)
    camera = look((6.0, 0.5, 1.0), width=37, height=23)
    config = StreamingConfig(voxel_size=0.7, tile_size=tile_size, ray_stride=3, use_vq=False)
    check_frame(model, camera, config, ALL_WORKERS)


def test_max_voxels_per_ray_truncation():
    model = make_model(num_gaussians=400, extent=5.0, scale=0.1, seed=38)
    camera = look((7.0, 0.5, 1.0))
    truncated = StreamingConfig(voxel_size=0.4, max_voxels_per_ray=2, use_vq=False)
    frame, _ = check_frame(model, camera, truncated, ALL_WORKERS)
    full = StreamingRenderer(model, truncated.with_options(max_voxels_per_ray=512)).render(camera)
    assert frame.stats.ordering_table_entries < full.stats.ordering_table_entries


def test_opaque_scene_terminates_early():
    model = make_model(num_gaussians=1200, extent=3.0, scale=0.25, seed=11, opacity=0.98)
    camera = look((4.0, 0.5, 1.0), width=48, height=32)
    config = StreamingConfig(voxel_size=0.6, use_vq=False)
    frame, reference = check_frame(model, camera, config, ALL_WORKERS)
    preparation = StreamingRenderer(model, config).prepare_frame(camera)
    ordered = sum(len(order.order) for order in preparation.tile_orders.values())
    assert frame.stats.num_tile_voxel_pairs < ordered


def test_axis_aligned_rays():
    # With an odd square frame the centre pixel's ray runs exactly along
    # the x axis, through a lattice of Gaussians on the voxel faces.
    axis = np.linspace(-1.5, 1.5, 7)
    lattice = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    model = replace(make_model(num_gaussians=len(lattice), scale=0.15, seed=39), positions=lattice)
    camera = look((6.0, 0.0, 0.0), width=33, height=33)
    directions = camera.pixel_rays(np.array([16]), np.array([16]))[1]
    assert np.count_nonzero(np.abs(directions[0]) > 1e-12) == 1
    check_frame(model, camera, StreamingConfig(voxel_size=0.5, ray_stride=1, use_vq=False), ALL_WORKERS)


def test_camera_a_hair_off_an_axis():
    # The eye's z of 1e-153 gives central rays a z component far below the
    # traversal's 1e-12 parallel threshold.
    model = make_model(num_gaussians=60, extent=4.0, scale=0.15, seed=43)
    camera = look((3.0, 0.0, 1e-153), width=17, height=13)
    check_frame(model, camera, StreamingConfig(voxel_size=1.0, ray_stride=1, use_vq=False))


def test_axis_parallel_rays_that_miss_the_grid():
    # The centre row and column of rays run parallel to y or z, outside
    # the grid's y slab.
    base = make_model(num_gaussians=40, extent=1.0, scale=0.1, seed=44)
    model = replace(base, positions=base.positions + np.array([0.0, 1.5, 0.0], dtype=np.float32))
    camera = look((3.0, 0.0, 0.0), width=9, height=9)
    check_frame(model, camera, StreamingConfig(voxel_size=0.5, ray_stride=1, use_vq=False))


def test_needle_gaussian_alone_in_its_voxel():
    # A Gaussian of scales (1e-45, 1e30, 1e-20) has a 2D covariance whose
    # determinant is rounding noise, so its validity used to depend on how
    # many Gaussians were projected with it: the reference loop projected
    # it alone in its voxel, the frame path with others.
    base = make_model(num_gaussians=60, extent=6.0, scale=0.08, seed=34)
    scales = np.array(base.scales)
    scales[4] = (1e-45, 1e30, 1e-20)
    model = replace(base, scales=scales)
    config = StreamingConfig(voxel_size=0.3, tile_size=8, use_vq=False)
    check_frame(model, look((7.0, 0.5, 1.0)), config)


# ----------------------------------------------------------------------
# Extreme finite inputs.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_vq", [False, True], ids=["raw", "vq"])
@settings(max_examples=EXTREME_EXAMPLES, deadline=None, derandomize=True)
@given(model=extreme_models(), camera=fuzz_cameras(), voxel_size=st.floats(0.5, 1.5))
def test_extreme_finite_inputs_match_reference(use_vq, model, camera, voxel_size):
    try:
        VoxelGrid.build(model, voxel_size)
    except ValueError as error:
        # The one refusal a finite model may meet: more voxels than int64 ids.
        assert "int64" in str(error)
        event("voxel grid refused")
        return
    config = StreamingConfig(voxel_size=voxel_size, tile_size=8, use_vq=use_vq)
    # Both renderers encode with one fitted quantizer: the fit's own
    # assignment may differ from ``encode`` where two scale vectors lie
    # within rounding error of each other (``Codebook.train_encode``).
    quantizer = VectorQuantizer(seed=0).fit(model) if use_vq else None
    frame, reference = check_frame(
        model, camera, config, workers=(2,), quantizer=quantizer
    )
    assert np.isfinite(frame.image).all() and np.isfinite(reference.image).all()


# ----------------------------------------------------------------------
# Short camera trajectories: every frame against the oracle.
# ----------------------------------------------------------------------
TRAJECTORY_SCENES = {
    "sparse": (dict(num_gaussians=300, extent=5.0, scale=0.1, seed=3, opacity=0.8), 0.8, 5.0),
    "opaque": (dict(num_gaussians=900, extent=3.0, scale=0.25, seed=11, opacity=0.98), 0.6, 4.0),
}


def trajectory(path: str, distance: float):
    def at(angle_deg: float, radius: float) -> Camera:
        angle = np.deg2rad(angle_deg)
        return look((radius * np.cos(angle), radius * np.sin(angle), 0.6), width=48, height=32)

    if path == "orbit":
        return [at(4.0 * i, distance) for i in range(3)]
    if path == "dolly":
        return [at(0.0, distance * (1.0 - 0.02 * i)) for i in range(3)]
    return [at(30.0, distance)] * 3  # repeat: frame-cache hits


@pytest.mark.parametrize("scene", sorted(TRAJECTORY_SCENES))
@pytest.mark.parametrize("path", ["orbit", "dolly", "repeat"])
def test_trajectory_frames_match_reference(scene, path):
    options, voxel_size, distance = TRAJECTORY_SCENES[scene]
    model = make_model(**options)
    config = StreamingConfig(voxel_size=voxel_size)
    renderer = StreamingRenderer(model, config)
    reference = StreamingRenderer(
        model, config.with_options(streaming_kernel="reference"), quantizer=renderer.quantizer
    )
    for index, camera in enumerate(trajectory(path, distance)):
        frame = renderer.render(camera)
        oracle = reference.render(camera)
        np.testing.assert_allclose(
            frame.image, oracle.image, rtol=0.0, atol=GOLDEN_ATOL, err_msg=f"frame {index}"
        )
        equal, detail = streaming_stats_equal(oracle.stats, frame.stats)
        assert equal, f"frame {index}: {detail}"
    if path == "repeat":
        assert renderer.frame_cache.hits >= 2
