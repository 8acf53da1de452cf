"""Micro-benchmarks of the blending kernels and the streaming render path.

:func:`run_kernel_benchmark` times the tile-centric render of a seeded
synthetic scene through the per-tile reference loop and the frame blend
(``TileRasterizer(kernel=...)``), checks that statistics are exactly equal
and images and alpha maps agree within 1e-9, and reports the speedup of
the frame blend over the reference loop (``benchmarks/bench_engine.py`` →
``BENCH_engine.json``; the runner's ``engine`` experiment).

:func:`run_streaming_benchmark` does the same for the memory-centric
streaming pipeline's render paths: the voxel-at-a-time reference loop
against the frame path (``StreamingConfig.streaming_kernel``), checking that images agree within
1e-9 and that every workload statistic — fragments, filter reductions,
depth-order violation sets — is exactly equal
(``benchmarks/bench_streaming.py`` → ``BENCH_streaming.json``).

:func:`run_trajectory_benchmark` times a registered camera trajectory
frame by frame (milliseconds per frame and per stage) and checks one
sampled frame against the reference path under the same contract —
image within 1e-9, statistics exactly equal
(``benchmarks/bench_trajectory.py`` → ``BENCH_trajectory.json``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer, StreamingStats
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import TileRasterizer
from repro.gaussians.sh import rgb_to_sh_dc


def benchmark_scene(
    num_gaussians: int = 6000, extent: float = 4.0, seed: int = 7
) -> GaussianModel:
    """A seeded synthetic Gaussian cloud for kernel timing."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-extent / 2, extent / 2, size=(num_gaussians, 3))
    scales = rng.lognormal(np.log(0.08), 0.3, size=(num_gaussians, 3))
    rotations = rng.normal(size=(num_gaussians, 4))
    opacities = np.clip(rng.normal(0.8, 0.1, size=num_gaussians), 0.05, 0.99)
    colors = rng.uniform(0.1, 0.9, size=(num_gaussians, 3))
    sh_rest = rng.normal(0.0, 0.02, size=(num_gaussians, 15, 3))
    return GaussianModel(
        positions=positions,
        scales=scales,
        rotations=rotations,
        opacities=opacities,
        sh_dc=rgb_to_sh_dc(colors),
        sh_rest=sh_rest,
    )


def benchmark_camera(width: int = 160, height: int = 120) -> Camera:
    """The evaluation view of the benchmark scene."""
    return Camera.from_lookat(
        eye=(6.0, 0.5, 1.0),
        target=(0.0, 0.0, 0.0),
        width=width,
        height=height,
        fov_deg=60.0,
    )


#: The kernel benchmark's contenders: display name -> ``TileRasterizer`` path.
KERNEL_CONTENDERS = {"reference loop": "reference", "frame blend": "vectorized"}


@dataclass
class KernelBenchResult:
    """Timings and equivalence check of one kernel-comparison run."""

    num_gaussians: int
    resolution: tuple
    repeats: int
    seconds: Dict[str, float] = field(default_factory=dict)
    max_image_delta: float = 0.0
    max_alpha_delta: float = 0.0
    stats_equal: bool = False
    stats_detail: str = ""
    blended_fragments: Dict[str, int] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Reference-loop time over frame-blend time."""
        reference = self.seconds.get("reference loop", 0.0)
        frame = self.seconds.get("frame blend", 0.0)
        return reference / frame if frame else 0.0

    def as_dict(self) -> dict:
        return {
            "num_gaussians": self.num_gaussians,
            "resolution": list(self.resolution),
            "repeats": self.repeats,
            "seconds": dict(self.seconds),
            "speedup": self.speedup,
            "max_image_delta": self.max_image_delta,
            "max_alpha_delta": self.max_alpha_delta,
            "stats_equal": self.stats_equal,
            "stats_detail": self.stats_detail,
            "blended_fragments": dict(self.blended_fragments),
        }

    def format(self) -> str:
        lines = [
            "engine kernel micro-benchmark "
            f"({self.num_gaussians} Gaussians, {self.resolution[0]}x{self.resolution[1]}, "
            f"{self.repeats} repeat(s))"
        ]
        for name in sorted(self.seconds):
            lines.append(
                f"  {name:<14} {self.seconds[name] * 1e3:9.1f} ms  "
                f"fragments={self.blended_fragments[name]}"
            )
        lines.append(
            f"  speedup (reference loop / frame blend): {self.speedup:.2f}x; "
            f"max |image delta| = {self.max_image_delta:.3g}; "
            f"max |alpha delta| = {self.max_alpha_delta:.3g}; "
            f"stats {'EQUAL' if self.stats_equal else 'DIFFER: ' + self.stats_detail}"
        )
        return "\n".join(lines)


def run_kernel_benchmark(
    num_gaussians: int = 6000,
    width: int = 160,
    height: int = 120,
    repeats: int = 3,
    seed: int = 7,
) -> KernelBenchResult:
    """Time both tile-centric render paths on one scene and compare them."""
    model = benchmark_scene(num_gaussians=num_gaussians, seed=seed)
    camera = benchmark_camera(width=width, height=height)
    result = KernelBenchResult(
        num_gaussians=num_gaussians, resolution=(width, height), repeats=repeats
    )
    outputs = {}
    rasterizers = {
        name: TileRasterizer(kernel=kernel) for name, kernel in KERNEL_CONTENDERS.items()
    }
    best: Dict[str, float] = {name: float("inf") for name in rasterizers}
    # Rounds are interleaved across kernels so machine-load drift during the
    # benchmark biases neither side of the speedup ratio.
    for _ in range(repeats):
        for name, rasterizer in rasterizers.items():
            start = time.perf_counter()
            outputs[name] = rasterizer.render(model, camera)
            best[name] = min(best[name], time.perf_counter() - start)
            result.blended_fragments[name] = outputs[name].stats.num_blended_fragments
    result.seconds = dict(best)
    reference, frame = outputs["reference loop"], outputs["frame blend"]
    result.max_image_delta = float(np.max(np.abs(frame.image - reference.image)))
    result.max_alpha_delta = float(np.max(np.abs(frame.alpha - reference.alpha)))
    result.stats_equal = frame.stats == reference.stats
    if not result.stats_equal:
        result.stats_detail = f"{frame.stats!r} != {reference.stats!r}"
    return result


# ----------------------------------------------------------------------
# Streaming render-path benchmark.
# ----------------------------------------------------------------------
def streaming_stats_equal(
    a: StreamingStats, b: StreamingStats, weight_atol: float = 1e-9
) -> Tuple[bool, str]:
    """Whether two streaming runs produced the same workload description.

    Integer accounting (fragments, filter counts, traffic bytes, sort
    lists, violation counts) must be *exactly* equal; the float
    per-Gaussian weight arrays within ``weight_atol``; the derived
    error-Gaussian (violation) sets identical.  Returns ``(ok, detail)``
    with ``detail`` naming the first mismatching field.
    """
    exact_fields = (
        "num_tiles",
        "num_tile_voxel_pairs",
        "rays_sampled",
        "ordering_table_entries",
        "dag_edges",
        "dag_nodes",
        "cycles_broken",
        "gaussians_streamed",
        "filter",
        "traffic",
        "blended_fragments",
        "blended_fragment_slots",
        "sorted_gaussians",
        "max_voxel_list_length",
        "rendered_gaussian_slots",
        "depth_order_errors",
        "sort_list_lengths",
    )
    for name in exact_fields:
        if getattr(a, name) != getattr(b, name):
            return False, f"{name}: {getattr(a, name)!r} != {getattr(b, name)!r}"
    for name in ("gaussian_blend_weight", "gaussian_violation_weight"):
        left, right = getattr(a, name), getattr(b, name)
        if (left is None) != (right is None):
            return False, f"{name}: one side is None"
        if left is not None and not np.allclose(left, right, atol=weight_atol):
            return False, f"{name}: max delta {np.max(np.abs(left - right)):.3g}"
    if not np.array_equal(a.error_gaussian_indices(), b.error_gaussian_indices()):
        return False, "error_gaussian_indices differ"
    return True, ""


@dataclass
class StreamingBenchResult:
    """Timings and equivalence check of one streaming-path comparison run."""

    num_gaussians: int
    resolution: tuple
    voxel_size: float
    repeats: int
    tile_workers: int
    seconds: Dict[str, float] = field(default_factory=dict)
    max_image_delta: float = 0.0
    stats_equal: bool = False
    stats_detail: str = ""
    gaussians_streamed: int = 0
    blended_fragments: int = 0
    filtering_reduction: float = 0.0
    #: Parallel-path execution record (populated when ``tile_workers > 1``):
    #: the mode that actually ran (``process``, or ``serial`` after a
    #: degradation), the parity of the parallel frame against the
    #: one-process frame, and the zero-copy accounting of the process path.
    tile_mode: str = ""
    parallel_image_delta: float = 0.0
    parallel_stats_equal: bool = True
    parallel_stats_detail: str = ""
    shm_segments: int = 0
    pickled_bytes: int = 0

    @property
    def speedup(self) -> float:
        """Reference-path time over vectorized-path time."""
        reference = self.seconds.get("reference", 0.0)
        vectorized = self.seconds.get("vectorized", 0.0)
        return reference / vectorized if vectorized else 0.0

    @property
    def parallel_speedup(self) -> float:
        """Vectorized one-process time over parallel time (0 when unmeasured)."""
        vectorized = self.seconds.get("vectorized", 0.0)
        parallel = self.seconds.get("vectorized_parallel", 0.0)
        return vectorized / parallel if parallel else 0.0

    def as_dict(self) -> dict:
        return {
            "num_gaussians": self.num_gaussians,
            "resolution": list(self.resolution),
            "voxel_size": self.voxel_size,
            "repeats": self.repeats,
            "tile_workers": self.tile_workers,
            "seconds": dict(self.seconds),
            "speedup": self.speedup,
            "parallel_speedup": self.parallel_speedup,
            "max_image_delta": self.max_image_delta,
            "stats_equal": self.stats_equal,
            "stats_detail": self.stats_detail,
            "gaussians_streamed": self.gaussians_streamed,
            "blended_fragments": self.blended_fragments,
            "filtering_reduction": self.filtering_reduction,
            "tile_mode": self.tile_mode,
            "parallel_image_delta": self.parallel_image_delta,
            "parallel_stats_equal": self.parallel_stats_equal,
            "parallel_stats_detail": self.parallel_stats_detail,
            "shm_segments": self.shm_segments,
            "pickled_bytes": self.pickled_bytes,
        }

    def format(self) -> str:
        lines = [
            "streaming render-path micro-benchmark "
            f"({self.num_gaussians} Gaussians, {self.resolution[0]}x{self.resolution[1]}, "
            f"voxel {self.voxel_size}, {self.repeats} repeat(s))"
        ]
        for name in sorted(self.seconds):
            lines.append(f"  {name:<20} {self.seconds[name] * 1e3:9.1f} ms")
        lines.append(
            f"  speedup (reference / vectorized): {self.speedup:.2f}x; "
            f"max |image delta| = {self.max_image_delta:.3g}; "
            f"stats {'EQUAL' if self.stats_equal else 'DIFFER: ' + self.stats_detail}"
        )
        if self.tile_workers > 1:
            lines.append(
                f"  parallel frame ({self.tile_workers} workers, "
                f"{self.tile_mode or 'unmeasured'} mode): "
                f"{self.parallel_speedup:.2f}x over one process; "
                f"max |image delta| = {self.parallel_image_delta:.3g}; "
                f"stats {'EQUAL' if self.parallel_stats_equal else 'DIFFER: ' + self.parallel_stats_detail}"
            )
            if self.tile_mode == "process":
                lines.append(
                    f"  zero-copy transport: {self.shm_segments} shm segment(s), "
                    f"{self.pickled_bytes} pickled bytes per dispatch"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trajectory benchmark.
# ----------------------------------------------------------------------
@dataclass
class TrajectoryBenchResult:
    """Per-frame cost of a camera trajectory and one frame's parity.

    ``seconds`` is the best full-trajectory wall time over the repeats and
    ``stages_ms`` the mean per-frame stage times of that pass.  The parity
    of the sampled frame ``checked_frame`` against the reference path
    (image within 1e-9, statistics exactly equal) is recorded from an
    untimed render.
    """

    scene: str
    path: str
    frames: int
    resolution_scale: float
    repeats: int
    voxel_size: float = 0.0
    seconds: float = 0.0
    stages_ms: Dict[str, float] = field(default_factory=dict)
    checked_frame: int = 0
    max_image_delta: float = 0.0
    stats_equal: bool = False
    stats_detail: str = ""

    @property
    def ms_per_frame(self) -> float:
        return 1e3 * self.seconds / max(1, self.frames)

    def as_dict(self) -> dict:
        return {
            "scene": self.scene,
            "path": self.path,
            "frames": self.frames,
            "resolution_scale": self.resolution_scale,
            "repeats": self.repeats,
            "voxel_size": self.voxel_size,
            "seconds": self.seconds,
            "ms_per_frame": self.ms_per_frame,
            "stages_ms": dict(self.stages_ms),
            "checked_frame": self.checked_frame,
            "max_image_delta": self.max_image_delta,
            "stats_equal": self.stats_equal,
            "stats_detail": self.stats_detail,
        }

    def format(self) -> str:
        stages = ", ".join(f"{name} {ms:.1f}" for name, ms in self.stages_ms.items())
        return "\n".join(
            [
                "trajectory benchmark "
                f"({self.scene}/{self.path}, {self.frames} frames @ "
                f"{self.resolution_scale:g}x, voxel {self.voxel_size:g}, "
                f"{self.repeats} repeat(s))",
                f"  {self.seconds * 1e3:9.1f} ms ({self.ms_per_frame:7.1f} ms/frame; "
                f"per frame: {stages} ms)",
                f"  frame {self.checked_frame} against the reference path: "
                f"max |image delta| = {self.max_image_delta:.3g}; "
                f"stats {'EQUAL' if self.stats_equal else 'DIFFER: ' + self.stats_detail}",
            ]
        )


def run_trajectory_benchmark(
    scene: str = "train",
    path: str = "orbit",
    frames: int = 24,
    resolution_scale: float = 1.5,
    repeats: int = 3,
    config: Optional[StreamingConfig] = None,
) -> TrajectoryBenchResult:
    """Time a registered camera trajectory, frame by frame.

    The frame-preparation cache is disabled (a repeat pass would replay
    whole frames), so every frame pays its traversal and topological sort.
    The middle frame is then rendered once more, untimed, and checked
    against the reference path.
    """
    from repro.scenes.registry import SCENE_REGISTRY, build_scene, trajectory_cameras

    model = build_scene(scene)
    base = config or StreamingConfig(
        voxel_size=SCENE_REGISTRY[scene].default_voxel_size
    )
    renderer = StreamingRenderer(model, base.with_options(frame_cache_size=0))
    cameras = trajectory_cameras(
        scene, path, frames, resolution_scale=resolution_scale
    )
    result = TrajectoryBenchResult(
        scene=scene,
        path=path,
        frames=len(cameras),
        resolution_scale=resolution_scale,
        repeats=repeats,
        voxel_size=base.voxel_size,
        seconds=float("inf"),
    )
    for _ in range(repeats):
        stages: Dict[str, float] = {}
        start = time.perf_counter()
        for camera in cameras:
            for name, seconds in renderer.render(camera).telemetry["stages_s"].items():
                stages[name] = stages.get(name, 0.0) + seconds
        elapsed = time.perf_counter() - start
        if elapsed < result.seconds:
            result.seconds = elapsed
            result.stages_ms = {
                name: 1e3 * total / len(cameras) for name, total in stages.items()
            }

    result.checked_frame = len(cameras) // 2
    camera = cameras[result.checked_frame]
    output = renderer.render(camera)
    reference = StreamingRenderer(
        model,
        renderer.config.with_options(streaming_kernel="reference"),
        quantizer=renderer.quantizer,
    ).render(camera)
    result.max_image_delta = float(np.max(np.abs(output.image - reference.image)))
    result.stats_equal, result.stats_detail = streaming_stats_equal(
        reference.stats, output.stats
    )
    return result


def run_streaming_benchmark(
    num_gaussians: int = 6000,
    width: int = 160,
    height: int = 120,
    repeats: int = 3,
    seed: int = 7,
    voxel_size: float = 0.5,
    tile_workers: int = 0,
    config: Optional[StreamingConfig] = None,
) -> StreamingBenchResult:
    """Time the streaming reference loop against the frame path.

    Frame preparation (ray traversal, topological sort) is warmed first so
    the timings isolate the per-voxel render path the two kernels differ
    in.  ``tile_workers > 1`` additionally times the vectorized path split
    across that many processes over shared memory and records the
    parallel frame's parity against the one-process frame plus the
    zero-copy transport accounting.  A warm-up parallel render runs untimed
    first so pool start-up does not bias the steady-state timing.
    """
    model = benchmark_scene(num_gaussians=num_gaussians, seed=seed)
    camera = benchmark_camera(width=width, height=height)
    # ``voxel_size`` shapes the default configuration only; an explicit
    # ``config`` is benchmarked exactly as given (and its voxel size is
    # what the trajectory records).
    base = config or StreamingConfig(voxel_size=voxel_size, use_vq=False)
    voxel_size = base.voxel_size
    renderers = {
        name: StreamingRenderer(model, base.with_options(streaming_kernel=name))
        for name in ("reference", "vectorized")
    }
    for renderer in renderers.values():
        renderer.prepare_frame(camera)

    result = StreamingBenchResult(
        num_gaussians=num_gaussians,
        resolution=(width, height),
        voxel_size=voxel_size,
        repeats=repeats,
        tile_workers=tile_workers,
    )
    outputs: Dict[str, object] = {}
    best: Dict[str, float] = {name: float("inf") for name in renderers}
    # Rounds are interleaved across paths so machine-load drift during the
    # benchmark biases neither side of the speedup ratio.
    for _ in range(repeats):
        for name, renderer in renderers.items():
            start = time.perf_counter()
            outputs[name] = renderer.render(camera)
            best[name] = min(best[name], time.perf_counter() - start)
    if tile_workers > 1:
        parallel_output = renderers["vectorized"].render(
            camera, tile_workers=tile_workers
        )
        result.tile_mode = str(parallel_output.telemetry.get("tile_mode", ""))
        result.shm_segments = int(parallel_output.telemetry.get("shm_segments", 0))
        result.pickled_bytes = int(parallel_output.telemetry.get("pickled_bytes", 0))
        best["vectorized_parallel"] = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            renderers["vectorized"].render(camera, tile_workers=tile_workers)
            best["vectorized_parallel"] = min(
                best["vectorized_parallel"], time.perf_counter() - start
            )
        serial_vectorized = outputs["vectorized"]
        result.parallel_image_delta = float(
            np.max(np.abs(parallel_output.image - serial_vectorized.image))
        )
        result.parallel_stats_equal, result.parallel_stats_detail = (
            streaming_stats_equal(serial_vectorized.stats, parallel_output.stats)
        )
    result.seconds = dict(best)

    reference, vectorized = outputs["reference"], outputs["vectorized"]
    result.max_image_delta = float(
        np.max(np.abs(vectorized.image - reference.image))
    )
    result.stats_equal, result.stats_detail = streaming_stats_equal(
        reference.stats, vectorized.stats
    )
    result.gaussians_streamed = vectorized.stats.gaussians_streamed
    result.blended_fragments = vectorized.stats.blended_fragments
    result.filtering_reduction = vectorized.stats.filtering_reduction
    return result
