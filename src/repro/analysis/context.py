"""Per-scene evaluation contexts.

Building a scene context is the expensive part of every experiment: it
instantiates the procedural scene, applies the base algorithm
(3DGS / Mini-Splatting / LightGaussian), calibrates the "trained" model to
the paper's PSNR for that (scene, algorithm) pair, renders the tile-centric
reference, runs the streaming pipeline and derives the paper-scale workload.

:func:`build_scene_context` is the pure builder; callers pass the
:class:`~repro.engine.service.RenderService` all rendering goes through.
Caching lives in :class:`repro.api.session.Session`, which memoises
contexts per (scene, algorithm, config, resolution scale) — the
figure/table experiments and the benchmark suite share them through the
process-wide default session (``get_default_session().context(...)``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.workload import FullScaleWorkload, build_workload
from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer, StreamingRenderOutput
from repro.engine.service import RenderService, get_default_service
from repro.gaussians.camera import Camera
from repro.gaussians.metrics import psnr
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RenderOutput
from repro.scenes.fitting import FittedScene, fit_trained_model
from repro.scenes.registry import (
    SCENE_REGISTRY,
    SceneDescriptor,
    build_scene,
    default_eval_camera,
)
from repro.variants.base import get_algorithm


@dataclass
class SceneContext:
    """Everything the experiments need for one (scene, algorithm) pair.

    ``tile_output`` is the calibration render of ``trained`` that the fit
    chose (:attr:`~repro.scenes.fitting.FittedScene.trained_output`).
    ``stages_s`` holds the build's wall seconds per stage: ``scene`` (scene
    build and algorithm transform), ``fit`` (ground-truth and calibration
    renders), ``renderer`` (voxel grid, VQ fit and decode, or a renderer
    cache hit), ``streaming`` (the frame) and ``workload``.
    """

    descriptor: SceneDescriptor
    algorithm: str
    camera: Camera
    reference: GaussianModel
    trained: GaussianModel
    ground_truth: "object"                 # (H, W, 3) ndarray
    baseline_psnr: float                   # tile-centric PSNR of the trained model
    tile_output: RenderOutput
    streaming_config: StreamingConfig
    streaming_renderer: StreamingRenderer
    streaming_output: StreamingRenderOutput
    streaming_psnr: float
    workload: FullScaleWorkload
    stages_s: Dict[str, float]

    @property
    def scene(self) -> str:
        return self.descriptor.name


def build_scene_context(
    scene: str,
    algorithm: str = "3dgs",
    config: Optional[StreamingConfig] = None,
    resolution_scale: float = 1.0,
    service: Optional[RenderService] = None,
) -> SceneContext:
    """Build one evaluation context (uncached).

    Parameters
    ----------
    scene:
        Registered scene name.
    algorithm:
        Base algorithm (``3dgs``, ``mini_splatting``, ``light_gaussian``).
    config:
        Streaming configuration; ``None`` uses the paper's default voxel
        size for the scene's category.
    resolution_scale:
        Scale factor on the simulated evaluation resolution.
    service:
        Render service every render goes through (the process-wide default
        service when omitted).
    """
    if scene not in SCENE_REGISTRY:
        raise KeyError(f"unknown scene {scene!r}; available: {sorted(SCENE_REGISTRY)}")
    service = service if service is not None else get_default_service()
    marks = [time.perf_counter()]
    descriptor = SCENE_REGISTRY[scene]
    config = config or StreamingConfig(voxel_size=descriptor.default_voxel_size)
    camera = default_eval_camera(scene, resolution_scale=resolution_scale)
    reference = build_scene(scene)
    algo = get_algorithm(algorithm)
    reference_variant = algo.transform(reference, cameras=[camera])
    marks.append(time.perf_counter())

    target = descriptor.target_psnr.get(algorithm, descriptor.target_psnr["3dgs"])
    fitted: FittedScene = fit_trained_model(
        reference_variant,
        camera,
        target_psnr=target,
        rasterizer=service.tile_rasterizer(config),
    )
    trained = fitted.trained
    ground_truth = fitted.ground_truth
    # The fit's chosen calibration render is the tile-centric reference:
    # same rasterizer, model and camera.
    tile_output = fitted.trained_output
    baseline_psnr = fitted.achieved_psnr
    marks.append(time.perf_counter())

    streaming_renderer = service.streaming_renderer(trained, config)
    marks.append(time.perf_counter())
    streaming_output = service.render(trained, camera, config).output
    streaming_psnr = psnr(ground_truth, streaming_output.image)
    marks.append(time.perf_counter())

    workload = build_workload(
        descriptor=descriptor,
        tile_stats=tile_output.stats,
        projected=tile_output.projected,
        streaming_stats=streaming_output.stats,
        num_voxels=streaming_renderer.grid.num_voxels,
        sim_width=camera.width,
        sim_focal=camera.fx,
        use_vq=config.use_vq,
        second_half_bytes_vq=streaming_renderer.layout.second_half_bytes_per_gaussian,
    )
    marks.append(time.perf_counter())
    stages = ("scene", "fit", "renderer", "streaming", "workload")
    return SceneContext(
        descriptor=descriptor,
        algorithm=algorithm,
        camera=camera,
        reference=reference_variant,
        trained=trained,
        ground_truth=ground_truth,
        baseline_psnr=baseline_psnr,
        tile_output=tile_output,
        streaming_config=config,
        streaming_renderer=streaming_renderer,
        streaming_output=streaming_output,
        streaming_psnr=streaming_psnr,
        workload=workload,
        stages_s={
            stage: end - start for stage, start, end in zip(stages, marks, marks[1:])
        },
    )
