"""Reproduction of STREAMINGGS (DAC 2025).

Voxel-based streaming 3D Gaussian Splatting with memory optimization and
architectural support.  The package is organised as:

``repro.gaussians``
    A from-scratch NumPy implementation of the 3D Gaussian Splatting
    substrate: Gaussian parameter model, spherical harmonics, cameras, EWA
    projection, tile binning, depth sorting, and the tile-centric reference
    rasterizer the paper uses as its algorithmic baseline.

``repro.scenes``
    Procedural scene generators standing in for the Synthetic-NSVF,
    Synthetic-NeRF, Tanks&Temples and Deep Blending scenes evaluated in the
    paper, with per-scene statistics matched to the published workloads.

``repro.variants``
    The Mini-Splatting and LightGaussian model-compaction algorithms the
    paper layers its pipeline on top of.

``repro.compression``
    Vector quantization (k-means codebooks) and quantization-aware
    fine-tuning used by the customized DRAM data layout (Sec. III-C).

``repro.training``
    NumPy optimizers and the boundary-aware fine-tuning loss (Sec. III-B).

``repro.engine``
    The unified render-engine layer both renderers sit on: one vectorized
    alpha-blending kernel both renderers run over stacked tile columns,
    plus the per-Gaussian reference loop it is held to (the path is chosen
    via ``StreamingConfig.streaming_kernel`` /
    ``TileRasterizer(kernel=...)``), dense array-based per-Gaussian
    statistics accumulation, the frame
    preparation cache memoizing view geometry per camera pose, and the
    batched :class:`~repro.engine.service.RenderService` front-end the
    analysis harness renders through.

``repro.core``
    The paper's primary contribution: the memory-centric, fully streaming
    voxel renderer — voxel grid, ray/voxel ordering (DAG + topological
    sort), hierarchical filtering, the two-half DRAM data layout, and the
    streaming pipeline itself.

``repro.arch``
    The analytical architecture model: StreamingGS accelerator (VSU, HFU,
    sorting and rendering units), GSCore and Orin NX GPU baselines, DRAM /
    SRAM / energy / area models.

``repro.analysis``
    The experiment harness that regenerates every table and figure in the
    paper's evaluation section.

``repro.api``
    The declarative front-end: :class:`~repro.api.session.Session` owns the
    render service, scene cache and seeded RNG; experiments are declared as
    :class:`~repro.api.spec.ExperimentSpec` points (scene x algorithm x
    compression x config overrides x arch model) or expanded into parameter
    grids with :func:`~repro.api.spec.sweep`, and every run returns a typed
    :class:`~repro.api.result.ExperimentResult` with ``.format()``,
    ``.metrics`` and ``.to_json()``.
"""

from repro.gaussians.model import GaussianModel
from repro.gaussians.camera import Camera
from repro.gaussians.rasterizer import TileRasterizer, RenderOutput
from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer
from repro.engine.service import RenderRequest, RenderService
from repro.scenes.registry import SCENE_REGISTRY, build_scene
from repro.arch.accelerator import StreamingGSAccelerator
from repro.arch.gpu import OrinNXModel
from repro.arch.gscore import GSCoreModel
from repro.api import (
    ExperimentResult,
    ExperimentSpec,
    Session,
    SweepResult,
    get_default_session,
    sweep,
)

__version__ = "1.10.0"

__all__ = [
    "GaussianModel",
    "Camera",
    "TileRasterizer",
    "RenderOutput",
    "StreamingConfig",
    "StreamingRenderer",
    "RenderRequest",
    "RenderService",
    "SCENE_REGISTRY",
    "build_scene",
    "StreamingGSAccelerator",
    "OrinNXModel",
    "GSCoreModel",
    "Session",
    "ExperimentSpec",
    "ExperimentResult",
    "SweepResult",
    "sweep",
    "get_default_session",
    "__version__",
]
