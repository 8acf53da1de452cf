"""Unified render-engine layer shared by both rendering paradigms.

The paper compares two renderers — the tile-centric 3DGS baseline
(Fig. 1a) and the memory-centric streaming pipeline (Fig. 1b).  Both sit on
top of this subsystem:

* :mod:`repro.engine.kernels` — the alpha-blending kernels: the
  per-Gaussian reference loop (the oracle) and ``blend_streaming``, the one
  vectorized blend both renderers run over stacked tile columns (the path
  is chosen by ``StreamingConfig.streaming_kernel`` /
  ``TileRasterizer(kernel=...)``; vectorized is the default);
* :mod:`repro.engine.state` — the resumable :class:`BlendState` with dense
  array-based per-Gaussian weight/violation accumulators;
* :mod:`repro.engine.cache` — the frame-preparation cache memoizing voxel
  depth maps, per-tile ordering tables and topological orders per camera
  pose;
* :mod:`repro.engine.service` — :class:`RenderService`, the batched
  front-end that shares renderers and prepared frames across many
  (model, camera, config) requests;
* :mod:`repro.engine.bench` — the kernel micro-benchmark behind the
  ``engine`` analysis experiment and ``benchmarks/bench_engine.py``.
"""

from repro.engine.state import BlendState
from repro.engine.kernels import (
    ALPHA_EPSILON,
    ALPHA_MAX,
    RENDER_PATHS,
    TRANSMITTANCE_EPSILON,
    blend_reference,
    blend_streaming,
)
from repro.engine.cache import FrameCache, FramePreparation, frame_key

#: Symbols that sit on top of ``repro.core`` / the rasterizer and would
#: close an import cycle if loaded eagerly (the kernel/state layer is a
#: dependency of both renderers); resolved lazily via PEP 562.
_LAZY = {
    "RenderRequest": "repro.engine.service",
    "RenderResponse": "repro.engine.service",
    "RenderService": "repro.engine.service",
    "get_default_service": "repro.engine.service",
    "reset_default_service": "repro.engine.service",
    "KernelBenchResult": "repro.engine.bench",
    "run_kernel_benchmark": "repro.engine.bench",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BlendState",
    "ALPHA_EPSILON",
    "ALPHA_MAX",
    "RENDER_PATHS",
    "TRANSMITTANCE_EPSILON",
    "blend_reference",
    "blend_streaming",
    "FrameCache",
    "FramePreparation",
    "frame_key",
    "RenderRequest",
    "RenderResponse",
    "RenderService",
    "get_default_service",
    "reset_default_service",
    "KernelBenchResult",
    "run_kernel_benchmark",
]
