"""Render front-end shared by the analysis harness, sessions and benchmarks.

:class:`RenderService` renders one (model, camera, config) frame per
:meth:`~RenderService.render` call and shares prepared state across calls:
streaming renderers (voxel grid, DRAM layout, quantizer) are memoised per
(model, config), and each renderer's frame-preparation cache is reused
across frames of the same view.  Each call returns the image plus the
workload statistics the architecture models consume.

The service is the single entry point the experiment harness renders
through; a process-wide default instance is available via
:func:`get_default_service` so independent experiments share renderers
within one run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer, StreamingRenderOutput
from repro.engine.tile_parallel import release_renderers
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RenderOutput, TileRasterizer

#: Renderers kept alive by the service (each owns a voxel grid + layout).
DEFAULT_RENDERER_CACHE_SIZE = 8


@dataclass
class RenderResponse:
    """Image, alpha and workload statistics of one completed render."""

    output: Union[RenderOutput, StreamingRenderOutput]

    @property
    def image(self) -> np.ndarray:
        return self.output.image


class RenderService:
    """Shared-state renderer front-end.

    Parameters
    ----------
    max_renderers:
        Number of streaming renderers kept alive; building one is the
        expensive part (voxel grid, layout, optional VQ fit), so frames
        that revisit a (model, config) pair reuse it.  A renderer the
        service evicts (or drops on :meth:`clear`) leaves the tile workers
        too.
    """

    def __init__(self, max_renderers: int = DEFAULT_RENDERER_CACHE_SIZE) -> None:
        if max_renderers <= 0:
            raise ValueError("max_renderers must be positive")
        self.max_renderers = max_renderers
        self._renderers: "OrderedDict[Tuple[str, StreamingConfig], StreamingRenderer]" = (
            OrderedDict()
        )
        # The service daemon shares one RenderService across worker-actor
        # threads; the renderer-cache LRU bookkeeping (get + move_to_end +
        # evict) must be atomic under that concurrency.
        self._lock = threading.RLock()
        self.requests_served = 0
        self.renderer_hits = 0
        self.renderer_misses = 0
        self.peak_renderers = 0
        self.parallel_tile_frames = 0
        #: Telemetry of the most recent streaming render (path, tile
        #: worker count, tiles, wall seconds), a gauge for ``/metrics`` and
        #: the runner's ``--telemetry-json`` dump.  Nothing reads results
        #: from it: the daemon's actor threads share one service, so it may
        #: hold another caller's frame.
        self.last_frame: Optional[dict] = None

    # ------------------------------------------------------------------
    def streaming_renderer(
        self,
        model: GaussianModel,
        config: Optional[StreamingConfig] = None,
    ) -> StreamingRenderer:
        """The shared streaming renderer of a (model, config) pair.

        Keyed by the model's
        :meth:`~repro.gaussians.model.GaussianModel.content_fingerprint`
        (computed once per model), so models with equal parameters share
        one renderer.
        """
        config = config or StreamingConfig()
        key = (model.content_fingerprint(), config)
        with self._lock:
            renderer = self._renderers.get(key)
            if renderer is not None:
                self._renderers.move_to_end(key)
                self.renderer_hits += 1
                return renderer
            self.renderer_misses += 1
        # Building a renderer is the expensive part (voxel grid, layout,
        # optional VQ fit); do it unlocked so concurrent misses on other
        # keys are not serialized.  A racing duplicate build of the same
        # key is rare and harmless: last writer wins.
        renderer = StreamingRenderer(model, config)
        evicted = []
        with self._lock:
            self._renderers[key] = renderer
            self.peak_renderers = max(self.peak_renderers, len(self._renderers))
            while len(self._renderers) > self.max_renderers:
                evicted.append(self._renderers.popitem(last=False)[1])
        release_renderers(evicted)
        return renderer

    @staticmethod
    def tile_rasterizer(config: Optional[StreamingConfig] = None) -> TileRasterizer:
        """A tile-centric rasterizer matching the streaming configuration."""
        config = config or StreamingConfig()
        return TileRasterizer(
            tile_size=config.tile_size,
            background=config.background,
            sh_degree=config.sh_degree,
            kernel=config.streaming_kernel,
        )

    # ------------------------------------------------------------------
    def render(
        self,
        model: GaussianModel,
        camera: Camera,
        config: Optional[StreamingConfig] = None,
        mode: str = "streaming",
    ) -> RenderResponse:
        """Render one frame.

        ``mode`` selects the pipeline: ``"streaming"`` (memory-centric,
        Fig. 1b) through the shared renderer of (model, config), or
        ``"tile"`` (tile-centric reference, Fig. 1a).  The renderer chooses
        its process count (:func:`~repro.engine.tile_parallel.auto_tile_workers`);
        images are identical and statistics deterministic whatever it
        picks.  A streaming frame's telemetry is in the response's
        ``output.telemetry`` and, as a gauge of the most recent frame, in
        :attr:`last_frame`.
        """
        if mode not in ("streaming", "tile"):
            raise ValueError(f"unknown render mode {mode!r}")
        config = config or StreamingConfig()
        if mode == "tile":
            output: Union[RenderOutput, StreamingRenderOutput] = self.tile_rasterizer(
                config
            ).render(model, camera)
        else:
            output = self.streaming_renderer(model, config).render(camera)
            self.last_frame = dict(output.telemetry)
            if output.telemetry.get("tile_workers", 1) > 1:
                self.parallel_tile_frames += 1
        self.requests_served += 1
        return RenderResponse(output=output)

    def stats(self) -> dict:
        """Counter snapshot (requests served, renderer cache, last frame)."""
        with self._lock:
            return {
                "requests_served": self.requests_served,
                "renderer_hits": self.renderer_hits,
                "renderer_misses": self.renderer_misses,
                "renderers_alive": len(self._renderers),
                "peak_renderers": self.peak_renderers,
                "parallel_tile_frames": self.parallel_tile_frames,
                "last_frame": dict(self.last_frame) if self.last_frame else None,
            }

    def clear(self) -> None:
        """Drop every cached renderer, from the tile workers too (counters are kept)."""
        with self._lock:
            renderers = list(self._renderers.values())
            self._renderers.clear()
        release_renderers(renderers)


_DEFAULT_SERVICE: Optional[RenderService] = None


def get_default_service() -> RenderService:
    """The process-wide shared :class:`RenderService`."""
    global _DEFAULT_SERVICE
    if _DEFAULT_SERVICE is None:
        _DEFAULT_SERVICE = RenderService()
    return _DEFAULT_SERVICE


def reset_default_service() -> None:
    """Replace the process-wide service (used by tests)."""
    global _DEFAULT_SERVICE
    _DEFAULT_SERVICE = None
