"""Batched render front-end shared by the analysis harness and benchmarks.

:class:`RenderService` accepts many (model, camera, config) requests,
shares prepared state across them — streaming renderers (voxel grid, DRAM
layout, quantizer) are memoised per (model, config) and each renderer's
frame-preparation cache is reused across requests for the same view — and
returns images plus the workload statistics the architecture models consume.

The service is the single entry point the experiment harness renders
through; a process-wide default instance is available via
:func:`get_default_service` so independent experiments share renderers
within one run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer, StreamingRenderOutput
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RenderOutput, TileRasterizer

#: Renderers kept alive by the service (each owns a voxel grid + layout).
DEFAULT_RENDERER_CACHE_SIZE = 8


@dataclass
class RenderRequest:
    """One render to perform.

    ``mode`` selects the pipeline: ``"streaming"`` (memory-centric,
    Fig. 1b) or ``"tile"`` (tile-centric reference, Fig. 1a).
    """

    model: GaussianModel
    camera: Camera
    config: Optional[StreamingConfig] = None
    mode: str = "streaming"
    tag: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("streaming", "tile"):
            raise ValueError(f"unknown render mode {self.mode!r}")


@dataclass
class RenderResponse:
    """Image, alpha and workload statistics of one completed request."""

    request: RenderRequest
    output: Union[RenderOutput, StreamingRenderOutput]

    @property
    def image(self) -> np.ndarray:
        return self.output.image

    @property
    def alpha(self) -> np.ndarray:
        return self.output.alpha

    @property
    def stats(self):
        return self.output.stats

    @property
    def tag(self) -> str:
        return self.request.tag


@dataclass(frozen=True)
class RenderOptions:
    """How a render request executes — scheduling and resolution.

    Everything about *how* a frame renders (as opposed to *what* renders,
    which stays on :class:`RenderRequest`) lives here, so new execution
    knobs never widen the service signatures.

    Attributes
    ----------
    tile_workers:
        Processes rendering the frame's column blocks concurrently
        (``1`` = in the calling process).
    resolution_scale:
        Scale factor applied to the request camera's resolution (and
        focal lengths); ``1.0`` renders at the camera's native size.
    """

    tile_workers: int = 1
    resolution_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.tile_workers < 1:
            raise ValueError(f"tile_workers must be >= 1, got {self.tile_workers}")
        if not self.resolution_scale > 0:
            raise ValueError(
                f"resolution_scale must be positive, got {self.resolution_scale!r}"
            )

    # ------------------------------------------------------------------
    def resolved_camera(self, camera: Camera) -> Camera:
        """``camera`` scaled to this call's resolution."""
        if self.resolution_scale == 1.0:
            return camera
        return camera.scaled(self.resolution_scale)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (wire/JSON-expressible; inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RenderOptions":
        """Rebuild options from :meth:`to_dict` output, rejecting unknown keys."""
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown RenderOptions fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**dict(data))


class RenderService:
    """Shared-state batched renderer front-end.

    Parameters
    ----------
    max_renderers:
        Number of streaming renderers kept alive; building one is the
        expensive part (voxel grid, layout, optional VQ fit), so requests
        that revisit a (model, config) pair reuse it.
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
        #: Telemetry of the most recent streaming render (kernel, tile
        #: worker count, tiles, wall seconds) — per-frame observability for
        #: the runner's ``--telemetry-json`` dump.
        self.last_frame: Optional[dict] = None
        #: Telemetry of the most recent :meth:`render_trajectory` (frame
        #: count and each frame's telemetry).
        self.last_trajectory: Optional[dict] = None

    # ------------------------------------------------------------------
    def streaming_renderer(
        self,
        model: GaussianModel,
        config: Optional[StreamingConfig] = None,
        fingerprint: Optional[str] = None,
    ) -> StreamingRenderer:
        """The shared streaming renderer of a (model, config) pair.

        Keyed by the model's :meth:`~repro.gaussians.model.GaussianModel.content_fingerprint`,
        so models with equal parameters share one renderer while in-place
        parameter edits (e.g. a fine-tuning loop mutating the same object)
        miss the cache and get a renderer built from the current values.
        ``fingerprint`` lets batch callers that already hashed the model
        skip recomputing it (hashing covers every parameter array).
        """
        config = config or StreamingConfig()
        key = (fingerprint if fingerprint is not None else model.content_fingerprint(), config)
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
        with self._lock:
            self._renderers[key] = renderer
            self.peak_renderers = max(self.peak_renderers, len(self._renderers))
            while len(self._renderers) > self.max_renderers:
                self._renderers.popitem(last=False)
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
        request: RenderRequest,
        options: Optional[RenderOptions] = None,
        _fingerprint: Optional[str] = None,
    ) -> RenderResponse:
        """Serve one request.

        ``options`` (:class:`RenderOptions`) says how the frame executes:
        tile workers and the resolution scale.  Images are identical and statistics
        deterministic regardless of scheduling, with the per-frame
        telemetry (including the path and tile mode actually taken)
        recorded in :attr:`last_frame`.

        ``_fingerprint`` is internal: :meth:`render_batch` passes the model
        hash it already computed for grouping, so a batch hashes each model
        once instead of once per request.
        """
        options = options if options is not None else RenderOptions()
        config = request.config or StreamingConfig()
        camera = options.resolved_camera(request.camera)
        if request.mode == "tile":
            output: Union[RenderOutput, StreamingRenderOutput] = self.tile_rasterizer(
                config
            ).render(request.model, camera)
        else:
            output = self.streaming_renderer(
                request.model, config, fingerprint=_fingerprint
            ).render(camera, tile_workers=options.tile_workers)
            self.last_frame = dict(output.telemetry)
            if output.telemetry.get("tile_workers", 1) > 1:
                self.parallel_tile_frames += 1
        self.requests_served += 1
        return RenderResponse(request=request, output=output)

    def render_batch(
        self,
        requests: Iterable[RenderRequest],
        options: Optional[RenderOptions] = None,
    ) -> List[RenderResponse]:
        """Serve many requests, sharing renderers and prepared frames.

        Requests are grouped by (model, config) so each streaming renderer
        is built once and its frame-preparation cache sees every camera of
        the group back to back.  ``options`` applies to every streaming
        render of the batch (see :meth:`render`).
        """
        indexed = list(enumerate(requests))
        responses: List[Optional[RenderResponse]] = [None] * len(indexed)
        streaming = [(i, r) for i, r in indexed if r.mode == "streaming"]
        # Group streaming requests by shared renderer state; the key matches
        # the renderer cache's (content fingerprint, config), so equal-content
        # model objects land in one group.  Fingerprints hash every parameter
        # array, so compute them once per model object, not per request.
        groups: "OrderedDict[Tuple[str, StreamingConfig], List[Tuple[int, RenderRequest]]]" = (
            OrderedDict()
        )
        fingerprints: dict = {}
        for i, request in streaming:
            fingerprint = fingerprints.get(id(request.model))
            if fingerprint is None:
                fingerprint = request.model.content_fingerprint()
                fingerprints[id(request.model)] = fingerprint
            groups.setdefault(
                (fingerprint, request.config or StreamingConfig()), []
            ).append((i, request))
        for (fingerprint, _), group in groups.items():
            for i, request in group:
                responses[i] = self.render(
                    request, options=options, _fingerprint=fingerprint
                )
        for i, request in indexed:
            if request.mode != "streaming":
                responses[i] = self.render(request)
        return list(responses)  # type: ignore[arg-type]

    def render_trajectory(
        self,
        model: GaussianModel,
        cameras: Sequence[Camera],
        config: Optional[StreamingConfig] = None,
        options: Optional[RenderOptions] = None,
        tag: str = "",
    ) -> List[RenderResponse]:
        """Render a camera trajectory frame by frame through one renderer.

        The frames share a single streaming renderer (the model is hashed
        once, and revisited poses hit its frame cache) and run in
        trajectory order.  Every frame's telemetry is collected in
        :attr:`last_trajectory`.
        """
        options = options if options is not None else RenderOptions()
        fingerprint = model.content_fingerprint()
        responses: List[RenderResponse] = []
        frames: List[dict] = []
        for index, camera in enumerate(cameras):
            request = RenderRequest(
                model=model,
                camera=camera,
                config=config,
                mode="streaming",
                tag=tag or f"frame{index}",
            )
            responses.append(
                self.render(request, options=options, _fingerprint=fingerprint)
            )
            frames.append(dict(self.last_frame or {}))
        self.last_trajectory = {"frames": len(frames), "per_frame": frames}
        return responses

    # ------------------------------------------------------------------
    def render_pair(
        self,
        model: GaussianModel,
        camera: Camera,
        config: Optional[StreamingConfig] = None,
    ) -> Tuple[RenderOutput, StreamingRenderOutput]:
        """Tile-centric reference and streaming render of the same scene."""
        tile, streaming = self.render_batch(
            [
                RenderRequest(model=model, camera=camera, config=config, mode="tile"),
                RenderRequest(
                    model=model, camera=camera, config=config, mode="streaming"
                ),
            ]
        )
        return tile.output, streaming.output  # type: ignore[return-value]

    def stats(self) -> dict:
        """Counter snapshot (requests served, renderer cache, last frames)."""
        with self._lock:
            return {
                "requests_served": self.requests_served,
                "renderer_hits": self.renderer_hits,
                "renderer_misses": self.renderer_misses,
                "renderers_alive": len(self._renderers),
                "peak_renderers": self.peak_renderers,
                "parallel_tile_frames": self.parallel_tile_frames,
                "last_frame": dict(self.last_frame) if self.last_frame else None,
                "last_trajectory": (
                    dict(self.last_trajectory) if self.last_trajectory else None
                ),
            }

    def clear(self) -> None:
        """Drop every cached renderer (counters are kept)."""
        with self._lock:
            self._renderers.clear()

    def close(self) -> None:
        """Release held state; alias of :meth:`clear` for lifecycle symmetry.

        :meth:`Session.close` calls this so shutting a session down frees
        renderer memory (voxel grids, layouts, codebooks) along with the
        worker pool.
        """
        self.clear()


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
