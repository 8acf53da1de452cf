"""The :class:`Session` — the single front-end for running anything here.

A session owns a :class:`~repro.engine.service.RenderService` (shared
renderers and prepared frames) and a scene-context cache (calibrated
models, ground truths and paper-scale workloads), so repeated runs share
prepared state.  Everything the repository can do is reachable
from it:

* ``session.render(model_or_scene, camera)`` — one frame through the
  shared engine (a renderer's later frames on one process per CPU, see
  :mod:`repro.engine.tile_parallel`);
* ``session.render_trajectory(spec)`` — a
  :class:`~repro.api.spec.TrajectorySpec` workload rendered frame by
  frame, with :meth:`Session.run_trajectory` producing the cacheable
  :class:`~repro.api.result.ExperimentResult` form;
* ``session.context(scene)`` — the cached evaluation context of a scene;
* ``session.run(spec)`` — one declarative experiment point
  (:class:`~repro.api.spec.ExperimentSpec`) evaluated end to end, returning
  an :class:`~repro.api.result.ExperimentResult`;
* ``session.run(name)`` — a registered paper artifact (``fig12``,
  ``tab2``, ...);
* ``session.run_many(specs)`` — a batch of points grouped by shared scene
  context, so each context is built once;
* ``session.sweep(base, voxel_size=[...])`` — a parameter-grid sensitivity
  study returning a :class:`~repro.api.result.SweepResult`.

``Session(jobs=, store=)`` is the one place that says how sweeps run and
what they cache.  A sweep reads every point the
:class:`~repro.api.store.ResultStore` holds from disk and groups the rest
into shards by the scene context they need.  With ``jobs == 1`` or a
single shard (one scene context) it runs them in this session; otherwise
it runs whole shards on the session's persistent process pool
(:class:`~repro.api.pool.WorkerPool`): created lazily by the first such
sweep (or experiment schedule), reused by every later one, shut down by
:meth:`Session.close` (sessions are context managers:
``with Session(jobs=4) as s: ...``) or at interpreter exit.  Each sweep's
telemetry lands in ``SweepResult.meta["execution"]`` and
``session.last_execution``.

A process-wide default session is available via
:func:`get_default_session`; the analysis harness and the CLI runner go
through it so independent experiments share scene contexts and renderers
within one process.
"""

from __future__ import annotations

import atexit
import functools
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.context import SceneContext, build_scene_context
from repro.analysis.report import format_table
from repro.api.executor import (
    ExecutionReport,
    SpecEvaluationError,
    evaluate_shard,
    fan_out,
    group_by_context,
)
from repro.api.pool import WorkerPool
from repro.api.result import ExperimentResult, SweepResult
from repro.api.spec import ExperimentSpec, TrajectorySpec, sweep
from repro.api.store import ResultStore, resolve_store
from repro.arch.gpu import OrinNXModel
from repro.arch.gscore import GSCoreModel
from repro.arch.accelerator import StreamingGSAccelerator
from repro.core.config import StreamingConfig, check_positive_finite
from repro.engine.service import (
    DEFAULT_RENDERER_CACHE_SIZE,
    RenderResponse,
    RenderService,
)
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.scenes.registry import SCENE_REGISTRY, build_scene

#: Scene contexts kept alive per session (each owns a calibrated model,
#: ground-truth image and workload).
DEFAULT_CONTEXT_CACHE_SIZE = 64

#: Metric presentation order of a point result's formatted report.
_POINT_METRIC_ORDER = (
    "baseline_psnr",
    "streaming_psnr",
    "psnr_drop",
    "frame_time_ms",
    "fps",
    "energy_per_frame_mj",
    "dram_mb_per_frame",
    "speedup",
    "energy_savings",
    "filtering_reduction",
    "area_mm2",
)


class Session:
    """Shared-state front-end for rendering and experiments.

    Parameters
    ----------
    service:
        Render service to use; a private one is created when omitted.
    max_renderers:
        Renderer-cache size of a privately created service.
    jobs:
        Worker count of :meth:`run_sweep` / :meth:`sweep` (``1`` = serial
        in-process).
    store:
        :class:`~repro.api.store.ResultStore` (or a directory path for one)
        consulted and filled by sweeps and trajectory runs; ``None``
        disables result caching.
    """

    def __init__(
        self,
        service: Optional[RenderService] = None,
        max_renderers: int = DEFAULT_RENDERER_CACHE_SIZE,
        jobs: int = 1,
        store: Optional[Union["ResultStore", str, Path]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        #: Whether the session built its service (and may close it); a
        #: service passed in — e.g. the process-wide default — is shared
        #: state the session must not tear down.
        self._owns_service = service is None
        self.service = service if service is not None else RenderService(max_renderers=max_renderers)
        self.jobs = jobs
        self.store = resolve_store(store)
        self._contexts: "OrderedDict[Tuple, SceneContext]" = OrderedDict()
        #: Procedural scene models built by name-based renders (cheap next
        #: to a full SceneContext, but not free — one build per scene).
        self._scene_models: Dict[str, GaussianModel] = {}
        self._pool: Optional[WorkerPool] = None
        #: :class:`~repro.api.executor.ExecutionReport` of the most recent
        #: :meth:`run_sweep`, one that raised included (telemetry; also in
        #: ``SweepResult.meta``).
        self.last_execution = None
        self.points_run = 0
        self.context_hits = 0
        self.context_misses = 0

    # ------------------------------------------------------------------
    # Rendering (delegates to the shared engine service).
    # ------------------------------------------------------------------
    def scene_model(self, scene: str) -> GaussianModel:
        """The cached procedural Gaussian model of a registered scene."""
        model = self._scene_models.get(scene)
        if model is None:
            model = build_scene(scene)
            self._scene_models[scene] = model
        return model

    def render(
        self,
        scene: Union[GaussianModel, str],
        camera: Camera,
        config: Optional[StreamingConfig] = None,
        mode: str = "streaming",
    ) -> RenderResponse:
        """Render one frame through the session's engine.

        ``scene`` is a model or a registered scene name (its cached
        procedural model, :meth:`scene_model`); ``mode`` is ``"streaming"``
        or ``"tile"`` (:meth:`RenderService.render`).  The renderer
        chooses the process count: from a renderer's second frame on, a
        large frame rendered on the main thread runs on one process per
        CPU available (see :mod:`repro.engine.tile_parallel`), bit-identical
        to a one-process frame, per-Gaussian weights included.  For a
        smaller image pass ``camera.scaled(s)``.
        """
        model = self.scene_model(scene) if isinstance(scene, str) else scene
        return self.service.render(model, camera, config, mode)

    def render_trajectory(self, spec: TrajectorySpec) -> List[RenderResponse]:
        """Render a trajectory spec's camera path, one response per frame.

        Every frame goes through :meth:`RenderService.render` with the
        spec's resolved streaming config, in path order; revisited poses
        hit the renderer's frame cache.  Each frame's telemetry is in its
        response's ``output.telemetry``.
        """
        model = self.scene_model(spec.scene)
        config = spec.streaming_config()
        return [self.service.render(model, camera, config) for camera in spec.cameras()]

    def run_trajectory(self, spec: TrajectorySpec) -> ExperimentResult:
        """Run a trajectory workload end to end, with result-store caching.

        Renders the spec (:meth:`render_trajectory`), folds the frames'
        own telemetry into an :class:`~repro.api.result.ExperimentResult`
        (frame count, wall seconds, image checksums) and caches it in the
        session's store under the spec's canonical key — same contract as
        experiment points.
        """
        if self.store is not None:
            cached = self.store.get(spec)
            if cached is not None:
                return cached
        responses = self.render_trajectory(spec)
        per_frame = [dict(response.output.telemetry) for response in responses]
        seconds = [float(f.get("seconds", 0.0)) for f in per_frame]
        metrics = {
            "frames": float(len(responses)),
            "total_seconds": float(sum(seconds)),
            "mean_frame_ms": (
                1e3 * float(np.mean(seconds)) if seconds else 0.0
            ),
        }
        title = f"trajectory — {spec.label}"
        rows = [[name, value] for name, value in metrics.items()]
        result = ExperimentResult(
            name="trajectory",
            title=title,
            text=format_table(["metric", "value"], rows, title=title),
            metrics=metrics,
            payload={
                "spec": spec.to_dict(),
                "summary": {"frames": len(responses)},
                "per_frame": per_frame,
                "image_checksums": [
                    float(np.abs(response.image).sum()) for response in responses
                ],
            },
            meta={"label": spec.label, "tag": spec.tag},
        )
        self.points_run += 1
        if self.store is not None:
            try:
                self.store.put(spec, result)
            except OSError:
                # The cache is best-effort: a full/broken disk must not
                # fail the run that already produced the result.
                pass
        return result

    def streaming_renderer(
        self, model: GaussianModel, config: Optional[StreamingConfig] = None
    ):
        """The shared streaming renderer of a (model, config) pair."""
        return self.service.streaming_renderer(model, config)

    def tile_rasterizer(self, config: Optional[StreamingConfig] = None):
        """A tile-centric rasterizer matching the streaming configuration."""
        return self.service.tile_rasterizer(config)

    def isolated(self, max_renderers: int = 1) -> "Session":
        """A fresh session sharing nothing with this one.

        Used for throwaway renders (e.g. fine-tuning probes, each of a new
        model) that must not evict this session's shared renderers.
        """
        return Session(max_renderers=max_renderers)

    # ------------------------------------------------------------------
    # Scene contexts.
    # ------------------------------------------------------------------
    def context(
        self,
        scene: str,
        algorithm: str = "3dgs",
        voxel_size: Optional[float] = None,
        resolution_scale: float = 1.0,
        config: Optional[Union[StreamingConfig, Mapping[str, Any]]] = None,
    ) -> SceneContext:
        """The cached evaluation context of one (scene, algorithm) pair.

        Parameters
        ----------
        scene:
            Registered scene name.
        algorithm:
            Base algorithm (``3dgs``, ``mini_splatting``, ``light_gaussian``).
        voxel_size:
            Streaming voxel size, finite and above 0; ``None`` uses the
            paper's default for the scene's category.
        resolution_scale:
            Scale factor on the simulated evaluation resolution, finite
            and above 0.
        config:
            Full :class:`StreamingConfig` or a mapping of field overrides;
            mutually exclusive with ``voxel_size``.
        """
        if scene not in SCENE_REGISTRY:
            raise KeyError(f"unknown scene {scene!r}; available: {sorted(SCENE_REGISTRY)}")
        if config is not None and voxel_size is not None:
            raise ValueError("pass voxel_size or config, not both")
        check_positive_finite("resolution_scale", resolution_scale)
        descriptor = SCENE_REGISTRY[scene]
        if config is None:
            if voxel_size is None:
                voxel_size = descriptor.default_voxel_size
            resolved = StreamingConfig(voxel_size=float(voxel_size))
        elif isinstance(config, StreamingConfig):
            resolved = config
        else:
            resolved = StreamingConfig(voxel_size=descriptor.default_voxel_size).with_options(
                **dict(config)
            )
        key = (scene, algorithm, resolved, float(resolution_scale))
        context = self._contexts.get(key)
        if context is not None:
            self._contexts.move_to_end(key)
            self.context_hits += 1
            return context
        self.context_misses += 1
        context = build_scene_context(
            scene,
            algorithm=algorithm,
            config=resolved,
            resolution_scale=float(resolution_scale),
            service=self.service,
        )
        self._contexts[key] = context
        while len(self._contexts) > DEFAULT_CONTEXT_CACHE_SIZE:
            self._contexts.popitem(last=False)
        return context

    def spec_context(self, spec: ExperimentSpec) -> SceneContext:
        """The evaluation context behind one experiment spec."""
        return self.context(
            spec.scene,
            algorithm=spec.algorithm,
            resolution_scale=spec.resolution_scale,
            config=spec.streaming_config(),
        )

    # ------------------------------------------------------------------
    # Experiments.
    # ------------------------------------------------------------------
    def run(
        self, spec: Union[ExperimentSpec, str], **overrides: Any
    ) -> ExperimentResult:
        """Run one experiment.

        ``spec`` is either an :class:`ExperimentSpec` (a single evaluation
        point; keyword overrides are applied with
        :meth:`ExperimentSpec.with_options`) or the name of a registered
        paper artifact (``fig2`` ... ``engine``; keywords are passed to the
        experiment builder).
        """
        if isinstance(spec, str):
            from repro.api.experiments import get_experiment

            return get_experiment(spec).build(self, **overrides)
        if overrides:
            spec = spec.with_options(**overrides)
        return self.run_point(spec)

    def run_point(self, spec: ExperimentSpec) -> ExperimentResult:
        """Evaluate one spec end to end: render, workload, hardware model."""
        context = self.spec_context(spec)
        workload = context.workload
        gpu_report = OrinNXModel().evaluate(workload)
        accelerator = None
        if spec.arch == "gpu":
            report = gpu_report
        elif spec.arch == "gscore":
            report = GSCoreModel().evaluate(workload)
        else:
            accelerator = StreamingGSAccelerator(spec.accelerator_config())
            report = accelerator.evaluate(workload)

        metrics = {
            "baseline_psnr": context.baseline_psnr,
            "streaming_psnr": context.streaming_psnr,
            "psnr_drop": context.baseline_psnr - context.streaming_psnr,
            "frame_time_ms": report.frame_time_s * 1e3,
            "fps": report.fps,
            "energy_per_frame_mj": report.energy_per_frame_j * 1e3,
            "dram_mb_per_frame": report.dram_bytes / 1e6,
            "speedup": report.speedup_over(gpu_report),
            "energy_savings": report.energy_saving_over(gpu_report),
            "filtering_reduction": workload.filtering_reduction,
        }
        if accelerator is not None:
            # The accelerator's own area model sees the (possibly
            # sram_scale-adjusted) buffers, so area tracks the SRAM knob.
            metrics["area_mm2"] = accelerator.area_mm2()

        config = context.streaming_config
        title = f"experiment point — {spec.label}"
        rows = [[name, metrics[name]] for name in _POINT_METRIC_ORDER if name in metrics]
        text = format_table(["metric", "value"], rows, title=title)
        self.points_run += 1
        return ExperimentResult(
            name="point",
            title=title,
            text=text,
            metrics=metrics,
            payload={
                "spec": spec.to_dict(),
                "scene_category": context.descriptor.category,
                "hardware": report.name,
                "config": {
                    "voxel_size": config.voxel_size,
                    "tile_size": config.tile_size,
                    "streaming_kernel": config.streaming_kernel,
                    "use_vq": config.use_vq,
                    "use_coarse_filter": config.use_coarse_filter,
                },
                "workload": {
                    "num_gaussians": workload.num_gaussians,
                    "visible_gaussians": workload.visible_gaussians,
                    "num_pairs": workload.num_pairs,
                    "gaussians_streamed": workload.gaussians_streamed,
                },
            },
            meta={"label": spec.label, "tag": spec.tag},
        )

    def run_many(self, specs: Sequence[ExperimentSpec]) -> List[ExperimentResult]:
        """Evaluate a batch of points, grouped by shared scene context.

        Specs needing the same context (same scene, algorithm, resolution
        scale and resolved streaming config) are evaluated back to back, so
        each context is built once even when the input interleaves
        contexts and the LRU cache is small.  Results come back in input
        order.

        A point that raises is re-raised as a
        :class:`~repro.api.executor.SpecEvaluationError` naming the
        offending spec, so batch (and pool-worker) failures always say
        which grid point died.
        """
        results: List[Optional[ExperimentResult]] = [None] * len(specs)
        for members in group_by_context(enumerate(specs)).values():
            for index, spec in members:
                try:
                    results[index] = self.run_point(spec)
                except SpecEvaluationError:
                    raise
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as error:
                    raise SpecEvaluationError(spec, error) from error
        return results  # type: ignore[return-value]

    def run_sweep(
        self, specs: Sequence[ExperimentSpec], swept: Optional[Sequence[str]] = None
    ) -> SweepResult:
        """Evaluate a list of point specs at the session's ``jobs`` and ``store``.

        Every point the store holds is read from it.  The rest are grouped
        into shards by scene context
        (:func:`~repro.api.executor.group_by_context`) and run through
        :func:`~repro.api.executor.fan_out`: in this session for one job or
        one shard, otherwise whole shards on the session's worker pool.
        Results come back in input order, so the tables are byte-identical
        to a serial run however the workers are scheduled, and new results
        go to the store.  ``swept`` names the swept axes.
        """
        started = time.perf_counter()
        specs = list(specs)
        results: List[Optional[ExperimentResult]] = [None] * len(specs)
        report = ExecutionReport(jobs=self.jobs, specs=len(specs))
        try:
            pending: List[Tuple[int, ExperimentSpec]] = []
            for index, spec in enumerate(specs):
                cached = self.store.get(spec) if self.store is not None else None
                if cached is not None:
                    results[index] = cached
                else:
                    pending.append((index, spec))
            report.cache_hits = len(specs) - len(pending)
            report.cache_misses = len(pending)

            if pending:
                shards = list(group_by_context(pending).values())
                report.shards = len(shards)
                report.shard_sizes = [len(members) for members in shards]
                payloads = fan_out(
                    report,
                    self,
                    evaluate_shard,
                    [([spec for _, spec in members],) for members in shards],
                    functools.partial(evaluate_shard, session=self),
                )
                for members, payload in zip(shards, payloads):
                    for (index, _), result in zip(members, payload["results"]):
                        results[index] = ExperimentResult.from_dict(result)
                if self.store is not None:
                    for index, spec in pending:
                        try:
                            self.store.put(spec, results[index])
                        except OSError:
                            # Best-effort cache: losing the entry only costs a
                            # future hit, never the sweep that computed it.
                            continue
        finally:
            # A sweep that raises publishes its report too.
            report.wall_time_s = time.perf_counter() - started
            self.last_execution = report
        return SweepResult(
            results=results,
            swept=list(swept or []),
            meta={"execution": report.to_dict()},
        )

    def sweep(self, base: Optional[ExperimentSpec] = None, **grid: Any) -> SweepResult:
        """Expand a parameter grid (:func:`repro.api.spec.sweep`) and run it."""
        return self.run_sweep(sweep(base, **grid), swept=list(grid))

    # ------------------------------------------------------------------
    # Worker-pool lifecycle.
    # ------------------------------------------------------------------
    def worker_pool(self) -> WorkerPool:
        """The session's persistent :class:`~repro.api.pool.WorkerPool`.

        Created lazily on the first parallel sweep or experiment schedule
        and reused by every later one (the execution report's
        ``worker_reuse`` counter tracks this), so repeated runs in one
        process pay worker startup once.  Shut down by :meth:`close` — or
        at interpreter exit via the ``atexit`` hook registered here, so
        forgotten sessions never wedge shutdown.
        """
        if self._pool is None or self._pool.closed:
            self._pool = WorkerPool()
            atexit.register(self._pool.shutdown)
        return self._pool

    def close(self) -> None:
        """Release everything the session holds.

        Shuts the persistent worker pool down (and unregisters its atexit
        hook), then drops cached contexts — and cached renderers too, but
        only when the session built its own service: a shared service
        (e.g. the process-wide default) belongs to every session using it
        and is left untouched.  The session remains usable — the next
        parallel sweep simply builds a fresh pool — so ``close()`` is safe
        to call between phases of a long process to return memory and
        worker processes.
        """
        if self._pool is not None:
            atexit.unregister(self._pool.shutdown)
            self._pool.shutdown()
            self._pool = None
        self._contexts.clear()
        self._scene_models.clear()
        if self._owns_service:
            self.service.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counter snapshot: points run, context cache, pool, render service."""
        return {
            "points_run": self.points_run,
            "context_hits": self.context_hits,
            "context_misses": self.context_misses,
            "contexts_alive": len(self._contexts),
            "pool": self._pool.stats() if self._pool is not None else None,
            "service": self.service.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(contexts={len(self._contexts)}, "
            f"renderers={len(self.service._renderers)})"
        )


_DEFAULT_SESSION: Optional[Session] = None


def get_default_session() -> Session:
    """The process-wide shared :class:`Session`.

    Wraps the process-wide engine service, so code rendering through
    :func:`repro.engine.service.get_default_service` and code running
    experiments through the default session share renderers.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        from repro.engine.service import get_default_service

        _DEFAULT_SESSION = Session(service=get_default_service())
    return _DEFAULT_SESSION


def reset_default_session() -> None:
    """Replace the process-wide session (used by tests).

    The outgoing session is closed, not orphaned: its worker pool and
    cached contexts are released now rather than at interpreter exit (the
    shared engine service is left untouched, as for any
    :meth:`Session.close`).
    """
    global _DEFAULT_SESSION
    outgoing, _DEFAULT_SESSION = _DEFAULT_SESSION, None
    if outgoing is not None:
        outgoing.close()
