"""The :class:`Session` — the single front-end for running anything here.

A session owns a :class:`~repro.engine.service.RenderService` (shared
renderers and prepared frames), a scene-context cache (calibrated models,
ground truths and paper-scale workloads), and a seeded RNG, so repeated
runs share prepared state.  Everything the repository can do is reachable
from it:

* ``session.render(model, camera)`` — one render through the shared engine;
* ``session.render("train", "orbit", frames=24)`` — a whole trajectory
  workload (named path or explicit camera list, or a full
  :class:`~repro.api.spec.TrajectorySpec`) rendered frame by frame, with
  :meth:`Session.run_trajectory` producing the cacheable
  :class:`~repro.api.result.ExperimentResult` form;
* ``session.context(scene)`` — the cached evaluation context of a scene;
* ``session.run(spec)`` — one declarative experiment point
  (:class:`~repro.api.spec.ExperimentSpec`) evaluated end to end, returning
  an :class:`~repro.api.result.ExperimentResult`;
* ``session.run(name)`` — a registered paper artifact (``fig12``,
  ``tab2``, ...);
* ``session.run_many(specs)`` — a batch of points grouped by shared scene
  context, so each context is built once and its renders are batched;
* ``session.sweep(base, voxel_size=[...])`` — a parameter-grid sensitivity
  study returning a :class:`~repro.api.result.SweepResult`; ``jobs=`` and
  ``cache=`` route it through the sharded
  :class:`~repro.api.executor.SweepExecutor` and the disk-backed
  :class:`~repro.api.store.ResultStore`.

Parallel sweeps run on the session's persistent
:class:`~repro.api.pool.WorkerPool`: created lazily by the first sweep,
reused by every later one, shut down by :meth:`Session.close` (sessions
are context managers: ``with Session(jobs=4) as s: ...``) or at
interpreter exit.  Each sweep's telemetry lands in
``SweepResult.meta["execution"]`` and ``session.last_execution``.

A process-wide default session is available via
:func:`get_default_session`; the analysis harness and the CLI runner go
through it so independent experiments share scene contexts and renderers
within one process.
"""

from __future__ import annotations

import atexit
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.context import SceneContext, build_scene_context
from repro.analysis.report import format_table
from repro.api.pool import WorkerPool
from repro.api.result import ExperimentResult, SweepResult
from repro.api.spec import ExperimentSpec, TrajectorySpec, sweep
from repro.api.store import ResultStore, resolve_store
from repro.arch.gpu import OrinNXModel
from repro.arch.gscore import GSCoreModel
from repro.arch.accelerator import StreamingGSAccelerator
from repro.core.config import StreamingConfig
from repro.engine.service import (
    DEFAULT_RENDERER_CACHE_SIZE,
    RenderOptions,
    RenderRequest,
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
    seed:
        Seed of the session's RNG (``session.rng``), the one source of
        randomness experiment code running under the session should use.
    max_renderers:
        Renderer-cache size of a privately created service.
    max_contexts:
        Scene contexts kept alive (LRU).
    jobs:
        Default worker count of :meth:`run_sweep` / :meth:`sweep`
        (``1`` = serial in-process).
    store:
        Default :class:`~repro.api.store.ResultStore` (or a directory path
        for one) consulted by sweeps; ``None`` disables result caching.
    """

    def __init__(
        self,
        service: Optional[RenderService] = None,
        seed: int = 0,
        max_renderers: int = DEFAULT_RENDERER_CACHE_SIZE,
        max_contexts: int = DEFAULT_CONTEXT_CACHE_SIZE,
        jobs: int = 1,
        store: Optional[Union["ResultStore", str, Path]] = None,
    ) -> None:
        if max_contexts <= 0:
            raise ValueError("max_contexts must be positive")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        #: Whether the session built its service (and may close it); a
        #: service passed in — e.g. the process-wide default — is shared
        #: state the session must not tear down.
        self._owns_service = service is None
        self.service = service if service is not None else RenderService(max_renderers=max_renderers)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.max_contexts = max_contexts
        self.jobs = jobs
        self.store = resolve_store(store)
        self._contexts: "OrderedDict[Tuple, SceneContext]" = OrderedDict()
        #: Procedural scene models built by name-based renders (cheap next
        #: to a full SceneContext, but not free — one build per scene).
        self._scene_models: Dict[str, GaussianModel] = {}
        self._pool: Optional[WorkerPool] = None
        #: Shared-memory registry + per-context-key package cache backing
        #: zero-copy context broadcast (created lazily by parallel sweeps).
        self._shm_registry = None
        self._context_packages: Dict[Tuple, Any] = {}
        #: :class:`~repro.api.executor.ExecutionReport` of the most recent
        #: :meth:`run_sweep` (telemetry; also in ``SweepResult.meta``).
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
        scene: Union[GaussianModel, str, TrajectorySpec],
        camera_or_trajectory: Union[Camera, str, Sequence[Camera], None] = None,
        config: Optional[StreamingConfig] = None,
        mode: str = "streaming",
        tag: str = "",
        options: Optional[RenderOptions] = None,
        frames: int = 16,
    ) -> Union[RenderResponse, List[RenderResponse]]:
        """Render one frame or a whole trajectory through the session's engine.

        The public single-frame/trajectory entry point.  Accepted forms:

        * ``render(model, camera)`` — the original single-frame form
          (returns one :class:`RenderResponse`);
        * ``render("train", camera)`` — same, with the scene's cached
          procedural model resolved by name;
        * ``render("train", "orbit", frames=24)`` — a registered trajectory
          workload (returns the per-frame response list; see
          :data:`repro.scenes.registry.TRAJECTORY_REGISTRY`);
        * ``render(model_or_scene, [cam0, cam1, ...])`` — an explicit
          camera path;
        * ``render(trajectory_spec)`` — a full
          :class:`~repro.api.spec.TrajectorySpec` workload.

        ``options`` (:class:`~repro.engine.service.RenderOptions`) controls
        execution — tile workers and resolution scale.
        Trajectory forms leave their per-frame telemetry in
        ``session.service.last_trajectory``; named trajectories render with
        :meth:`TrajectorySpec.streaming_config`, explicit camera lists with
        ``config`` as passed.
        """
        if isinstance(scene, TrajectorySpec):
            if camera_or_trajectory is not None:
                raise TypeError(
                    "a TrajectorySpec already carries its cameras; "
                    "pass it as the only positional argument"
                )
            return self.render_trajectory(scene, config=config, options=options)
        if camera_or_trajectory is None:
            raise TypeError("render() needs a camera, trajectory name or camera list")
        model = self.scene_model(scene) if isinstance(scene, str) else scene
        target = camera_or_trajectory
        if isinstance(target, Camera):
            return self.service.render(
                RenderRequest(
                    model=model, camera=target, config=config, mode=mode, tag=tag
                ),
                options=options,
            )
        if mode != "streaming":
            raise ValueError("trajectory renders are streaming-only")
        if isinstance(target, str):
            if not isinstance(scene, str):
                raise TypeError(
                    "a named trajectory needs a registered scene name, not a model"
                )
            spec = TrajectorySpec(scene=scene, path=target, frames=frames, tag=tag)
            return self.render_trajectory(spec, config=config, options=options)
        return self.service.render_trajectory(
            model, list(target), config=config, options=options, tag=tag
        )

    def render_trajectory(
        self,
        spec: TrajectorySpec,
        config: Optional[StreamingConfig] = None,
        options: Optional[RenderOptions] = None,
    ) -> List[RenderResponse]:
        """Render a trajectory spec's camera path, one response per frame.

        ``config`` / ``options`` override the spec's resolved streaming
        config (scene default) and render options when given.  Per-frame
        telemetry lands in ``session.service.last_trajectory``.
        """
        model = self.scene_model(spec.scene)
        return self.service.render_trajectory(
            model,
            spec.cameras(),
            config=config if config is not None else spec.streaming_config(),
            options=options if options is not None else spec.render_options(),
            tag=spec.tag,
        )

    def run_trajectory(
        self,
        spec: TrajectorySpec,
        cache: Optional[Union[ResultStore, str, Path, bool]] = None,
    ) -> ExperimentResult:
        """Run a trajectory workload end to end, with result-store caching.

        Renders the spec (:meth:`render_trajectory`), folds the per-frame
        telemetry into an :class:`~repro.api.result.ExperimentResult`
        (frame count, wall seconds, image checksums) and caches it
        under the spec's canonical key — same contract as experiment
        points, so trajectory runs share the
        :class:`~repro.api.store.ResultStore` machinery.
        """
        store = self.store if cache is None else resolve_store(cache)
        if store is not None:
            cached = store.get(spec)
            if cached is not None:
                return cached
        responses = self.render_trajectory(spec)
        summary = dict(self.service.last_trajectory or {})
        per_frame = summary.pop("per_frame", [])
        seconds = [float(f.get("seconds", 0.0)) for f in per_frame]
        metrics = {
            "frames": float(summary.get("frames", len(responses))),
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
                "summary": summary,
                "per_frame": per_frame,
                "image_checksums": [
                    float(np.abs(response.image).sum()) for response in responses
                ],
            },
            meta={"label": spec.label, "tag": spec.tag},
        )
        self.points_run += 1
        if store is not None:
            try:
                store.put(spec, result)
            except OSError:
                # The cache is best-effort: a full/broken disk must not
                # fail the run that already produced the result.
                pass
        return result

    def render_batch(self, requests: Iterable[RenderRequest]) -> List[RenderResponse]:
        """Serve many render requests, sharing renderers and frames."""
        return self.service.render_batch(requests)

    def render_pair(
        self,
        model: GaussianModel,
        camera: Camera,
        config: Optional[StreamingConfig] = None,
    ):
        """Tile-centric reference and streaming render of the same scene."""
        return self.service.render_pair(model, camera, config=config)

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

        Used for throwaway renders (e.g. fine-tuning probes of mutating
        parameter snapshots) that must not evict this session's shared
        renderers.
        """
        return Session(seed=self.seed, max_renderers=max_renderers)

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
            Streaming voxel size; ``None`` (or non-positive) uses the
            paper's default for the scene's category.
        resolution_scale:
            Scale factor on the simulated evaluation resolution.
        config:
            Full :class:`StreamingConfig` or a mapping of field overrides;
            mutually exclusive with ``voxel_size``.
        """
        if scene not in SCENE_REGISTRY:
            raise KeyError(f"unknown scene {scene!r}; available: {sorted(SCENE_REGISTRY)}")
        if config is not None and voxel_size is not None:
            raise ValueError("pass voxel_size or config, not both")
        descriptor = SCENE_REGISTRY[scene]
        if config is None:
            effective = voxel_size if voxel_size and voxel_size > 0 else descriptor.default_voxel_size
            resolved = StreamingConfig(voxel_size=float(effective))
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
        while len(self._contexts) > self.max_contexts:
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

    def has_context(self, spec: ExperimentSpec) -> bool:
        """Whether ``spec``'s scene context is already cached (no counters).

        Pool workers use this to decide if a broadcast context even needs
        unpacking: a warm worker session that evaluated the same context
        group before skips both the unpack and the adopt.
        """
        key = (
            spec.scene,
            spec.algorithm,
            spec.streaming_config(),
            float(spec.resolution_scale),
        )
        return key in self._contexts

    def context_package(self, spec: ExperimentSpec) -> "ShmPackage":
        """The shared-memory package of ``spec``'s scene context, cached.

        Packs the context once per context key into the session's
        :class:`~repro.api.shm.ShmRegistry` — model parameters, images and
        workload arrays land in shared segments; the package payload that
        gets pickled per pool dispatch is metadata-sized.  Cached, so
        repeated sweeps over the same context republish nothing.  The
        backing segments are unlinked by :meth:`close` (or at interpreter
        exit).
        """
        from repro.api.shm import ShmPackage

        key = (
            spec.scene,
            spec.algorithm,
            spec.streaming_config(),
            float(spec.resolution_scale),
        )
        package = self._context_packages.get(key)
        if package is None:
            package = ShmPackage.pack(self.spec_context(spec), self.shm_registry())
            self._context_packages[key] = package
        return package

    def shm_registry(self) -> "ShmRegistry":
        """The session's shared-memory registry, created lazily.

        Owns every segment the session publishes (context packages,
        broadcast payloads); :meth:`close` unlinks them all, with an
        ``atexit`` backstop inside the registry itself for forgotten
        sessions.
        """
        from repro.api.shm import ShmRegistry

        if self._shm_registry is None or self._shm_registry.closed:
            self._shm_registry = ShmRegistry()
        return self._shm_registry

    def adopt_context(self, spec: ExperimentSpec, context: SceneContext) -> None:
        """Seed the context cache with an externally built context.

        The context-broadcast path of sub-shard execution: the sweep
        executor builds a split shard's scene context once in the calling
        session and every worker session adopts it (threads by reference,
        processes as a pickled copy), so :meth:`spec_context` hits the
        cache instead of re-rendering.  The caller vouches that ``context``
        is the one ``spec`` would build.
        """
        key = (
            spec.scene,
            spec.algorithm,
            spec.streaming_config(),
            float(spec.resolution_scale),
        )
        self._contexts[key] = context
        self._contexts.move_to_end(key)
        while len(self._contexts) > self.max_contexts:
            self._contexts.popitem(last=False)

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
        each context — whose construction batches its renders through
        :meth:`~repro.engine.service.RenderService.render_batch` — is built
        once even when the input interleaves contexts and the LRU cache is
        small.  Results come back in input order.

        A point that raises is re-raised as a
        :class:`~repro.api.executor.SpecEvaluationError` naming the
        offending spec, so batch (and pool-worker) failures always say
        which grid point died.
        """
        from repro.api.executor import SpecEvaluationError, group_by_context

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
        self,
        specs: Sequence[ExperimentSpec],
        swept: Optional[Sequence[str]] = None,
        jobs: Optional[int] = None,
        cache: Optional[Union[ResultStore, str, Path, bool]] = None,
    ) -> SweepResult:
        """Run a list of point specs on the sharded sweep executor.

        Parameters
        ----------
        specs, swept:
            The grid points and the names of the swept axes.
        jobs:
            Worker count; ``None`` uses the session default (``self.jobs``),
            ``1`` evaluates serially through this session's shared state.
        cache:
            ``None`` uses the session default store, ``False`` disables
            caching for this sweep, a path or :class:`ResultStore` selects
            one explicitly.
        """
        from repro.api.executor import SweepExecutor

        store = self.store if cache is None else resolve_store(cache)
        executor = SweepExecutor(
            jobs=self.jobs if jobs is None else jobs,
            store=store,
            seed=self.seed,
            split_threshold=self.split_threshold(),
        )
        result = executor.run(specs, swept=swept, session=self)
        self.last_execution = executor.report
        return result

    def split_threshold(self) -> int:
        """The shard-split threshold the next sweep will run with.

        Adaptive: seeded from the mean per-spec evaluation seconds the
        previous sweep observed (``last_execution.shard_times_s``), so
        grids of expensive points split earlier than the static default
        while cheap grids keep the overhead floor — see
        :func:`repro.api.executor.adaptive_split_threshold`.  Splitting
        only changes scheduling, never results (parallel output stays
        byte-identical to serial).
        """
        from repro.api.executor import adaptive_split_threshold

        report = self.last_execution
        observed = report.per_spec_seconds if report is not None else None
        return adaptive_split_threshold(observed)

    def sweep(
        self,
        base: Optional[ExperimentSpec] = None,
        *,
        jobs: Optional[int] = None,
        cache: Optional[Union[ResultStore, str, Path, bool]] = None,
        **grid: Any,
    ) -> SweepResult:
        """Expand a parameter grid (:func:`repro.api.spec.sweep`) and run it."""
        return self.run_sweep(sweep(base, **grid), swept=list(grid), jobs=jobs, cache=cache)

    def pareto_search(
        self,
        base: Optional[ExperimentSpec] = None,
        *,
        max_evals: Optional[int] = None,
        **axes: Any,
    ):
        """Pareto frontier search over accelerator design axes.

        Unlike :meth:`sweep`, the design space is *navigated* — lattice
        corners and centre are evaluated first and the frontier's
        neighbours are refined until closure — instead of enumerated, so
        large spaces cost a fraction of the grid.  Point evaluations go
        through :meth:`run_sweep` and are therefore cached in (and
        resumed from) the session's :class:`ResultStore`.  See
        :func:`repro.fleet.search.pareto_search`.
        """
        from repro.fleet.search import pareto_search

        return pareto_search(self, base, axes=axes, max_evals=max_evals)

    # ------------------------------------------------------------------
    # Worker-pool lifecycle.
    # ------------------------------------------------------------------
    def worker_pool(self) -> WorkerPool:
        """The session's persistent :class:`~repro.api.pool.WorkerPool`.

        Created lazily on the first parallel sweep and reused by every
        later one (the sweep executor's ``worker_reuse`` counter tracks
        this), so repeated ``run_sweep`` calls in one process pay worker
        startup once.  Shut down by :meth:`close` — or at interpreter exit
        via the ``atexit`` hook registered here, so forgotten sessions
        never wedge shutdown.
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
        self._context_packages.clear()
        if self._shm_registry is not None:
            # Unlink every shared segment the session published; workers
            # of the (just shut down) pool held only attachments, which
            # never block an unlink.
            self._shm_registry.close()
            self._shm_registry = None
        if self._owns_service:
            self.service.close()

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

    def clear(self) -> None:
        """Drop cached contexts, models and renderers (counters are kept)."""
        self._contexts.clear()
        self._scene_models.clear()
        self.service.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(contexts={len(self._contexts)}, "
            f"renderers={len(self.service._renderers)}, seed={self.seed})"
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
    any shared-memory segments its registry published are released now
    rather than at interpreter exit (the shared engine service is left
    untouched, as for any :meth:`Session.close`).
    """
    global _DEFAULT_SESSION
    outgoing, _DEFAULT_SESSION = _DEFAULT_SESSION, None
    if outgoing is not None:
        outgoing.close()
