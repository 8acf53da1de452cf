"""Declarative front-end for running anything in the repository.

The public surface:

* :class:`~repro.api.session.Session` — owns a render service, a scene
  cache and a seeded RNG; everything runs through it.
* :class:`~repro.api.spec.ExperimentSpec` — one declarative evaluation
  point (scene x algorithm x compression x config overrides x arch model).
* :class:`~repro.api.spec.TrajectorySpec` — one declarative trajectory
  workload (scene x camera path x frames x render options), rendered
  frame by frame via ``Session.render`` /
  ``Session.run_trajectory``.
* :class:`~repro.engine.service.RenderOptions` — how a render executes
  (tile workers, resolution scale).
* :func:`~repro.api.spec.sweep` — expands parameter grids into spec lists
  (Fig. 12 / Fig. 13-style sensitivity studies).
* :class:`~repro.api.result.ExperimentResult` /
  :class:`~repro.api.result.SweepResult` — uniform typed results with
  ``.format()``, ``.metrics``, ``.to_dict()`` / ``.to_json()``.
* ``repro.api.experiments`` — the registry of the paper's regenerable
  artifacts (``fig2`` ... ``engine``), reachable via ``Session.run(name)``
  and the CLI runner.
* :class:`~repro.api.executor.SweepExecutor` — sharded parallel sweep
  evaluation (``session.sweep(..., jobs=4)``) with deterministic merge
  order, shard-splitting for single-context grids (broadcast scene
  contexts), and an :class:`~repro.api.executor.ExecutionReport` in
  ``SweepResult.meta["execution"]``.
* :class:`~repro.api.pool.WorkerPool` — the persistent worker pool a
  session keeps warm across sweeps (``Session.close()`` / ``atexit`` shut
  it down).
* :func:`~repro.api.executor.schedule_experiments` — whole registry
  experiments fanned out over a process pool (``runner all --jobs N``).
* :class:`~repro.api.store.ResultStore` — disk-backed, content-addressed
  result cache keyed by a canonical spec hash; warm sweeps re-render
  nothing.  ``max_bytes=`` caps its size (LRU-by-mtime eviction via
  ``store.gc()``).

Quickstart::

    from repro.api import ExperimentSpec, Session

    session = Session()
    result = session.run(ExperimentSpec(scene="train"))
    print(result.format())
    print(result.metrics["speedup"], result.metrics["streaming_psnr"])

    study = session.sweep(ExperimentSpec(scene="train"),
                          voxel_size=(1.0, 2.0, 3.0))
    print(study.table(["energy_savings", "streaming_psnr"]))
"""

from repro.api.result import ExperimentResult, SweepResult, jsonify
from repro.api.spec import (
    ARCH_MODELS,
    COMPRESSION_MODES,
    ExperimentSpec,
    TrajectorySpec,
    sweep,
)
from repro.api.store import ResultStore, append_trajectory, spec_key
from repro.api.pool import WorkerPool
from repro.api.shm import (
    SharedArrayHandle,
    SharedMemoryUnavailable,
    ShmPackage,
    ShmRegistry,
    leaked_segments,
    shm_available,
)
from repro.api.executor import (
    ExecutionReport,
    ScheduleReport,
    SpecEvaluationError,
    SweepExecutor,
    schedule_experiments,
)
from repro.api.session import Session, get_default_session, reset_default_session
from repro.engine.service import RenderOptions

# The public API surface.  Internals stay importable from their modules
# (``repro.api.pool.worker_session``, ``repro.api.store.atomic_write_json``)
# but are not re-exported here; ``tests/api/test_api_surface.py`` asserts
# the module's importable names match this list exactly.
__all__ = [
    "ARCH_MODELS",
    "COMPRESSION_MODES",
    "ExecutionReport",
    "ExperimentResult",
    "ExperimentSpec",
    "RenderOptions",
    "ResultStore",
    "ScheduleReport",
    "Session",
    "SharedArrayHandle",
    "SharedMemoryUnavailable",
    "ShmPackage",
    "ShmRegistry",
    "SpecEvaluationError",
    "SweepExecutor",
    "SweepResult",
    "TrajectorySpec",
    "WorkerPool",
    "append_trajectory",
    "get_default_session",
    "jsonify",
    "leaked_segments",
    "reset_default_session",
    "schedule_experiments",
    "shm_available",
    "spec_key",
    "sweep",
]
