"""Declarative front-end for running anything in the repository.

The public surface:

* :class:`~repro.api.session.Session` — owns a render service and a
  scene cache; everything runs through it.  ``Session(jobs=, store=)`` is
  the one place that says how its sweeps run and what they cache.
* :class:`~repro.api.spec.ExperimentSpec` — one declarative evaluation
  point (scene x algorithm x compression x config overrides x arch model).
* :class:`~repro.api.spec.TrajectorySpec` — one declarative trajectory
  workload (scene x camera path x frames x config overrides), rendered
  frame by frame via ``Session.render_trajectory`` /
  ``Session.run_trajectory``.
* :func:`~repro.api.spec.sweep` — expands parameter grids into spec lists
  (Fig. 12 / Fig. 13-style sensitivity studies).
* :class:`~repro.api.result.ExperimentResult` /
  :class:`~repro.api.result.SweepResult` — uniform typed results with
  ``.format()``, ``.metrics``, ``.to_dict()`` / ``.to_json()``.
* ``repro.api.experiments`` — the registry of the paper's regenerable
  artifacts (``fig2`` ... ``engine``), reachable via ``Session.run(name)``
  and the CLI runner.
* ``Session.run_sweep`` / ``Session.sweep`` — sharded sweep evaluation:
  points the store holds are read from it, the rest grouped by scene
  context and run as whole shards in the caller (one job or one shard) or
  on the session's process pool, merged in input order, with an
  :class:`~repro.api.executor.ExecutionReport` in
  ``SweepResult.meta["execution"]``.
* :class:`~repro.api.pool.WorkerPool` — the persistent process pool a
  session keeps warm across sweeps and schedules (``Session.close()`` /
  ``atexit`` shut it down); every fan-out runs on its session's pool.
* :func:`~repro.api.executor.schedule_experiments` — whole registry
  experiments, one task each on the same fan-out as a sweep's shards
  (every ``runner`` invocation; ``--jobs N`` puts them on the pool), with
  one :class:`~repro.api.executor.ExecutionReport` for the schedule.
* :class:`~repro.api.store.ResultStore` — disk-backed, content-addressed
  result cache keyed by a canonical spec hash; warm sweeps re-render
  nothing.

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
from repro.api.executor import (
    ExecutionReport,
    SpecEvaluationError,
    schedule_experiments,
)
from repro.api.session import Session, get_default_session, reset_default_session

# The public API surface.  Internals stay importable from their modules
# (``repro.api.executor.group_by_context``,
# ``repro.api.store.atomic_write_json``) but are not re-exported here; ``tests/api/test_api_surface.py`` asserts
# the module's importable names match this list exactly.
__all__ = [
    "ARCH_MODELS",
    "COMPRESSION_MODES",
    "ExecutionReport",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultStore",
    "Session",
    "SpecEvaluationError",
    "SweepResult",
    "TrajectorySpec",
    "WorkerPool",
    "append_trajectory",
    "get_default_session",
    "jsonify",
    "reset_default_session",
    "schedule_experiments",
    "spec_key",
    "sweep",
]
