"""Replay aggregation: latency/throughput stats and fleet-scale costs.

Two views of one replay:

* :func:`summarize_replay` — service-level statistics per request class
  and overall: p50/p95/p99 latency, throughput, reject / retry
  counts.  Pure bookkeeping over :class:`~repro.fleet.clients.EventOutcome`.
* :func:`fleet_costs` — architecture-level rollup: each class's
  per-frame traffic / energy figures come from the hardware model (one
  cached point evaluation per class) and are scaled by the frames the
  class actually served during the window, extending the paper's
  single-device Fig. 2 / Fig. 4 story to datacenter scale via
  :mod:`repro.arch.rollup`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.arch.rollup import FleetCost, class_cost_from_metrics, fleet_rollup
from repro.fleet.clients import EventOutcome, ReplayReport
from repro.fleet.traces import RequestClass


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (matches the service benchmark's idiom)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _bucket_stats(outcomes: List[EventOutcome], window_s: float) -> Dict[str, Any]:
    latencies = [o.latency_s for o in outcomes if o.ok]
    completed = len(latencies)
    return {
        "submitted": len(outcomes),
        "completed": completed,
        "failed": sum(1 for o in outcomes if not o.ok),
        "rejected": sum(
            1 for o in outcomes if not o.ok and o.code in ("queue_full", "draining")
        ),
        "retried": sum(1 for o in outcomes if o.attempts > 1),
        "backoffs": sum(o.backoffs for o in outcomes),
        "resends": sum(o.resends for o in outcomes),
        "frames": sum(o.frames for o in outcomes if o.ok),
        "throughput_rps": completed / window_s if window_s > 0 else 0.0,
        "p50_s": percentile(latencies, 0.50),
        "p95_s": percentile(latencies, 0.95),
        "p99_s": percentile(latencies, 0.99),
        "mean_s": sum(latencies) / completed if completed else 0.0,
        "max_s": max(latencies) if latencies else 0.0,
    }


def summarize_replay(
    report: ReplayReport, window_s: Optional[float] = None
) -> Dict[str, Any]:
    """Service-level statistics of one replay, per class and overall.

    ``window_s`` defaults to the replay's wall-clock duration; pass the
    trace's (speed-compressed) schedule length to report offered-load
    rates instead of achieved-wall rates.
    """
    window = window_s if window_s is not None else report.wall_s
    per_class: Dict[str, List[EventOutcome]] = {}
    for outcome in report.outcomes:
        per_class.setdefault(outcome.klass, []).append(outcome)
    return {
        "window_s": window,
        "wall_s": report.wall_s,
        "speed": report.speed,
        "overall": _bucket_stats(report.outcomes, window),
        "classes": {
            name: _bucket_stats(outcomes, window)
            for name, outcomes in sorted(per_class.items())
        },
    }


def class_spec(klass: RequestClass):
    """The :class:`~repro.api.spec.ExperimentSpec` modelling one class.

    The hardware model's per-frame figures depend on the scene, the
    resolution and the compression mode — the request kind only changes
    how many frames one request represents, which the rollup scales by.
    """
    from repro.api.spec import ExperimentSpec

    return ExperimentSpec(
        scene=klass.scene,
        compression=klass.compression,
        resolution_scale=klass.resolution_scale,
    )


def fleet_costs(
    classes: Sequence[RequestClass],
    report: ReplayReport,
    session,
    window_s: Optional[float] = None,
) -> FleetCost:
    """Architecture-model cost rollup of one replay.

    Each class's per-frame metrics are one (store-cached) point
    evaluation; classes that completed zero frames still appear with
    zero cost so the breakdown always covers the whole mix.
    """
    window = window_s if window_s is not None else max(report.wall_s, 1e-9)
    frames_by_class: Dict[str, float] = {klass.name: 0.0 for klass in classes}
    for outcome in report.outcomes:
        if outcome.ok and outcome.klass in frames_by_class:
            frames_by_class[outcome.klass] += outcome.frames
    costs = []
    for klass in classes:
        metrics = session.run(class_spec(klass)).metrics
        costs.append(
            class_cost_from_metrics(
                klass.name,
                metrics,
                frames=frames_by_class[klass.name],
                window_s=window,
            )
        )
    return fleet_rollup(costs)
