"""Fleet-scale load generation, replay and design-space search.

The modules compose left to right:

* :mod:`repro.fleet.traces` — deterministic synthetic request schedules
  (mixed classes, Poisson / bursty / diurnal arrivals);
* :mod:`repro.fleet.clients` — replay of a trace against a live
  :class:`~repro.service.daemon.ServiceDaemon` over the NDJSON wire
  protocol, one connection per synthetic client;
* :mod:`repro.fleet.aggregate` — latency / throughput / reject / retry
  statistics plus the architecture-model cost rollup
  (:mod:`repro.arch.rollup`) scaling the paper's per-device figures to
  the served load;
* :mod:`repro.fleet.search` — the Pareto frontier of a grid over
  :class:`~repro.arch.accelerator.AcceleratorConfig` axes, evaluated as
  one sweep cached in (and resumable from) the session's ``ResultStore``.
"""

from repro.fleet.aggregate import fleet_costs, summarize_replay
from repro.fleet.clients import EventOutcome, ReplayReport, replay_trace
from repro.fleet.search import (
    OBJECTIVES,
    DesignSpace,
    SearchPoint,
    SearchResult,
    pareto_frontier,
    pareto_search,
)
from repro.fleet.traces import (
    ARRIVAL_PROCESSES,
    RequestClass,
    Trace,
    TraceEvent,
    default_classes,
    generate_trace,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "OBJECTIVES",
    "DesignSpace",
    "EventOutcome",
    "ReplayReport",
    "RequestClass",
    "SearchPoint",
    "SearchResult",
    "Trace",
    "TraceEvent",
    "default_classes",
    "fleet_costs",
    "generate_trace",
    "pareto_frontier",
    "pareto_search",
    "replay_trace",
    "summarize_replay",
]
