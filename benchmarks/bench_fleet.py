#!/usr/bin/env python
"""Fleet benchmark: trace-driven wire-protocol load + Pareto search.

Phase 1 — replay: generates a deterministic mixed-kind trace (renders,
trajectories, sweeps across request classes with Poisson/bursty/diurnal
arrivals), boots an embedded :class:`~repro.service.daemon.ServiceDaemon`
and replays the trace over the real NDJSON wire protocol with one
connection per synthetic client.  Reports per-class p50/p95/p99 latency
and throughput plus reject/retry counts, and rolls the served
frames up to fleet-scale traffic / bandwidth / energy figures through
the architecture model (:mod:`repro.arch.rollup` — Fig. 2 / Fig. 4 at
datacenter scale).

Phase 2 — search: runs the Pareto frontier refinement of
:mod:`repro.fleet.search` on a reduced accelerator design space, checks
it reproduces the exhaustive grid's frontier with strictly fewer
evaluations, and re-runs it warm to verify the ``ResultStore`` resume
path renders nothing.

Appends one entry to the ``BENCH_fleet.json`` trajectory::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_fleet.py --check --speed 5

``--check`` exits non-zero when any gate fails: full replay completion,
no orphaned store temp files, frontier parity, evaluation savings,
warm-resume zero renders.  Latency bars are
deliberately absent: CI hosts are too noisy for wall-clock gates; the
trajectory records the curve instead.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.api import append_trajectory
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.fleet import (
    default_classes,
    exhaustive_frontier,
    fleet_costs,
    generate_trace,
    pareto_search,
    replay_trace,
    summarize_replay,
)
from repro.service import ServiceConfig, ServiceDaemon

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Reduced design space of the search phase: small enough for CI, rich
#: enough that the frontier is a strict subset of the grid.
SEARCH_AXES = {
    "num_hfu": [1, 2, 4],
    "num_render_units": [32, 64, 128],
    "sram_scale": [0.5, 1.0],
}


def frontier_labels(result):
    return sorted(
        tuple(sorted(point.values.items())) for point in result.frontier
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=4.0, help="trace seconds")
    parser.add_argument("--rate", type=float, default=5.0, help="mean arrivals/s")
    parser.add_argument(
        "--arrival", choices=("poisson", "bursty", "diurnal"), default="poisson"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clients-per-class", type=int, default=3)
    parser.add_argument("--speed", type=float, default=4.0, help="schedule compression")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument("--retries", type=int, default=5)
    parser.add_argument("--skip-search", action="store_true")
    parser.add_argument("--check", action="store_true", help="fail on any gate")
    parser.add_argument("--output", default=str(TRAJECTORY_PATH))
    args = parser.parse_args(argv)

    # ------------------------------------------------------------------
    # Phase 1: trace replay over the wire.
    # ------------------------------------------------------------------
    trace = generate_trace(
        classes=default_classes(args.clients_per_class),
        duration_s=args.duration,
        rate_hz=args.rate,
        arrival=args.arrival,
        seed=args.seed,
    )
    window_s = trace.duration_s / args.speed
    print(
        f"trace: {len(trace)} events, {len(trace.clients)} clients, "
        f"{trace.frames():.0f} model frames, arrival={args.arrival}, "
        f"replayed at {args.speed}x"
    )

    with tempfile.TemporaryDirectory(prefix="bench-fleet-store-") as cache_dir:
        daemon = ServiceDaemon(
            ServiceConfig(
                port=0,
                workers=args.workers,
                queue_limit=args.queue_limit,
                cache_dir=cache_dir,
            )
        )
        handle = daemon.start_in_thread()
        try:
            report = replay_trace(
                trace,
                handle.address,
                speed=args.speed,
                retries=args.retries,
                timeout=600.0,
            )
        finally:
            handle.stop(drain=True)
            handle.join()

        summary = summarize_replay(report, window_s=window_s)
        with Session(store=cache_dir) as session:
            costs = fleet_costs(trace.classes, report, session, window_s=window_s)

        orphaned_tmp = [
            str(p) for p in Path(cache_dir).rglob("*") if p.name.endswith(".tmp")
        ]

    overall = summary["overall"]
    print(
        "replay: submitted={submitted} completed={completed} rejected={rejected} "
        "retried={retried} backoffs={backoffs}".format(**overall)
    )
    for name, stats in summary["classes"].items():
        print(
            f"  class {name}: n={stats['completed']} "
            f"p50={stats['p50_s'] * 1e3:.1f}ms p95={stats['p95_s'] * 1e3:.1f}ms "
            f"p99={stats['p99_s'] * 1e3:.1f}ms "
            f"throughput={stats['throughput_rps']:.2f} req/s"
        )
    fleet = costs.as_dict()
    print(
        f"fleet: {fleet['offered_fps']:.1f} fps offered, "
        f"{fleet['required_bandwidth_gbs']:.3f} GB/s aggregate bandwidth "
        f"({fleet['dram_channels_required']:.2f} LPDDR3 channels), "
        f"{fleet['mean_power_w']:.3f} W mean power, "
        f"{fleet['devices_required']:.3f} devices to sustain"
    )

    # ------------------------------------------------------------------
    # Phase 2: Pareto search vs exhaustive grid + warm resume.
    # ------------------------------------------------------------------
    search_entry = {}
    ok_frontier = ok_savings = ok_warm = True
    if not args.skip_search:
        base = ExperimentSpec(scene="lego", resolution_scale=0.25)
        with tempfile.TemporaryDirectory(prefix="bench-fleet-search-") as search_dir:
            started = time.perf_counter()
            with Session(store=search_dir) as session:
                search = pareto_search(session, base, axes=SEARCH_AXES)
                cold_points = session.points_run
                grid = exhaustive_frontier(session, base, axes=SEARCH_AXES)
            cold_s = time.perf_counter() - started
            started = time.perf_counter()
            with Session(store=search_dir) as warm_session:
                rerun = pareto_search(warm_session, base, axes=SEARCH_AXES)
                warm_points = warm_session.points_run
            warm_s = time.perf_counter() - started

        ok_frontier = frontier_labels(search) == frontier_labels(grid) and (
            frontier_labels(rerun) == frontier_labels(grid)
        )
        ok_savings = search.evaluations < grid.evaluations
        ok_warm = warm_points == 0
        print(
            f"search: frontier {len(search.frontier)}/{search.evaluations} evaluated "
            f"(grid {grid.evaluations}), rounds={search.rounds}, "
            f"cold={cold_s:.2f}s warm={warm_s:.2f}s "
            f"warm_points_run={warm_points}"
        )
        search_entry = {
            "search_axes": {name: values for name, values in SEARCH_AXES.items()},
            "grid_size": grid.evaluations,
            "search_evaluations": search.evaluations,
            "search_rounds": search.rounds,
            "frontier_size": len(search.frontier),
            "frontier_matches_grid": ok_frontier,
            "cold_points_run": cold_points,
            "warm_points_run": warm_points,
            "search_cold_s": round(cold_s, 6),
            "search_warm_s": round(warm_s, 6),
        }

    # ------------------------------------------------------------------
    # Gates and trajectory entry.
    # ------------------------------------------------------------------
    ok_all_completed = overall["completed"] == len(trace)
    ok_no_orphans = not orphaned_tmp

    entry = {
        "duration_s": args.duration,
        "rate_hz": args.rate,
        "arrival": args.arrival,
        "seed": args.seed,
        "speed": args.speed,
        "workers": args.workers,
        "queue_limit": args.queue_limit,
        "clients": len(trace.clients),
        "events": len(trace),
        "cpu_count": os.cpu_count(),
        "completed": overall["completed"],
        "rejected": overall["rejected"],
        "retried": overall["retried"],
        "backoffs": overall["backoffs"],
        "wall_s": round(report.wall_s, 6),
        "classes": {
            name: {
                "completed": stats["completed"],
                "p50_s": round(stats["p50_s"], 6),
                "p95_s": round(stats["p95_s"], 6),
                "p99_s": round(stats["p99_s"], 6),
                "throughput_rps": round(stats["throughput_rps"], 3),
            }
            for name, stats in summary["classes"].items()
        },
        "fleet": {
            "frames": fleet["frames"],
            "offered_fps": round(fleet["offered_fps"], 3),
            "required_bandwidth_gbs": round(fleet["required_bandwidth_gbs"], 6),
            "dram_channels_required": round(fleet["dram_channels_required"], 4),
            "energy_j": round(fleet["energy_j"], 6),
            "mean_power_w": round(fleet["mean_power_w"], 6),
            "devices_required": round(fleet["devices_required"], 4),
        },
        "orphaned_store_tmp": len(orphaned_tmp),
        "clean": all(
            (ok_all_completed, ok_no_orphans, ok_frontier, ok_savings, ok_warm)
        ),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    entry.update(search_entry)
    append_trajectory(args.output, entry)
    print(f"appended trajectory entry to {args.output}")

    if args.check:
        failed = False
        if not ok_all_completed:
            print(
                f"FAIL: {len(trace) - overall['completed']} event(s) did not "
                "complete over the wire",
                file=sys.stderr,
            )
            failed = True
        if not ok_no_orphans:
            print(f"FAIL: orphaned store temp files: {orphaned_tmp}", file=sys.stderr)
            failed = True
        if not ok_frontier:
            print("FAIL: search frontier does not match the grid", file=sys.stderr)
            failed = True
        if not ok_savings:
            print(
                "FAIL: search did not beat grid enumeration "
                f"({search_entry.get('search_evaluations')} vs "
                f"{search_entry.get('grid_size')})",
                file=sys.stderr,
            )
            failed = True
        if not ok_warm:
            print(
                "FAIL: warm search re-ran "
                f"{search_entry.get('warm_points_run')} point(s) instead of "
                "resuming from the store",
                file=sys.stderr,
            )
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
