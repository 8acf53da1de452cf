#!/usr/bin/env python
"""Sweep-executor benchmark: serial vs sharded-parallel evaluation.

Expands a voxel-size grid (every point needs its own scene context, so the
shards are independent; by default train at full resolution, whose
contexts take about 0.2 s each on a 2-CPU host), times it several ways —

* **serial** — one fresh :class:`~repro.api.session.Session`, ``jobs=1``;
* **parallel** — a fresh ``Session(jobs=N)`` per run, whose shards run on
  the session's new process pool;

  serial and parallel each run :data:`REPEATS` times, alternating which
  goes first, and the recorded times and the gated speedup are the
  medians (one run of each is a noisy sample);
* **warm** — the same grid on sessions sharing a cold then warm
  :class:`~repro.api.store.ResultStore`, asserting the warm run hits the
  store for every spec and performs **zero** renders;
* **warm pool** — two consecutive ``run_sweep`` calls on one
  :class:`Session`, asserting the second reuses the persistent process
  pool (``ExecutionReport.worker_reuse >= 1``) instead of paying pool
  startup again;
* **Fig. 13 shape** — the Fig. 13 CFU x FFU grid (one scene context, 16
  points) on a fresh ``Session(jobs=1)`` and a fresh
  ``Session(jobs=N)``, asserting the parallel session runs the one shard
  serially in the caller (``ExecutionReport.mode == "serial"``);
* **scheduled runner** — the reduced ``runner all`` of CI's
  ``scheduler-smoke`` job in a fresh process, serially and at ``--jobs N``
  (whole experiments on the pool), :data:`REPEATS` times each in
  alternating order, asserting both print the same results (wall-clock
  fields of the timing experiments aside)

— verifies they produce bit-identical :class:`SweepResult` tables
(``meta`` carries run telemetry and legitimately differs), and appends the
measurements to the ``BENCH_sweep.json`` trajectory next to
``BENCH_engine.json`` (atomic write-temp-then-rename appends)::

    PYTHONPATH=src python benchmarks/bench_sweep.py
    PYTHONPATH=src python benchmarks/bench_sweep.py --check --min-speedup 1.05

``--check`` exits non-zero when results diverge (sweeps or the scheduled
runner), the store misbehaves, the
warm pool is not reused (or is drastically slower than the cold one), the
one-shard grid leaves the caller, or (on multi-core hosts) the median
parallel speedup fails the bar; on a
single-CPU host the speedup gate is skipped — the hardware cannot overlap
the shards — while every correctness assertion still applies.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.sensitivity import FIG13_CFUS, FIG13_FFUS
from repro.api import ExperimentSpec, ResultStore, Session, append_trajectory, sweep

#: Default acceptance bar: parallel speedup over serial, both medians (loose
#: — CI runners are shared and noisy; the real curve lives in the trajectory).
REQUIRED_SPEEDUP = 1.05

#: Runs of the serial and of the parallel phase (the gate reads their medians).
REPEATS = 5

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: Warm-pool bar: the pool-reusing second sweep may be at most this much
#: slower than the pool-creating first one (it should in fact be faster —
#: the bar is loose because both runs are short and hosts are noisy).
POOL_WARM_SLACK = 1.5

#: The reduced ``runner all`` options of CI's ``scheduler-smoke`` job.
SCHEDULE_OPTIONS = {
    "fig2": {"scenes": ["lego"]},
    "fig3": {"scenes": ["lego"]},
    "fig4": {"scenes": ["lego"]},
    "fig7": {"iterations": 500, "probe_every": 250},
    "tab2": {"scenes": ["lego"], "algorithms": ["3dgs"]},
    "fig11": {"scenes": ["lego"], "algorithms": ["3dgs"]},
    "fig12": {"scene": "lego", "voxel_sizes": [1.0, 2.0], "resolution_scale": 0.5},
    "fig13": {"scene": "lego", "cfus": [1, 2], "ffus": [1, 2], "resolution_scale": 0.5},
    "claims": {"scene": "lego"},
    "trajectory": {"scene": "lego", "frames": 2, "resolution_scale": 0.25},
    "engine": {"repeats": 2},
}

#: Wall-clock fields of the timing experiments, left out of the scheduled
#: runner's parity check; every other field must match exactly.
TIMED_FIELDS = {
    "engine": ("text", "metrics.speedup", "payload.seconds", "payload.speedup"),
    "trajectory": (
        "text",
        "metrics.total_seconds",
        "metrics.mean_frame_ms",
        "payload.per_frame",
    ),
}


def run_schedule(jobs: int):
    """One CI-reduced ``runner all --json`` in a fresh process.

    Returns its wall seconds and its results with :data:`TIMED_FIELDS`
    removed.
    """
    command = [
        sys.executable, "-m", "repro.analysis.runner", "all", "--json", "--no-cache",
        "--jobs", str(jobs), "--options", json.dumps(SCHEDULE_OPTIONS),
    ]
    start = time.perf_counter()
    completed = subprocess.run(command, capture_output=True, text=True, check=True)
    seconds = time.perf_counter() - start
    results = [json.loads(line) for line in completed.stdout.splitlines() if line]
    for result in results:
        for path in TIMED_FIELDS.get(result["name"], ()):
            section, _, key = path.partition(".")
            if key:
                result[section].pop(key)
            else:
                result.pop(section)
    return seconds, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", default="train")
    parser.add_argument("--resolution-scale", type=float, default=1.0)
    parser.add_argument(
        "--voxel-sizes",
        default="0.5,1.0,1.5,2.0",
        help="comma-separated voxel-size grid (one scene context per value)",
    )
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on result divergence, store misbehaviour, or (multi-core "
        "hosts) median speedup < --min-speedup",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=REQUIRED_SPEEDUP,
        help=f"median parallel-over-serial bar for --check (default {REQUIRED_SPEEDUP}x)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=TRAJECTORY_PATH,
        help="trajectory file to append the result to",
    )
    args = parser.parse_args(argv)

    voxel_sizes = [float(v) for v in args.voxel_sizes.split(",") if v.strip()]
    base = ExperimentSpec(scene=args.scene, resolution_scale=args.resolution_scale)
    specs = sweep(base, voxel_size=voxel_sizes)
    print(
        f"grid: {len(specs)} specs ({args.scene} scene, scale "
        f"{args.resolution_scale}, voxel sizes {voxel_sizes})"
    )

    # Serial reference (one session, shared in-process state, no store)
    # against the sharded parallel run (a fresh session and process pool,
    # nothing warm, no store), each run REPEATS times in alternating order.
    samples: dict = {"serial": [], "parallel": []}
    tables = []
    for index in range(REPEATS):
        for phase in ("serial", "parallel")[:: 1 if index % 2 == 0 else -1]:
            start = time.perf_counter()
            if phase == "serial":
                serial = result = Session().run_sweep(specs, swept=["voxel_size"])
            else:
                with Session(jobs=args.jobs) as parallel_session:
                    result = parallel_session.run_sweep(specs, swept=["voxel_size"])
                    report = parallel_session.last_execution
            samples[phase].append(time.perf_counter() - start)
            tables.append(result.table_dict())
    serial_s = statistics.median(samples["serial"])
    parallel_s = statistics.median(samples["parallel"])
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    print(f"serial           : {serial_s:6.2f}s (median of {REPEATS})")
    print(
        f"parallel jobs={args.jobs}  : {parallel_s:6.2f}s (median of {REPEATS}; "
        f"{report.shards} shards, mode={report.mode}, "
        f"speedup {speedup:.2f}x, pickled {report.pickled_bytes} B)"
    )

    parity_ok = all(table == tables[0] for table in tables)
    print(f"serial/parallel results identical: {parity_ok}")

    # Persistent-pool behaviour: two sweeps on one session — the second
    # must reuse the first's worker pool instead of building a new one.
    with Session(jobs=args.jobs) as pool_session:
        start = time.perf_counter()
        pool_cold = pool_session.run_sweep(specs, swept=["voxel_size"])
        pool_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        pool_warm = pool_session.run_sweep(specs, swept=["voxel_size"])
        pool_warm_s = time.perf_counter() - start
        pool_reuse = pool_session.last_execution.worker_reuse
    pool_ok = (
        pool_reuse >= 1
        and pool_cold.table_dict() == serial.table_dict()
        and pool_warm.table_dict() == serial.table_dict()
    )
    print(
        f"warm pool        : {pool_cold_s:6.2f}s cold, {pool_warm_s:6.2f}s warm "
        f"(reuse={pool_reuse}, {'ok' if pool_ok else 'FAIL'})"
    )

    # Fig. 13 shape: one scene context, many cheap points.  Once the
    # context exists a point is an analytic hardware-model evaluation, so
    # the one shard must run in the caller under any job count.
    fig13_specs = sweep(base, cfus_per_hfu=list(FIG13_CFUS), ffus_per_hfu=list(FIG13_FFUS))
    fig13_swept = ["cfus_per_hfu", "ffus_per_hfu"]
    with Session(jobs=1) as fig13_session:
        start = time.perf_counter()
        fig13_serial = fig13_session.run_sweep(fig13_specs, swept=fig13_swept)
        fig13_serial_s = time.perf_counter() - start
    with Session(jobs=args.jobs) as fig13_session:
        start = time.perf_counter()
        fig13_parallel = fig13_session.run_sweep(fig13_specs, swept=fig13_swept)
        fig13_parallel_s = time.perf_counter() - start
        fig13_mode = fig13_session.last_execution.mode
    fig13_ok = (
        fig13_mode == "serial"
        and fig13_parallel.table_dict() == fig13_serial.table_dict()
    )
    print(
        f"fig13 shape      : {fig13_serial_s:6.2f}s jobs=1, {fig13_parallel_s:6.2f}s "
        f"jobs={args.jobs} ({len(fig13_specs)} specs, mode={fig13_mode}, "
        f"{'ok' if fig13_ok else 'FAIL'})"
    )

    # Scheduled runner: whole experiments on the pool against the same
    # experiments one after another, each run in a fresh process.
    schedule_samples: dict = {1: [], args.jobs: []}
    schedule_outputs = []
    for index in range(REPEATS):
        for jobs in (1, args.jobs)[:: 1 if index % 2 == 0 else -1]:
            seconds, results = run_schedule(jobs)
            schedule_samples[jobs].append(seconds)
            schedule_outputs.append(results)
    schedule_serial_s = statistics.median(schedule_samples[1])
    schedule_jobs_s = statistics.median(schedule_samples[args.jobs])
    schedule_speedup = schedule_serial_s / schedule_jobs_s if schedule_jobs_s > 0 else 0.0
    schedule_ok = all(output == schedule_outputs[0] for output in schedule_outputs)
    print(
        f"runner all       : {schedule_serial_s:6.2f}s jobs=1, {schedule_jobs_s:6.2f}s "
        f"jobs={args.jobs} (medians of {REPEATS}; {len(schedule_outputs[0])} "
        f"experiments, speedup {schedule_speedup:.2f}x, "
        f"{'same results' if schedule_ok else 'RESULTS DIFFER'})"
    )

    # Result-store behaviour: cold run misses and populates, warm run hits
    # every spec and renders nothing.
    with tempfile.TemporaryDirectory(prefix="bench-sweep-store-") as cache_dir:
        store = ResultStore(cache_dir)
        with Session(jobs=args.jobs, store=store) as cold_session:
            cold = cold_session.run_sweep(specs, swept=["voxel_size"])
            cold_report = cold_session.last_execution
        cold_ok = (
            cold_report.cache_misses == len(specs)
            and cold_report.cache_hits == 0
            and cold.table_dict() == serial.table_dict()
        )
        with Session(jobs=args.jobs, store=store) as warm_session:
            warm = warm_session.run_sweep(specs, swept=["voxel_size"])
            warm_renders = warm_session.service.requests_served
        warm_ok = (
            store.hits == len(specs)
            and warm_renders == 0
            and warm.table_dict() == serial.table_dict()
        )
    print(
        f"store: cold populated {len(specs)} entries ({'ok' if cold_ok else 'FAIL'}), "
        f"warm hit {store.hits}/{len(specs)} with {warm_renders} renders "
        f"({'ok' if warm_ok else 'FAIL'})"
    )

    entry = {
        "scene": args.scene,
        "resolution_scale": args.resolution_scale,
        "voxel_sizes": voxel_sizes,
        "specs": len(specs),
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": speedup,
        "serial_samples_s": samples["serial"],
        "parallel_samples_s": samples["parallel"],
        "pool_cold_s": pool_cold_s,
        "pool_warm_s": pool_warm_s,
        "pool_reuse": pool_reuse,
        "parity_ok": parity_ok,
        "cache_ok": cold_ok and warm_ok,
        "pool_ok": pool_ok,
        "parallel_mode": report.mode,
        "pickled_bytes": report.pickled_bytes,
        "fig13_specs": len(fig13_specs),
        "fig13_serial_s": fig13_serial_s,
        "fig13_parallel_s": fig13_parallel_s,
        "fig13_mode": fig13_mode,
        "fig13_ok": fig13_ok,
        "schedule_experiments": len(schedule_outputs[0]),
        "schedule_serial_s": schedule_serial_s,
        "schedule_jobs_s": schedule_jobs_s,
        "schedule_speedup": schedule_speedup,
        "schedule_serial_samples_s": schedule_samples[1],
        "schedule_jobs_samples_s": schedule_samples[args.jobs],
        "schedule_ok": schedule_ok,
        "speedup_gate": "enforced" if (os.cpu_count() or 1) >= 2 else "skipped",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    append_trajectory(args.output, entry)
    print(f"appended trajectory entry to {args.output}")

    if args.check:
        failed = False
        if not parity_ok:
            print("FAIL: parallel results differ from the serial reference", file=sys.stderr)
            failed = True
        if not (cold_ok and warm_ok):
            print("FAIL: result-store cold/warm behaviour is wrong", file=sys.stderr)
            failed = True
        if not schedule_ok:
            print(
                "FAIL: the scheduled runner's results differ from the serial runner's",
                file=sys.stderr,
            )
            failed = True
        if not fig13_ok:
            print(
                "FAIL: the one-shard Fig. 13 grid left the caller or changed "
                f"its table (mode={fig13_mode})",
                file=sys.stderr,
            )
            failed = True
        if not pool_ok:
            print(
                "FAIL: persistent worker pool was not reused across sweeps "
                f"(reuse={pool_reuse})",
                file=sys.stderr,
            )
            failed = True
        elif pool_warm_s > pool_cold_s * POOL_WARM_SLACK:
            print(
                f"FAIL: warm-pool sweep took {pool_warm_s:.2f}s > "
                f"{POOL_WARM_SLACK}x the cold-pool {pool_cold_s:.2f}s",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"OK: warm pool reused (reuse={pool_reuse}, "
                f"{pool_cold_s:.2f}s -> {pool_warm_s:.2f}s)"
            )
        cpus = os.cpu_count() or 1
        if cpus < 2:
            print(
                f"note: single-CPU host ({cpus} core) — speedup gate skipped "
                f"(measured {speedup:.2f}x)"
            )
        elif speedup < args.min_speedup:
            print(
                f"FAIL: median parallel speedup {speedup:.2f}x < {args.min_speedup}x",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"OK: median parallel speedup {speedup:.2f}x >= {args.min_speedup}x")
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
