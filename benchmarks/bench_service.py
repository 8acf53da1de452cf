#!/usr/bin/env python
"""Service-daemon benchmark: closed-loop multi-client load.

Starts an embedded :class:`~repro.service.daemon.ServiceDaemon`, then
drives it with ``--clients`` concurrent closed-loop clients (each sends
its next request as soon as the previous response lands) for
``--requests`` requests per client.  The mix alternates renders across
``--scenes`` and resolution scales with a small sweep every
``--sweep-every`` requests, so the run exercises the shared renderer
cache, the fair queue and the actor fleet together.

Reports per-request latency (p50/p95), aggregate throughput and the
daemon's own metrics (rejects, timeouts, retries), asserts the run
was clean — every render answered at the scale it asked for, zero
rejects with the default sizing, graceful drain, no orphaned store temp
files — and appends the measurement to the ``BENCH_service.json``
trajectory::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --check --clients 4
    PYTHONPATH=src python benchmarks/bench_service.py --check --clients 48 \
        --requests 3 --sweep-every 0   # a backlog deeper than half the queue

``--check`` exits non-zero when any cleanliness gate fails.  Latency
bars are deliberately absent: CI hosts are too noisy for wall-clock
gates; the trajectory records the curve instead.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.api import append_trajectory
from repro.service import ServiceClient, ServiceConfig, ServiceDaemon

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def percentile(samples, fraction):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def run_client(address, name, scenes, scales, requests, sweep_every, latencies, errors):
    """One closed-loop client: request, wait, record, repeat."""
    with ServiceClient.connect(address, client=name, timeout=600.0) as client:
        for i in range(requests):
            scene = scenes[i % len(scenes)]
            scale = scales[i % len(scales)]
            started = time.perf_counter()
            if sweep_every and (i + 1) % sweep_every == 0:
                response = client.sweep(
                    base={"scene": scene, "resolution_scale": scale},
                    num_hfu=[2, 4],
                    retries=5,
                )
            else:
                response = client.render(scene, resolution_scale=scale, retries=5)
            elapsed = time.perf_counter() - started
            if not response.ok:
                errors.append(f"{name}#{i}: [{response.code}] {response.error}")
            elif response.result.get("resolution_scale", scale) != scale:
                errors.append(
                    f"{name}#{i}: asked for scale {scale}, answered at "
                    f"{response.result['resolution_scale']}"
                )
            else:
                latencies.append(elapsed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=3)
    parser.add_argument(
        "--requests", type=int, default=6, help="requests per client"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-limit", type=int, default=64)
    parser.add_argument(
        "--scenes", default="lego,train", help="comma-separated scene mix"
    )
    parser.add_argument(
        "--scales", default="0.25,0.5", help="comma-separated resolution scales"
    )
    parser.add_argument(
        "--sweep-every",
        type=int,
        default=3,
        help="every Nth request per client is a small sweep (0 = renders only)",
    )
    parser.add_argument("--check", action="store_true", help="fail on any gate")
    parser.add_argument("--output", default=str(TRAJECTORY_PATH))
    args = parser.parse_args(argv)

    scenes = [s for s in args.scenes.split(",") if s]
    scales = [float(s) for s in args.scales.split(",") if s]

    with tempfile.TemporaryDirectory(prefix="bench-service-store-") as cache_dir:
        daemon = ServiceDaemon(
            ServiceConfig(
                port=0,
                workers=args.workers,
                queue_limit=args.queue_limit,
                cache_dir=cache_dir,
            )
        )
        handle = daemon.start_in_thread()
        latencies: list = []
        errors: list = []
        threads = [
            threading.Thread(
                target=run_client,
                args=(
                    handle.address,
                    f"client-{i}",
                    scenes,
                    scales,
                    args.requests,
                    args.sweep_every,
                    latencies,
                    errors,
                ),
            )
            for i in range(args.clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started

        metrics = daemon.metrics_snapshot()
        handle.stop(drain=True)
        handle.join()

        # Orphaned store temp files would mean a non-atomic write leaked.
        orphaned_tmp = [
            str(p) for p in Path(cache_dir).rglob("*") if p.name.endswith(".tmp")
        ]

    total = args.clients * args.requests
    requests_meta = metrics["requests"]
    p50 = percentile(latencies, 0.50)
    p95 = percentile(latencies, 0.95)
    throughput = len(latencies) / wall_s if wall_s > 0 else 0.0

    print(
        f"clients={args.clients} requests/client={args.requests} "
        f"workers={args.workers} total={total}"
    )
    print(
        f"latency: p50={p50 * 1000:.1f} ms p95={p95 * 1000:.1f} ms "
        f"throughput={throughput:.2f} req/s wall={wall_s:.2f}s"
    )
    print(
        "daemon: accepted={accepted} completed={completed} rejected={rejected} "
        "timeouts={timeouts}".format(**requests_meta)
    )
    print(
        f"supervision: {metrics['supervision']}  "
        f"store: {metrics['store']}  "
        f"orphaned_tmp={orphaned_tmp}"
    )

    ok_all_completed = len(latencies) == total and not errors
    ok_zero_rejects = requests_meta["rejected"] == 0
    ok_no_orphans = not orphaned_tmp

    entry = {
        "clients": args.clients,
        "requests_per_client": args.requests,
        "workers": args.workers,
        "queue_limit": args.queue_limit,
        "scenes": scenes,
        "scales": scales,
        "sweep_every": args.sweep_every,
        "cpu_count": os.cpu_count(),
        "total_requests": total,
        "completed": len(latencies),
        "errors": len(errors),
        "wall_s": round(wall_s, 6),
        "p50_s": round(p50, 6),
        "p95_s": round(p95, 6),
        "mean_s": round(statistics.fmean(latencies), 6) if latencies else 0.0,
        "throughput_rps": round(throughput, 3),
        "rejected": requests_meta["rejected"],
        "timeouts": requests_meta["timeouts"],
        "supervision": metrics["supervision"],
        "store_hits": (metrics["store"] or {}).get("hits", 0),
        "engine_renderer_hits": metrics["engine"]["renderer_hits"],
        "orphaned_store_tmp": len(orphaned_tmp),
        "clean": ok_all_completed and ok_zero_rejects and ok_no_orphans,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    append_trajectory(args.output, entry)
    print(f"appended trajectory entry to {args.output}")

    if args.check:
        failed = False
        if not ok_all_completed:
            print(
                f"FAIL: {total - len(latencies)} request(s) failed or came back "
                f"at another scale; first errors: {errors[:3]}",
                file=sys.stderr,
            )
            failed = True
        if not ok_zero_rejects:
            print(
                f"FAIL: daemon rejected {requests_meta['rejected']} request(s) "
                "despite retry backoff headroom",
                file=sys.stderr,
            )
            failed = True
        if not ok_no_orphans:
            print(f"FAIL: orphaned store temp files: {orphaned_tmp}", file=sys.stderr)
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
