#!/usr/bin/env python
"""Streaming render-path micro-benchmark.

Times the memory-centric streaming render of a seeded synthetic scene under
the voxel-at-a-time reference loop and the frame path
(``StreamingConfig.streaming_kernel``), verifies the images agree within
1e-9 and the workload statistics are exactly equal, and appends the result
to the ``BENCH_streaming.json`` trajectory next to this script::

    PYTHONPATH=src python benchmarks/bench_streaming.py
    PYTHONPATH=src python benchmarks/bench_streaming.py --check   # assert >= 3x

``--check`` exits non-zero when the frame path is less than the required
speedup over the reference loop, the images disagree, or any statistic
differs, which makes the script usable as a CI gate.  With
``--tile-workers N`` (N > 1) the frame path is additionally timed split
across N processes over shared memory: parallel/one-process parity
(images within 1e-9, statistics exactly equal) is always gated, and the
parallel speedup bar (``--min-parallel-speedup``) is enforced on
multi-core hosts and recorded-but-skipped on single-CPU ones.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.api.store import append_trajectory
from repro.engine.bench import run_streaming_benchmark

#: Acceptance bar: vectorized streaming-path speedup over the reference loop.
REQUIRED_SPEEDUP = 3.0

#: Acceptance bar: maximum image deviation between the paths.
REQUIRED_ATOL = 1e-9

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gaussians", type=int, default=6000)
    parser.add_argument("--width", type=int, default=160)
    parser.add_argument("--height", type=int, default=120)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--voxel-size",
        type=float,
        default=0.5,
        help="streaming voxel size of the benchmark scene",
    )
    parser.add_argument(
        "--tile-workers",
        type=int,
        default=0,
        help="additionally time the frame path split across this many "
        "processes (parity always gated under --check; the parallel "
        "speedup is gated on multi-core hosts and recorded otherwise)",
    )
    parser.add_argument(
        "--min-parallel-speedup",
        type=float,
        default=1.0,
        help="parallel-over-one-process bar for --check with "
        "--tile-workers > 1 on multi-core hosts (default 1.0x)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless speedup >= --min-speedup, images agree and "
        "statistics are exactly equal",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=REQUIRED_SPEEDUP,
        help=f"speedup bar for --check (default {REQUIRED_SPEEDUP}x; use a "
        "looser bar on noisy shared runners)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=TRAJECTORY_PATH,
        help="trajectory file to append the result to",
    )
    args = parser.parse_args(argv)

    result = run_streaming_benchmark(
        num_gaussians=args.gaussians,
        width=args.width,
        height=args.height,
        repeats=args.repeats,
        seed=args.seed,
        voxel_size=args.voxel_size,
        tile_workers=args.tile_workers,
    )
    print(result.format())

    entry = result.as_dict()
    entry["cpu_count"] = os.cpu_count()
    if args.tile_workers > 1:
        entry["parallel_speedup_gate"] = (
            "enforced" if (os.cpu_count() or 1) >= 2 else "skipped"
        )
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    # Atomic write-temp-then-rename append: concurrent or interrupted CI
    # jobs cannot truncate the trajectory.
    append_trajectory(args.output, entry)
    print(f"appended trajectory entry to {args.output}")

    if args.check:
        if not result.stats_equal:
            print(
                f"FAIL: streaming statistics differ ({result.stats_detail})",
                file=sys.stderr,
            )
            return 1
        if result.max_image_delta > REQUIRED_ATOL:
            print(
                f"FAIL: render paths disagree (max delta {result.max_image_delta:.3g} "
                f"> {REQUIRED_ATOL})",
                file=sys.stderr,
            )
            return 1
        if result.speedup < args.min_speedup:
            print(
                f"FAIL: speedup {result.speedup:.2f}x < {args.min_speedup}x",
                file=sys.stderr,
            )
            return 1
        print(f"OK: speedup {result.speedup:.2f}x >= {args.min_speedup}x")
        if args.tile_workers > 1:
            # Parity between the parallel and one-process frames is
            # host-independent and always enforced; the parallel speedup
            # needs cores to overlap work, so it is gated only on
            # multi-core hosts and recorded (in the trajectory) otherwise.
            if not result.parallel_stats_equal:
                print(
                    "FAIL: parallel-frame statistics differ "
                    f"({result.parallel_stats_detail})",
                    file=sys.stderr,
                )
                return 1
            if result.parallel_image_delta > REQUIRED_ATOL:
                print(
                    "FAIL: parallel-frame image deviates (max delta "
                    f"{result.parallel_image_delta:.3g} > {REQUIRED_ATOL})",
                    file=sys.stderr,
                )
                return 1
            cpus = os.cpu_count() or 1
            if cpus < 2:
                print(
                    f"note: single-CPU host ({cpus} core) — parallel speedup "
                    f"gate skipped (measured {result.parallel_speedup:.2f}x, "
                    f"mode={result.tile_mode})"
                )
            elif result.parallel_speedup < args.min_parallel_speedup:
                print(
                    f"FAIL: parallel speedup {result.parallel_speedup:.2f}x < "
                    f"{args.min_parallel_speedup}x "
                    f"(mode={result.tile_mode})",
                    file=sys.stderr,
                )
                return 1
            else:
                print(
                    f"OK: parallel speedup {result.parallel_speedup:.2f}x >= "
                    f"{args.min_parallel_speedup}x (mode={result.tile_mode})"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
