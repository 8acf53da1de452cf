#!/usr/bin/env python
"""Engine blending-kernel micro-benchmark.

Times the tile-centric render of a seeded synthetic scene through the
per-tile reference loop and the frame blend, verifies they agree, and
appends the result to the ``BENCH_engine.json`` trajectory next to this
script::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --check   # assert >= 3x

``--check`` exits non-zero when the frame blend is less than the required
speedup over the reference loop, when any ``RenderStats`` field differs,
or when the image or alpha map differs by more than 1e-9, which makes the
script usable as a CI gate.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.api.store import append_trajectory
from repro.engine.bench import run_kernel_benchmark

#: Acceptance bar: frame-blend speedup over the reference loop.
REQUIRED_SPEEDUP = 3.0

#: Acceptance bar: maximum image and alpha deviation between the paths.
REQUIRED_ATOL = 1e-9

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gaussians", type=int, default=6000)
    parser.add_argument("--width", type=int, default=160)
    parser.add_argument("--height", type=int, default=120)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless speedup >= --min-speedup, statistics are equal and "
        "images and alpha maps agree",
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

    result = run_kernel_benchmark(
        num_gaussians=args.gaussians,
        width=args.width,
        height=args.height,
        repeats=args.repeats,
        seed=args.seed,
    )
    print(result.format())

    entry = result.as_dict()
    entry["cpu_count"] = os.cpu_count()
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    # Atomic write-temp-then-rename append: concurrent or interrupted CI
    # jobs cannot truncate the trajectory.
    append_trajectory(args.output, entry)
    print(f"appended trajectory entry to {args.output}")

    if args.check:
        if not result.stats_equal:
            print(f"FAIL: RenderStats differ: {result.stats_detail}", file=sys.stderr)
            return 1
        for name, delta in (
            ("image", result.max_image_delta),
            ("alpha", result.max_alpha_delta),
        ):
            if delta > REQUIRED_ATOL:
                print(
                    f"FAIL: {name} differs (max delta {delta:.3g} > {REQUIRED_ATOL})",
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
