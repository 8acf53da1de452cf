#!/usr/bin/env python
"""Multi-frame trajectory benchmark.

Renders a registered camera trajectory frame by frame through the frame
path, reports milliseconds per frame (total and per stage), checks one
sampled frame against the reference path (image within 1e-9, workload
statistics exactly equal), and appends the result to the
``BENCH_trajectory.json`` trajectory next to this script::

    PYTHONPATH=src python benchmarks/bench_trajectory.py
    PYTHONPATH=src python benchmarks/bench_trajectory.py --check

``--check`` exits non-zero when the sampled frame disagrees with the
reference path, which makes the script usable as a CI gate.  The default
workload is a 24-frame orbit of the ``train`` scene at 1.5x resolution;
CI runs a reduced orbit.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.api.store import append_trajectory
from repro.engine.bench import run_trajectory_benchmark

#: Acceptance bar: maximum image deviation from the reference path.
REQUIRED_ATOL = 1e-9

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_trajectory.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", default="train")
    parser.add_argument("--path", default="orbit", help="registered trajectory name")
    parser.add_argument("--frames", type=int, default=24)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.5,
        help="resolution scale of the trajectory's cameras",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the sampled frame matches the reference path "
        "(image within 1e-9, statistics exactly equal)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=TRAJECTORY_PATH,
        help="trajectory file to append the result to",
    )
    args = parser.parse_args(argv)

    result = run_trajectory_benchmark(
        scene=args.scene,
        path=args.path,
        frames=args.frames,
        resolution_scale=args.scale,
        repeats=args.repeats,
    )
    print(result.format())

    entry = result.as_dict()
    entry["cpu_count"] = os.cpu_count()
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
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
                f"FAIL: frame {result.checked_frame} deviates from the reference "
                f"path (max delta {result.max_image_delta:.3g} > {REQUIRED_ATOL})",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: frame {result.checked_frame} matches the reference path "
            f"({result.ms_per_frame:.1f} ms/frame)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
