#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload viewer --seed 1 --seconds 30 --trace 0

Workloads: ``viewer`` and ``cold-start`` (see ``workloads.py``).
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer boundary (``layers.py``) and reports the
per-layer metrics instead.  The program is imported from ``src/`` of the
checkout this file sits in.

Standard output ends with one JSON line::

    {"correct": true, "attempted": 100, "failed": 0, "metrics": {...}}

Lines before it give a readable summary, warnings, and a ``record:`` line
with the fields that help tell a slow host from a slow change (host-speed
probe before and after, CPU count, BLAS thread settings, Python and NumPy
versions).  Run records, traced spans and the count ledger go to
``.perfbench/`` in the checkout.  The exit code is 1 when an output check
fails, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: Environment variables that set BLAS / OpenMP thread pools.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes (host speed right now)."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += (i * i) % 7
    return time.perf_counter() - start


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Nothing imported so far loads NumPy or the program, so the timed
    # import below is what a fresh process pays.
    from perfbench import report
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    probe_before = host_probe()

    start = time.perf_counter()
    for module in WORKLOADS[args.workload].imports:
        __import__(module)
    import_s = time.perf_counter() - start

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported repro from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from perfbench.layers import TARGETS
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install(TARGETS)
    WORK.mkdir(exist_ok=True)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, tracer, import_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe_after = host_probe()

    import numpy

    environment: Dict[str, Any] = {
        "host_probe_before_s": probe_before,
        "host_probe_after_s": probe_after,
        "cpu_count": os.cpu_count(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    result = report.build(args, outcome, tracer, environment, WORK)
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
