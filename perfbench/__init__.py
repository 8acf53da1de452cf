"""End-to-end and per-layer benchmark of the STREAMINGGS reproduction.

Run one workload in a fresh process::

    python3 perfbench/run.py --workload viewer --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public functions at each layer boundary and prints the per-layer metrics.
The modules here import nothing from ``repro`` at module level, so the
pure parts (statistics, seeded inputs, span bookkeeping) are testable
without running a workload.
"""
