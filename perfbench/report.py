"""Turn a workload outcome into printed metrics, a run record and a result.

The metric names and units are read from ``BENCHMARK.json``.  Also keeps
the count ledger: counts that must repeat exactly for a given (workload,
seed, trace, seconds) and source tree are stored on the first run and
every later run is compared with them, so nondeterminism shows as a
flagged drift.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench import layers
from perfbench.stats import beyond, format_quantile, highest_supported, mode_boundary, percentile
from perfbench.workloads import Outcome, setup_summary

ROOT = Path(__file__).resolve().parent.parent


def declared(section: str) -> Tuple[Tuple[str, str], ...]:
    """``(name, unit)`` of each metric of a ``BENCHMARK.json`` section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple((metric["name"], metric["unit"]) for metric in spec[section])


#: Per-layer counts that repeat exactly for a seed; they join the drift
#: ledger of traced runs.
LEDGER_LAYER_COUNTS = (
    "core.gaussians_streamed",
    "core.fragments_blended",
    "core.dram_bytes_modelled",
    "analysis.contexts_built",
    "compression.kmeans_calls",
)


def _finite(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def end_to_end(outcome: Outcome, warnings: List[str]) -> Dict[str, float]:
    latencies = [op.latency for op in outcome.ops]
    n = len(latencies)
    top = highest_supported(n)
    if top is None:
        print(f"latency: n={n}; no percentile has ten samples beyond it")
    else:
        print(
            f"latency: n={n}; highest percentile with ten samples beyond it: "
            f"p{format_quantile(top)} = {1e3 * percentile(latencies, top):.4f} ms"
        )
    metrics: Dict[str, float] = {}
    for q in (0.5, 0.9):
        name = f"latency_ms_p{format_quantile(q)}"
        metrics[name] = 1e3 * percentile(latencies, q)
        if beyond(q, n) < 10:
            warnings.append(f"{name} rests on {beyond(q, n)} of {n} samples beyond it (fewer than ten)")
        text = mode_boundary(latencies, q)
        if text:
            warnings.append(f"latency {text}")
    ok = sum(1 for op in outcome.ops if op.ok)
    metrics["throughput_per_s"] = ok / sum(hi - lo for lo, hi in outcome.windows)
    metrics["setup_s"] = setup_summary(outcome.setups)["setup_s"]
    metrics["peak_rss_mb"] = outcome.peak_rss_mb
    return metrics


def span_cost_s() -> float:
    """Per-span cost of the tracer's wrapper, measured on an empty call."""
    from perfbench.tracer import Target, Tracer

    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    wrapped = tracer.wrap(noop, Target("calibration", "noop", "calibration"))
    calls = 20000
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - start - bare) / calls)


def source_digest(root: Path = ROOT) -> str:
    """Hash of the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for path in sorted((root / tree).rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def check_ledger(path: Path, counts: Dict[str, Any]) -> List[str]:
    """Compare ``counts`` with the ledger at ``path`` (written if absent)."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1, sort_keys=True))
        return []
    recorded = json.loads(path.read_text())
    return [
        f"count drift in {key}: {recorded.get(key)!r} before, {counts.get(key)!r} now"
        for key in sorted(set(recorded) | set(counts))
        if recorded.get(key) != counts.get(key)
    ]


def build(args, outcome: Outcome, tracer, environment: Dict[str, Any], work: Path) -> Dict[str, Any]:
    """Print the summary and return the result object of the run."""
    workload = args.workload
    warnings: List[str] = []
    attempted = len(outcome.ops)
    failed = sum(1 for op in outcome.ops if not op.ok)
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    windows = ", ".join(f"{hi - lo:.2f}" for lo, hi in outcome.windows)
    print(f"ops: {attempted} attempted, {failed} failed, windows {windows} s")
    setup = setup_summary(outcome.setups)
    print(
        "setup: {setup_s:.3f} s, median of {n} set-ups (import {import_s:.3f} once, "
        "boot {boot_s:.3f}, warm {warm_s:.3f})".format(n=len(outcome.setups), **setup)
    )

    e2e = end_to_end(outcome, warnings)
    counts = dict(outcome.counts)
    if tracer is None:
        metrics, declared_metrics = e2e, declared("end_to_end")
    else:
        metrics, summary = layers.derive(
            tracer,
            outcome.windows,
            attempted,
            outcome.trace_counts,
            outcome.probe,
            setup,
            span_cost_s(),
        )
        declared_metrics = declared("per_layer")
        for name, reason in sorted(tracer.missing.items()):
            warnings.append(f"MISSING wrapped name {name}: {reason}")
        print(
            f"traced: {summary['spans']} spans, span coverage {100 * summary['coverage']:.1f}% "
            f"of op latency, tracing overhead ~{summary['overhead_ms_per_op']:.3f} ms/op "
            f"({100 * summary['overhead_ms_per_op'] / max(summary['op_ms_mean'], 1e-9):.2f}% of "
            f"the traced op's {summary['op_ms_mean']:.2f} ms mean; compare latency_ms_p50 "
            f"{e2e['latency_ms_p50']:.2f} ms here with the untraced run)"
        )
        counts.update({k: metrics[k] for k in LEDGER_LAYER_COUNTS if k in metrics})
    ledger = f"{workload}-s{args.seed}-t{args.trace}-{args.seconds:g}s-{source_digest()}.json"
    warnings.extend(check_ledger(work / "ledger" / ledger, counts))

    for name, unit in declared_metrics:
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:14.4f} {unit}")
    for note in outcome.notes:
        print(f"note: {note}")
    for text in warnings:
        print(f"warning: {text}")
    for text in outcome.failures:
        print(f"CHECK FAILED: {text}")

    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **environment,
        "setups": outcome.setups,
        "end_to_end": e2e,
        "counts": counts,
        "probe": outcome.probe,
        "warnings": warnings,
        "failures": outcome.failures,
    }
    print("record: " + json.dumps(record, sort_keys=True, default=str))
    runs = work / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    record["ops"] = [[op.kind, op.ok, _finite(1e3 * op.latency)] for op in outcome.ops]
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    if tracer is not None:
        spans = [
            [s.sid, s.name, s.start, s.end, s.parent, s.thread, s.rid] for s in tracer.spans
        ]
        (runs / f"{stem}-spans.json").write_text(json.dumps(spans))

    correct = not outcome.failures and attempted >= 1 and failed == 0
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _finite(metrics[name]), "unit": unit}
            for name, unit in declared_metrics
            if name in metrics
        },
    }
