"""Layer boundaries the traced run wraps, and the per-layer metrics.

Conventions of the derived metrics:

* ``*_ms``: summed self time of a span name inside the timed windows,
  divided by the ops of the windows (per frame in ``viewer``, per request
  in ``cold-start``), so the layer times of one op add up to the part of
  its latency the spans cover;
* ``*_p50`` / ``*_p90``: percentiles over the windows' requests;
* ratios: hits over lookups, or useful outcomes over attempts (``0``
  when nothing was looked up);
* other counts: per op of the windows, except the ``*_alive`` gauges,
  read at the end of the last window.

The metric names and units are the ``per_layer`` list of ``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from perfbench.stats import percentile
from perfbench.tracer import Span, Target, Tracer, self_times

#: Name of the benchmark's own span around each timed op.
OP_SPAN = "op"


# ----------------------------------------------------------------------
# hooks: request ids and counters observed at the boundary
# ----------------------------------------------------------------------
def _frame_counts(tracer: Tracer, args, kwargs, output) -> None:
    if output is None:
        return
    stats, counts = output.stats, tracer.counts
    counts["gaussians_streamed"] += stats.gaussians_streamed
    counts["fragments_blended"] += stats.blended_fragments
    counts["dram_bytes_modelled"] += stats.traffic.total_bytes
    counts["filter_in"] += stats.filter.gaussians_in
    counts["filter_passed"] += stats.filter.fine_passed


def _frame_cache_counts(tracer: Tracer, args, kwargs, prepared) -> None:
    tracer.counts["frame_cache_lookups"] += 1
    tracer.counts["frame_cache_hits"] += int(prepared is not None)


def _rid_of_request(tracer: Tracer, args, kwargs, result) -> Optional[str]:
    return args[1].id


def _rid_of_record(tracer: Tracer, args, kwargs, result) -> Optional[str]:
    return args[1].request.id


def _rid_of_message(tracer: Tracer, args, kwargs, frame) -> Optional[str]:
    return args[0].get("id") or None


def _rid_of_decoded(tracer: Tracer, args, kwargs, message) -> Optional[str]:
    return message.get("id") or None if isinstance(message, dict) else None


def _rid_of_response(tracer: Tracer, args, kwargs, response) -> Optional[str]:
    # A wire response carries the id of the request it answers; an
    # in-process render has none.
    return getattr(response, "id", None) or None


#: The benchmark's own span around each timed op (see ``workloads.py``).
OP_TARGET = Target("perfbench.workloads", "op", OP_SPAN, _rid_of_response)


#: Every wrapped boundary, grouped by the layer it belongs to.
TARGETS: Tuple[Target, ...] = (
    # core: the streaming frame
    Target("repro.core.ray_voxel", "ordering_tables_for_tiles", "core.traversal"),
    Target("repro.core.voxel_order", "topological_orders_for_tables", "core.voxel_order"),
    Target("repro.core.hierarchical_filter", "HierarchicalFilter.filter_voxel_batch", "core.filter"),
    Target("repro.core.data_layout", "DataLayout.voxel_stream_traffic_batch", "core.traffic"),
    Target("repro.core.pipeline", "StreamingRenderer.render", "core.frame_self", _frame_counts),
    Target("repro.core.voxel_grid", "VoxelGrid.build", "core.grid_build"),
    # engine: blend kernel, frame cache, render service
    Target("repro.engine.kernels", "blend_streaming", "engine.blend"),
    Target("repro.engine.service", "RenderService.render", "engine.lookup"),
    Target("repro.engine.cache", "FrameCache.get", None, _frame_cache_counts),
    # compression: VQ codebooks
    Target("repro.compression.kmeans", "kmeans", "compression.kmeans"),
    Target("repro.compression.codebook", "Codebook.encode", "compression.encode"),
    # gaussians: tile-centric reference renderer
    Target("repro.gaussians.rasterizer", "TileRasterizer.render", "gaussians.raster"),
    Target("repro.gaussians.tiles", "bin_gaussians_to_tiles", "gaussians.binning"),
    # scenes, variants, analysis: scene contexts
    Target("repro.scenes.registry", "build_scene", "scenes.build"),
    Target("repro.variants.base", "BaseAlgorithm.transform", "variants.transform"),
    Target("repro.variants.mini_splatting", "MiniSplatting.transform", "variants.transform"),
    Target("repro.variants.light_gaussian", "LightGaussian.transform", "variants.transform"),
    Target("repro.scenes.fitting", "fit_trained_model", "scenes.fit"),
    Target("repro.analysis.context", "build_scene_context", "analysis.context"),
    # arch: workload model
    Target("repro.arch.workload", "build_workload", "arch.workload"),
    # service: admission, dispatch, execution, wire codec
    Target("repro.service.daemon", "ServiceDaemon.admit", "service.admit", _rid_of_request),
    Target("repro.service.actors", "WorkerActor.submit", "service.submit", _rid_of_record),
    Target("repro.service.actors", "execute_request", "service.execute", _rid_of_record),
    Target("repro.service.protocol", "encode_message", "service.encode", _rid_of_message),
    Target("repro.service.protocol", "decode_message", "service.decode", _rid_of_decoded),
)

#: ``*_ms`` self-time metrics: metric name -> span names summed.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "core.traversal_ms": ("core.traversal",),
    "core.voxel_order_ms": ("core.voxel_order",),
    "core.filter_ms": ("core.filter",),
    "core.traffic_ms": ("core.traffic",),
    "core.frame_self_ms": ("core.frame_self",),
    "core.grid_build_ms": ("core.grid_build",),
    "engine.blend_ms": ("engine.blend",),
    "engine.lookup_ms": ("engine.lookup",),
    "compression.kmeans_ms": ("compression.kmeans",),
    "compression.encode_ms": ("compression.encode",),
    "gaussians.raster_ms": ("gaussians.raster",),
    "gaussians.binning_ms": ("gaussians.binning",),
    "scenes.build_ms": ("scenes.build",),
    "variants.transform_ms": ("variants.transform",),
    "scenes.fit_ms": ("scenes.fit",),
    "analysis.context_ms": ("analysis.context",),
    "arch.workload_ms": ("arch.workload",),
    "service.admit_ms": ("service.admit",),
    "service.execute_ms.render": ("service.execute",),
    "service.codec_ms": ("service.encode", "service.decode"),
}

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct_ms(values: Sequence[float], q: float) -> float:
    return 1e3 * percentile(values, q) if values else 0.0


def derive(
    tracer: Tracer,
    windows: Sequence[Tuple[float, float]],
    n_ops: int,
    counts: Mapping[str, float],
    probe: Mapping[str, float],
    setup: Mapping[str, float],
    span_cost_s: float,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of the traced timed windows.

    ``n_ops`` counts the windows' ops; ``counts`` are the hook counters
    gathered inside the windows; ``probe`` the program's own counters over
    the windows (renderer and context caches, daemon metrics, gauges at
    the last window's end).  Returns the metrics and a summary of span
    coverage and tracing overhead.  Metrics whose spans were never wrapped
    (see :attr:`Tracer.missing`) are left out.
    """
    spans = [s for s in tracer.spans if any(lo <= s.start <= hi for lo, hi in windows)]
    selfs = self_times(spans, op_names=(OP_SPAN,))
    n_ops = max(1, n_ops)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    wrapped = wrapped_keys(tracer)

    metrics: Dict[str, float] = {}
    for name, span_names in SELF_TIME_METRICS.items():
        if all(s in wrapped for s in span_names):
            total = sum(selfs[s.sid] for n in span_names for s in by_name[n])
            metrics[name] = 1e3 * total / n_ops

    def first_by_rid(name: str) -> Dict[str, Span]:
        return {s.rid: s for s in reversed(by_name[name]) if s.rid}

    if {"service.admit", "service.submit"} <= wrapped:
        admitted, submitted = first_by_rid("service.admit"), first_by_rid("service.submit")
        waits = [submitted[r].start - admitted[r].end for r in admitted if r in submitted]
        metrics["service.queue_wait_ms_p50"] = _pct_ms(waits, 0.5)
        metrics["service.queue_wait_ms_p90"] = _pct_ms(waits, 0.9)
    if "service.execute" in wrapped:
        executed = first_by_rid("service.execute")
        overheads = [
            span.duration - executed[span.rid].duration
            for span in by_name[OP_SPAN]
            if span.rid in executed
        ]
        metrics["service.overhead_ms_p50"] = _pct_ms(overheads, 0.5)

    if "core.frame_self" in wrapped:
        metrics["core.gaussians_streamed"] = counts.get("gaussians_streamed", 0) / n_ops
        metrics["core.fragments_blended"] = counts.get("fragments_blended", 0) / n_ops
        metrics["core.dram_bytes_modelled"] = counts.get("dram_bytes_modelled", 0) / n_ops
        metrics["core.filter_pass_ratio"] = _ratio(
            counts.get("filter_passed", 0), counts.get("filter_in", 0)
        )
    if "FrameCache.get" in wrapped:
        metrics["engine.frame_cache_hit_ratio"] = _ratio(
            counts.get("frame_cache_hits", 0), counts.get("frame_cache_lookups", 0)
        )
    if "compression.kmeans" in wrapped:
        metrics["compression.kmeans_calls"] = len(by_name["compression.kmeans"]) / n_ops
    if "analysis.context" in wrapped:
        metrics["analysis.contexts_built"] = len(by_name["analysis.context"]) / n_ops

    metrics["engine.renderer_hit_ratio"] = _ratio(
        probe.get("renderer_hits", 0),
        probe.get("renderer_hits", 0) + probe.get("renderer_misses", 0),
    )
    metrics["engine.renderers_alive"] = float(probe.get("renderers_alive", 0))
    metrics["api.contexts_alive"] = float(probe.get("contexts_alive", 0))
    for name in ("rejected", "degraded", "retried"):
        metrics[f"service.{name}"] = probe.get(name, 0) / n_ops
    metrics["setup.import_s"] = setup["import_s"]
    metrics["setup.boot_s"] = setup["boot_s"]
    metrics["setup.warm_s"] = setup["warm_s"]

    op_time = sum(s.duration for s in by_name[OP_SPAN])
    op_self = sum(selfs[s.sid] for s in by_name[OP_SPAN])
    coverage = _ratio(op_time - op_self, op_time)
    overhead_ms = 1e3 * span_cost_s * (len(spans) - len(by_name[OP_SPAN])) / n_ops
    metrics["trace.span_coverage"] = coverage
    metrics["trace.overhead_ms"] = overhead_ms
    summary = {
        "spans": len(spans),
        "coverage": coverage,
        "overhead_ms_per_op": overhead_ms,
        "op_ms_mean": 1e3 * op_time / n_ops,
    }
    return metrics, summary


def wrapped_keys(tracer: Tracer) -> set:
    """Span names (or count-only qualnames) whose every target is wrapped."""
    broken = {t.key for t in TARGETS if t.ident in tracer.missing}
    return {t.key for t in TARGETS} - broken
