"""Registry of the paper's regenerable artifacts as API experiments.

Every table and figure of the evaluation is registered here as an
:class:`ExperimentDefinition` whose builder runs the underlying analysis
code through a shared :class:`~repro.api.session.Session` and returns a
uniform :class:`~repro.api.result.ExperimentResult`.  The CLI runner
(``python -m repro.analysis.runner``) and ``Session.run("fig12")`` both
resolve names against this registry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.analysis.report import format_table
from repro.api.result import ExperimentResult
from repro.api.session import Session
from repro.arch.area import AreaModel


@dataclass(frozen=True)
class ExperimentDefinition:
    """One registered experiment: a name, a description, and a builder.

    ``build(session, **kwargs)`` runs the experiment through the given
    session (kwargs narrow the experiment, e.g. fewer scenes) and returns
    an :class:`ExperimentResult`.  ``cost_hint`` is the experiment's rough
    relative wall time (1.0 = one full-resolution scene context); the
    experiment-level scheduler dispatches heaviest-first to minimise
    makespan.  Experiments are mutually independent — nothing here depends
    on another experiment's output — so any dispatch order is valid.
    """

    name: str
    description: str
    build: Callable[..., ExperimentResult]
    cost_hint: float = 1.0


REGISTRY: "OrderedDict[str, ExperimentDefinition]" = OrderedDict()


def register(name: str, description: str, cost_hint: float = 1.0):
    """Decorator adding a builder to the experiment registry."""

    def _add(build: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        REGISTRY[name] = ExperimentDefinition(
            name=name, description=description, build=build, cost_hint=cost_hint
        )
        return build

    return _add


def get_experiment(name: str) -> ExperimentDefinition:
    """Look up a registered experiment by name."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(REGISTRY)}")
    return REGISTRY[name]


def experiment_names() -> List[str]:
    """Registered experiment names in presentation order."""
    return list(REGISTRY)


def run_experiment_payload(
    name: str,
    options: Any = None,
    cache_dir: Any = None,
) -> Dict[str, Any]:
    """Run one experiment and return a pickle-friendly payload.

    The worker entry point of the experiment-level scheduler
    (:func:`repro.api.executor.schedule_experiments`): runs ``name``
    through this process's default session (so experiments scheduled onto
    the same worker share scene contexts and renderers — that sharing *is*
    the pool's reuse win), optionally against a shared disk store rooted at
    ``cache_dir``, and returns the result as ``to_dict()`` data plus
    telemetry (elapsed wall time, worker id, store counters).
    """
    import time

    from repro.api.executor import _worker_id
    from repro.api.session import get_default_session
    from repro.api.store import ResultStore

    session = get_default_session()
    store = ResultStore(cache_dir) if cache_dir else None
    previous = (session.jobs, session.store)
    # Workers run sweeps serially (jobs=1): parallelism already lives at
    # the experiment level, and nested pools would oversubscribe the host.
    session.jobs, session.store = 1, store
    start = time.perf_counter()
    try:
        result = get_experiment(name).build(session, **dict(options or {}))
    finally:
        session.jobs, session.store = previous
    return {
        "name": name,
        "result": result.to_dict(),
        "elapsed_s": time.perf_counter() - start,
        "worker": _worker_id(),
        "store_hits": store.hits if store is not None else 0,
        "store_misses": store.misses if store is not None else 0,
    }


# ----------------------------------------------------------------------
# Builders: characterization (Sec. II-B).
# ----------------------------------------------------------------------
@register("fig2", "DRAM traffic breakdown of tile-centric 3DGS", cost_hint=3.0)
def _fig2(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.analysis.characterization import run_fig2

    result = run_fig2(session=session, **kwargs)
    return ExperimentResult(
        name="fig2",
        title="Fig. 2 — tile-centric DRAM traffic breakdown",
        text=result.format(),
        metrics={
            "intermediate_fraction": result.intermediate_fraction,
            "mean_projection_share": result.mean_share("projection"),
            "mean_sorting_share": result.mean_share("sorting"),
            "mean_rendering_share": result.mean_share("rendering"),
        },
        payload={
            "scenes": result.scenes,
            "stage_fractions": result.stage_fractions,
            "paper_intermediate_fraction": result.paper_intermediate_fraction,
        },
    )


@register("fig3", "3DGS FPS on the Orin NX GPU", cost_hint=3.0)
def _fig3(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.analysis.characterization import run_fig3

    result = run_fig3(session=session, **kwargs)
    mean = lambda values: sum(values) / len(values) if values else 0.0
    return ExperimentResult(
        name="fig3",
        title="Fig. 3 — 3DGS FPS on Orin NX",
        text=result.format(),
        metrics={
            "mean_measured_fps": mean(result.measured_fps),
            "mean_paper_fps": mean(result.paper_fps),
            "max_measured_fps": max(result.measured_fps),
        },
        payload={
            "scenes": result.scenes,
            "categories": result.categories,
            "measured_fps": result.measured_fps,
            "paper_fps": result.paper_fps,
        },
    )


@register("fig4", "DRAM bandwidth needed for 90 FPS", cost_hint=3.0)
def _fig4(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.analysis.characterization import run_fig4

    result = run_fig4(session=session, **kwargs)
    over = [
        scene
        for scene, total in zip(result.scenes, result.total_gbs)
        if total > result.bandwidth_limit_gbs
    ]
    return ExperimentResult(
        name="fig4",
        title="Fig. 4 — DRAM bandwidth needed for 90 FPS",
        text=result.format(),
        metrics={
            "max_total_gbs": max(result.total_gbs),
            "bandwidth_limit_gbs": result.bandwidth_limit_gbs,
            "scenes_over_limit": float(len(over)),
        },
        payload={
            "scenes": result.scenes,
            "categories": result.categories,
            "stage_gbs": result.stage_gbs,
            "total_gbs": result.total_gbs,
            "scenes_over_limit": over,
        },
    )


# ----------------------------------------------------------------------
# Builders: algorithm quality (Sec. III).
# ----------------------------------------------------------------------
@register("fig7", "Boundary-aware fine-tuning (train scene)", cost_hint=4.0)
def _fig7(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.analysis.quality import run_fig7

    result = run_fig7(session=session, **kwargs)
    return ExperimentResult(
        name="fig7",
        title="Fig. 7 — boundary-aware fine-tuning",
        text=result.format(),
        metrics={
            "error_ratio_reduction": result.error_ratio_reduction,
            "psnr_gain": result.psnr_gain,
            "initial_error_ratio": result.error_ratio[0] if result.error_ratio else 0.0,
            "final_error_ratio": result.error_ratio[-1] if result.error_ratio else 0.0,
        },
        payload={
            "iterations": result.iterations,
            "error_ratio": result.error_ratio,
            "quality_psnr": result.quality_psnr,
            "paper_error_ratio": result.paper_error_ratio,
            "paper_psnr": result.paper_psnr,
        },
    )


@register("tab1", "Accelerator configuration and area", cost_hint=0.1)
def _tab1(session: Session, **kwargs: Any) -> ExperimentResult:
    if kwargs:
        raise TypeError(f"tab1 accepts no experiment parameters, got {sorted(kwargs)}")
    breakdown = AreaModel().table1()
    rows = [[name, f"{area:.3f}"] for name, area in breakdown.as_rows()]
    text = format_table(
        ["component", "area (mm^2)"], rows, title="Table I — configuration and area"
    )
    return ExperimentResult(
        name="tab1",
        title="Table I — configuration and area",
        text=text,
        metrics={"total_mm2": breakdown.total_mm2},
        payload={"rows": [[name, area] for name, area in breakdown.as_rows()]},
    )


@register("tab2", "Rendering quality (PSNR) comparison", cost_hint=6.0)
def _tab2(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.analysis.quality import PAPER_MEAN_PSNR_DROP, run_table2

    result = run_table2(session=session, **kwargs)
    return ExperimentResult(
        name="tab2",
        title="Table II — rendering quality (PSNR)",
        text=result.format(),
        metrics={
            "mean_measured_drop": result.mean_measured_drop(),
            "paper_mean_drop": PAPER_MEAN_PSNR_DROP,
        },
        payload={
            "rows": [
                {
                    "algorithm": row.algorithm,
                    "scene": row.scene,
                    "paper_baseline": row.paper_baseline,
                    "paper_ours": row.paper_ours,
                    "measured_baseline": row.measured_baseline,
                    "measured_ours": row.measured_ours,
                }
                for row in result.rows
            ]
        },
    )


# ----------------------------------------------------------------------
# Builders: end-to-end evaluation (Sec. V).
# ----------------------------------------------------------------------
@register("fig11", "End-to-end speedup and energy savings", cost_hint=6.0)
def _fig11(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.analysis.performance import run_fig11

    result = run_fig11(session=session, **kwargs)
    return ExperimentResult(
        name="fig11",
        title="Fig. 11 — end-to-end speedup and energy savings",
        text=result.format(),
        metrics={
            "mean_speedup_streaminggs": result.mean_speedup("streaminggs"),
            "mean_speedup_gscore": result.mean_speedup("gscore"),
            "mean_energy_savings_streaminggs": result.mean_energy_savings("streaminggs"),
            "streaming_vs_gscore_speedup": result.streaming_vs_gscore_speedup(),
            "streaming_vs_gscore_energy": result.streaming_vs_gscore_energy(),
        },
        payload={
            "algorithms": result.algorithms,
            "variants": result.variants,
            "speedup": result.speedup,
            "energy_savings": result.energy_savings,
            "paper_speedup": result.paper_speedup,
            "paper_energy": result.paper_energy,
        },
    )


@register("fig12", "Voxel-size sensitivity", cost_hint=6.0)
def _fig12(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.analysis.sensitivity import run_fig12

    result = run_fig12(session=session, **kwargs)
    return ExperimentResult(
        name="fig12",
        title="Fig. 12 — voxel-size sensitivity",
        text=result.format(),
        metrics={
            "quality_monotonic_trend": result.quality_monotonic_trend,
            "max_energy_savings": max(result.energy_savings),
            "min_energy_savings": min(result.energy_savings),
        },
        payload={
            "scene": result.scene,
            "voxel_sizes": result.voxel_sizes,
            "energy_savings": result.energy_savings,
            "psnr": result.psnr,
        },
    )


@register("fig13", "CFU/FFU sensitivity", cost_hint=1.5)
def _fig13(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.analysis.sensitivity import run_fig13

    result = run_fig13(session=session, **kwargs)
    speedups = [result.value(c, f) for c in result.cfus for f in result.ffus]
    return ExperimentResult(
        name="fig13",
        title="Fig. 13 — CFU/FFU sensitivity",
        text=result.format(),
        metrics={
            "min_speedup": min(speedups),
            "max_speedup": max(speedups),
            "paper_min": result.paper_min,
            "paper_max": result.paper_max,
        },
        payload={
            "scene": result.scene,
            "cfus": result.cfus,
            "ffus": result.ffus,
            "speedup": result.speedup,
            "area_mm2": result.area_mm2,
        },
    )


@register("claims", "Supporting filtering / VQ claims", cost_hint=1.0)
def _claims(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.analysis.claims import run_supporting_claims

    result = run_supporting_claims(session=session, **kwargs)
    return ExperimentResult(
        name="claims",
        title="Supporting claims",
        text=result.format(),
        metrics={
            "filtering_reduction": result.filtering_reduction,
            "vq_traffic_reduction": result.vq_traffic_reduction,
            "coarse_macs": float(result.coarse_macs),
            "fine_macs": float(result.fine_macs),
        },
        payload={"scene": result.scene},
    )


@register(
    "trajectory",
    "Trajectory workload (a camera path rendered frame by frame)",
    cost_hint=3.0,
)
def _trajectory(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.api.spec import TrajectorySpec

    return session.run_trajectory(TrajectorySpec.from_dict(kwargs))


@register("engine", "Blending-kernel micro-benchmark (engine layer)", cost_hint=1.0)
def _engine(session: Session, **kwargs: Any) -> ExperimentResult:
    from repro.engine.bench import run_kernel_benchmark

    result = run_kernel_benchmark(**kwargs)
    return ExperimentResult(
        name="engine",
        title="Engine blending-kernel micro-benchmark",
        text=result.format(),
        metrics={
            "speedup": result.speedup,
            "max_image_delta": result.max_image_delta,
        },
        payload=result.as_dict(),
    )
