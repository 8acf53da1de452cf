"""Characterization experiments (Sec. II-B: Fig. 2, Fig. 3, Fig. 4).

These experiments reproduce the paper's motivation: tile-centric 3DGS is
far below real time on a mobile GPU (Fig. 3), its DRAM bandwidth demand at
90 FPS exceeds the Orin NX's limit on real-world scenes (Fig. 4), and the
intermediate data between projection / sorting / rendering dominates that
traffic (Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.api.session import Session, get_default_session
from repro.arch.gpu import OrinNXModel
from repro.arch.technology import ORIN_NX
from repro.arch.traffic import tile_centric_traffic
from repro.scenes.registry import SCENE_REGISTRY

#: The ordering used by the paper's characterization figures.
CHARACTERIZATION_SCENES = ("lego", "palace", "train", "playroom", "truck", "drjohnson")

#: Fig. 2's aggregate claim: intermediate data is 85 % of tile-centric traffic.
PAPER_INTERMEDIATE_FRACTION = 0.85

#: Fig. 2 / Sec. II-B stage shares: projection 41 %, sorting 49 %.
PAPER_PROJECTION_SHARE = 0.41
PAPER_SORTING_SHARE = 0.49

#: Orin NX bandwidth limit highlighted in Fig. 4 (GB/s).
ORIN_BANDWIDTH_LIMIT_GBS = 102.4


@dataclass
class TrafficBreakdownResult:
    """Fig. 2: per-stage DRAM traffic shares of the tile-centric pipeline."""

    scenes: List[str]
    stage_fractions: Dict[str, List[float]]        # stage -> per-scene share
    intermediate_fraction: float                   # measured, averaged
    paper_intermediate_fraction: float = PAPER_INTERMEDIATE_FRACTION
    paper_projection_share: float = PAPER_PROJECTION_SHARE
    paper_sorting_share: float = PAPER_SORTING_SHARE

    def mean_share(self, stage: str) -> float:
        values = self.stage_fractions[stage]
        return sum(values) / len(values) if values else 0.0

    def format(self) -> str:
        rows = []
        for i, scene in enumerate(self.scenes):
            rows.append(
                [
                    scene,
                    100 * self.stage_fractions["projection"][i],
                    100 * self.stage_fractions["sorting"][i],
                    100 * self.stage_fractions["rendering"][i],
                ]
            )
        rows.append(
            [
                "mean",
                100 * self.mean_share("projection"),
                100 * self.mean_share("sorting"),
                100 * self.mean_share("rendering"),
            ]
        )
        table = format_table(
            ["scene", "projection %", "sorting %", "rendering %"],
            rows,
            title="Fig. 2 — tile-centric DRAM traffic breakdown",
        )
        return (
            f"{table}\n"
            f"intermediate traffic share: measured {100 * self.intermediate_fraction:.1f}% "
            f"(paper: {100 * self.paper_intermediate_fraction:.0f}%)"
        )


def run_fig2(
    scenes: Sequence[str] = CHARACTERIZATION_SCENES,
    session: Optional[Session] = None,
) -> TrafficBreakdownResult:
    """Reproduce Fig. 2's per-stage traffic proportions."""
    session = session or get_default_session()
    stage_fractions: Dict[str, List[float]] = {
        "projection": [],
        "sorting": [],
        "rendering": [],
    }
    intermediate = []
    for scene in scenes:
        context = session.context(scene)
        traffic = tile_centric_traffic(context.workload)
        fractions = traffic.fractions()
        for stage in stage_fractions:
            stage_fractions[stage].append(fractions[stage])
        intermediate.append(traffic.intermediate_bytes / traffic.total_bytes)
    return TrafficBreakdownResult(
        scenes=list(scenes),
        stage_fractions=stage_fractions,
        intermediate_fraction=sum(intermediate) / len(intermediate),
    )


@dataclass
class GpuFpsResult:
    """Fig. 3: FPS of tile-centric 3DGS on the Orin NX."""

    scenes: List[str]
    measured_fps: List[float]
    paper_fps: List[float]
    categories: List[str] = field(default_factory=list)

    def format(self) -> str:
        rows = [
            [scene, cat, round(paper, 1), round(measured, 1)]
            for scene, cat, paper, measured in zip(
                self.scenes, self.categories, self.paper_fps, self.measured_fps
            )
        ]
        return format_table(
            ["scene", "category", "paper FPS", "model FPS"],
            rows,
            title="Fig. 3 — 3DGS FPS on Orin NX",
        )


def run_fig3(
    scenes: Sequence[str] = CHARACTERIZATION_SCENES,
    session: Optional[Session] = None,
) -> GpuFpsResult:
    """Reproduce Fig. 3: per-scene GPU FPS (paper range: 2-9 FPS)."""
    session = session or get_default_session()
    gpu = OrinNXModel(ORIN_NX)
    measured, paper, categories = [], [], []
    for scene in scenes:
        context = session.context(scene)
        measured.append(gpu.fps(context.workload))
        paper.append(SCENE_REGISTRY[scene].orin_fps)
        categories.append(SCENE_REGISTRY[scene].category)
    return GpuFpsResult(
        scenes=list(scenes),
        measured_fps=measured,
        paper_fps=paper,
        categories=categories,
    )


@dataclass
class BandwidthResult:
    """Fig. 4: DRAM bandwidth required for 90 FPS per scene and stage."""

    scenes: List[str]
    categories: List[str]
    stage_gbs: Dict[str, List[float]]
    total_gbs: List[float]
    bandwidth_limit_gbs: float = ORIN_BANDWIDTH_LIMIT_GBS

    def exceeds_limit(self, scene: str) -> bool:
        index = self.scenes.index(scene)
        return self.total_gbs[index] > self.bandwidth_limit_gbs

    def format(self) -> str:
        rows = []
        for i, scene in enumerate(self.scenes):
            rows.append(
                [
                    scene,
                    self.categories[i],
                    self.stage_gbs["projection"][i],
                    self.stage_gbs["sorting"][i],
                    self.stage_gbs["rendering"][i],
                    self.total_gbs[i],
                    "yes" if self.total_gbs[i] > self.bandwidth_limit_gbs else "no",
                ]
            )
        return format_table(
            [
                "scene",
                "category",
                "proj GB/s",
                "sort GB/s",
                "render GB/s",
                "total GB/s",
                f"> {self.bandwidth_limit_gbs:.1f} GB/s",
            ],
            rows,
            title="Fig. 4 — DRAM bandwidth needed for 90 FPS",
        )


def run_fig4(
    scenes: Sequence[str] = CHARACTERIZATION_SCENES,
    fps: float = 90.0,
    session: Optional[Session] = None,
) -> BandwidthResult:
    """Reproduce Fig. 4: per-stage bandwidth demand at 90 FPS."""
    session = session or get_default_session()
    stage_gbs: Dict[str, List[float]] = {
        "projection": [],
        "sorting": [],
        "rendering": [],
    }
    totals, categories = [], []
    for scene in scenes:
        context = session.context(scene)
        traffic = tile_centric_traffic(context.workload)
        breakdown = traffic.breakdown()
        for stage in stage_gbs:
            stage_gbs[stage].append(breakdown[stage] * fps / 1e9)
        totals.append(traffic.total_bytes * fps / 1e9)
        categories.append(SCENE_REGISTRY[scene].category)
    return BandwidthResult(
        scenes=list(scenes),
        categories=categories,
        stage_gbs=stage_gbs,
        total_gbs=totals,
    )

