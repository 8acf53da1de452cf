"""Rendering-quality experiments (Table II and Fig. 7).

Table II compares the PSNR of the original tile-centric pipeline and the
fully streaming pipeline across six scenes and three base algorithms.
Fig. 7 tracks the error-Gaussian ratio and the rendering quality during
boundary-aware fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.report import format_table
from repro.api.session import Session, get_default_session
from repro.core.config import StreamingConfig
from repro.gaussians.metrics import psnr
from repro.training.boundary_finetune import BoundaryFinetuneResult, boundary_aware_finetune
from repro.training.color_refinement import dc_color_refinement_step

#: Table II scene order (as printed in the paper).
TABLE2_SCENES = ("train", "truck", "playroom", "drjohnson", "lego", "palace")

#: Table II algorithms.
TABLE2_ALGORITHMS = ("3dgs", "mini_splatting", "light_gaussian")

#: Paper Fig. 7 endpoints (train scene, original 3DGS).
PAPER_FIG7_ERROR_RATIO = (0.023, 0.004)
PAPER_FIG7_PSNR = (21.37, 22.61)

#: Paper Table II average quality drop of the streaming pipeline.
PAPER_MEAN_PSNR_DROP = 0.04


@dataclass
class QualityRow:
    """One (algorithm, scene) cell pair of Table II."""

    algorithm: str
    scene: str
    paper_baseline: float
    paper_ours: float
    measured_baseline: float
    measured_ours: float

    @property
    def measured_drop(self) -> float:
        return self.measured_baseline - self.measured_ours


@dataclass
class Table2Result:
    """Table II: PSNR of the original vs. streaming pipeline."""

    rows: List[QualityRow] = field(default_factory=list)

    def mean_measured_drop(self) -> float:
        return float(np.mean([row.measured_drop for row in self.rows])) if self.rows else 0.0

    def format(self) -> str:
        table_rows = []
        for row in self.rows:
            table_rows.append(
                [
                    row.algorithm,
                    row.scene,
                    row.paper_baseline,
                    row.paper_ours,
                    row.measured_baseline,
                    row.measured_ours,
                    row.measured_drop,
                ]
            )
        table = format_table(
            [
                "algorithm",
                "scene",
                "paper base",
                "paper ours",
                "model base",
                "model ours",
                "model drop",
            ],
            table_rows,
            title="Table II — rendering quality (PSNR, dB)",
        )
        return (
            f"{table}\n"
            f"mean quality drop: measured {self.mean_measured_drop():.2f} dB "
            f"(paper: {PAPER_MEAN_PSNR_DROP:.2f} dB)"
        )


#: Paper Table II values, ("baseline", "ours") per algorithm and scene.
PAPER_TABLE2: Dict[str, Dict[str, Tuple[float, float]]] = {
    "3dgs": {
        "train": (22.54, 22.52),
        "truck": (26.65, 26.61),
        "playroom": (30.18, 30.27),
        "drjohnson": (29.21, 29.07),
        "lego": (36.11, 36.02),
        "palace": (38.56, 38.52),
    },
    "mini_splatting": {
        "train": (21.49, 21.44),
        "truck": (25.19, 25.11),
        "playroom": (30.32, 30.37),
        "drjohnson": (29.23, 29.34),
        "lego": (36.20, 36.18),
        "palace": (39.00, 38.98),
    },
    "light_gaussian": {
        "train": (22.29, 22.32),
        "truck": (26.02, 25.89),
        "playroom": (28.58, 28.47),
        "drjohnson": (25.87, 25.79),
        "lego": (35.18, 35.15),
        "palace": (37.76, 37.68),
    },
}


def run_table2(
    scenes: Sequence[str] = TABLE2_SCENES,
    algorithms: Sequence[str] = TABLE2_ALGORITHMS,
    session: Optional[Session] = None,
) -> Table2Result:
    """Reproduce Table II.

    For every (algorithm, scene) pair the baseline is the tile-centric
    render of the calibrated trained model and "ours" is the streaming
    render of the same model; both are scored against the same ground-truth
    image.
    """
    session = session or get_default_session()
    result = Table2Result()
    for algorithm in algorithms:
        for scene in scenes:
            context = session.context(scene, algorithm=algorithm)
            paper_baseline, paper_ours = PAPER_TABLE2[algorithm][scene]
            result.rows.append(
                QualityRow(
                    algorithm=algorithm,
                    scene=scene,
                    paper_baseline=paper_baseline,
                    paper_ours=paper_ours,
                    measured_baseline=context.baseline_psnr,
                    measured_ours=context.streaming_psnr,
                )
            )
    return result


@dataclass
class Fig7Result:
    """Fig. 7: error-Gaussian ratio and PSNR during boundary fine-tuning."""

    iterations: List[int]
    error_ratio: List[float]
    quality_psnr: List[float]
    paper_error_ratio: Tuple[float, float] = PAPER_FIG7_ERROR_RATIO
    paper_psnr: Tuple[float, float] = PAPER_FIG7_PSNR

    @property
    def error_ratio_reduction(self) -> float:
        """Factor by which the error ratio shrinks over fine-tuning."""
        if not self.error_ratio or self.error_ratio[-1] == 0:
            return float("inf")
        return self.error_ratio[0] / self.error_ratio[-1]

    @property
    def psnr_gain(self) -> float:
        if not self.quality_psnr:
            return 0.0
        return self.quality_psnr[-1] - self.quality_psnr[0]

    def format(self) -> str:
        rows = [
            [iteration, 100 * ratio, quality]
            for iteration, ratio, quality in zip(
                self.iterations, self.error_ratio, self.quality_psnr
            )
        ]
        table = format_table(
            ["iteration", "error Gaussians %", "PSNR (dB)"],
            rows,
            title="Fig. 7 — boundary-aware fine-tuning (train scene)",
        )
        return (
            f"{table}\n"
            f"paper: error ratio {100 * self.paper_error_ratio[0]:.1f}% -> "
            f"{100 * self.paper_error_ratio[1]:.1f}%, "
            f"PSNR {self.paper_psnr[0]:.2f} -> {self.paper_psnr[1]:.2f} dB"
        )


def run_fig7(
    scene: str = "train",
    iterations: int = 3000,
    probe_every: int = 500,
    session: Optional[Session] = None,
) -> Fig7Result:
    """Reproduce Fig. 7 on the train scene.

    The error probe is a streaming render at the evaluation camera; the
    photometric surrogate refines DC colours against the pre-fine-tuning
    tile-centric render of the trained model (the stand-in for the training
    images), which the context already holds as ``tile_output``.
    """
    session = session or get_default_session()
    context = session.context(scene)
    config: StreamingConfig = context.streaming_config
    camera = context.camera
    ground_truth = context.ground_truth
    photometric_target = context.tile_output.image
    # Fine-tuning probes render throwaway models (the loop builds a new one
    # for every probe, so every probe builds a new renderer).  A
    # single-slot isolated session keeps them from evicting the shared
    # scene-context renderers and from outliving the experiment.
    probe_session = session.isolated(max_renderers=1)

    def probe(model) -> Tuple[np.ndarray, float, float]:
        output = probe_session.render(model, camera, config=config).output
        stats = output.stats
        return (
            stats.error_gaussian_indices(),
            psnr(ground_truth, output.image),
            stats.error_gaussian_ratio,
        )

    def refiner(model):
        return dc_color_refinement_step(
            model, [camera], [photometric_target], damping=0.4
        )

    finetune: BoundaryFinetuneResult = boundary_aware_finetune(
        context.trained,
        config.voxel_size,
        iterations=iterations,
        learning_rate=0.1,
        error_probe=probe,
        probe_every=probe_every,
        photometric_refiner=refiner,
    )
    return Fig7Result(
        iterations=finetune.iterations,
        error_ratio=finetune.error_gaussian_ratio,
        quality_psnr=finetune.quality,
    )
