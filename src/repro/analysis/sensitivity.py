"""Sensitivity studies (Fig. 12 and Fig. 13).

Fig. 12 sweeps the voxel size on the train scene and reports energy savings
(over the GPU) together with rendering quality.  Fig. 13 sweeps the number
of coarse- and fine-grained filter units per HFU and reports the speedup
over the GPU.

Both figures are expressed as declarative :func:`repro.api.spec.sweep`
grids run through the shared :class:`~repro.api.session.Session` — the
voxel size routes to a :class:`~repro.core.config.StreamingConfig` override
and the CFU/FFU counts route to
:class:`~repro.arch.accelerator.AcceleratorConfig` options automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.report import format_series, format_table
from repro.api.session import Session, get_default_session
from repro.api.spec import ExperimentSpec, sweep

#: Fig. 12 voxel sizes (scene units, train scene).
FIG12_VOXEL_SIZES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

#: Fig. 13 CFU / FFU counts.
FIG13_CFUS = (1, 2, 3, 4)
FIG13_FFUS = (1, 2, 3, 4)

#: Paper Fig. 13 corner values (1 CFU/1 FFU and 4 CFU/4 FFU).
PAPER_FIG13_MIN = 20.6
PAPER_FIG13_MAX = 46.8


@dataclass
class Fig12Result:
    """Voxel-size sensitivity of energy savings and rendering quality."""

    voxel_sizes: List[float]
    energy_savings: List[float]
    psnr: List[float]
    scene: str = "train"

    @property
    def quality_monotonic_trend(self) -> float:
        """Correlation between voxel size and PSNR (paper: positive, then flat)."""
        if len(self.voxel_sizes) < 2:
            return 0.0
        return float(np.corrcoef(self.voxel_sizes, self.psnr)[0, 1])

    def format(self) -> str:
        return format_series(
            {
                "energy savings (x)": self.energy_savings,
                "PSNR (dB)": self.psnr,
            },
            "voxel size",
            self.voxel_sizes,
            title=f"Fig. 12 — voxel-size sensitivity ({self.scene} scene)",
        )


def run_fig12(
    scene: str = "train",
    voxel_sizes: Sequence[float] = FIG12_VOXEL_SIZES,
    session: Optional[Session] = None,
    resolution_scale: float = 1.0,
) -> Fig12Result:
    """Reproduce Fig. 12: energy savings and PSNR vs. voxel size.

    The grid runs as one :meth:`~repro.api.session.Session.run_sweep` at
    the session's ``jobs`` and ``store``; ``resolution_scale`` shrinks the
    simulated evaluation resolution for smoke grids.
    """
    session = session or get_default_session()
    specs = sweep(
        ExperimentSpec(
            scene=scene, arch="streaminggs", resolution_scale=resolution_scale
        ),
        voxel_size=[float(v) for v in voxel_sizes],
    )
    points = session.run_sweep(specs, swept=["voxel_size"])
    return Fig12Result(
        voxel_sizes=list(voxel_sizes),
        energy_savings=points.metric("energy_savings"),
        psnr=points.metric("streaming_psnr"),
        scene=scene,
    )


@dataclass
class Fig13Result:
    """CFU / FFU sensitivity of the speedup over the GPU."""

    cfus: List[int]
    ffus: List[int]
    speedup: Dict[int, Dict[int, float]] = field(default_factory=dict)
    area_mm2: Dict[int, Dict[int, float]] = field(default_factory=dict)
    scene: str = "train"
    paper_min: float = PAPER_FIG13_MIN
    paper_max: float = PAPER_FIG13_MAX

    def value(self, num_cfu: int, num_ffu: int) -> float:
        return self.speedup[num_cfu][num_ffu]

    def format(self) -> str:
        rows = []
        for num_cfu in self.cfus:
            rows.append(
                [f"{num_cfu} CFU"]
                + [self.speedup[num_cfu][num_ffu] for num_ffu in self.ffus]
            )
        table = format_table(
            ["config"] + [f"{f} FFU" for f in self.ffus],
            rows,
            title=f"Fig. 13 — speedup vs CFU/FFU count ({self.scene} scene)",
        )
        return (
            f"{table}\n"
            f"paper corners: {self.paper_min:.1f}x (1/1) ... {self.paper_max:.1f}x (4/4)"
        )


def run_fig13(
    scene: str = "train",
    cfus: Sequence[int] = FIG13_CFUS,
    ffus: Sequence[int] = FIG13_FFUS,
    session: Optional[Session] = None,
    resolution_scale: float = 1.0,
) -> Fig13Result:
    """Reproduce Fig. 13: speedup as a function of CFU and FFU counts.

    Runs as one sweep like :func:`run_fig12`; every point shares one scene
    context (only accelerator options vary), so the grid is a single shard
    and runs in the calling session.
    """
    session = session or get_default_session()
    specs = sweep(
        ExperimentSpec(
            scene=scene, arch="streaminggs", resolution_scale=resolution_scale
        ),
        cfus_per_hfu=[int(c) for c in cfus],
        ffus_per_hfu=[int(f) for f in ffus],
    )
    points = session.run_sweep(specs, swept=["cfus_per_hfu", "ffus_per_hfu"])
    result = Fig13Result(cfus=list(cfus), ffus=list(ffus), scene=scene)
    for i, num_cfu in enumerate(result.cfus):
        result.speedup[num_cfu] = {}
        result.area_mm2[num_cfu] = {}
        for j, num_ffu in enumerate(result.ffus):
            point = points[i * len(result.ffus) + j]
            result.speedup[num_cfu][num_ffu] = point.metric("speedup")
            result.area_mm2[num_cfu][num_ffu] = point.metric("area_mm2")
    return result
