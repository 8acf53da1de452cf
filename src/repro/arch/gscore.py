"""Model of the GSCore accelerator baseline (Lee et al., ASPLOS 2024).

GSCore is the state-of-the-art tile-centric 3DGS accelerator the paper
compares against (2.1x speedup / 2.3x energy claimed over it).  Following
the paper, we re-implement GSCore from its published specification:

* a Gaussian shape-analysis / culling unit that projects every Gaussian and
  performs an OBB-based intersection test, reducing the tile duplication
  relative to the naive AABB binning;
* bitonic sorting units that sort each tile's list on-chip, so the sort
  touches DRAM only once per (tile, Gaussian) pair instead of the GPU's
  multi-pass radix sort;
* a volume-rendering unit array identical to the one STREAMINGGS adopts.

GSCore keeps the tile-centric dataflow, so the projected per-Gaussian
features and the duplicated pair list still travel through DRAM between
stages — that intermediate traffic is exactly what STREAMINGGS eliminates,
and it is why GSCore ends up partially memory bound on large scenes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import PerformanceReport
from repro.arch.dram import DRAMModel, ORIN_NX_DRAM
from repro.arch.technology import TECH_32NM, TechnologyParameters
from repro.arch.traffic import (
    PAIR_BYTES,
    PROJECTION_READ_BYTES,
    PROJECTION_WRITE_BYTES,
    TILE_PIXEL_WRITE_BYTES,
)
from repro.arch.units import (
    BitonicSortingUnit,
    RenderingUnitArray,
)
from repro.arch.workload import FullScaleWorkload
from repro.core.hierarchical_filter import FINE_FILTER_MACS

#: Fraction of AABB tile pairs that survive GSCore's OBB intersection test
#: (the shape-aware test removes ~30 % of the duplicated pairs).
OBB_PAIR_REDUCTION = 0.7

#: Per-Gaussian features GSCore re-reads from DRAM per surviving pair during
#: rendering (it keeps a feature cache, so only a compact record travels).
GSCORE_RENDER_FEATURE_BYTES = 16


@dataclass(frozen=True)
class GSCoreConfig:
    """Unit counts of the GSCore configuration (its published design point)."""

    num_culling_units: int = 4     # Gaussian shape-analysis / projection lanes
    num_sort_units: int = 4
    num_render_units: int = 64
    projection_cycles_per_gaussian: float = 1.0


class GSCoreModel:
    """Performance / energy model of the GSCore baseline."""

    def __init__(
        self,
        config: GSCoreConfig = GSCoreConfig(),
        tech: TechnologyParameters = TECH_32NM,
        dram: DRAMModel = ORIN_NX_DRAM,
    ) -> None:
        self.config = config
        self.tech = tech
        self.dram = dram
        self.sorter = BitonicSortingUnit(tech=tech)
        self.renderer = RenderingUnitArray(tech=tech, num_units=config.num_render_units)

    # ------------------------------------------------------------------
    def traffic_bytes(self, workload: FullScaleWorkload) -> float:
        """Per-frame DRAM traffic of GSCore's tile-centric dataflow."""
        pairs = workload.num_pairs * OBB_PAIR_REDUCTION
        model_read = workload.num_gaussians * PROJECTION_READ_BYTES
        feature_write = workload.visible_gaussians * PROJECTION_WRITE_BYTES
        # The pair list is written once after projection and read once by the
        # (on-chip) sorting / rendering stages.
        pair_traffic = pairs * PAIR_BYTES * 2
        render_reads = pairs * GSCORE_RENDER_FEATURE_BYTES
        pixel_writes = workload.num_pixels * TILE_PIXEL_WRITE_BYTES
        return model_read + feature_write + pair_traffic + render_reads + pixel_writes

    # ------------------------------------------------------------------
    def evaluate(self, workload: FullScaleWorkload) -> PerformanceReport:
        """Per-frame latency and energy of GSCore for one scene."""
        config = self.config
        pairs = workload.num_pairs * OBB_PAIR_REDUCTION
        fragments = workload.blended_fragments

        projection_cycles = (
            workload.num_gaussians * config.projection_cycles_per_gaussian
        ) / config.num_culling_units
        pairs_per_tile = pairs / max(workload.num_tiles, 1)
        sort_cycles = (
            self.sorter.cycles(workload.num_tiles, pairs_per_tile) / config.num_sort_units
        )
        render_cycles = self.renderer.cycles(fragments)
        stage_cycles = {
            "projection": projection_cycles,
            "sorting": sort_cycles,
            "rendering": render_cycles,
        }
        compute_time = max(stage_cycles.values()) * self.tech.cycle_time_s

        traffic = self.traffic_bytes(workload)
        dram_time = self.dram.transfer_time_s(traffic)
        fill_drain = workload.num_tiles * 32 * self.tech.cycle_time_s
        frame_time = max(compute_time, dram_time) + fill_drain

        projection_energy = (
            workload.num_gaussians * FINE_FILTER_MACS * self.tech.mac_energy_j
        )
        sort_energy = self.sorter.energy_j(workload.num_tiles, pairs_per_tile)
        render_energy = self.renderer.energy_j(fragments)
        sram_energy = (
            fragments * 24 + pairs * PAIR_BYTES
        ) * self.tech.sram_energy_per_byte_j
        dram_energy = self.dram.transfer_energy_j(traffic)
        static_energy = self.tech.static_power_w * frame_time
        energy_breakdown = {
            "projection": projection_energy,
            "sorting": sort_energy,
            "rendering": render_energy,
            "sram": sram_energy,
            "dram": dram_energy,
            "static": static_energy,
        }
        return PerformanceReport(
            name="gscore",
            frame_time_s=frame_time,
            energy_per_frame_j=float(sum(energy_breakdown.values())),
            dram_bytes=traffic,
            stage_cycles=stage_cycles,
            energy_breakdown=energy_breakdown,
        )
