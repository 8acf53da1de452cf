"""Performance / energy model of the STREAMINGGS accelerator (Sec. IV-V).

The accelerator is a coarse-grained pipeline (Fig. 9): while one voxel's
Gaussians are being filtered, the previous voxel's survivors are being
sorted and rendered and the next voxel is being fetched from DRAM (double-
buffered input buffer).  At frame granularity this means the frame latency
is the maximum of the per-stage busy times (plus the un-hidden fraction of
the DRAM transfer), and the frame energy is the sum of the per-stage
dynamic energies plus DRAM, SRAM and static energy.

The ablation variants of Fig. 11 map onto configuration flags:

* ``use_vq=False, use_coarse_filter=False`` — "w/o VQ+CGF"
* ``use_vq=True,  use_coarse_filter=False`` — "w/o CGF"
* ``use_vq=True,  use_coarse_filter=True``  — STREAMINGGS (full)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.arch.area import AreaModel
from repro.arch.dram import DRAMModel, LPDDR3_4CH
from repro.arch.sram import SRAMModel, default_buffers
from repro.arch.technology import TECH_32NM, TechnologyParameters
from repro.arch.traffic import StreamingTraffic, streaming_traffic
from repro.arch.units import (
    BitonicSortingUnit,
    HierarchicalFilteringUnit,
    RenderingUnitArray,
    VoxelSortingUnit,
)
from repro.arch.workload import FullScaleWorkload

#: Bytes of on-chip state touched per blended fragment (sorted-list entry
#: read from the sorting buffer plus partial-pixel read-modify-write).
SRAM_BYTES_PER_FRAGMENT = 24

#: Bytes decoded from the codebook buffer per fine-filtered Gaussian.
SRAM_BYTES_PER_DECODE = 110


@dataclass(frozen=True)
class AcceleratorConfig:
    """Unit counts and feature flags of one accelerator configuration."""

    num_vsu: int = 1
    num_hfu: int = 4
    cfus_per_hfu: int = 4
    ffus_per_hfu: int = 1
    num_sort_units: int = 2
    num_render_units: int = 64
    group_size: int = 32
    use_vq: bool = True
    use_coarse_filter: bool = True
    #: Scales every on-chip buffer capacity (and hence SRAM area).  Below
    #: 1.0 the codebook buffer no longer holds the full VQ codebook, so a
    #: fraction of decodes miss and fall back to raw second-half fetches.
    sram_scale: float = 1.0
    #: Number of LPDDR3 channels; bandwidth scales linearly from the
    #: 25.6 GB/s-per-channel baseline of Table I's 4-channel part.
    dram_channels: int = 4
    # NOTE: ``group_size`` is the pixel-group edge the VSU orders voxels for
    # and the HFU filters against; 32 px reproduces the paper's filtering
    # effectiveness (Sec. III-B's 76.3 % reduction is measured against the
    # rendered image tile).

    def __post_init__(self) -> None:
        counts = (
            self.num_vsu,
            self.num_hfu,
            self.cfus_per_hfu,
            self.ffus_per_hfu,
            self.num_sort_units,
            self.num_render_units,
            self.group_size,
        )
        if min(counts) <= 0:
            raise ValueError("all unit counts must be positive")
        if not self.sram_scale > 0:
            raise ValueError(f"sram_scale must be > 0, got {self.sram_scale!r}")
        channels = self.dram_channels
        if channels < 1 or int(channels) != channels:
            raise ValueError(
                f"dram_channels must be a positive integer, got {channels!r}"
            )

    @classmethod
    def variant(cls, name: str) -> "AcceleratorConfig":
        """The ablation variants evaluated in Fig. 11."""
        if name in ("streaminggs", "full"):
            return cls()
        if name == "wo_cgf":
            return cls(use_coarse_filter=False)
        if name == "wo_vq_cgf":
            return cls(use_coarse_filter=False, use_vq=False)
        raise KeyError(f"unknown variant {name!r}")


@dataclass
class PerformanceReport:
    """Per-frame performance / energy report of one hardware model."""

    name: str
    frame_time_s: float
    energy_per_frame_j: float
    dram_bytes: float
    stage_cycles: Dict[str, float] = field(default_factory=dict)
    energy_breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def fps(self) -> float:
        return 1.0 / self.frame_time_s if self.frame_time_s > 0 else float("inf")

    def speedup_over(self, other: "PerformanceReport") -> float:
        """Speedup of this design over ``other`` (frame-time ratio)."""
        return other.frame_time_s / self.frame_time_s

    def energy_saving_over(self, other: "PerformanceReport") -> float:
        """Energy-saving factor of this design over ``other``."""
        return other.energy_per_frame_j / self.energy_per_frame_j


class StreamingGSAccelerator:
    """The STREAMINGGS accelerator performance / energy model."""

    def __init__(
        self,
        config: AcceleratorConfig = AcceleratorConfig(),
        tech: TechnologyParameters = TECH_32NM,
        dram: DRAMModel = LPDDR3_4CH,
        buffers: Dict[str, SRAMModel] = None,
    ) -> None:
        self.config = config
        self.tech = tech
        if int(config.dram_channels) != dram.channels:
            per_channel = dram.peak_bandwidth_bytes / dram.channels
            dram = replace(
                dram,
                name=f"{dram.name}-x{int(config.dram_channels)}",
                channels=int(config.dram_channels),
                peak_bandwidth_bytes=per_channel * int(config.dram_channels),
            )
        self.dram = dram
        if buffers is None:
            buffers = default_buffers()
            if config.sram_scale != 1.0:
                buffers = {
                    name: replace(
                        buf,
                        size_bytes=max(
                            1024, int(round(buf.size_bytes * config.sram_scale))
                        ),
                    )
                    for name, buf in buffers.items()
                }
        self.buffers = buffers
        self.vsu = VoxelSortingUnit(tech=tech)
        self.hfu = HierarchicalFilteringUnit(
            tech=tech, num_cfu=config.cfus_per_hfu, num_ffu=config.ffus_per_hfu
        )
        self.sorter = BitonicSortingUnit(tech=tech)
        self.renderer = RenderingUnitArray(tech=tech, num_units=config.num_render_units)
        self.area_model = AreaModel(buffers=self.buffers)

    # ------------------------------------------------------------------
    def area_mm2(self) -> float:
        """Total accelerator area for this configuration."""
        return self.area_model.breakdown(
            num_vsu=self.config.num_vsu,
            num_hfu=self.config.num_hfu,
            cfus_per_hfu=self.config.cfus_per_hfu,
            ffus_per_hfu=self.config.ffus_per_hfu,
            num_sort_units=self.config.num_sort_units,
            num_render_units=self.config.num_render_units,
        ).total_mm2

    def traffic(self, workload: FullScaleWorkload) -> StreamingTraffic:
        """Per-frame DRAM traffic under this configuration."""
        return self._traffic(workload.with_group_size(self.config.group_size))

    def _traffic(self, adjusted: FullScaleWorkload) -> StreamingTraffic:
        config = self.config
        traffic = streaming_traffic(
            adjusted,
            use_vq=config.use_vq,
            use_coarse_filter=config.use_coarse_filter,
        )
        if config.use_vq and config.sram_scale < 1.0:
            # An undersized codebook buffer covers only ``sram_scale`` of
            # the VQ codebook; decodes that miss fall back to fetching the
            # raw (uncompressed) second half of those Gaussians from DRAM.
            miss = 1.0 - max(0.0, min(1.0, config.sram_scale))
            fetched = adjusted.second_half_fetched(config.use_coarse_filter)
            extra = miss * fetched * (
                adjusted.second_half_bytes_raw - adjusted.second_half_bytes_vq
            )
            traffic.second_half_bytes += extra
        return traffic

    # ------------------------------------------------------------------
    def evaluate(self, workload: FullScaleWorkload) -> PerformanceReport:
        """Per-frame latency and energy for one scene workload."""
        config = self.config
        adjusted = workload.with_group_size(config.group_size)

        streamed = adjusted.gaussians_streamed
        if config.use_coarse_filter:
            coarse_tested = streamed
            fine_tested = adjusted.coarse_passed
        else:
            coarse_tested = 0.0
            fine_tested = streamed
        # The survivors reaching sorting/rendering are the same either way:
        # without the coarse filter the fine filter performs the rejection.
        survivors = adjusted.survivors
        fragments = adjusted.blended_fragments

        # --- stage busy times (cycles) ---------------------------------
        vsu_cycles = self.vsu.cycles(
            adjusted.num_groups, adjusted.voxels_per_ray, adjusted.voxels_per_group
        ) / config.num_vsu
        hfu_cycles = self.hfu.cycles(
            coarse_tested / config.num_hfu, fine_tested / config.num_hfu
        )
        num_voxel_lists = adjusted.num_groups * adjusted.voxels_per_group
        mean_list = survivors / max(num_voxel_lists, 1.0)
        sort_cycles = self.sorter.cycles(num_voxel_lists, mean_list) / config.num_sort_units
        render_cycles = self.renderer.cycles(fragments)

        stage_cycles = {
            "vsu": vsu_cycles,
            "hfu": hfu_cycles,
            "sorting": sort_cycles,
            "rendering": render_cycles,
        }
        compute_time = max(stage_cycles.values()) * self.tech.cycle_time_s

        traffic = self._traffic(adjusted)
        dram_time = self.dram.transfer_time_s(traffic.total_bytes)
        # Voxel fetches are double-buffered, so DRAM time is overlapped with
        # compute; the frame latency is the slower of the two plus a small
        # fill/drain overhead per pixel group.
        fill_drain = adjusted.num_groups * 64 * self.tech.cycle_time_s
        frame_time = max(compute_time, dram_time) + fill_drain

        # --- energy ------------------------------------------------------
        vsu_energy = self.vsu.energy_j(
            adjusted.num_groups, adjusted.voxels_per_ray, adjusted.voxels_per_group
        )
        hfu_energy = self.hfu.energy_j(coarse_tested, fine_tested)
        sort_energy = self.sorter.energy_j(num_voxel_lists, mean_list)
        render_energy = self.renderer.energy_j(fragments)
        dram_energy = self.dram.transfer_energy_j(traffic.total_bytes)
        sram_bytes = (
            fragments * SRAM_BYTES_PER_FRAGMENT
            + (fine_tested * SRAM_BYTES_PER_DECODE if config.use_vq else 0.0)
            + traffic.first_half_bytes  # staged through the input buffer
        )
        sram_energy = sram_bytes * self.tech.sram_energy_per_byte_j
        static_energy = self.tech.static_power_w * frame_time

        energy_breakdown = {
            "vsu": vsu_energy,
            "hfu": hfu_energy,
            "sorting": sort_energy,
            "rendering": render_energy,
            "sram": sram_energy,
            "dram": dram_energy,
            "static": static_energy,
        }
        return PerformanceReport(
            name="streaminggs"
            if config.use_vq and config.use_coarse_filter
            else ("wo_cgf" if config.use_vq else "wo_vq_cgf"),
            frame_time_s=frame_time,
            energy_per_frame_j=float(sum(energy_breakdown.values())),
            dram_bytes=traffic.total_bytes,
            stage_cycles=stage_cycles,
            energy_breakdown=energy_breakdown,
        )
