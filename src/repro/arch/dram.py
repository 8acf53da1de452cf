"""LPDDR3 DRAM model (Micron 16 Gb, 4 channels, per the paper's setup).

The model exposes the two quantities the performance/energy models need:
sustained bandwidth (for transfer latency) and energy per byte (for traffic
energy).  Transfers are rounded to bursts where they are counted, by the
data layout (:mod:`repro.core.data_layout`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DRAMModel:
    """A DRAM subsystem characterised by bandwidth and energy per byte."""

    name: str
    channels: int
    peak_bandwidth_bytes: float     # aggregate peak bytes/s
    efficiency: float               # sustained fraction of peak (row hits, refresh)
    energy_per_byte_j: float
    burst_bytes: int = 32

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if self.peak_bandwidth_bytes <= 0:
            raise ValueError("peak bandwidth must be positive")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.energy_per_byte_j <= 0:
            raise ValueError("energy per byte must be positive")

    @property
    def sustained_bandwidth_bytes(self) -> float:
        """Sustained bytes/s after accounting for access efficiency."""
        return self.peak_bandwidth_bytes * self.efficiency

    def transfer_time_s(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` at sustained bandwidth."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes / self.sustained_bandwidth_bytes

    def transfer_energy_j(self, num_bytes: float) -> float:
        """Energy to move ``num_bytes``."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes * self.energy_per_byte_j

    def required_bandwidth(self, bytes_per_frame: float, fps: float) -> float:
        """Bandwidth (bytes/s) needed to sustain ``fps`` with this traffic."""
        if fps <= 0:
            raise ValueError("fps must be positive")
        return bytes_per_frame * fps


#: The accelerator's DRAM subsystem.  Energy per byte follows the Micron
#: LPDDR3 power-calculator regime the paper cites (including activation and
#: background energy); the package bandwidth is set to the same 102.4 GB/s
#: class as the mobile-SoC baseline so that — as in the paper — the voxel
#: streaming is fully overlapped by the compute pipeline and vector
#: quantization shows up as an energy optimisation rather than a latency
#: one ("VQ has a minimal impact on performance", Sec. V-C).  Streaming
#: voxel reads are long sequential bursts, hence the high sustained
#: efficiency.
LPDDR3_4CH = DRAMModel(
    name="mobile-dram-4ch",
    channels=4,
    peak_bandwidth_bytes=102.4e9,
    efficiency=0.85,
    energy_per_byte_j=80.0e-12,
)

#: The Orin NX memory system (128-bit LPDDR5, 102.4 GB/s) used when the
#: GPU baseline's traffic is expressed as a bandwidth requirement (Fig. 4).
ORIN_NX_DRAM = DRAMModel(
    name="orin-nx-lpddr5",
    channels=8,
    peak_bandwidth_bytes=102.4e9,
    efficiency=0.72,
    energy_per_byte_j=80.0e-12,
)
