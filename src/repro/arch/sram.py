"""CACTI-style SRAM area/energy estimates at 32 nm.

The paper sizes its 355 KB of on-chip buffers with CACTI 7.0; this model
reproduces the same aggregate (1.95 mm^2 for 355 KB, Table I) with a simple
linear area density plus a per-access energy that scales weakly with the
macro size, which is the regime CACTI reports for small scratchpads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Area density anchored to Table I: 1.95 mm^2 for 355 KB -> ~5.5 um^2/byte.
AREA_PER_BYTE_MM2 = 1.95 / (355 * 1024)

#: Baseline dynamic energy per byte accessed for a 16 KB macro at 32 nm.
BASE_ENERGY_PER_BYTE_J = 0.6e-12

#: Reference macro size for the energy scaling law.
REFERENCE_MACRO_BYTES = 16 * 1024


@dataclass(frozen=True)
class SRAMModel:
    """One on-chip SRAM buffer."""

    name: str
    size_bytes: int
    banks: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if self.banks <= 0:
            raise ValueError("banks must be positive")

    @property
    def area_mm2(self) -> float:
        """Macro area (linear in capacity at this size range)."""
        return self.size_bytes * AREA_PER_BYTE_MM2

    @property
    def energy_per_byte_j(self) -> float:
        """Dynamic energy per byte accessed.

        Grows with the square root of the bank size (longer bit/word lines),
        which matches CACTI's trend for small scratchpads.
        """
        bank_bytes = self.size_bytes / self.banks
        scaling = np.sqrt(max(bank_bytes, 1.0) / REFERENCE_MACRO_BYTES)
        return BASE_ENERGY_PER_BYTE_J * float(scaling)


def default_buffers() -> dict:
    """The paper's on-chip buffer configuration (Sec. V-A).

    A double-buffered 16 KB input buffer, a 250 KB codebook buffer and
    89 KB of intermediate buffers, totalling 355 KB.
    """
    return {
        "input_buffer": SRAMModel("input_buffer", 16 * 1024, banks=2),
        "codebook_buffer": SRAMModel("codebook_buffer", 250 * 1024, banks=4),
        "intermediate_buffer": SRAMModel("intermediate_buffer", 89 * 1024, banks=4),
    }


def total_sram_area_mm2(buffers: dict) -> float:
    """Total area of a buffer configuration."""
    return sum(buffer.area_mm2 for buffer in buffers.values())
