"""The customized DRAM data layout (Sec. III-C, Fig. 8) and its byte accounting.

Gaussian features are split into two halves stored separately per voxel:

* the **first half** — position + maximum scale (4 float32 = 16 bytes),
  uncompressed, read by every coarse-grained filter test;
* the **second half** — the remaining 55 parameters, stored either raw
  (220 bytes) or as vector-quantisation codebook indices plus the raw
  opacity scalar (~10 bytes), read only for Gaussians that pass the coarse
  filter.

Gaussians of one voxel are contiguous in DRAM, so streaming a voxel is a
sequence of long sequential bursts — the memory-access regularisation the
memory-centric paradigm is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.compression.vq import QuantizedGaussians, VectorQuantizer
from repro.core.voxel_grid import VoxelGrid
from repro.gaussians.model import (
    COARSE_PARAMS_PER_GAUSSIAN,
    FINE_PARAMS_PER_GAUSSIAN,
    GaussianModel,
)

#: Bytes of the uncompressed first half (x, y, z, max scale as float32).
FIRST_HALF_BYTES = COARSE_PARAMS_PER_GAUSSIAN * 4

#: Bytes of the raw (un-quantised) second half.
RAW_SECOND_HALF_BYTES = FINE_PARAMS_PER_GAUSSIAN * 4

#: Bytes written back to DRAM per rendered pixel (RGB float32 + accumulated
#: alpha float32) — the only intermediate-free off-chip write of the
#: streaming pipeline.
PIXEL_WRITE_BYTES = 16

#: DRAM burst granularity used to round per-voxel reads (LPDDR3, 32-byte
#: minimum burst per channel access).
DRAM_BURST_BYTES = 32


@dataclass
class LayoutTraffic:
    """Byte-level DRAM traffic accounting for the streaming pipeline."""

    first_half_bytes: int = 0
    second_half_bytes: int = 0
    pixel_write_bytes: int = 0
    metadata_bytes: int = 0

    def merge(self, other: "LayoutTraffic") -> "LayoutTraffic":
        return LayoutTraffic(
            first_half_bytes=self.first_half_bytes + other.first_half_bytes,
            second_half_bytes=self.second_half_bytes + other.second_half_bytes,
            pixel_write_bytes=self.pixel_write_bytes + other.pixel_write_bytes,
            metadata_bytes=self.metadata_bytes + other.metadata_bytes,
        )

    @property
    def read_bytes(self) -> int:
        return self.first_half_bytes + self.second_half_bytes + self.metadata_bytes

    @property
    def write_bytes(self) -> int:
        return self.pixel_write_bytes

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes


def _round_burst(num_bytes: float) -> int:
    """Round a transfer up to the DRAM burst granularity."""
    if num_bytes <= 0:
        return 0
    return int(np.ceil(num_bytes / DRAM_BURST_BYTES) * DRAM_BURST_BYTES)


@dataclass
class DataLayout:
    """The per-voxel two-half DRAM layout of a Gaussian model.

    Parameters
    ----------
    grid:
        The voxel partition (defines the contiguous storage order).
    quantizer:
        A fitted :class:`VectorQuantizer`; when ``None`` (or ``use_vq`` is
        False) the second half is stored raw.
    use_vq:
        Store the second half as codebook indices.
    """

    grid: VoxelGrid
    quantizer: Optional[VectorQuantizer] = None
    use_vq: bool = True

    def __post_init__(self) -> None:
        if self.use_vq and self.quantizer is not None and not self.quantizer.is_fitted:
            raise ValueError("quantizer must be fitted before building the layout")

    # ------------------------------------------------------------------
    @property
    def second_half_bytes_per_gaussian(self) -> float:
        """DRAM bytes fetched per Gaussian that passes the coarse filter."""
        if self.use_vq and self.quantizer is not None:
            return self.quantizer.compressed_bytes_per_gaussian()
        return float(RAW_SECOND_HALF_BYTES)

    @property
    def first_half_bytes_per_gaussian(self) -> float:
        """DRAM bytes fetched per Gaussian streamed with its voxel."""
        return float(FIRST_HALF_BYTES)

    def second_half_traffic_reduction(self) -> float:
        """Fraction of second-half bytes removed by VQ (paper: 92.3 %)."""
        return 1.0 - self.second_half_bytes_per_gaussian / RAW_SECOND_HALF_BYTES

    # ------------------------------------------------------------------
    # Traffic of streaming operations
    # ------------------------------------------------------------------
    def voxel_stream_traffic(
        self, voxel_id: int, coarse_passed: int
    ) -> LayoutTraffic:
        """Traffic of streaming one voxel for one tile.

        The first half of every Gaussian in the voxel is read (that is what
        "streaming the voxel" means); the second half is only read for the
        ``coarse_passed`` Gaussians that survive the coarse-grained filter.
        """
        count = int(self.grid.voxel_counts[voxel_id])
        if coarse_passed < 0 or coarse_passed > count:
            raise ValueError("coarse_passed must be in [0, voxel population]")
        return LayoutTraffic(
            first_half_bytes=_round_burst(count * self.first_half_bytes_per_gaussian),
            second_half_bytes=_round_burst(
                coarse_passed * self.second_half_bytes_per_gaussian
            ),
        )

    def voxel_stream_traffic_batch(
        self, voxel_ids: np.ndarray, coarse_passed: np.ndarray
    ) -> LayoutTraffic:
        """Aggregate traffic of streaming many voxels for one tile.

        Exactly the merge of per-voxel :meth:`voxel_stream_traffic` calls —
        the per-voxel burst rounding happens element-wise before the sum,
        so the accounting is identical to the serial loop's.
        """
        voxel_ids = np.asarray(voxel_ids, dtype=np.int64)
        coarse_passed = np.asarray(coarse_passed, dtype=np.int64)
        if len(voxel_ids) == 0:
            return LayoutTraffic()
        counts = self.grid.voxel_counts[voxel_ids]
        if np.any(coarse_passed < 0) or np.any(coarse_passed > counts):
            raise ValueError("coarse_passed must be in [0, voxel population]")
        first = (
            np.ceil(counts * self.first_half_bytes_per_gaussian / DRAM_BURST_BYTES)
            .astype(np.int64)
            * DRAM_BURST_BYTES
        )
        second = (
            np.ceil(
                coarse_passed * self.second_half_bytes_per_gaussian / DRAM_BURST_BYTES
            ).astype(np.int64)
            * DRAM_BURST_BYTES
        )
        return LayoutTraffic(
            first_half_bytes=int(first.sum()), second_half_bytes=int(second.sum())
        )

    @staticmethod
    def pixel_write_traffic(num_pixels: int) -> LayoutTraffic:
        """Traffic of writing final pixel values for ``num_pixels`` pixels."""
        return LayoutTraffic(pixel_write_bytes=num_pixels * PIXEL_WRITE_BYTES)

    @staticmethod
    def ordering_metadata_traffic(num_table_entries: int) -> LayoutTraffic:
        """Traffic of the (small) voxel ordering metadata per tile.

        Each table entry is a renamed voxel id (4 bytes); in hardware the
        table lives on-chip, but the ids of the non-empty voxels still have
        to be known, so we charge one id read per entry.
        """
        return LayoutTraffic(metadata_bytes=4 * num_table_entries)


def render_model(
    model: GaussianModel,
    layout: DataLayout,
    quantized: Optional[QuantizedGaussians] = None,
) -> GaussianModel:
    """The model the accelerator actually renders under this layout.

    With VQ enabled the second half is reconstructed from the codebooks
    (quantisation error included); without VQ the model is returned as is.
    ``quantized`` is ``model``'s encoding when the caller already has it
    (the quantizer fit's hand-off); otherwise the model is encoded here.
    """
    if layout.use_vq and layout.quantizer is not None:
        if quantized is None:
            return layout.quantizer.roundtrip(model)
        return layout.quantizer.decode(quantized, model)
    return model
