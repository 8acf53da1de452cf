"""Depth sorting for the tile-centric pipeline.

The "Sorting" stage of the reference 3DGS pipeline orders every tile's
duplicated Gaussian list front-to-back.  On GPUs this is realised as one
global radix sort over (tile id | depth) keys; the repeated passes over that
key/value array are what makes sorting the largest DRAM-traffic contributor
in the paper's characterization (49 % of traffic, Sec. II-B).

This module provides both the functional sort used by the reference
rasterizer and the operation/traffic statistics the architecture model
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.gaussians.projection import ProjectedGaussians
from repro.gaussians.tiles import TileBinning

#: Bytes per sort key/value pair: 64-bit key (tile id | quantised depth) plus
#: a 32-bit Gaussian index, as in the reference implementation.
SORT_PAIR_BYTES = 12

#: Number of radix passes a GPU radix sort performs over the key array
#: (8 bits per pass over a 64-bit key dominated by its populated bits).
RADIX_SORT_PASSES = 4


@dataclass
class GlobalSortStats:
    """Operation counts of the tile-centric global sort (for the traffic model)."""

    num_pairs: int
    key_bytes_read: int
    key_bytes_written: int
    comparisons: int

    @property
    def total_bytes(self) -> int:
        """Total DRAM bytes moved by the sort."""
        return self.key_bytes_read + self.key_bytes_written


def sort_tile_gaussians(
    projected: ProjectedGaussians, binning: TileBinning
) -> Dict[int, np.ndarray]:
    """Sort each tile's Gaussian list front-to-back by camera-space depth.

    Returns a mapping from tile id to the depth-sorted index array.  The sort
    is stable so Gaussians at identical depth keep their submission order,
    matching the behaviour of the reference implementation's radix sort on
    quantised depth keys.
    """
    sorted_lists: Dict[int, np.ndarray] = {}
    for tile_id, indices in binning.tile_lists.items():
        if len(indices) == 0:
            sorted_lists[tile_id] = indices
            continue
        order = np.argsort(projected.depths[indices], kind="stable")
        sorted_lists[tile_id] = indices[order]
    return sorted_lists


def global_sort_statistics(binning: TileBinning) -> GlobalSortStats:
    """Estimate the work of the tile-centric pipeline's global radix sort.

    The GPU implementation sorts all (tile, depth) keys with a multi-pass
    radix sort; each pass reads and writes the full pair array.  The byte
    counts returned here are what the characterization figures (Fig. 2 and
    Fig. 4) attribute to the sorting stage.
    """
    num_pairs = binning.num_duplicates
    bytes_per_pass = num_pairs * SORT_PAIR_BYTES
    return GlobalSortStats(
        num_pairs=num_pairs,
        key_bytes_read=bytes_per_pass * RADIX_SORT_PASSES,
        key_bytes_written=bytes_per_pass * RADIX_SORT_PASSES,
        comparisons=int(num_pairs * max(1, np.ceil(np.log2(max(num_pairs, 2))))),
    )
