"""Scene partition into voxels (Sec. III-A) and the cross-boundary test.

The voxel grid is built offline: every Gaussian is assigned to the voxel
containing its centre, Gaussians of a voxel are stored contiguously (the
DRAM layout of Fig. 8 relies on this), and empty voxels are removed through
the renaming table that the VSU also uses in hardware (Sec. IV-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.gaussians.model import GaussianModel

#: Number of standard deviations considered part of a Gaussian's extent when
#: deciding whether it crosses a voxel boundary (matches the rasterizer's
#: 3-sigma footprint).
CROSS_BOUNDARY_SIGMA = 3.0

_INT64_MAX = int(np.iinfo(np.int64).max)


def cross_boundary_mask(
    model: GaussianModel,
    voxel_size: float,
    origin: Optional[np.ndarray] = None,
    sigma: float = CROSS_BOUNDARY_SIGMA,
) -> np.ndarray:
    """Boolean mask of Gaussians whose extent crosses a voxel boundary.

    A Gaussian crosses a boundary when the axis-aligned box of half-width
    ``sigma * max_scale`` around its centre does not fit inside the voxel
    containing the centre.  These are the Gaussians the boundary-aware
    fine-tuning (Sec. III-B) penalises, because they are the only ones that
    can be rendered out of depth order by voxel-by-voxel processing.
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    if len(model) == 0:
        return np.zeros(0, dtype=bool)
    origin = (
        np.zeros(3) if origin is None else np.asarray(origin, dtype=np.float64)
    )
    positions = model.positions.astype(np.float64) - origin[None, :]
    half_extent = sigma * model.max_scales.astype(np.float64)
    local = np.mod(positions, voxel_size)
    distance_to_lower = local
    distance_to_upper = voxel_size - local
    min_distance = np.minimum(distance_to_lower, distance_to_upper).min(axis=1)
    return half_extent > min_distance


@dataclass
class VoxelGrid:
    """A dense-index voxel partition of a Gaussian model.

    Attributes
    ----------
    voxel_size:
        Cubic voxel edge length.
    origin:
        World-space position of the grid's minimum corner.
    dims:
        ``(3,)`` number of voxels along each axis.
    voxel_ids:
        ``(N,)`` renamed (dense) voxel id per Gaussian.
    gaussian_order:
        ``(N,)`` permutation sorting Gaussians by voxel id — the contiguous
        DRAM storage order of Fig. 8.
    voxel_starts / voxel_counts:
        CSR-style index into ``gaussian_order`` per renamed voxel.
    raw_to_renamed:
        Mapping from raw (spatial) voxel id to renamed id; empty voxels are
        absent — this is the VSU renaming table.
    """

    voxel_size: float
    origin: np.ndarray
    dims: np.ndarray
    voxel_ids: np.ndarray
    gaussian_order: np.ndarray
    voxel_starts: np.ndarray
    voxel_counts: np.ndarray
    raw_to_renamed: Dict[int, int]
    renamed_to_raw: np.ndarray

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: GaussianModel,
        voxel_size: float,
        padding: float = 1e-4,
    ) -> "VoxelGrid":
        """Partition ``model`` into cubic voxels of edge ``voxel_size``."""
        if voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        if len(model) == 0:
            raise ValueError("cannot build a voxel grid over an empty model")
        lo, hi = model.bounding_box()
        origin = lo.astype(np.float64) - padding
        extent = hi.astype(np.float64) - origin + padding
        counts = np.ceil(extent / voxel_size)
        # Raw voxel ids are int64: each axis's count and their product
        # (the raw-id range) must fit.
        fits = np.all(counts < 2.0**63)
        if not fits or math.prod(int(c) for c in counts) > _INT64_MAX:
            raise ValueError(
                f"an extent of {extent.tolist()} at voxel_size {voxel_size} needs "
                "more voxels than int64 voxel ids can index"
            )
        dims = np.maximum(counts.astype(np.int64), 1)

        coords = np.floor(
            (model.positions.astype(np.float64) - origin[None, :]) / voxel_size
        ).astype(np.int64)
        coords = np.clip(coords, 0, dims[None, :] - 1)
        raw_ids = (
            coords[:, 0] + dims[0] * (coords[:, 1] + dims[1] * coords[:, 2])
        )

        unique_raw, renamed = np.unique(raw_ids, return_inverse=True)
        raw_to_renamed = {int(raw): int(i) for i, raw in enumerate(unique_raw)}

        order = np.argsort(renamed, kind="stable")
        sorted_ids = renamed[order]
        counts = np.bincount(sorted_ids, minlength=len(unique_raw))
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

        return cls(
            voxel_size=float(voxel_size),
            origin=origin,
            dims=dims,
            voxel_ids=renamed.astype(np.int64),
            gaussian_order=order.astype(np.int64),
            voxel_starts=starts.astype(np.int64),
            voxel_counts=counts.astype(np.int64),
            raw_to_renamed=raw_to_renamed,
            renamed_to_raw=unique_raw.astype(np.int64),
        )

    # ------------------------------------------------------------------
    @property
    def num_voxels(self) -> int:
        """Number of non-empty (renamed) voxels."""
        return len(self.voxel_counts)

    def gaussians_in_voxel(self, renamed_id: int) -> np.ndarray:
        """Indices (into the model) of the Gaussians stored in a voxel."""
        if renamed_id < 0 or renamed_id >= self.num_voxels:
            raise IndexError(f"voxel id {renamed_id} out of range")
        start = self.voxel_starts[renamed_id]
        count = self.voxel_counts[renamed_id]
        return self.gaussian_order[start : start + count]

    def rename(self, raw_id: int) -> int:
        """Renamed id of a raw voxel id, or -1 if the voxel is empty/out of range."""
        return self.raw_to_renamed.get(int(raw_id), -1)
