"""Two-phase hierarchical Gaussian filtering (Sec. III-B, Fig. 5).

Loading a whole voxel unavoidably brings Gaussians on-chip that do not
intersect the current image tile.  The hierarchical filter removes them in
two phases:

* **coarse-grained filter** — uses only the 4 uncompressed parameters
  (position + maximum scale, ~55 MACs per Gaussian) to conservatively test
  tile intersection; Gaussians that fail are dropped before their remaining
  55 parameters are ever fetched;
* **fine-grained filter** — for survivors, fetches (and de-quantises) the
  second half, computes the exact 2D covariance/conic/radius (~427 MACs) and
  performs the precise tile-intersection test; survivors proceed to sorting
  and rendering.

The filter also records the MAC and byte accounting used by the HFU energy
and traffic models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.projection import (
    ProjectedGaussians,
    coarse_project_centers,
    project_gaussians,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.voxel_grid import VoxelGrid

#: MACs per Gaussian in the coarse-grained filter (paper, Sec. IV-C).
COARSE_FILTER_MACS = 55

#: MACs per Gaussian in the fine-grained filter (paper, Sec. IV-C).
FINE_FILTER_MACS = 427


@dataclass
class FilterStats:
    """Accounting of one hierarchical-filter invocation (or an accumulation)."""

    gaussians_in: int = 0
    coarse_tested: int = 0
    coarse_passed: int = 0
    fine_tested: int = 0
    fine_passed: int = 0
    coarse_macs: int = 0
    fine_macs: int = 0

    def merge(self, other: "FilterStats") -> "FilterStats":
        """Element-wise sum (accumulate over voxels / tiles / frames)."""
        return FilterStats(
            gaussians_in=self.gaussians_in + other.gaussians_in,
            coarse_tested=self.coarse_tested + other.coarse_tested,
            coarse_passed=self.coarse_passed + other.coarse_passed,
            fine_tested=self.fine_tested + other.fine_tested,
            fine_passed=self.fine_passed + other.fine_passed,
            coarse_macs=self.coarse_macs + other.coarse_macs,
            fine_macs=self.fine_macs + other.fine_macs,
        )

    @property
    def coarse_reject_rate(self) -> float:
        """Fraction of tested Gaussians rejected by the coarse filter."""
        if self.coarse_tested == 0:
            return 0.0
        return 1.0 - self.coarse_passed / self.coarse_tested

    @property
    def overall_reduction(self) -> float:
        """Fraction of loaded Gaussians removed before sorting/rendering.

        The paper reports 76.3 % for the combined coarse + fine filtering.
        """
        if self.gaussians_in == 0:
            return 0.0
        return 1.0 - self.fine_passed / self.gaussians_in

    @property
    def total_macs(self) -> int:
        return self.coarse_macs + self.fine_macs


def _overlaps_tile(
    means2d: np.ndarray,
    radii: np.ndarray,
    depths: np.ndarray,
    tile_bounds: Tuple[int, int, int, int],
    near: float,
) -> np.ndarray:
    """AABB test of Gaussian footprints against a pixel-tile rectangle.

    ``tile_bounds`` is one ``(x0, y0, x1, y1)`` rectangle, or four arrays
    holding one rectangle per footprint.
    """
    x0, y0, x1, y1 = tile_bounds
    in_front = depths > near
    overlap_x = (means2d[:, 0] + radii >= x0) & (means2d[:, 0] - radii < x1)
    overlap_y = (means2d[:, 1] + radii >= y0) & (means2d[:, 1] - radii < y1)
    return in_front & overlap_x & overlap_y


@dataclass
class FilterResult:
    """Outcome of filtering one voxel's Gaussians against one tile."""

    indices: np.ndarray                    # model indices that passed both phases
    projected: ProjectedGaussians          # precise projection of the survivors
    stats: FilterStats = field(default_factory=FilterStats)


@dataclass
class FrameFilterResult:
    """Outcome of filtering every streamed voxel of many tiles in one pass.

    Tile ``t`` streams the voxels ``voxels[voxel_offsets[t]:voxel_offsets[t + 1]]``
    (its voxel order); the per-voxel accounting arrays are parallel to
    ``voxels``, so the pipeline can accumulate statistics for exactly the
    voxel prefix the reference loop would have processed before early
    termination.  Survivors are rows of one projection of the union of
    every tile's coarse survivors, listed tile by tile in streaming order:
    voxel by voxel, each voxel's survivors depth-sorted (stable), which is
    the order the reference loop blends them in.
    """

    #: (V,) streamed voxel ids, tile after tile.
    voxels: np.ndarray
    #: (T + 1,) first voxel slot of each tile.
    voxel_offsets: np.ndarray
    #: (V,) per-voxel accounting, parallel to ``voxels``.
    gaussians_in: np.ndarray
    coarse_tested: np.ndarray
    coarse_passed: np.ndarray
    fine_tested: np.ndarray
    fine_passed: np.ndarray
    #: (U,) model indices of the fine-projected Gaussians, ascending.
    union: np.ndarray
    #: Precise projection of ``union`` (rows parallel to it).
    projected: ProjectedGaussians
    #: (S,) survivor rows of ``projected`` in streaming order, tile by tile.
    stream_rows: np.ndarray
    #: (T + 1,) first stream position of each tile.
    stream_offsets: np.ndarray

    def stats_of(self, slots) -> FilterStats:
        """Accumulated :class:`FilterStats` of the selected voxel slots.

        Identical to merging the serial loop's per-voxel stats over the
        same voxels — every field is an integer sum, so the accumulation is
        exact and associative.
        """
        coarse_tested = int(self.coarse_tested[slots].sum())
        fine_tested = int(self.fine_tested[slots].sum())
        return FilterStats(
            gaussians_in=int(self.gaussians_in[slots].sum()),
            coarse_tested=coarse_tested,
            coarse_passed=int(self.coarse_passed[slots].sum()),
            fine_tested=fine_tested,
            fine_passed=int(self.fine_passed[slots].sum()),
            coarse_macs=COARSE_FILTER_MACS * coarse_tested,
            fine_macs=FINE_FILTER_MACS * fine_tested,
        )


class HierarchicalFilter:
    """The coarse + fine filtering pipeline of the HFU.

    Parameters
    ----------
    use_coarse_filter:
        When False (the paper's "w/o CGF" variants), every Gaussian of the
        voxel goes straight to the fine-grained phase, paying the full
        427-MAC projection and the full second-half fetch.
    sh_degree:
        SH degree used when the fine phase computes RGB values.
    """

    def __init__(self, use_coarse_filter: bool = True, sh_degree: int = 3) -> None:
        self.use_coarse_filter = use_coarse_filter
        self.sh_degree = sh_degree

    def filter_voxel(
        self,
        model: GaussianModel,
        voxel_indices: np.ndarray,
        camera: Camera,
        tile_bounds: Tuple[int, int, int, int],
    ) -> FilterResult:
        """Filter the Gaussians of one voxel against one image tile.

        Parameters
        ----------
        model:
            The full scene model (the voxel's Gaussians are selected from it).
        voxel_indices:
            Model indices of the Gaussians stored in the streamed voxel.
        camera:
            The rendering camera.
        tile_bounds:
            Pixel rectangle ``(x0, y0, x1, y1)`` of the current tile.
        """
        voxel_indices = np.asarray(voxel_indices, dtype=np.int64)
        stats = FilterStats(gaussians_in=len(voxel_indices))
        if len(voxel_indices) == 0:
            return FilterResult(
                indices=voxel_indices,
                projected=project_gaussians(model, camera, indices=voxel_indices),
                stats=stats,
            )

        candidates = voxel_indices
        if self.use_coarse_filter:
            means2d, depths, coarse_radii = coarse_project_centers(
                model.positions[voxel_indices],
                model.max_scales[voxel_indices],
                camera,
            )
            passed = _overlaps_tile(
                means2d, coarse_radii, depths, tile_bounds, camera.near
            )
            stats.coarse_tested = len(voxel_indices)
            stats.coarse_macs = COARSE_FILTER_MACS * len(voxel_indices)
            stats.coarse_passed = int(np.count_nonzero(passed))
            candidates = voxel_indices[passed]

        stats.fine_tested = len(candidates)
        stats.fine_macs = FINE_FILTER_MACS * len(candidates)
        projected = project_gaussians(
            model, camera, sh_degree=self.sh_degree, indices=candidates
        )
        fine_pass = projected.valid & _overlaps_tile(
            projected.means2d,
            projected.radii,
            projected.depths,
            tile_bounds,
            camera.near,
        )
        stats.fine_passed = int(np.count_nonzero(fine_pass))

        survivor_mask = fine_pass
        survivors = candidates[survivor_mask]
        projected_survivors = ProjectedGaussians(
            means2d=projected.means2d[survivor_mask],
            depths=projected.depths[survivor_mask],
            conics=projected.conics[survivor_mask],
            radii=projected.radii[survivor_mask],
            colors=projected.colors[survivor_mask],
            opacities=projected.opacities[survivor_mask],
            valid=projected.valid[survivor_mask],
        )
        return FilterResult(
            indices=survivors, projected=projected_survivors, stats=stats
        )

    # ------------------------------------------------------------------
    def filter_voxel_batch(
        self,
        model: GaussianModel,
        grid: "VoxelGrid",
        orders: Sequence[np.ndarray],
        tile_bounds: Sequence[Tuple[int, int, int, int]],
        camera: Camera,
    ) -> FrameFilterResult:
        """Filter every streamed voxel of many tiles in one frame-level pass.

        Equivalent to calling :meth:`filter_voxel` for every voxel of every
        tile's order (``orders[t]`` against ``tile_bounds[t]``): the
        per-voxel survivor sets and statistics are identical.  But the
        coarse phase projects the model once, both AABB tests run over all
        (tile, candidate) pairs at once, and the fine phase projects every
        Gaussian that survives any tile's coarse test once per frame instead
        of once per tile.
        """
        num_tiles = len(orders)
        order_lens = np.array([len(order) for order in orders], dtype=np.int64)
        voxel_offsets = np.concatenate(([0], np.cumsum(order_lens)))
        voxels = np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [np.asarray(o, dtype=np.int64) for o in orders]
        )
        num_voxels = len(voxels)
        counts = grid.voxel_counts[voxels].astype(np.int64)
        # CSR gather of every streamed voxel's Gaussians, voxel after voxel.
        skip = np.cumsum(counts) - counts
        flat = np.repeat(grid.voxel_starts[voxels] - skip, counts) + np.arange(
            int(counts.sum()), dtype=np.int64
        )
        candidates = grid.gaussian_order[flat].astype(np.int64)
        segments = np.repeat(np.arange(num_voxels, dtype=np.int64), counts)
        bounds = np.asarray(tile_bounds, dtype=np.int64).reshape(num_tiles, 4)
        voxel_tile = np.repeat(np.arange(num_tiles, dtype=np.int64), order_lens)

        def candidate_bounds() -> Tuple[np.ndarray, ...]:
            tiles = voxel_tile[segments]
            return tuple(bounds[tiles, i] for i in range(4))

        if self.use_coarse_filter:
            coarse_tested = counts.copy()
            if len(candidates):
                means2d, depths, coarse_radii = coarse_project_centers(
                    model.positions, model.max_scales, camera
                )
                passed = _overlaps_tile(
                    means2d[candidates],
                    coarse_radii[candidates],
                    depths[candidates],
                    candidate_bounds(),
                    camera.near,
                )
                candidates, segments = candidates[passed], segments[passed]
            coarse_passed = np.bincount(segments, minlength=num_voxels).astype(np.int64)
        else:
            # Matches the serial path: with the coarse phase disabled both
            # coarse counters stay zero and every candidate goes fine.
            coarse_tested = np.zeros(num_voxels, dtype=np.int64)
            coarse_passed = np.zeros(num_voxels, dtype=np.int64)

        fine_tested = np.bincount(segments, minlength=num_voxels).astype(np.int64)
        union = np.unique(candidates)
        if len(union) == 1:
            # BLAS rounds a one-row projection differently in the last bit;
            # projecting two copies keeps each row's bits independent of how
            # many Gaussians a frame (or one worker's share of it) projects.
            union = np.repeat(union, 2)
        projected = project_gaussians(
            model, camera, sh_degree=self.sh_degree, indices=union
        )
        rows = np.searchsorted(union, candidates)
        fine_pass = projected.valid[rows] & _overlaps_tile(
            projected.means2d[rows],
            projected.radii[rows],
            projected.depths[rows],
            candidate_bounds(),
            camera.near,
        )
        rows, segments = rows[fine_pass], segments[fine_pass]
        fine_passed = np.bincount(segments, minlength=num_voxels).astype(np.int64)
        # Voxel slots are tile-major, so one stable sort by (slot, depth)
        # lists every tile's survivors voxel by voxel, each voxel in the
        # order of the reference loop's per-voxel stable argsort.
        stream_rows = rows[np.lexsort((projected.depths[rows], segments))]
        stream_offsets = np.concatenate(([0], np.cumsum(fine_passed)))[voxel_offsets]
        return FrameFilterResult(
            voxels=voxels,
            voxel_offsets=voxel_offsets,
            gaussians_in=counts,
            coarse_tested=coarse_tested,
            coarse_passed=coarse_passed,
            fine_tested=fine_tested,
            fine_passed=fine_passed,
            union=union,
            projected=projected,
            stream_rows=stream_rows,
            stream_offsets=stream_offsets,
        )

    # ------------------------------------------------------------------
    def coarse_filter_soundness_check(
        self,
        model: GaussianModel,
        voxel_indices: np.ndarray,
        camera: Camera,
        tile_bounds: Tuple[int, int, int, int],
    ) -> bool:
        """True when no Gaussian rejected by the coarse phase would pass the fine phase.

        Used by the property-based tests: the coarse radius is a conservative
        over-approximation, so coarse rejection must imply fine rejection.
        """
        voxel_indices = np.asarray(voxel_indices, dtype=np.int64)
        if len(voxel_indices) == 0:
            return True
        means2d, depths, coarse_radii = coarse_project_centers(
            model.positions[voxel_indices], model.max_scales[voxel_indices], camera
        )
        coarse_pass = _overlaps_tile(
            means2d, coarse_radii, depths, tile_bounds, camera.near
        )
        rejected = voxel_indices[~coarse_pass]
        if len(rejected) == 0:
            return True
        projected = project_gaussians(
            model, camera, sh_degree=0, indices=rejected
        )
        fine_pass = projected.valid & _overlaps_tile(
            projected.means2d,
            projected.radii,
            projected.depths,
            tile_bounds,
            camera.near,
        )
        return not bool(np.any(fine_pass))
