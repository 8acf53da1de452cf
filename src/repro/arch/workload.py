"""Bridging measured (simulation-scale) workloads to paper-scale workloads.

The algorithms in :mod:`repro.core` / :mod:`repro.gaussians` run on
down-scaled scenes (thousands of Gaussians, ~160 px wide images) so they
finish in seconds on a CPU.  The architecture models, however, must be
driven by the *paper-scale* workload: millions of Gaussians rendered at the
datasets' native resolutions.  This module derives that full-scale,
per-frame workload from

* the static scene statistics in the registry (full Gaussian count, native
  resolution, scene extent), and
* quantities measured on the simulated scene that are scale-invariant
  (frustum-visible fraction, mean Gaussian depth, per-pixel blend
  efficiency, voxel occupancy of the scene geometry) or that can be
  rescaled analytically (screen-space radii, tile/group overlap counts).

Scaling rules (all written out so the model is auditable):

* **Splat radius** — the simulated scene represents the same content with
  far fewer, individually larger Gaussians, so radii are rescaled by
  preserving total splat *coverage*: ``r_full = sqrt(coverage * pixels /
  (pi * N_visible))``.
* **Tile duplication** — expected 16x16 tiles overlapped by a splat of the
  rescaled radius.
* **Voxel geometry** — the procedural scene's occupied-voxel set stands in
  for the real scene's (same envelope), so the occupied voxel count carries
  over and the per-voxel population scales with the Gaussian count.
* **Streaming fan-out** — a voxel is *processed* once per pixel group whose
  frustum it intersects (``((V+g)/g)^2`` groups for a footprint of ``V``
  pixels), which drives the filtering compute; its data is *fetched* from
  DRAM approximately once per frame (the contiguous layout plus the
  double-buffered input buffer give producer/consumer locality across the
  groups sharing it), which drives the streaming traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.core.pipeline import StreamingStats
from repro.gaussians.projection import ProjectedGaussians
from repro.gaussians.rasterizer import RenderStats
from repro.scenes.registry import SceneDescriptor

#: Tile edge (pixels) of the tile-centric pipeline at full scale.
FULL_SCALE_TILE = 16

#: Default pixel-group edge (pixels) of the streaming accelerator.
DEFAULT_GROUP_SIZE = 32

#: Conservative inflation of the coarse-filter radius over the precise one
#: (Jacobian bound plus dilation), mirroring ``coarse_project_centers``.
COARSE_RADIUS_FACTOR = 1.45

#: DRAM re-fetch factor of the voxel stream: fraction of voxel data fetched
#: more than once per frame because the pixel-group schedule cannot keep
#: every shared voxel resident in the (16 KB, double-buffered) input buffer.
VOXEL_FETCH_REUSE = 1.2


def _filter_pass_rates(
    group_size_px: float, voxel_footprint_px: float, radius_px: float
) -> tuple:
    """Analytic coarse / conditional-fine pass rates for one pixel group.

    A streamed voxel projects to a ``voxel_footprint_px`` wide region; its
    Gaussians are spread over that footprint (plus their own radius), while
    only those within ``group_size + radius`` of the group rectangle pass
    the intersection test.  The coarse test uses the conservative radius
    (``COARSE_RADIUS_FACTOR`` larger), the fine test the precise one — their
    ratio gives the conditional fine pass rate.
    """
    coarse_radius = COARSE_RADIUS_FACTOR * radius_px
    denominator = voxel_footprint_px + 2.0 * coarse_radius
    coarse = min(1.0, ((group_size_px + 2.0 * coarse_radius) / denominator) ** 2)
    fine_window = group_size_px + 2.0 * radius_px
    coarse_window = group_size_px + 2.0 * coarse_radius
    fine_given_coarse = min(1.0, (fine_window / coarse_window) ** 2)
    return float(coarse), float(fine_given_coarse)


@dataclass(frozen=True)
class FullScaleWorkload:
    """Per-frame workload of one scene at paper scale.

    The dataclass stores *primitive* quantities; everything the performance
    and traffic models consume is exposed as derived properties so changing
    the pixel-group size (:meth:`with_group_size`) re-derives a consistent
    workload.
    """

    scene: str
    # --- static scene / image facts -------------------------------------
    num_gaussians: int
    width: int
    height: int
    num_voxels: int
    voxel_size: float
    # --- measured, scale-invariant quantities ----------------------------
    visible_fraction: float
    mean_depth: float
    focal_px: float                  # focal length at full resolution
    blend_efficiency: float          # useful fragments per (pair x tile pixel)
    voxels_per_ray: float            # voxels traversed per pixel ray
    # --- rescaled splat geometry ------------------------------------------
    mean_radius_px: float            # coverage-preserving full-scale radius
    # --- streaming configuration ------------------------------------------
    group_size: int = DEFAULT_GROUP_SIZE
    second_half_bytes_vq: float = 10.0
    second_half_bytes_raw: float = 220.0
    first_half_bytes: float = 16.0
    pixel_write_bytes: float = 16.0

    # ------------------------------------------------------------------
    # Image / tile facts
    # ------------------------------------------------------------------
    @property
    def num_pixels(self) -> int:
        return self.width * self.height

    @property
    def num_tiles(self) -> int:
        """16x16 tiles of the tile-centric pipeline."""
        tiles_x = int(np.ceil(self.width / FULL_SCALE_TILE))
        tiles_y = int(np.ceil(self.height / FULL_SCALE_TILE))
        return tiles_x * tiles_y

    @property
    def num_groups(self) -> int:
        """Pixel groups of the streaming accelerator."""
        groups_x = int(np.ceil(self.width / self.group_size))
        groups_y = int(np.ceil(self.height / self.group_size))
        return groups_x * groups_y

    # ------------------------------------------------------------------
    # Tile-centric pipeline quantities
    # ------------------------------------------------------------------
    @property
    def visible_gaussians(self) -> float:
        return self.num_gaussians * self.visible_fraction

    @property
    def duplication_factor(self) -> float:
        """Expected 16x16 tiles overlapped by a visible Gaussian."""
        return (2.0 * self.mean_radius_px / FULL_SCALE_TILE + 1.0) ** 2

    @property
    def num_pairs(self) -> float:
        """Duplicated (Gaussian, tile) pairs of the tile-centric pipeline."""
        return self.visible_gaussians * self.duplication_factor

    @property
    def blended_fragments(self) -> float:
        """Per-pixel blend operations of one frame (either pipeline)."""
        return self.num_pairs * FULL_SCALE_TILE ** 2 * self.blend_efficiency

    # ------------------------------------------------------------------
    # Streaming pipeline quantities
    # ------------------------------------------------------------------
    @property
    def voxel_footprint_px(self) -> float:
        """Mean projected edge length of a voxel, in pixels."""
        return self.voxel_size / max(self.mean_depth, 1e-6) * self.focal_px

    @property
    def groups_per_voxel(self) -> float:
        """Pixel groups whose frustum a visible voxel intersects."""
        return ((self.voxel_footprint_px + self.group_size) / self.group_size) ** 2

    @property
    def gaussians_per_voxel(self) -> float:
        return self.num_gaussians / max(self.num_voxels, 1)

    @property
    def voxel_instances(self) -> float:
        """(group, voxel) processing instances per frame."""
        return self.num_voxels * self.visible_fraction * self.groups_per_voxel

    @property
    def voxels_per_group(self) -> float:
        return self.voxel_instances / max(self.num_groups, 1)

    @property
    def gaussians_streamed(self) -> float:
        """Gaussians *processed* by the hierarchical filter per frame.

        Every (group, voxel) instance tests the voxel's whole population.
        """
        return self.voxel_instances * self.gaussians_per_voxel

    @property
    def coarse_pass_rate(self) -> float:
        """Per-(group, voxel) coarse-grained filter pass rate."""
        coarse, _ = _filter_pass_rates(
            self.group_size, self.voxel_footprint_px, self.mean_radius_px
        )
        return coarse

    @property
    def fine_pass_rate_given_coarse(self) -> float:
        _, fine = _filter_pass_rates(
            self.group_size, self.voxel_footprint_px, self.mean_radius_px
        )
        return fine

    @property
    def coarse_passed(self) -> float:
        """Gaussian instances per frame that pass the coarse phase."""
        return self.gaussians_streamed * self.coarse_pass_rate

    @property
    def survivors(self) -> float:
        """Gaussian instances per frame that pass both filter phases."""
        return self.coarse_passed * self.fine_pass_rate_given_coarse

    @property
    def filtering_reduction(self) -> float:
        """Fraction of processed Gaussians removed before sorting/rendering."""
        if self.gaussians_streamed == 0:
            return 0.0
        return 1.0 - self.survivors / self.gaussians_streamed

    # ------------------------------------------------------------------
    # Streaming DRAM fetch quantities (see module docstring)
    # ------------------------------------------------------------------
    @property
    def first_half_fetched(self) -> float:
        """Gaussian first halves fetched from DRAM per frame."""
        return self.visible_gaussians * VOXEL_FETCH_REUSE

    def second_half_fetched(self, use_coarse_filter: bool = True) -> float:
        """Gaussian second halves fetched from DRAM per frame.

        With the coarse filter, a Gaussian's second half is fetched if it
        passes the coarse test for at least one of the groups its voxel is
        processed against; without it, every streamed Gaussian is fetched.
        """
        if not use_coarse_filter:
            return self.visible_gaussians * VOXEL_FETCH_REUSE
        frame_level_pass = min(1.0, self.coarse_pass_rate * self.groups_per_voxel)
        return self.visible_gaussians * frame_level_pass * VOXEL_FETCH_REUSE

    # ------------------------------------------------------------------
    def with_group_size(self, group_size: int) -> "FullScaleWorkload":
        """A copy of the workload with a different pixel-group size."""
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        return replace(self, group_size=group_size)


def build_workload(
    descriptor: SceneDescriptor,
    tile_stats: RenderStats,
    projected: ProjectedGaussians,
    streaming_stats: StreamingStats,
    num_voxels: int,
    sim_width: int,
    sim_focal: float,
    group_size: int = DEFAULT_GROUP_SIZE,
    use_vq: bool = True,
    second_half_bytes_vq: float = 10.0,
    voxel_size: Optional[float] = None,
) -> FullScaleWorkload:
    """Derive the paper-scale workload of one scene.

    Parameters
    ----------
    descriptor:
        Registry entry with the full-scale Gaussian count and resolution.
    tile_stats:
        Statistics of a tile-centric render of the simulated scene.
    projected:
        The projection result of that render (radii / depth distribution).
    streaming_stats:
        Statistics of a streaming render of the simulated scene (per-ray
        traversal depth).
    num_voxels:
        Number of non-empty voxels of the simulated scene's grid.
    sim_width, sim_focal:
        Resolution and focal length the simulated statistics were measured
        at (needed to rescale the focal length to native resolution).
    group_size:
        Pixel-group edge of the streaming accelerator.
    use_vq / second_half_bytes_vq:
        Second-half encoding used by the streaming data layout.
    voxel_size:
        Voxel edge length (defaults to the scene's registry default).
    """
    full_width, full_height = descriptor.full_resolution
    resolution_ratio = full_width / sim_width
    focal_full = sim_focal * resolution_ratio

    valid = projected.valid
    if np.any(valid):
        mean_sq_radius_sim = float(np.mean(projected.radii[valid] ** 2))
        mean_depth = float(np.mean(projected.depths[valid]))
    else:
        mean_sq_radius_sim = 1.0
        mean_depth = max(descriptor.extent, 1.0)

    visible_fraction = tile_stats.num_projected / max(tile_stats.num_gaussians, 1)

    # Coverage-preserving radius rescaling (see module docstring).
    sim_image_pixels = (sim_width * sim_width) * (full_height / full_width)
    coverage = (
        tile_stats.num_projected * np.pi * mean_sq_radius_sim / max(sim_image_pixels, 1)
    )
    visible_full = descriptor.full_num_gaussians * visible_fraction
    mean_radius_full = float(
        np.sqrt(coverage * full_width * full_height / (np.pi * max(visible_full, 1.0)))
    )

    blend_efficiency = tile_stats.num_blended_fragments / max(
        tile_stats.num_tile_pairs * 16 * 16, 1
    )
    rays_with_voxels = max(streaming_stats.rays_sampled, 1)
    voxels_per_ray = streaming_stats.ordering_table_entries / rays_with_voxels

    return FullScaleWorkload(
        scene=descriptor.name,
        num_gaussians=descriptor.full_num_gaussians,
        width=full_width,
        height=full_height,
        num_voxels=num_voxels,
        voxel_size=float(voxel_size or descriptor.default_voxel_size),
        visible_fraction=visible_fraction,
        mean_depth=mean_depth,
        focal_px=focal_full,
        blend_efficiency=blend_efficiency,
        voxels_per_ray=voxels_per_ray,
        mean_radius_px=mean_radius_full,
        group_size=group_size,
        second_half_bytes_vq=second_half_bytes_vq if use_vq else 220.0,
        second_half_bytes_raw=220.0,
    )
