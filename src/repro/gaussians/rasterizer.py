"""Tile-centric reference rasterizer (the "original 3DGS" baseline).

This is the rendering paradigm of Fig. 1a: project every Gaussian, duplicate
it into the tiles it overlaps, sort each tile's list by depth, then
alpha-blend every pixel of each tile front-to-back over the full sorted
list.  The alpha blending itself lives in the shared render-engine layer
(:mod:`repro.engine.kernels`): by default every tile's sorted list is one
stream of :func:`~repro.engine.kernels.blend_streaming` over the frame's
stacked tile columns, and ``kernel="reference"`` blends tile by tile
through the :func:`~repro.engine.kernels.blend_reference` oracle.  The
rasterizer also records the workload statistics (Gaussian loads, blended
fragments, duplicated pairs) that drive the GPU / GSCore architecture
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.engine.kernels import (
    ALPHA_EPSILON,
    ALPHA_MAX,
    TRANSMITTANCE_EPSILON,
    blend_reference,
    blend_streaming,
    check_render_path,
    column_blocks,
    tile_columns,
)
from repro.engine.state import BlendState
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.projection import ProjectedGaussians, project_gaussians
from repro.gaussians.sorting import global_sort_statistics, sort_tile_gaussians
from repro.gaussians.tiles import DEFAULT_TILE_SIZE, TileGrid, bin_gaussians_to_tiles

__all__ = [
    "ALPHA_EPSILON",
    "ALPHA_MAX",
    "TRANSMITTANCE_EPSILON",
    "BlendState",
    "RenderStats",
    "RenderOutput",
    "TileRasterizer",
]


@dataclass
class RenderStats:
    """Workload statistics of a single rendered frame."""

    num_gaussians: int = 0
    num_projected: int = 0
    num_culled: int = 0
    num_tile_pairs: int = 0
    num_blended_fragments: int = 0
    num_tiles_rendered: int = 0
    sort_pairs: int = 0
    sort_bytes: int = 0


@dataclass
class RenderOutput:
    """The rendered image plus per-frame workload statistics."""

    image: np.ndarray                      # (H, W, 3) float in [0, 1]
    alpha: np.ndarray                      # (H, W) accumulated opacity
    stats: RenderStats = field(default_factory=RenderStats)
    projected: Optional[ProjectedGaussians] = None

    @property
    def height(self) -> int:
        return int(self.image.shape[0])

    @property
    def width(self) -> int:
        return int(self.image.shape[1])


class TileRasterizer:
    """The tile-centric reference renderer.

    Parameters
    ----------
    tile_size:
        Edge length of the square screen tiles (16 as in reference 3DGS).
    background:
        Background RGB colour composited where transmittance remains.
    sh_degree:
        SH degree used for view-dependent colour.
    kernel:
        Render path (:data:`repro.engine.kernels.RENDER_PATHS`):
        ``"vectorized"`` (default) blends the frame through
        :func:`~repro.engine.kernels.blend_streaming`, ``"reference"``
        through the per-tile :func:`~repro.engine.kernels.blend_reference`
        loop.  Both give equal statistics and images within 1e-9.
    """

    def __init__(
        self,
        tile_size: int = DEFAULT_TILE_SIZE,
        background=(0.0, 0.0, 0.0),
        sh_degree: int = 3,
        kernel: str = "vectorized",
    ) -> None:
        if tile_size <= 0:
            raise ValueError("tile_size must be positive")
        self.tile_size = tile_size
        self.background = np.asarray(background, dtype=np.float64).reshape(3)
        self.sh_degree = sh_degree
        self.kernel = check_render_path(kernel, "kernel")

    # ------------------------------------------------------------------
    def render(self, model: GaussianModel, camera: Camera) -> RenderOutput:
        """Render ``model`` from ``camera`` with the tile-centric pipeline."""
        grid = TileGrid(camera.width, camera.height, self.tile_size)
        projected = project_gaussians(model, camera, sh_degree=self.sh_degree)
        binning = bin_gaussians_to_tiles(projected, grid)
        sorted_lists = sort_tile_gaussians(projected, binning)
        sort_stats = global_sort_statistics(binning)
        stats = RenderStats(
            num_gaussians=len(model),
            num_projected=projected.num_valid,
            num_culled=len(model) - projected.num_valid,
            num_tile_pairs=binning.num_duplicates,
            num_tiles_rendered=len(sorted_lists),
            sort_pairs=sort_stats.num_pairs,
            sort_bytes=sort_stats.total_bytes,
        )

        # Each tile's depth-sorted list is its stream over the tile's
        # stacked pixel columns; tiles without candidates get empty streams
        # and keep transmittance 1, i.e. the background.
        empty = np.zeros(0, dtype=np.int64)
        streams = [sorted_lists.get(tile, empty) for tile in range(grid.num_tiles)]
        xs, ys, column_offsets = tile_columns(
            [grid.tile_pixel_bounds(tile) for tile in range(grid.num_tiles)]
        )
        if self.kernel == "reference":
            color = np.zeros((len(xs), 3), dtype=np.float64)
            transmittance = np.ones(len(xs), dtype=np.float64)
            for tile, stream in enumerate(streams):
                c0, c1 = column_offsets[tile], column_offsets[tile + 1]
                state = blend_reference(
                    xs[c0:c1], ys[c0:c1], projected, stream, BlendState.fresh(c1 - c0)
                )
                color[c0:c1], transmittance[c0:c1] = state.color, state.transmittance
                stats.num_blended_fragments += state.blended_fragments
        else:
            blend = blend_streaming(
                xs,
                ys,
                column_offsets,
                projected,
                np.concatenate([empty, *streams]),
                np.concatenate(([0], np.cumsum([len(s) for s in streams]))),
                column_blocks(np.diff(column_offsets)),
            )
            color, transmittance = blend.color, blend.transmittance
            stats.num_blended_fragments = int(blend.fragments.sum())

        image = np.empty((camera.height, camera.width, 3), dtype=np.float64)
        alpha = np.empty((camera.height, camera.width), dtype=np.float64)
        image[ys, xs] = color + transmittance[:, None] * self.background[None, :]
        alpha[ys, xs] = 1.0 - transmittance
        return RenderOutput(
            image=np.clip(image, 0.0, 1.0),
            alpha=alpha,
            stats=stats,
            projected=projected,
        )
