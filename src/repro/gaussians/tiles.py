"""Screen-space tile grid and Gaussian-to-tile binning.

The tile-centric rendering paradigm (Fig. 1a) divides the image into fixed
size tiles (16x16 in the reference 3DGS implementation), duplicates every
projected Gaussian into the tiles its screen-space extent overlaps, sorts
each tile's list by depth and then rasterizes tile by tile.  The duplication
factor produced here is also what drives the sorting-stage DRAM traffic that
the paper's characterization (Sec. II-B) identifies as the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.gaussians.projection import ProjectedGaussians

#: Tile edge length in pixels, matching the reference 3DGS rasterizer.
DEFAULT_TILE_SIZE = 16


@dataclass(frozen=True)
class TileGrid:
    """A grid of square screen-space tiles covering the image."""

    width: int
    height: int
    tile_size: int = DEFAULT_TILE_SIZE

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.tile_size <= 0:
            raise ValueError("tile size must be positive")

    @property
    def tiles_x(self) -> int:
        """Number of tile columns."""
        return (self.width + self.tile_size - 1) // self.tile_size

    @property
    def tiles_y(self) -> int:
        """Number of tile rows."""
        return (self.height + self.tile_size - 1) // self.tile_size

    @property
    def num_tiles(self) -> int:
        """Total number of tiles."""
        return self.tiles_x * self.tiles_y

    def tile_id(self, tile_x: int, tile_y: int) -> int:
        """Flattened tile index for tile column/row coordinates."""
        return tile_y * self.tiles_x + tile_x

    def tile_coords(self, tile_id: int) -> tuple:
        """Inverse of :meth:`tile_id`."""
        return tile_id % self.tiles_x, tile_id // self.tiles_x

    def tile_pixel_bounds(self, tile_id: int) -> tuple:
        """Pixel bounds ``(x0, y0, x1, y1)`` of a tile (``x1``/``y1`` exclusive)."""
        tx, ty = self.tile_coords(tile_id)
        x0 = tx * self.tile_size
        y0 = ty * self.tile_size
        x1 = min(x0 + self.tile_size, self.width)
        y1 = min(y0 + self.tile_size, self.height)
        return x0, y0, x1, y1

    def tile_pixel_centers(self, tile_id: int) -> tuple:
        """Meshgrid pixel-centre coordinates ``(xs, ys)`` of a tile's pixels."""
        x0, y0, x1, y1 = self.tile_pixel_bounds(tile_id)
        xs, ys = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
        return xs.reshape(-1), ys.reshape(-1)

    def gaussian_tile_range(
        self, means2d: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        """Inclusive tile-index ranges overlapped by each Gaussian's AABB.

        Returns ``(N, 4)`` integer array ``(tx_min, ty_min, tx_max, ty_max)``,
        clipped to the grid.  Gaussians entirely off screen produce empty
        ranges (``tx_min > tx_max``).
        """
        means2d = np.asarray(means2d, dtype=np.float64)
        radii = np.asarray(radii, dtype=np.float64).reshape(-1)
        # Clipped before the cast: a huge footprint stays within int64.
        def tile_index(pixel: np.ndarray, tiles: int) -> np.ndarray:
            index = np.clip(np.floor(pixel / self.tile_size), 0, tiles - 1)
            return index.astype(np.int64)

        x_min = tile_index(means2d[:, 0] - radii, self.tiles_x)
        y_min = tile_index(means2d[:, 1] - radii, self.tiles_y)
        x_max = tile_index(means2d[:, 0] + radii, self.tiles_x)
        y_max = tile_index(means2d[:, 1] + radii, self.tiles_y)
        off_left = (means2d[:, 0] + radii) < 0
        off_right = (means2d[:, 0] - radii) >= self.width
        off_top = (means2d[:, 1] + radii) < 0
        off_bottom = (means2d[:, 1] - radii) >= self.height
        off_screen = off_left | off_right | off_top | off_bottom
        x_max = np.where(off_screen, x_min - 1, x_max)
        return np.stack([x_min, y_min, x_max, y_max], axis=1)


@dataclass
class TileBinning:
    """Result of Gaussian-to-tile binning.

    Attributes
    ----------
    tile_lists:
        Mapping from tile id to an integer array of Gaussian indices whose
        screen-space AABB overlaps the tile (unsorted).
    num_duplicates:
        Total number of (Gaussian, tile) pairs — the length of the key/value
        list the tile-centric pipeline has to sort globally.
    """

    tile_lists: Dict[int, np.ndarray]
    num_duplicates: int


def bin_gaussians_to_tiles(
    projected: ProjectedGaussians, grid: TileGrid
) -> TileBinning:
    """Assign projected Gaussians to every tile their extent overlaps.

    Only Gaussians with ``projected.valid`` set participate.  This mirrors
    the duplication step of the reference tile-centric pipeline; the
    resulting duplicate count feeds the sorting-traffic model.  Tiles appear
    in the order the (Gaussian, tile row, tile column) walk first reaches
    them, and each tile's Gaussian ids ascend, because callers accumulate
    across tiles in that order.
    """
    valid_idx = np.flatnonzero(projected.valid)
    if len(valid_idx) == 0:
        return TileBinning(tile_lists={}, num_duplicates=0)
    tx_min, ty_min, tx_max, ty_max = grid.gaussian_tile_range(
        projected.means2d[valid_idx], projected.radii[valid_idx]
    ).T
    overlaps = (tx_max >= tx_min) & (ty_max >= ty_min)
    gids = valid_idx[overlaps]
    tx_min, ty_min = tx_min[overlaps], ty_min[overlaps]
    span_x = tx_max[overlaps] - tx_min + 1
    counts = span_x * (ty_max[overlaps] - ty_min + 1)
    num_duplicates = int(counts.sum())
    # One entry per (Gaussian, tile) pair, in (Gaussian, row, column) order.
    owner = np.repeat(np.arange(len(gids)), counts)
    offset = np.arange(num_duplicates) - np.repeat(np.cumsum(counts) - counts, counts)
    tile_ids = (ty_min[owner] + offset // span_x[owner]) * grid.tiles_x + (
        tx_min[owner] + offset % span_x[owner]
    )
    order = np.argsort(tile_ids, kind="stable")
    tiles, first_seen, sizes = np.unique(
        tile_ids, return_index=True, return_counts=True
    )
    members = np.split(gids[owner[order]], np.cumsum(sizes)[:-1])
    return TileBinning(
        tile_lists={int(tiles[i]): members[i] for i in np.argsort(first_seen)},
        num_duplicates=num_duplicates,
    )
