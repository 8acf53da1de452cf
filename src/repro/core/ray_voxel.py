"""Ray/voxel intersection and the per-tile voxel ordering table (Fig. 5).

For every pixel group the VSU samples rays through (a subset of) its pixels
and records, per ray, the front-to-back sequence of non-empty voxels the ray
passes through.  This module provides an exact amanatides-woo style 3D-DDA
traversal plus the ordering-table construction the topological sort consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.voxel_grid import VoxelGrid
from repro.gaussians.camera import Camera


def _reciprocal(direction: np.ndarray) -> np.ndarray:
    """``1 / direction`` per component, 0 for axis-parallel ones.

    A component under 1e-12 counts as parallel: it is not divided and its
    ray never steps along that axis, so no inf or NaN enters the walk.
    """
    parallel = np.abs(direction) < 1e-12
    return np.divide(1.0, direction, out=np.zeros(direction.shape), where=~parallel)


def _steps(direction: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Voxel step per component: 0 along axes the ray is parallel to."""
    steps = np.where(direction > 0, 1, -1)
    return np.where(inverse == 0.0, 0, steps).astype(np.int64)


def _box_entry_exit(
    origins: np.ndarray, inverse: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Entry/exit parameters of rays against an AABB (slab method).

    Returns ``(t_enter, t_exit)`` over the last axis; a ray misses the box
    when ``t_enter > t_exit`` or ``t_exit < 0``.  An axis a ray is parallel
    to leaves it unbounded if the origin lies in that slab (faces
    included) and misses the box otherwise.
    """
    t0 = (lo - origins) * inverse
    t1 = (hi - origins) * inverse
    parallel = inverse == 0.0
    inside = (lo <= origins) & (origins <= hi)
    t_near = np.where(parallel, np.where(inside, -np.inf, np.inf), np.minimum(t0, t1))
    t_far = np.where(parallel, np.where(inside, np.inf, -np.inf), np.maximum(t0, t1))
    return np.max(t_near, axis=-1), np.min(t_far, axis=-1)


def traverse_ray(
    grid: VoxelGrid,
    origin: np.ndarray,
    direction: np.ndarray,
    max_voxels: int = 512,
    include_empty: bool = False,
) -> List[int]:
    """Front-to-back list of voxel ids a ray traverses (3D-DDA).

    Parameters
    ----------
    grid:
        The voxel grid.
    origin, direction:
        Ray origin and (not necessarily unit) direction in world space.
    max_voxels:
        Traversal length bound.
    include_empty:
        If True, raw (spatial) ids of *all* traversed voxels are returned;
        otherwise only non-empty voxels are returned, as renamed ids — this
        is what the VSU's renaming table produces.

    Returns
    -------
    List of voxel ids ordered front-to-back along the ray.
    """
    origin = np.asarray(origin, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    norm = np.linalg.norm(direction)
    if norm < 1e-12:
        raise ValueError("ray direction must be non-zero")
    direction = direction / norm

    grid_lo = grid.origin
    grid_hi = grid.origin + grid.dims * grid.voxel_size
    inv_dir = _reciprocal(direction)
    t_enter, t_exit = map(float, _box_entry_exit(origin, inv_dir, grid_lo, grid_hi))
    if t_enter > t_exit or t_exit < 0.0:
        return []
    t_current = max(t_enter, 0.0) + 1e-9

    position = origin + t_current * direction
    coords = np.floor((position - grid_lo) / grid.voxel_size).astype(np.int64)
    coords = np.clip(coords, 0, grid.dims - 1)

    step = _steps(direction, inv_dir)
    next_boundary = grid_lo + (coords + (step > 0)) * grid.voxel_size
    t_max = np.where(
        step == 0, np.inf, (next_boundary - origin) * inv_dir
    )
    t_delta = np.where(step == 0, np.inf, grid.voxel_size * np.abs(inv_dir))

    visited: List[int] = []
    for _ in range(max_voxels):
        raw_id = int(
            coords[0] + grid.dims[0] * (coords[1] + grid.dims[1] * coords[2])
        )
        if include_empty:
            visited.append(raw_id)
        else:
            renamed = grid.rename(raw_id)
            if renamed >= 0:
                visited.append(renamed)
        axis = int(np.argmin(t_max))
        if t_max[axis] > t_exit:
            break
        coords[axis] += step[axis]
        if coords[axis] < 0 or coords[axis] >= grid.dims[axis]:
            break
        t_max[axis] += t_delta[axis]
    return visited


def traverse_rays(
    grid: VoxelGrid,
    origins: np.ndarray,
    directions: np.ndarray,
    max_voxels: int = 512,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched 3D-DDA: the non-empty voxels of many rays, front to back.

    Vectorizes :func:`traverse_ray` over the ray axis — every update
    (entry/exit slabs, axis selection, boundary stepping) runs as one NumPy
    operation across all still-active rays, and the per-ray results are
    identical to the scalar traversal (the arithmetic is element-wise the
    same).  This is the hot loop of cold frame preparation: one call
    traverses every sampled ray of a frame instead of one Python DDA per
    ray.

    Returns ``(voxels, lengths)``: the renamed ids of every ray's
    non-empty voxels, ray after ray and each ray's front to back, as one
    int64 array, and the ``(R,)`` count of each ray's ids (0 for a ray
    that meets no non-empty voxel).
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    num_rays = len(origins)
    if num_rays == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    norms = np.linalg.norm(directions, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("ray direction must be non-zero")
    directions = directions / norms[:, None]

    grid_lo = grid.origin
    grid_hi = grid.origin + grid.dims * grid.voxel_size
    inv = _reciprocal(directions)
    t_enter, t_exit = _box_entry_exit(origins, inv, grid_lo, grid_hi)
    active = ~((t_enter > t_exit) | (t_exit < 0.0))

    # A missed ray parallel to an axis has an infinite t_enter; start it at
    # its origin so no arithmetic below meets inf * 0.
    t_current = np.where(active, np.maximum(t_enter, 0.0), 0.0) + 1e-9
    position = origins + t_current[:, None] * directions
    coords = np.floor((position - grid_lo[None, :]) / grid.voxel_size).astype(np.int64)
    coords = np.clip(coords, 0, grid.dims[None, :] - 1)

    step = _steps(directions, inv)
    next_boundary = grid_lo[None, :] + (coords + (step > 0)) * grid.voxel_size
    t_max = np.where(step == 0, np.inf, (next_boundary - origins) * inv)
    t_delta = np.where(step == 0, np.inf, grid.voxel_size * np.abs(inv))

    # Per-step raw voxel ids; -1 marks rays that already terminated.
    visited_steps: List[np.ndarray] = []
    for _ in range(max_voxels):
        if not np.any(active):
            break
        raw = np.where(
            active,
            coords[:, 0] + grid.dims[0] * (coords[:, 1] + grid.dims[1] * coords[:, 2]),
            -1,
        )
        visited_steps.append(raw)
        live = np.flatnonzero(active)
        axis = np.argmin(t_max[live], axis=1)
        crossing = t_max[live, axis] <= t_exit[live]
        active[live[~crossing]] = False
        live = live[crossing]
        axis = axis[crossing]
        coords[live, axis] += step[live, axis]
        inside = (coords[live, axis] >= 0) & (coords[live, axis] < grid.dims[axis])
        active[live[~inside]] = False
        live, axis = live[inside], axis[inside]
        t_max[live, axis] += t_delta[live, axis]

    if not visited_steps:
        return np.zeros(0, dtype=np.int64), np.zeros(num_rays, dtype=np.int64)
    raw_matrix = np.stack(visited_steps, axis=1)          # (R, S)
    # Vectorized renaming-table lookup: empty voxels are absent from
    # ``renamed_to_raw`` and resolve to -1, exactly like ``grid.rename``.
    lookup = np.searchsorted(grid.renamed_to_raw, raw_matrix)
    np.clip(lookup, 0, len(grid.renamed_to_raw) - 1, out=lookup)
    kept = (raw_matrix >= 0) & (grid.renamed_to_raw[lookup] == raw_matrix)
    # Row-major selection keeps each ray's ids together and in step order.
    return lookup[kept], np.count_nonzero(kept, axis=1)


@dataclass
class VoxelOrderingTable:
    """The per-ray voxel rendering orders of one pixel group (Fig. 5).

    Attributes
    ----------
    entries:
        Renamed voxel ids of every sampled ray, ray after ray, each ray's
        front to back (int64).
    ray_lengths:
        ``(R,)`` entries per sampled ray, in sampling order; 0 for a ray
        that meets no non-empty voxel.
    """

    entries: np.ndarray
    ray_lengths: np.ndarray

    @property
    def rays_sampled(self) -> int:
        """Number of rays that were traced."""
        return len(self.ray_lengths)

    @property
    def total_entries(self) -> int:
        """Total number of (ray, voxel) entries — the VSU's table size."""
        return len(self.entries)

    @property
    def per_ray_orders(self) -> List[np.ndarray]:
        """Each ray's front-to-back voxel ids, for the rays that meet any."""
        lengths = self.ray_lengths[self.ray_lengths > 0]
        return np.split(self.entries, np.cumsum(lengths)[:-1]) if len(lengths) else []


def _ray_offsets(extent: int, ray_stride: int) -> np.ndarray:
    """Offsets of the sampled rays along one tile side of ``extent`` pixels.

    Every ``ray_stride`` pixels from the tile's corner, plus the last
    pixel, so the traversed voxel set covers the tile's whole frustum
    footprint.
    """
    offsets = np.arange(0, extent, ray_stride)
    return offsets if offsets[-1] == extent - 1 else np.append(offsets, extent - 1)


def tile_ray_pixels(
    bounds: np.ndarray, ray_stride: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel coordinates of the rays sampled inside many tiles.

    ``bounds`` is a ``(T, 4)`` array of pixel rectangles ``(x0, y0, x1,
    y1)``.  Each tile samples a regular grid with ``ray_stride`` spacing
    that always includes its last column and row, row by row.  Tiles of
    one shape share one grid of offsets, so the pixels come from one
    addition per distinct shape.  Returns ``(pixel_x, pixel_y,
    ray_offsets)``: every tile's ray pixels, tile after tile, and the
    ``(T + 1,)`` first ray of each tile followed by the ray count.
    """
    bounds = np.asarray(bounds, dtype=np.int64).reshape(-1, 4)
    widths = bounds[:, 2] - bounds[:, 0]
    heights = bounds[:, 3] - bounds[:, 1]
    if np.any(widths <= 0) or np.any(heights <= 0):
        raise ValueError("empty tile bounds")
    shapes, shape_of = np.unique(
        np.stack([widths, heights], axis=1), axis=0, return_inverse=True
    )
    shape_of = shape_of.reshape(-1)
    grids = []
    for width, height in shapes:
        offset_x, offset_y = _ray_offsets(width, ray_stride), _ray_offsets(height, ray_stride)
        grids.append((np.tile(offset_x, len(offset_y)), np.repeat(offset_y, len(offset_x))))
    counts = np.array([len(grid_x) for grid_x, _ in grids], dtype=np.int64)[shape_of]
    ray_offsets = np.concatenate(([0], np.cumsum(counts)))
    pixel_x = np.empty(ray_offsets[-1], dtype=np.int64)
    pixel_y = np.empty(ray_offsets[-1], dtype=np.int64)
    for shape, (grid_x, grid_y) in enumerate(grids):
        tiles = np.flatnonzero(shape_of == shape)
        slots = (ray_offsets[tiles][:, None] + np.arange(len(grid_x))).reshape(-1)
        pixel_x[slots] = (bounds[tiles, 0][:, None] + grid_x).reshape(-1)
        pixel_y[slots] = (bounds[tiles, 1][:, None] + grid_y).reshape(-1)
    return pixel_x, pixel_y, ray_offsets


def ordering_tables_for_tiles(
    grid: VoxelGrid,
    camera: Camera,
    tile_bounds: Dict[int, Tuple[int, int, int, int]],
    ray_stride: int = 4,
    max_voxels_per_ray: int = 512,
) -> Dict[int, VoxelOrderingTable]:
    """Voxel ordering tables for many pixel groups of one camera pose.

    The whole-frame preparation the engine's frame cache memoizes: the
    tables depend only on the grid geometry, the camera pose and the
    traversal parameters, so repeated renders of the same view reuse them.
    Every sampled ray of every tile (:func:`tile_ray_pixels`) is traversed
    in one batched 3D-DDA call (:func:`traverse_rays`), and each tile's
    table is a slice of its flat result; a tile's table depends only on
    its own rays, so it is the same whichever tiles are built with it.
    """
    if not tile_bounds:
        return {}
    pixel_x, pixel_y, ray_offsets = tile_ray_pixels(
        np.array(list(tile_bounds.values())), ray_stride
    )
    origins, directions = camera.pixel_rays(pixel_x, pixel_y)
    voxels, lengths = traverse_rays(
        grid, origins, directions, max_voxels=max_voxels_per_ray
    )
    entry_offsets = np.concatenate(([0], np.cumsum(lengths)))[ray_offsets].tolist()
    ray_offsets = ray_offsets.tolist()
    return {
        tile_id: VoxelOrderingTable(
            entries=voxels[entry_offsets[i] : entry_offsets[i + 1]],
            ray_lengths=lengths[ray_offsets[i] : ray_offsets[i + 1]],
        )
        for i, tile_id in enumerate(tile_bounds)
    }
