"""Ray/voxel intersection and the per-tile voxel ordering table (Fig. 5).

For every pixel group the VSU samples rays through (a subset of) its pixels
and records, per ray, the front-to-back sequence of non-empty voxels the ray
passes through.  This module provides an exact amanatides-woo style 3D-DDA
traversal plus the ordering-table construction the topological sort consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.voxel_grid import VoxelGrid
from repro.gaussians.camera import Camera


def _reciprocal(direction: np.ndarray) -> np.ndarray:
    """``1 / direction`` per component, ``inf`` for axis-parallel ones.

    Only the non-parallel components are divided, so no divide-by-zero
    warning is raised.
    """
    parallel = np.abs(direction) < 1e-12
    return np.divide(1.0, direction, out=np.full(direction.shape, np.inf), where=~parallel)


def _ray_box_intersection(
    origin: np.ndarray, direction: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Tuple[float, float]:
    """Entry/exit parameters of a ray against an AABB (slab method).

    Returns ``(t_enter, t_exit)``; the ray misses the box when
    ``t_enter > t_exit`` or ``t_exit < 0``.
    """
    inv = _reciprocal(direction)
    t0 = (lo - origin) * inv
    t1 = (hi - origin) * inv
    t_near = np.minimum(t0, t1)
    t_far = np.maximum(t0, t1)
    return float(np.max(t_near)), float(np.min(t_far))


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
    t_enter, t_exit = _ray_box_intersection(origin, direction, grid_lo, grid_hi)
    if t_enter > t_exit or t_exit < 0.0:
        return []
    t_current = max(t_enter, 0.0) + 1e-9

    position = origin + t_current * direction
    coords = np.floor((position - grid_lo) / grid.voxel_size).astype(np.int64)
    coords = np.clip(coords, 0, grid.dims - 1)

    step = np.where(direction > 0, 1, np.where(direction < 0, -1, 0)).astype(np.int64)
    inv_dir = _reciprocal(direction)
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
) -> List[List[int]]:
    """Batched 3D-DDA: front-to-back non-empty voxel lists for many rays.

    Vectorizes :func:`traverse_ray` over the ray axis — every update
    (entry/exit slabs, axis selection, boundary stepping) runs as one NumPy
    operation across all still-active rays, and the per-ray results are
    identical to the scalar traversal (the arithmetic is element-wise the
    same).  This is the hot loop of cold frame preparation: one call
    traverses every sampled ray of a frame instead of one Python DDA per
    ray.
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    num_rays = len(origins)
    if num_rays == 0:
        return []
    norms = np.linalg.norm(directions, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("ray direction must be non-zero")
    directions = directions / norms[:, None]

    grid_lo = grid.origin
    grid_hi = grid.origin + grid.dims * grid.voxel_size
    inv = _reciprocal(directions)
    t0 = (grid_lo[None, :] - origins) * inv
    t1 = (grid_hi[None, :] - origins) * inv
    t_enter = np.max(np.minimum(t0, t1), axis=1)
    t_exit = np.min(np.maximum(t0, t1), axis=1)
    active = ~((t_enter > t_exit) | (t_exit < 0.0))

    t_current = np.maximum(t_enter, 0.0) + 1e-9
    position = origins + t_current[:, None] * directions
    coords = np.floor((position - grid_lo[None, :]) / grid.voxel_size).astype(np.int64)
    coords = np.clip(coords, 0, grid.dims[None, :] - 1)

    step = np.where(
        directions > 0, 1, np.where(directions < 0, -1, 0)
    ).astype(np.int64)
    next_boundary = grid_lo[None, :] + (coords + (step > 0)) * grid.voxel_size
    t_max = np.where(step == 0, np.inf, (next_boundary - origins) * inv)
    t_delta = np.where(step == 0, np.inf, grid.voxel_size * np.abs(inv))

    # Per-step raw voxel ids; -1 marks rays that already terminated.
    visited_steps: List[np.ndarray] = []
    ray_index = np.arange(num_rays)
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
        return [[] for _ in range(num_rays)]
    raw_matrix = np.stack(visited_steps, axis=1)          # (R, S)
    # Vectorized renaming-table lookup: empty voxels are absent from
    # ``renamed_to_raw`` and resolve to -1, exactly like ``grid.rename``.
    raw_flat = raw_matrix.reshape(-1)
    lookup = np.searchsorted(grid.renamed_to_raw, raw_flat)
    lookup = np.clip(lookup, 0, len(grid.renamed_to_raw) - 1)
    renamed = np.where(
        (raw_flat >= 0) & (grid.renamed_to_raw[lookup] == raw_flat), lookup, -1
    ).reshape(raw_matrix.shape)
    # Per-ray int64 arrays (cheaper than Python int lists for the graph
    # build); callers treat them as front-to-back id sequences either way.
    return [row[row >= 0] for row in renamed]


@dataclass
class VoxelOrderingTable:
    """The per-ray voxel rendering orders of one pixel group (Fig. 5).

    Attributes
    ----------
    per_ray_orders:
        One front-to-back renamed-voxel-id sequence per sampled ray
        (int64 arrays from the batched traversal, plain lists accepted).
    rays_sampled:
        Number of rays that were traced.
    unique_voxels:
        Sorted array of all voxels that appear in any ray's order.
    """

    per_ray_orders: List[Sequence[int]]
    rays_sampled: int

    @property
    def unique_voxels(self) -> np.ndarray:
        seen = set()
        for order in self.per_ray_orders:
            seen.update(order)
        return np.array(sorted(seen), dtype=np.int64)

    @property
    def total_entries(self) -> int:
        """Total number of (ray, voxel) entries — the VSU's table size."""
        return sum(len(order) for order in self.per_ray_orders)


def _tile_ray_pixels(
    tile_bounds: Tuple[int, int, int, int], ray_stride: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pixel coordinates of the rays sampled inside one tile.

    A regular grid with ``ray_stride`` spacing; the tile's corner pixels
    are always included so the traversed voxel set covers the tile's whole
    frustum footprint.
    """
    x0, y0, x1, y1 = tile_bounds
    if x1 <= x0 or y1 <= y0:
        raise ValueError("empty tile bounds")
    xs = list(range(x0, x1, ray_stride))
    ys = list(range(y0, y1, ray_stride))
    if (x1 - 1) not in xs:
        xs.append(x1 - 1)
    if (y1 - 1) not in ys:
        ys.append(y1 - 1)
    pixel_x, pixel_y = np.meshgrid(np.array(xs), np.array(ys))
    return pixel_x.reshape(-1), pixel_y.reshape(-1)


def voxel_ordering_table(
    grid: VoxelGrid,
    camera: Camera,
    tile_bounds: Tuple[int, int, int, int],
    ray_stride: int = 4,
    max_voxels_per_ray: int = 512,
) -> VoxelOrderingTable:
    """Build the voxel ordering table for one pixel group (image tile)."""
    pixel_x, pixel_y = _tile_ray_pixels(tile_bounds, ray_stride)
    origins, directions = camera.pixel_rays(pixel_x, pixel_y)
    orders = traverse_rays(
        grid, origins, directions, max_voxels=max_voxels_per_ray
    )
    return VoxelOrderingTable(
        per_ray_orders=[order for order in orders if len(order)],
        rays_sampled=len(origins),
    )


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
    Every sampled ray of every tile is traversed in one batched 3D-DDA
    call (:func:`traverse_rays`); the per-tile tables are identical to
    building each tile on its own.
    """
    tile_pixels = {
        tile_id: _tile_ray_pixels(bounds, ray_stride)
        for tile_id, bounds in tile_bounds.items()
    }
    if not tile_pixels:
        return {}
    all_x = np.concatenate([px for px, _ in tile_pixels.values()])
    all_y = np.concatenate([py for _, py in tile_pixels.values()])
    origins, directions = camera.pixel_rays(all_x, all_y)
    orders = traverse_rays(
        grid, origins, directions, max_voxels=max_voxels_per_ray
    )
    tables: Dict[int, VoxelOrderingTable] = {}
    offset = 0
    for tile_id, (px, _) in tile_pixels.items():
        tile_orders = orders[offset : offset + len(px)]
        offset += len(px)
        tables[tile_id] = VoxelOrderingTable(
            per_ray_orders=[order for order in tile_orders if len(order)],
            rays_sampled=len(px),
        )
    return tables
