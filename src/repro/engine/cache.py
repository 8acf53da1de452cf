"""Frame-preparation cache keyed by camera pose.

Preparing a frame for the streaming renderer is pure geometry: the per-voxel
depth map, the per-tile voxel ordering tables (ray/voxel 3D-DDA traversal)
and the topologically sorted global voxel orders depend only on the voxel
grid, the camera pose and the traversal configuration — not on the Gaussian
parameters being blended.  Repeated renders of the same view (benchmark
sweeps, fine-tuning probes, trajectory frames) can therefore reuse
one :class:`FramePreparation`.

The cache is a small LRU keyed by ``(camera pose, traversal parameters)``,
plus the tile range for the preparation of one run of tiles (a
process-parallel frame prepares each process's run on its own, and keeps a
pose's cut while the pose is recent, so a repeated pose looks up the same
runs); the owning renderer holds one cache per voxel grid, so grid changes
can never alias.
Statistics recorded from cached preparations are identical to freshly
computed ones — the cache memoizes work, not accounting.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # circular at runtime: repro.core sits on top of the engine
    from repro.core.ray_voxel import VoxelOrderingTable
    from repro.core.voxel_order import VoxelOrderResult

#: Default number of prepared frames kept per renderer.
DEFAULT_FRAME_CACHE_SIZE = 8


@dataclass
class FramePreparation:
    """Camera-dependent, model-independent state of one prepared frame."""

    #: Per-voxel camera depth, indexed by renamed voxel id
    #: (``voxel_depth_values``).
    depth_map: np.ndarray
    tile_tables: Dict[int, "VoxelOrderingTable"]
    tile_orders: Dict[int, "VoxelOrderResult"]

    @property
    def num_tiles(self) -> int:
        return len(self.tile_tables)


@dataclass
class FrameCache:
    """LRU cache of :class:`FramePreparation` objects.

    Attributes
    ----------
    capacity:
        Maximum number of prepared frames retained; 0 disables caching.
    hits / misses:
        Lookup counters (exposed so tests and the service can assert reuse).
    """

    capacity: int = DEFAULT_FRAME_CACHE_SIZE
    hits: int = 0
    misses: int = 0
    _entries: "OrderedDict[Hashable, FramePreparation]" = field(
        default_factory=OrderedDict, repr=False
    )
    # Renderers (and their frame caches) are shared across the service
    # daemon's worker-actor threads; LRU reads mutate recency order, so
    # even ``get`` needs the lock (move_to_end racing a concurrent evict
    # raises KeyError on an unlocked OrderedDict).
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")

    # Renderers travel pickled to tile workers; locks are not picklable,
    # so rebuild one on the receiving side.
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[FramePreparation]:
        """The cached preparation for ``key``, refreshing its LRU position."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, preparation: FramePreparation) -> None:
        """Insert ``preparation``, evicting the least recently used entry."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = preparation
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


def frame_key(
    camera,
    *,
    tile_size: int,
    ray_stride: int,
    max_voxels_per_ray: int,
    tiles: Optional[Tuple[int, int]] = None,
) -> Tuple:
    """Cache key of a prepared frame: camera pose plus traversal parameters.

    ``tiles = (lo, hi)`` keys the preparation of tiles ``lo:hi`` only;
    ``None`` keys the whole frame.
    """
    key = (
        camera.pose_key(),
        int(tile_size),
        int(ray_stride),
        int(max_voxels_per_ray),
    )
    return key if tiles is None else key + ((int(tiles[0]), int(tiles[1])),)
