"""Process-parallel frame rendering over shared memory.

With ``tile_workers = N > 1`` the renderer cuts the frame's column blocks
(:func:`~repro.engine.kernels.column_blocks`) into ``N`` contiguous runs
of equally many whole blocks and renders the runs concurrently: the
calling process renders the first run itself while a process pool renders
the others.  Every
block blends identically whatever else its process renders, and the frame
path's projections do not depend on the batch they are computed in, so
the frame is bit-identical to a one-process render (images and integer
statistics exactly equal; per-Gaussian weights within 1e-9, summed in a
different order).

All large transfers are zero-copy:

* the renderer (without its frame cache), the camera and the current
  frame's tile rectangles and voxel orders are packaged **once per render**
  with :class:`~repro.api.shm.ShmPackage` — model and grid arrays go into
  shared-memory segments that workers attach read-only, and no worker
  repeats the traversal or the topological sort;
* the image, alpha and per-Gaussian weight accumulators are **writable
  shared buffers**: workers write their tiles' pixels and their private
  weight row in place, so no render output is ever pickled;
* each worker returns one int64 row of summed scalar statistics plus its
  sort-length list, and the frame absorbs the runs **in order**, which is
  tile order.

The worker pool is a lazily created, process-wide ``ProcessPoolExecutor``
(fork start method when the platform offers it — the cheap path; spawn
works too since everything a worker needs arrives via the package), grown
on demand and shut down at interpreter exit.  Anything that stops the
process path before dispatch — daemonic caller, no usable shared memory,
publish failure — leaves the whole frame to the calling process; a pool
that fails after dispatch (worker death) is discarded and the caller
renders the other runs too.  The frame telemetry records the reason
either way.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import copy
import multiprocessing
import os
import pickle
import time
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.api.shm import (
    SharedArrayHandle,
    SharedMemoryUnavailable,
    ShmPackage,
    ShmRegistry,
    shm_available,
)
from repro.core.hierarchical_filter import FilterStats
from repro.core.data_layout import LayoutTraffic
from repro.engine.cache import FrameCache

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle)
    from repro.core.pipeline import StreamingRenderer, StreamingStats

#: Scalar int64 columns of one run's statistics row, in absorb order:
#: the plain counters of ``StreamingStats`` followed by the fields of its
#: nested ``FilterStats`` and ``LayoutTraffic`` records.
STAT_COLUMNS: Tuple[str, ...] = (
    "num_tile_voxel_pairs",
    "rays_sampled",
    "ordering_table_entries",
    "dag_edges",
    "dag_nodes",
    "cycles_broken",
    "gaussians_streamed",
    "blended_fragments",
    "blended_fragment_slots",
    "sorted_gaussians",
    "max_voxel_list_length",
    "rendered_gaussian_slots",
    "depth_order_errors",
)
FILTER_COLUMNS: Tuple[str, ...] = (
    "gaussians_in",
    "coarse_tested",
    "coarse_passed",
    "fine_tested",
    "fine_passed",
    "coarse_macs",
    "fine_macs",
)
TRAFFIC_COLUMNS: Tuple[str, ...] = (
    "first_half_bytes",
    "second_half_bytes",
    "pixel_write_bytes",
    "metadata_bytes",
)
ROW_WIDTH = len(STAT_COLUMNS) + len(FILTER_COLUMNS) + len(TRAFFIC_COLUMNS)


class TileParallelUnavailable(RuntimeError):
    """The process path cannot run here; the frame renders in-process."""


def stats_to_row(stats: "StreamingStats") -> np.ndarray:
    """Flatten a record's scalar statistics into an int64 row."""
    values = [getattr(stats, name) for name in STAT_COLUMNS]
    values.extend(getattr(stats.filter, name) for name in FILTER_COLUMNS)
    values.extend(getattr(stats.traffic, name) for name in TRAFFIC_COLUMNS)
    return np.asarray(values, dtype=np.int64)


def row_to_stats(row: np.ndarray, sort_lengths: np.ndarray) -> "StreamingStats":
    """Rebuild a (weight-array-free) ``StreamingStats`` record from a row."""
    from repro.core.pipeline import StreamingStats

    stats = StreamingStats()
    offset = 0
    for name in STAT_COLUMNS:
        setattr(stats, name, int(row[offset]))
        offset += 1
    stats.filter = FilterStats(
        **{name: int(row[offset + i]) for i, name in enumerate(FILTER_COLUMNS)}
    )
    offset += len(FILTER_COLUMNS)
    stats.traffic = LayoutTraffic(
        **{name: int(row[offset + i]) for i, name in enumerate(TRAFFIC_COLUMNS)}
    )
    stats.sort_list_lengths = [int(n) for n in sort_lengths]
    return stats


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------
def _render_run(
    package: ShmPackage,
    image_handle: SharedArrayHandle,
    alpha_handle: SharedArrayHandle,
    blend_handle: SharedArrayHandle,
    violation_handle: SharedArrayHandle,
    weight_row: int,
    blocks: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Render one run of blocks into the shared buffers.

    Returns only compact arrays: one row of summed scalar statistics and
    the run's sort-length list.  Pixels and per-Gaussian weights were
    already written into shared memory in place.
    """
    from repro.core.pipeline import StreamingStats

    renderer, camera, tile_bounds, orders = package.unpack()
    local = StreamingStats()
    local.gaussian_blend_weight = blend_handle.array(writable=True)[weight_row]
    local.gaussian_violation_weight = violation_handle.array(writable=True)[weight_row]
    renderer._render_tiles(
        camera,
        tile_bounds,
        orders,
        blocks,
        image_handle.array(writable=True),
        alpha_handle.array(writable=True),
        local,
        {},
    )
    return {
        "row": stats_to_row(local),
        "sort_lengths": np.asarray(local.sort_list_lengths, dtype=np.int64),
    }


# ----------------------------------------------------------------------
# Pool lifecycle (process-wide, grown on demand).
# ----------------------------------------------------------------------
_POOL: Optional[concurrent.futures.ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_PID = 0

#: Pool-level failures that send the render back to the calling process.
_PROCESS_FAILURES = (
    BrokenProcessPool,
    OSError,
    ValueError,
    NotImplementedError,
    RuntimeError,
    SharedMemoryUnavailable,
)


def _mp_context():
    """Fork when available (cheap, copy-on-write), platform default otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _tile_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """The shared tile pool, (re)created to hold at least ``workers``."""
    global _POOL, _POOL_WORKERS, _POOL_PID
    if _POOL is not None and _POOL_PID == os.getpid() and _POOL_WORKERS >= workers:
        return _POOL
    if _POOL is not None and _POOL_PID == os.getpid():
        _POOL.shutdown(wait=False)
    _POOL = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=_mp_context()
    )
    _POOL_WORKERS = workers
    _POOL_PID = os.getpid()
    return _POOL


def shutdown_tile_pool() -> None:
    """Shut the shared tile pool down (tests; also runs at exit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_PID == os.getpid():
        _POOL.shutdown(wait=False)
    _POOL = None
    _POOL_WORKERS = 0


def _discard_tile_pool() -> None:
    """Drop a broken pool so the next render builds a fresh one."""
    shutdown_tile_pool()


atexit.register(shutdown_tile_pool)


# ----------------------------------------------------------------------
# Caller side.
# ----------------------------------------------------------------------
def render_tiles_process(
    renderer: "StreamingRenderer",
    camera,
    tile_bounds: Sequence[Tuple[int, int, int, int]],
    orders: Sequence[np.ndarray],
    blocks: np.ndarray,
    workers: int,
    image: np.ndarray,
    alpha_img: np.ndarray,
    stats: "StreamingStats",
    stages: Dict[str, float],
) -> Dict[str, object]:
    """Render a frame's tiles in ``workers`` runs, all but the first in a pool.

    Mutates ``image`` / ``alpha_img`` / ``stats`` / ``stages`` exactly like
    the renderer's in-process tile loop (``stages`` gains ``dispatch``:
    the wall time not spent rendering in this process) and returns the
    telemetry of the execution.  Whatever processes cannot render, this
    process renders, and the telemetry records why.
    ``KeyboardInterrupt`` propagates — the shared segments are unlinked on
    the way out either way.
    """
    try:
        return _render_runs(
            renderer, camera, tile_bounds, orders, blocks, workers,
            image, alpha_img, stats, stages,
        )
    except TileParallelUnavailable as error:
        # Raised before anything was rendered: the whole frame renders here.
        renderer._render_tiles(
            camera, tile_bounds, orders, blocks, image, alpha_img, stats, stages
        )
        return {"tile_mode": "serial", "tile_mode_degraded": str(error)}


def _render_runs(
    renderer: "StreamingRenderer",
    camera,
    tile_bounds: Sequence[Tuple[int, int, int, int]],
    orders: Sequence[np.ndarray],
    blocks: np.ndarray,
    workers: int,
    image: np.ndarray,
    alpha_img: np.ndarray,
    stats: "StreamingStats",
    stages: Dict[str, float],
) -> Dict[str, object]:
    """The process path of :func:`render_tiles_process`.

    Raises :class:`TileParallelUnavailable`, having rendered nothing, when
    processes cannot be used here.
    """
    if multiprocessing.current_process().daemon:
        raise TileParallelUnavailable("daemonic process cannot fork tile workers")
    if not shm_available():
        raise TileParallelUnavailable("no usable shared memory on this host")

    started = time.perf_counter()
    # Runs of (give or take one) equally many whole blocks; there are at
    # least as many blocks as workers.
    cuts = [(len(blocks) - 1) * run // workers for run in range(workers + 1)]
    runs = [blocks[lo : hi + 1] for lo, hi in zip(cuts[:-1], cuts[1:])]
    num_gaussians = len(stats.gaussian_blend_weight)
    registry = ShmRegistry(fallback_inline=False)
    try:
        try:
            image_handle = registry.allocate(image.shape, image.dtype)
            alpha_handle = registry.allocate(alpha_img.shape, alpha_img.dtype)
            blend_handle = registry.allocate((workers - 1, num_gaussians), np.float64)
            violation_handle = registry.allocate((workers - 1, num_gaussians), np.float64)
            # Only the current frame travels: a copy of the renderer without
            # its frame cache, plus the frame's tile rectangles and orders.
            shipped = copy.copy(renderer)
            shipped.frame_cache = FrameCache(capacity=0)
            package = ShmPackage.pack((shipped, camera, tile_bounds, orders), registry)
        except (
            SharedMemoryUnavailable,
            OSError,
            ValueError,
            TypeError,
            AttributeError,
            pickle.PickleError,
        ) as error:
            raise TileParallelUnavailable(f"shm publish failed: {error}") from error
        publish_s = time.perf_counter() - started

        futures = []
        failure: Optional[BaseException] = None
        try:
            pool = _tile_pool(workers - 1)
            for weight_row, run in enumerate(runs[1:]):
                futures.append(
                    pool.submit(
                        _render_run,
                        package,
                        image_handle,
                        alpha_handle,
                        blend_handle,
                        violation_handle,
                        weight_row,
                        run,
                    )
                )
        except _PROCESS_FAILURES as error:
            failure = error

        shared_image = image_handle.array(writable=True)
        shared_alpha = alpha_handle.array(writable=True)
        rendering_before = sum(stages.values())
        renderer._render_tiles(
            camera, tile_bounds, orders, runs[0], shared_image, shared_alpha, stats, stages
        )
        payloads = []
        for future in futures:
            try:
                payloads.append(future.result())
            except _PROCESS_FAILURES as error:
                failure = failure or error
        if failure is None:
            # Runs are contiguous tile ranges, so absorbing them in run
            # order keeps the sort lists in tile order.
            for payload in payloads:
                stats.absorb(row_to_stats(payload["row"], payload["sort_lengths"]))
            # Weight rows summed in run order: deterministic for a fixed
            # worker count, within 1e-9 of the serial accumulation.
            for blend_row, violation_row in zip(
                blend_handle.array(), violation_handle.array()
            ):
                stats.gaussian_blend_weight += blend_row
                stats.gaussian_violation_weight += violation_row
        else:
            # Nothing a failed pool wrote is kept: its runs render here,
            # over whatever pixels the workers left behind.
            _discard_tile_pool()
            for run in runs[1:]:
                renderer._render_tiles(
                    camera, tile_bounds, orders, run, shared_image, shared_alpha,
                    stats, stages,
                )
        image[...] = shared_image
        alpha_img[...] = shared_alpha
        rendering = sum(stages.values()) - rendering_before
        stages["dispatch"] = time.perf_counter() - started - rendering
        shm_stats = registry.stats()
        telemetry: Dict[str, object] = {
            "tile_mode": "process",
            "shm_segments": shm_stats["segments_created"],
            "shm_bytes": shm_stats["bytes_published"],
            "pickled_bytes": package.pickled_bytes,
            "publish_seconds": publish_s,
        }
        if failure is not None:
            telemetry["tile_mode"] = "serial"
            telemetry["tile_mode_degraded"] = (
                f"tile worker pool failed: {type(failure).__name__}: {failure}"
            )
        return telemetry
    finally:
        registry.close()
