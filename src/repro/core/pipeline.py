"""The memory-centric streaming renderer (Sec. III, Fig. 5).

For every pixel group (image tile) the renderer:

1. samples rays through the tile and builds the voxel ordering table
   (:mod:`repro.core.ray_voxel`);
2. establishes the global voxel rendering order with a topological sort of
   the per-ray dependency DAG (:mod:`repro.core.voxel_order`);
3. streams the ordered voxels one at a time: hierarchical filtering
   (:mod:`repro.core.hierarchical_filter`), per-voxel depth sort and
   alpha blending of *partial* pixel values that stay on-chip;
4. writes only the final pixel values back to DRAM.

Steps 1 and 2 are pure view geometry, so the renderer memoizes them per
camera pose in an engine :class:`~repro.engine.cache.FrameCache`; repeated
renders of the same view (benchmark sweeps, fine-tuning probes, batched
service requests) skip the traversal and topological sort entirely while
producing identical statistics.

The default path runs steps 3 and 4 for the whole frame at once rather
than tile by tile, in four stages whose wall times land in
``telemetry["stages_s"]``:

* ``prepare`` — steps 1 and 2 (or a frame-cache hit) plus every tile's
  ordering-table and DAG accounting;
* ``filter`` — :meth:`HierarchicalFilter.filter_voxel_batch` over every
  tile: one coarse projection of the model, one fine projection of the
  union of all tiles' coarse survivors, and the per-voxel depth sort;
* ``blend`` — :func:`~repro.engine.kernels.blend_streaming` over the
  stacked pixel columns of all tiles, in fixed column blocks;
* ``account`` — each tile's early-termination voxel prefix, its
  statistics, and the final pixel writes.

The voxel-at-a-time loop (``streaming_kernel="reference"``), blending
through :func:`~repro.engine.kernels.blend_reference`, is the oracle the
frame path is held to: statistics exactly equal, images within 1e-9.
Several processes can render disjoint runs of whole column blocks
(:mod:`repro.engine.tile_parallel`), cut by the blocks' measured cost:
``tile_workers`` asks for a count, and by default the renderer chooses
one.  The frame equals one process's bit for bit.

Besides the image, the renderer produces :class:`StreamingStats` — the
complete workload description (Gaussians streamed, filter pass rates, DRAM
bytes by category, per-voxel sort lengths, depth-order violations) that the
architecture model consumes.  Per-Gaussian blend/violation weights are held
in dense NumPy arrays indexed by model Gaussian id and accumulated in place
by the blending kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.vq import VectorQuantizer
from repro.core.config import StreamingConfig
from repro.core.data_layout import DataLayout, LayoutTraffic, render_model
from repro.core.hierarchical_filter import (
    FilterStats,
    FrameFilterResult,
    HierarchicalFilter,
)
from repro.core.ray_voxel import ordering_tables_for_tiles
from repro.core.voxel_grid import VoxelGrid
from repro.core.voxel_order import (
    topological_orders_for_tables,
    voxel_depth_values,
)
from repro.engine.cache import FrameCache, FramePreparation, frame_key
from repro.engine.kernels import (
    TRANSMITTANCE_EPSILON,
    StreamingBlend,
    blend_reference,
    blend_streaming,
    column_blocks,
    tile_columns,
)
from repro.engine.state import BlendState
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.tiles import TileGrid

#: Pixel rectangle ``(x0, y0, x1, y1)`` of one tile.
Bounds = Tuple[int, int, int, int]


@dataclass
class StreamingStats:
    """Per-frame workload statistics of the streaming pipeline."""

    num_tiles: int = 0
    num_tile_voxel_pairs: int = 0
    rays_sampled: int = 0
    ordering_table_entries: int = 0
    dag_edges: int = 0
    dag_nodes: int = 0
    cycles_broken: int = 0
    gaussians_streamed: int = 0
    filter: FilterStats = field(default_factory=FilterStats)
    traffic: LayoutTraffic = field(default_factory=LayoutTraffic)
    blended_fragments: int = 0
    sorted_gaussians: int = 0
    max_voxel_list_length: int = 0
    depth_order_errors: int = 0
    sort_list_lengths: List[int] = field(default_factory=list)
    #: (N,) per-Gaussian blended weight and out-of-order blended weight
    #: (indexed by model Gaussian id) — the data Fig. 7's "error Gaussian
    #: ratio" and the boundary-aware fine-tuning target selection are
    #: computed from.  Allocated by the renderer and accumulated in place
    #: by the blending kernels (no per-voxel copying); ``None`` on a tile
    #: worker's record, whose additions travel as logs instead.
    gaussian_blend_weight: Optional[np.ndarray] = None
    gaussian_violation_weight: Optional[np.ndarray] = None

    #: Fraction of a Gaussian's blended weight that must be out of order for
    #: the Gaussian to count as an "error Gaussian" (T_i = 1).
    ERROR_WEIGHT_THRESHOLD = 0.05

    def absorb(self, tile: "StreamingStats") -> None:
        """Accumulate another record's statistics into this one.

        Used by the process-parallel path: every worker renders a run of
        tiles into a private :class:`StreamingStats` and the frame absorbs
        the runs in tile order, so the result does not depend on worker
        scheduling.  All integer fields are exact sums and sort lists are
        appended; per-Gaussian weights are not absorbed (a worker returns
        them as logs, which the frame replays).
        """
        self.num_tile_voxel_pairs += tile.num_tile_voxel_pairs
        self.rays_sampled += tile.rays_sampled
        self.ordering_table_entries += tile.ordering_table_entries
        self.dag_edges += tile.dag_edges
        self.dag_nodes += tile.dag_nodes
        self.cycles_broken += tile.cycles_broken
        self.gaussians_streamed += tile.gaussians_streamed
        self.filter = self.filter.merge(tile.filter)
        self.traffic = self.traffic.merge(tile.traffic)
        self.blended_fragments += tile.blended_fragments
        self.sorted_gaussians += tile.sorted_gaussians
        self.max_voxel_list_length = max(
            self.max_voxel_list_length, tile.max_voxel_list_length
        )
        self.depth_order_errors += tile.depth_order_errors
        self.sort_list_lengths.extend(tile.sort_list_lengths)

    @property
    def mean_voxels_per_tile(self) -> float:
        if self.num_tiles == 0:
            return 0.0
        return self.num_tile_voxel_pairs / self.num_tiles

    def error_gaussian_indices(
        self, threshold: float = ERROR_WEIGHT_THRESHOLD
    ) -> np.ndarray:
        """Model indices of Gaussians rendered significantly out of depth order.

        A Gaussian is flagged (``T_i = 1`` in Eq. 2) when more than
        ``threshold`` of its total blended weight was contributed to pixels
        that had already blended a deeper Gaussian.
        """
        if self.gaussian_violation_weight is None:
            return np.array([], dtype=np.int64)
        total = self.gaussian_blend_weight
        violation = self.gaussian_violation_weight
        flagged = (total > 0.0) & (violation > threshold * total)
        return np.flatnonzero(flagged).astype(np.int64)

    @property
    def rendered_gaussian_count(self) -> int:
        """Number of distinct Gaussians that contributed to the frame."""
        if self.gaussian_blend_weight is None:
            return 0
        return int(np.count_nonzero(self.gaussian_blend_weight > 0.0))

    @property
    def error_gaussian_ratio(self) -> float:
        """Fraction of contributing Gaussians rendered out of depth order.

        The quantity plotted in Fig. 7 (the paper reports 2.3 % before and
        0.4 % after boundary-aware fine-tuning).
        """
        rendered = self.rendered_gaussian_count
        if rendered == 0:
            return 0.0
        return len(self.error_gaussian_indices()) / rendered

    @property
    def filtering_reduction(self) -> float:
        """Fraction of streamed Gaussians removed by hierarchical filtering."""
        return self.filter.overall_reduction


@dataclass
class StreamingRenderOutput:
    """Image plus streaming workload statistics.

    ``telemetry`` carries per-frame execution metadata — deliberately
    outside :class:`StreamingStats` so workload statistics stay comparable
    across render paths: ``path`` (``"frame"`` or ``"reference"``),
    ``tile_workers`` (the process count used; ``tile_auto`` says why when
    the renderer chose it), ``tiles``, ``tile_mode``
    (``"serial"`` or ``"process"``, plus ``tile_mode_degraded`` with the
    reason when processes could not be used; process frames add the cut,
    ``tile_cut`` and ``tile_cut_source``, ``waited_s``, ``shipped_bytes``,
    ``ship_s`` and each tile worker's telemetry in ``workers``, see
    :mod:`repro.engine.tile_parallel`), ``stages_s``
    (wall seconds per stage of this process, see the module docstring),
    ``seconds`` and, on the frame
    path, ``blend_pairs``: the (Gaussian, pixel) pairs the tiles' streams
    ``offered`` the blend and the pairs it ``kept`` after footprint
    culling (see :func:`~repro.engine.kernels.blend_streaming`).
    """

    image: np.ndarray
    alpha: np.ndarray
    stats: StreamingStats
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def height(self) -> int:
        return int(self.image.shape[0])

    @property
    def width(self) -> int:
        return int(self.image.shape[1])


class StreamingRenderer:
    """Voxel-by-voxel memory-centric renderer.

    Parameters
    ----------
    model:
        The trained (and optionally boundary-fine-tuned) Gaussian model.
    config:
        Streaming configuration; ``StreamingConfig()`` by default.  Selects
        the render path (``config.streaming_kernel``) and the size of the
        frame-preparation cache (``config.frame_cache_size``).
    quantizer:
        Optional pre-fitted :class:`VectorQuantizer`.  When ``config.use_vq``
        is True and no quantizer is given, one is fitted on ``model``, and
        the render model decodes the fit's own encoding of ``model``
        (:meth:`VectorQuantizer.fit_encode`) instead of encoding it again.
    """

    def __init__(
        self,
        model: GaussianModel,
        config: Optional[StreamingConfig] = None,
        quantizer: Optional[VectorQuantizer] = None,
    ) -> None:
        if len(model) == 0:
            raise ValueError("cannot build a streaming renderer over an empty model")
        self.config = config or StreamingConfig()
        self.source_model = model
        self.grid = VoxelGrid.build(model, self.config.voxel_size)
        quantized = None
        if self.config.use_vq and quantizer is None:
            quantizer = VectorQuantizer(seed=0)
            quantized = quantizer.fit_encode(model)
        self.quantizer = quantizer
        self.layout = DataLayout(
            grid=self.grid, quantizer=self.quantizer, use_vq=self.config.use_vq
        )
        self.render_model = render_model(model, self.layout, quantized)
        self.filter = HierarchicalFilter(
            use_coarse_filter=self.config.use_coarse_filter,
            sh_degree=self.config.sh_degree,
        )
        self.background = np.asarray(self.config.background, dtype=np.float64)
        self.frame_cache = FrameCache(capacity=self.config.frame_cache_size)

    # ------------------------------------------------------------------
    def prepare_frame(
        self, camera: Camera, tiles: Optional[Tuple[int, int]] = None
    ) -> FramePreparation:
        """View geometry of one camera pose, memoized in the frame cache.

        Builds (or reuses) the per-voxel depth map, the per-tile voxel
        ordering tables and the topologically sorted global voxel orders
        of the tiles ``tiles = (lo, hi)`` — every tile by default — in one
        batched pass over the tiles (:func:`ordering_tables_for_tiles`,
        :func:`topological_orders_for_tables`).  A tile's table and order
        depend only on its own rays, so the preparation of a run of tiles
        is the whole frame's restricted to the run, and a process-parallel
        frame keeps a recent pose's cut so its runs are found again.  The
        preparation depends only on the voxel grid and the camera, never
        on the Gaussian parameters, so it is safe to share across renders.
        """
        config = self.config
        tile_grid = TileGrid(camera.width, camera.height, config.tile_size)
        lo, hi = tiles or (0, tile_grid.num_tiles)
        key = frame_key(
            camera,
            tile_size=config.tile_size,
            ray_stride=config.ray_stride,
            max_voxels_per_ray=config.max_voxels_per_ray,
            tiles=None if (lo, hi) == (0, tile_grid.num_tiles) else (lo, hi),
        )
        cached = self.frame_cache.get(key)
        if cached is not None:
            return cached
        depth_map = voxel_depth_values(self.grid, camera)
        tile_bounds = {
            tile_id: tile_grid.tile_pixel_bounds(tile_id) for tile_id in range(lo, hi)
        }
        tables = ordering_tables_for_tiles(
            self.grid,
            camera,
            tile_bounds,
            ray_stride=config.ray_stride,
            max_voxels_per_ray=config.max_voxels_per_ray,
        )
        orders = topological_orders_for_tables(tables, voxel_depths=depth_map)
        preparation = FramePreparation(
            depth_map=depth_map, tile_tables=tables, tile_orders=orders
        )
        self.frame_cache.put(key, preparation)
        return preparation

    # ------------------------------------------------------------------
    @property
    def frame_path(self) -> bool:
        """Whether frames render through the frame path (else the oracle)."""
        return self.config.streaming_kernel == "vectorized"

    def render(
        self, camera: Camera, tile_workers: Optional[int] = None
    ) -> StreamingRenderOutput:
        """Render one frame.

        Parameters
        ----------
        camera:
            The rendering camera.
        tile_workers:
            Processes rendering disjoint runs of whole column blocks
            concurrently: this one and ``tile_workers - 1`` warm tile
            workers (:mod:`repro.engine.tile_parallel`), capped by the
            frame's block count; ``1`` renders the frame in this process.
            ``None`` (default) lets
            :func:`~repro.engine.tile_parallel.auto_tile_workers` choose
            (``telemetry["tile_auto"]`` says why): one process per CPU for
            large frames of a renderer used before, one process otherwise.
            The image, alpha and statistics are bit-identical for any
            worker count.  What a tile worker cannot render (daemonic
            caller, a worker that died) renders in this process, and
            ``telemetry["tile_mode_degraded"]`` records why.
        """
        if tile_workers is not None and tile_workers < 1:
            raise ValueError(f"tile_workers must be >= 1, got {tile_workers}")
        started = time.perf_counter()
        tile_grid = TileGrid(camera.width, camera.height, self.config.tile_size)
        image = np.zeros((camera.height, camera.width, 3), dtype=np.float64)
        alpha_img = np.zeros((camera.height, camera.width), dtype=np.float64)
        stats = StreamingStats(
            num_tiles=tile_grid.num_tiles,
            gaussian_blend_weight=np.zeros(len(self.source_model)),
            gaussian_violation_weight=np.zeros(len(self.source_model)),
        )
        tile_bounds = [
            tile_grid.tile_pixel_bounds(tile_id) for tile_id in range(tile_grid.num_tiles)
        ]
        blocks = column_blocks([(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in tile_bounds])
        stages: Dict[str, float] = {"prepare": time.perf_counter() - started}
        pairs = {"offered": 0, "kept": 0}
        from repro.engine.tile_parallel import render_tiles

        parallel = render_tiles(
            self, camera, tile_bounds, blocks, tile_workers,
            image, alpha_img, stats, stages, pairs,
        )

        # Final pixel writes are the only off-chip writes of the pipeline.
        stats.traffic = stats.traffic.merge(
            DataLayout.pixel_write_traffic(camera.num_pixels)
        )
        return StreamingRenderOutput(
            image=np.clip(image, 0.0, 1.0),
            alpha=alpha_img,
            stats=stats,
            telemetry={
                "path": "frame" if self.frame_path else "reference",
                "tile_workers": parallel.pop("tile_workers"),
                "tiles": tile_grid.num_tiles,
                **parallel,
                "stages_s": stages,
                **({"blend_pairs": pairs} if self.frame_path else {}),
                "seconds": time.perf_counter() - started,
            },
        )

    def _render_run(
        self,
        camera: Camera,
        tile_bounds: Sequence[Bounds],
        blocks: np.ndarray,
        image: np.ndarray,
        alpha_img: np.ndarray,
        stats: StreamingStats,
        stages: Dict[str, float],
        pairs: Dict[str, int],
    ) -> np.ndarray:
        """Prepare, render and account the tiles of a run of whole column blocks.

        The run's tiles ``blocks[0]:blocks[-1]`` are prepared on their own
        (:meth:`prepare_frame` with ``tiles``), their ordering-table and
        DAG headers accounted, and rendered by :meth:`_render_tiles`; the
        preparation's wall time is added to ``stages["prepare"]``.

        Returns the run's measured cost per block, in seconds: each
        block's own blend time plus the run's other time (prepare, filter,
        account) spread evenly over its blocks.  A process-parallel frame
        cuts the next frame's runs by these costs.
        """
        clock = time.perf_counter
        started = clock()
        preparation = self.prepare_frame(camera, (int(blocks[0]), int(blocks[-1])))
        orders = self._tile_headers(preparation, stats)
        stages["prepare"] = stages.get("prepare", 0.0) + clock() - started
        costs = self._render_tiles(
            camera, tile_bounds, orders, blocks, image, alpha_img, stats, stages, pairs
        )
        return costs + (clock() - started - costs.sum()) / len(costs)

    def _tile_headers(
        self, preparation: FramePreparation, stats: StreamingStats
    ) -> List[np.ndarray]:
        """Record the ordering-table/DAG accounting of the prepared tiles.

        Returns the tiles' voxel orders (the streams both render paths
        walk), in tile order.
        """
        orders: List[np.ndarray] = []
        entries = 0
        for tile_id, table in preparation.tile_tables.items():
            stats.rays_sampled += table.rays_sampled
            entries += table.total_entries
            order_result = preparation.tile_orders[tile_id]
            stats.dag_edges += order_result.num_edges
            stats.dag_nodes += order_result.num_nodes
            stats.cycles_broken += order_result.cycles_broken
            orders.append(np.asarray(order_result.order, dtype=np.int64))
        stats.ordering_table_entries += entries
        stats.traffic = stats.traffic.merge(DataLayout.ordering_metadata_traffic(entries))
        return orders

    def _render_tiles(
        self,
        camera: Camera,
        tile_bounds: Sequence[Bounds],
        orders: Sequence[np.ndarray],
        blocks: np.ndarray,
        image: np.ndarray,
        alpha_img: np.ndarray,
        stats: StreamingStats,
        stages: Dict[str, float],
        pairs: Dict[str, int],
    ) -> np.ndarray:
        """Render the tiles of a run of whole column blocks.

        ``blocks`` holds tile offsets (see
        :func:`~repro.engine.kernels.column_blocks`) and ``orders`` the
        voxel orders of the run's tiles; the tiles ``blocks[0]:blocks[-1]``
        are rendered into ``image`` / ``alpha_img`` and accounted into
        ``stats`` (their headers already are), each stage's wall time is
        added to ``stages``, and the frame path adds the (Gaussian, pixel)
        pairs its blend was offered and kept to ``pairs``.  Returns the
        blend's seconds per block (zeros on the reference path, which
        blends tile by tile).
        """
        clock = time.perf_counter
        lo, hi = int(blocks[0]), int(blocks[-1])
        if not self.frame_path:
            started = clock()
            for tile_id in range(lo, hi):
                self._render_tile_reference(
                    camera, tile_bounds[tile_id], orders[tile_id - lo],
                    image, alpha_img, stats,
                )
            stages["reference"] = stages.get("reference", 0.0) + clock() - started
            return np.zeros(len(blocks) - 1)

        started = clock()
        bounds = tile_bounds[lo:hi]
        filtered = self.filter.filter_voxel_batch(
            self.render_model, self.grid, orders, bounds, camera
        )
        filtered_at = clock()
        xs, ys, column_offsets = tile_columns(bounds)
        blend = blend_streaming(
            xs,
            ys,
            column_offsets,
            filtered.projected,
            filtered.stream_rows,
            filtered.stream_offsets,
            blocks - lo,
            filtered.union,
            stats.gaussian_blend_weight,
            stats.gaussian_violation_weight,
        )
        blended_at = clock()
        pairs["offered"] += blend.pairs_offered
        pairs["kept"] += blend.pairs_kept
        self._account(filtered, blend, column_offsets, stats)
        final = blend.color + blend.transmittance[:, None] * self.background[None, :]
        image[ys, xs] = final
        alpha_img[ys, xs] = 1.0 - blend.transmittance
        for stage, seconds in (
            ("filter", filtered_at - started),
            ("blend", blended_at - filtered_at),
            ("account", clock() - blended_at),
        ):
            stages[stage] = stages.get(stage, 0.0) + seconds
        return blend.block_seconds

    def _account(
        self,
        filtered: FrameFilterResult,
        blend: StreamingBlend,
        column_offsets: np.ndarray,
        stats: StreamingStats,
    ) -> None:
        """Accumulate the statistics of the voxels the reference loop streams.

        The reference loop stops a tile after the first voxel whose blend
        saturates every pixel; voxels past that point contribute nothing to
        the blend (their contribution gate is closed), so only the
        accounting has to be truncated to each tile's voxel prefix.
        """
        voxel_offsets = filtered.voxel_offsets
        order_lens = np.diff(voxel_offsets)
        processed = order_lens.copy()
        last_saturation = np.maximum.reduceat(blend.saturation, column_offsets[:-1])
        stopped = np.flatnonzero(last_saturation < np.diff(filtered.stream_offsets))
        if len(stopped):
            # A tile's survivors are contiguous in slot order, so the voxel
            # holding its last saturating survivor is found among the
            # frame-wide cumulative survivor counts.
            slot = np.searchsorted(
                np.cumsum(filtered.fine_passed),
                filtered.stream_offsets[stopped] + last_saturation[stopped],
                side="right",
            )
            processed[stopped] = slot - voxel_offsets[stopped] + 1
        position = np.arange(len(filtered.voxels)) - np.repeat(voxel_offsets[:-1], order_lens)
        streamed = position < np.repeat(processed, order_lens)

        stats.num_tile_voxel_pairs += int(processed.sum())
        stats.gaussians_streamed += int(filtered.gaussians_in[streamed].sum())
        stats.filter = stats.filter.merge(filtered.stats_of(streamed))
        coarse_passed = (
            filtered.coarse_passed
            if self.config.use_coarse_filter
            else filtered.gaussians_in
        )
        stats.traffic = stats.traffic.merge(
            self.layout.voxel_stream_traffic_batch(
                filtered.voxels[streamed], coarse_passed[streamed]
            )
        )
        survivors = filtered.fine_passed[streamed]
        survivors = survivors[survivors > 0]
        stats.sorted_gaussians += int(survivors.sum())
        stats.sort_list_lengths.extend(survivors.tolist())
        if len(survivors):
            stats.max_voxel_list_length = max(
                stats.max_voxel_list_length, int(survivors.max())
            )
        stats.blended_fragments += int(blend.fragments.sum())
        stats.depth_order_errors += int(blend.violations.sum())

    def _render_tile_reference(
        self,
        camera: Camera,
        bounds: Bounds,
        order: np.ndarray,
        image: np.ndarray,
        alpha_img: np.ndarray,
        stats: StreamingStats,
    ) -> None:
        """Render one pixel group voxel by voxel (the reference loop)."""
        x0, y0, x1, y1 = bounds
        if len(order) == 0:
            image[y0:y1, x0:x1] = self.background
            return

        xs, ys = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
        xs = xs.reshape(-1)
        ys = ys.reshape(-1)
        state = BlendState.fresh(len(xs))

        for voxel_id in order:
            voxel_indices = self.grid.gaussians_in_voxel(voxel_id)
            stats.num_tile_voxel_pairs += 1
            stats.gaussians_streamed += len(voxel_indices)

            result = self.filter.filter_voxel(
                self.render_model, voxel_indices, camera, bounds
            )
            stats.filter = stats.filter.merge(result.stats)
            coarse_passed = (
                result.stats.coarse_passed
                if self.config.use_coarse_filter
                else len(voxel_indices)
            )
            stats.traffic = stats.traffic.merge(
                self.layout.voxel_stream_traffic(voxel_id, coarse_passed)
            )
            if len(result.indices) == 0:
                continue

            # Per-voxel depth sort (the simplified bitonic sorting unit).
            depth_order = np.argsort(result.projected.depths, kind="stable")
            stats.sorted_gaussians += len(depth_order)
            stats.sort_list_lengths.append(len(depth_order))
            stats.max_voxel_list_length = max(
                stats.max_voxel_list_length, len(depth_order)
            )

            fragments_before = state.blended_fragments
            # Per-Gaussian attribution (keyed by model id) accumulates
            # directly in the frame-level statistics arrays.
            state = blend_reference(
                xs,
                ys,
                result.projected,
                depth_order,
                state,
                np.asarray(result.indices, dtype=np.int64),
                stats.gaussian_blend_weight,
                stats.gaussian_violation_weight,
            )
            stats.blended_fragments += state.blended_fragments - fragments_before
            if not np.any(state.transmittance > TRANSMITTANCE_EPSILON):
                break

        stats.depth_order_errors += state.depth_violations
        final = state.color + state.transmittance[:, None] * self.background[None, :]
        h, w = y1 - y0, x1 - x0
        image[y0:y1, x0:x1] = final.reshape(h, w, 3)
        alpha_img[y0:y1, x0:x1] = (1.0 - state.transmittance).reshape(h, w)
