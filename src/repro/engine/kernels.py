"""The alpha-blending kernels both renderers share.

* :func:`blend_reference` — the per-Gaussian reference loop (vectorised over
  the pixels of a tile, sequential over the depth-sorted Gaussian list), a
  direct transcription of the reference 3DGS blending recurrence and the
  oracle every faster path is held to;
* :func:`blend_streaming` — the vectorized blend: the same recurrence run
  over the stacked pixel columns of many tiles (:func:`tile_columns`), each
  column blending its own tile's stream, in column blocks of
  :data:`STREAM_BLOCK_COLUMNS`.  The streaming renderer's streams are its
  tiles' filtered voxel streams, the tile-centric rasterizer's its tiles'
  depth-sorted Gaussian lists.  Besides colour and transmittance it
  reports, per pixel, the stream position at which the pixel saturated, so
  the streaming pipeline can reproduce the reference loop's voxel-granular
  early termination in its statistics.

Per column, :func:`blend_streaming` is :func:`blend_reference`'s
arithmetic: the same Gaussian exponent, alpha, contribution gates and
transmittance chain, so every transmittance, saturation position and
integer count is bit-identical.  Only the summation order of colours and
per-Gaussian weights differs, which the 1e-9 tolerances cover.

Renderers choose between the two by a path name from
:data:`RENDER_PATHS`, checked by :func:`check_render_path`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.engine.state import BlendState
from repro.gaussians.projection import ProjectedGaussians

#: Alpha-blending terminates a pixel once its transmittance drops below this.
TRANSMITTANCE_EPSILON = 1e-4

#: Contributions with alpha below this are skipped (matches reference impl).
ALPHA_EPSILON = 1.0 / 255.0

#: Alpha is clamped to this maximum to keep blending stable.
ALPHA_MAX = 0.99

#: Depth slack below which an out-of-order contribution is not counted.
DEPTH_VIOLATION_EPSILON = 1e-9

#: Minimum Gaussians (rows) per chunk of the streaming blend.
STREAM_CHUNK_ROWS = 32

#: Element budget (chunk rows x active pixel columns) of one streaming-blend
#: chunk: chunks start at :data:`STREAM_CHUNK_ROWS` rows and grow as pixel
#: columns saturate and drop out of the active set.
STREAM_CHUNK_ELEMENTS = 1 << 14

#: Pixel columns per streaming-blend block.  The blend walks whole tiles
#: grouped into blocks of at most this many columns, so its chunk
#: temporaries and stream matrix stay one block's worth however large the
#: frame is; larger blocks cost peak memory without making frames faster.
STREAM_BLOCK_COLUMNS = 512

#: Render paths: ``"vectorized"`` blends through :func:`blend_streaming`,
#: ``"reference"`` through the :func:`blend_reference` oracle loop.
RENDER_PATHS = ("reference", "vectorized")


def check_render_path(name: str, knob: str) -> str:
    """``name`` if it is one of :data:`RENDER_PATHS`, else ``ValueError``.

    ``knob`` names the argument in the message.
    """
    if name not in RENDER_PATHS:
        raise ValueError(f"unknown {knob} {name!r}; available: {list(RENDER_PATHS)}")
    return name


def tile_columns(
    bounds: Sequence[Tuple[int, int, int, int]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked pixel coordinates of many tiles, tile after tile.

    ``bounds`` holds each tile's pixel rectangle ``(x0, y0, x1, y1)``.
    Returns ``(xs, ys, column_offsets)``: each tile's pixels in row-major
    order, and the first column of each tile followed by the column count.
    """
    x0, y0, x1, y1 = np.asarray(bounds, dtype=np.int64).reshape(-1, 4).T
    widths = x1 - x0
    counts = widths * (y1 - y0)
    column_offsets = np.concatenate(([0], np.cumsum(counts)))
    local = np.arange(column_offsets[-1]) - np.repeat(column_offsets[:-1], counts)
    width = np.repeat(widths, counts)
    return (
        np.repeat(x0, counts) + local % width,
        np.repeat(y0, counts) + local // width,
        column_offsets,
    )


def _tracking_size(
    projected: ProjectedGaussians, model_indices: Optional[np.ndarray]
) -> int:
    if model_indices is None:
        return len(projected)
    return int(np.max(model_indices)) + 1 if len(model_indices) else 0


def blend_reference(
    pixel_x: np.ndarray,
    pixel_y: np.ndarray,
    projected: ProjectedGaussians,
    sorted_indices: np.ndarray,
    state: BlendState,
    model_indices: Optional[np.ndarray] = None,
    track_depth_order: bool = False,
) -> BlendState:
    """Per-Gaussian reference blending loop (front to back)."""
    if track_depth_order:
        state.ensure_weight_arrays(_tracking_size(projected, model_indices))
    px = pixel_x.astype(np.float64) + 0.5
    py = pixel_y.astype(np.float64) + 0.5
    for gid in sorted_indices:
        if not projected.valid[gid]:
            continue
        active = state.transmittance > TRANSMITTANCE_EPSILON
        if not np.any(active):
            break
        dx = px - projected.means2d[gid, 0]
        dy = py - projected.means2d[gid, 1]
        a, b, c = projected.conics[gid]
        power = -0.5 * (a * (dx * dx) + c * (dy * dy)) - b * (dx * dy)
        alpha = projected.opacities[gid] * np.exp(np.minimum(power, 0.0))
        alpha = np.minimum(alpha, ALPHA_MAX)
        contributes = active & (alpha > ALPHA_EPSILON) & (power <= 0.0)
        if not np.any(contributes):
            continue
        weight = np.where(contributes, alpha * state.transmittance, 0.0)
        state.color += weight[:, None] * projected.colors[gid][None, :]
        state.transmittance = np.where(
            contributes, state.transmittance * (1.0 - alpha), state.transmittance
        )
        state.blended_fragments += int(np.count_nonzero(contributes))
        if track_depth_order:
            depth = float(projected.depths[gid])
            violated = contributes & (
                state.max_depth > depth + DEPTH_VIOLATION_EPSILON
            )
            state.depth_violations += int(np.count_nonzero(violated))
            key = int(gid) if model_indices is None else int(model_indices[gid])
            state.gaussian_weights[key] += float(weight.sum())
            if np.any(violated):
                state.gaussian_violation_weights[key] += float(weight[violated].sum())
            state.max_depth = np.where(
                contributes, np.maximum(state.max_depth, depth), state.max_depth
            )
    return state


def column_blocks(pixel_counts: np.ndarray) -> np.ndarray:
    """Tile offsets of the streaming blend's column blocks.

    Consecutive tiles are grouped greedily into blocks of at most
    :data:`STREAM_BLOCK_COLUMNS` pixel columns (a larger tile is a block of
    its own).  Returns ``(B + 1,)`` offsets: block ``b`` holds tiles
    ``offsets[b]:offsets[b + 1]``.  The blocks depend on the tiles' pixel
    counts only, so any split of a frame into runs of whole blocks blends
    every block, and therefore every pixel, bit for bit alike.
    """
    offsets = [0]
    columns = 0
    for tile, count in enumerate(np.asarray(pixel_counts, dtype=np.int64)):
        if tile > offsets[-1] and columns + count > STREAM_BLOCK_COLUMNS:
            offsets.append(tile)
            columns = 0
        columns += int(count)
    offsets.append(len(pixel_counts))
    return np.asarray(offsets, dtype=np.int64)


@dataclass
class StreamingBlend:
    """Per-column and per-tile outcome of :func:`blend_streaming`."""

    #: (P,) accumulated premultiplied colour per stacked pixel column.
    color: np.ndarray
    #: (P,) remaining transmittance per column.
    transmittance: np.ndarray
    #: (P,) position, in its tile's stream, of the Gaussian whose blend
    #: saturated the column; the stream length when it never saturated.
    saturation: np.ndarray
    #: (T,) contributing (Gaussian, pixel) pairs per tile.
    fragments: np.ndarray
    #: (T,) contributions that arrived out of depth order, per tile.
    violations: np.ndarray


def blend_streaming(
    pixel_x: np.ndarray,
    pixel_y: np.ndarray,
    column_offsets: np.ndarray,
    projected: ProjectedGaussians,
    stream_rows: np.ndarray,
    stream_offsets: np.ndarray,
    block_offsets: np.ndarray,
    model_indices: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
    violation_weights: Optional[np.ndarray] = None,
) -> StreamingBlend:
    """Blend many tiles' streams over their stacked pixel columns.

    Tile ``t`` owns columns ``column_offsets[t]:column_offsets[t + 1]`` of
    ``pixel_x`` / ``pixel_y`` and blends, front to back, the rows
    ``stream_rows[stream_offsets[t]:stream_offsets[t + 1]]`` of
    ``projected`` (every row valid; an empty stream leaves the tile's
    columns untouched).  Tiles are blended in the column blocks
    ``block_offsets`` (see :func:`column_blocks`), each block through one
    chunk loop over its stacked columns.

    With ``model_indices``, contributions that arrive out of depth order
    are counted per tile, and per-Gaussian blended and out-of-order weights
    are added in place into ``weights`` / ``violation_weights`` at
    ``model_indices[row]``.  Without it neither is tracked (a depth-sorted
    stream has no out-of-order contributions) and ``violations`` is zero.

    Transmittance comes from one cumulative product per chunk, seeded with
    the incoming transmittance.  The transmittance chain, the contribution
    gates, the saturation positions and every integer count are
    bit-identical under any chunking of the stream: non-contributing
    factors are exactly 1.0, and because transmittance never increases,
    the early-termination gate reads the same on the ungated product.
    Only the accumulation order of colours and per-Gaussian weights
    depends on the chunking, which itself depends on a block's own tiles
    only.
    """
    num_tiles = len(column_offsets) - 1
    num_columns = int(column_offsets[-1])
    stream_lens = np.diff(stream_offsets)
    col_tile = np.repeat(np.arange(num_tiles), np.diff(column_offsets))
    px = pixel_x.astype(np.float64) + 0.5
    py = pixel_y.astype(np.float64) + 0.5
    transmittance = np.ones(num_columns, dtype=np.float64)
    color = np.zeros((num_columns, 3), dtype=np.float64)
    saturation = stream_lens[col_tile].astype(np.int64)
    fragments = np.zeros(num_tiles, dtype=np.int64)
    violations = np.zeros(num_tiles, dtype=np.int64)
    track = model_indices is not None

    # One row per Gaussian parameter (mean x, mean y, conic a, b, c,
    # opacity), so a chunk gathers all six in one take, padded with one
    # sentinel column whose zero opacity, conic and mean make it an exact
    # no-op (alpha 0, factor exactly 1.0).
    sentinel = len(projected)
    params = np.zeros((6, sentinel + 1), dtype=np.float64)
    params[0:2, :sentinel] = projected.means2d.T
    params[2:5, :sentinel] = projected.conics.T
    params[5, :sentinel] = projected.opacities
    colors = np.vstack([projected.colors, np.zeros((1, 3))])
    if track:
        max_depth = np.full(num_columns, -np.inf, dtype=np.float64)
        depths = np.append(projected.depths.astype(np.float64), 0.0)
        # Pad rows attribute exactly 0.0 to model id 0, a no-op.
        keys = np.append(np.asarray(model_indices, dtype=np.int64), 0)

    for lo, hi in zip(block_offsets[:-1], block_offsets[1:]):
        lens = stream_lens[lo:hi]
        max_len = int(lens.max()) if hi > lo else 0
        if max_len == 0:
            continue
        # Column j of the block's stream matrix holds tile lo + j's stream,
        # sentinel-padded past its end; row-major chunks (chunk rows x
        # active columns) keep every accumulate/cumprod step one
        # contiguous vectorized row operation.
        first = stream_offsets[lo]
        block_tile = np.repeat(np.arange(hi - lo), lens)
        position = np.arange(stream_offsets[hi] - first) - (
            stream_offsets[lo:hi] - first
        ).repeat(lens)
        matrix = np.full((max_len, hi - lo), sentinel, dtype=np.int64)
        matrix[position, block_tile] = stream_rows[first : stream_offsets[hi]]

        c0, c1 = column_offsets[lo], column_offsets[hi]
        tile_of = col_tile[c0:c1] - lo
        col_px, col_py = px[c0:c1], py[c0:c1]
        col_t, col_color = transmittance[c0:c1], color[c0:c1]
        col_saturation = saturation[c0:c1]
        if track:
            col_depth = max_depth[c0:c1]
        start = 0
        while start < max_len:
            active = np.flatnonzero(
                (col_t > TRANSMITTANCE_EPSILON) & (lens[tile_of] > start)
            )
            if len(active) == 0:
                break
            # Columns are tile-major, so each present tile's active columns
            # are one contiguous run: segment reductions (reduceat) recover
            # per-tile sums.
            per_tile = np.bincount(tile_of[active], minlength=hi - lo)
            present = np.flatnonzero(per_tile)
            runs = per_tile[present]
            boundaries = np.cumsum(runs) - runs
            # Chunks grow as columns saturate (amortising the per-chunk call
            # overhead over the long-stream tail) and the last chunk shrinks
            # to the longest remaining stream so finished tiles do not pay
            # for sentinel rows.
            rows_k = max(STREAM_CHUNK_ROWS, STREAM_CHUNK_ELEMENTS // len(active))
            rows_k = int(min(rows_k, lens[present].max() - start))
            stop = start + rows_k

            # Every column of a tile shares the tile's stream, so Gaussian
            # parameters vary per (chunk row, tile) only: gather them per
            # present tile, then repeat each over the tile's column run.
            chunk = matrix[start:stop].take(present, axis=1)
            mean_x, mean_y, conic_a, conic_b, conic_c, opacity = params.take(
                chunk, axis=1
            ).repeat(runs, axis=2)

            transmittance_in = col_t[active]
            dx = col_px[active] - mean_x
            dy = col_py[active] - mean_y
            power = conic_a
            power *= dx * dx
            power += conic_c * (dy * dy)
            power *= -0.5
            dx *= dy
            dx *= conic_b
            power -= dx

            # Alpha is kept (times 1.0) only where the exponent is not
            # positive and alpha exceeds the epsilon, else zeroed (times 0.0).
            keep = power <= 0.0
            np.minimum(power, 0.0, out=power)
            a = np.exp(power, out=power)
            a *= opacity
            np.minimum(a, ALPHA_MAX, out=a)
            keep &= a > ALPHA_EPSILON
            a *= keep

            factors = 1.0 - a
            factors[0] *= transmittance_in
            running = np.empty((rows_k + 1, len(active)), dtype=np.float64)
            running[0] = transmittance_in
            np.cumprod(factors, axis=0, out=running[1:])
            contributes = (a > 0.0) & (running[:-1] > TRANSMITTANCE_EPSILON)
            # Zero the weights past saturation; a product of non-negative
            # finite factors is kept exactly by 1.0 and zeroed by 0.0.
            weight = a * running[:-1]
            weight *= contributes

            # Colour as one small matmul per present tile: the colour block
            # varies per (chunk row, tile) only, so the per-column weighted
            # sum is (columns x rows) @ (rows x 3).
            ends = boundaries + runs
            for i in range(len(present)):
                cs, ce = boundaries[i], ends[i]
                col_color[active[cs:ce]] += weight[:, cs:ce].T @ colors[chunk[:, i]]

            counts = np.count_nonzero(contributes, axis=0)
            fragments[lo + present] += np.add.reduceat(counts, boundaries)

            if track:
                chunk_depths = depths.take(chunk).repeat(runs, axis=1)
                prior_max = np.empty((rows_k + 1, len(active)), dtype=np.float64)
                prior_max[0] = col_depth[active]
                prior_max[1:] = np.where(contributes, chunk_depths, -np.inf)
                np.maximum.accumulate(prior_max, axis=0, out=prior_max)
                violated = contributes & (
                    prior_max[:-1] > chunk_depths + DEPTH_VIOLATION_EPSILON
                )
                col_depth[active] = prior_max[-1]

                # Per-(chunk row, tile) weight sums scattered into the
                # per-Gaussian attribution arrays.
                chunk_keys = keys.take(chunk)
                np.add.at(
                    weights, chunk_keys, np.add.reduceat(weight, boundaries, axis=1)
                )
                if violated.any():
                    violations[lo + present] += np.add.reduceat(
                        np.count_nonzero(violated, axis=0), boundaries
                    )
                    np.add.at(
                        violation_weights,
                        chunk_keys,
                        np.add.reduceat(
                            np.where(violated, weight, 0.0), boundaries, axis=1
                        ),
                    )

            # The running product is non-increasing (factors lie in [0, 1]),
            # so a column saturated in this chunk iff its final value is at
            # or below the epsilon; only those columns pay for the scan.
            saturated = running[-1] <= TRANSMITTANCE_EPSILON
            if saturated.any():
                hit = np.flatnonzero(saturated)
                first_row = np.argmax(running[1:, hit] <= TRANSMITTANCE_EPSILON, axis=0)
                col_saturation[active[hit]] = start + first_row

            # Transmittance after the column's last contributing row (by
            # monotonicity the minimum the reference recurrence reaches);
            # columns without a contribution keep their incoming value.
            last_row = rows_k - 1 - np.argmax(contributes[::-1], axis=0)
            col_t[active] = np.where(
                counts > 0,
                running[last_row + 1, np.arange(len(active))],
                transmittance_in,
            )
            start = stop

    return StreamingBlend(
        color=color,
        transmittance=transmittance,
        saturation=saturation,
        fragments=fragments,
        violations=violations,
    )
