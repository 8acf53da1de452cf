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

:func:`blend_streaming` also culls exactly: each tile splits into 8x8
subtiles, and a subtile blends only the stream entries whose opacity-aware
box (:func:`footprint_boxes`) meets its pixel centres.  Outside the box the
blend's own alpha is at most :data:`ALPHA_EPSILON`, so a skipped pair's
factor would have been exactly 1.0: skipping it changes no transmittance,
saturation, count or depth maximum.

Within a chunk, transmittance and the depth maximum are front-to-back
scans down the chunk's rows, taken one contiguous row at a time on wide
chunks (:func:`_accumulate_rows`): the same operations in the same order.

Renderers choose between the two by a path name from
:data:`RENDER_PATHS`, checked by :func:`check_render_path`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.state import BlendState, WeightTarget, add_weights
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

#: Edge, in pixels, of the aligned square cells the streaming blend culls
#: against: each tile's columns split into subtiles, one per cell, and a
#: subtile blends only the stream entries whose footprint box reaches it.
SUBTILE_SIZE = 8

#: Rounding margins of :func:`footprint_boxes`: slack added to the bound on
#: the exponent, and pixels added to every side of the box.
FOOTPRINT_EXPONENT_SLACK = 1e-6
FOOTPRINT_PIXEL_MARGIN = 1e-3

#: Conics with ``a * c - b * b`` at or below this fraction of ``a * c`` are
#: too close to degenerate for the footprint margins and are never culled.
CONIC_DET_FLOOR = 1e-6

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
    Returns ``(xs, ys, column_offsets)``: each tile's pixels, and the first
    column of each tile followed by the column count.  Within a tile the
    pixels run cell by cell over the aligned :data:`SUBTILE_SIZE` cells
    (cells in row-major order, each cell's pixels row-major), so every
    cell is one subtile of :func:`blend_streaming`.
    """
    x0, y0, x1, y1 = np.asarray(bounds, dtype=np.int64).reshape(-1, 4).T
    widths = x1 - x0
    counts = widths * (y1 - y0)
    column_offsets = np.concatenate(([0], np.cumsum(counts)))
    tile = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(column_offsets[-1]) - column_offsets[tile]
    xs = x0[tile] + local % widths[tile]
    ys = y0[tile] + local // widths[tile]
    order = np.lexsort((xs // SUBTILE_SIZE, ys // SUBTILE_SIZE, tile))
    return xs[order], ys[order], column_offsets


def blend_reference(
    pixel_x: np.ndarray,
    pixel_y: np.ndarray,
    projected: ProjectedGaussians,
    sorted_indices: np.ndarray,
    state: BlendState,
    model_indices: Optional[np.ndarray] = None,
    weights: Optional[WeightTarget] = None,
    violation_weights: Optional[WeightTarget] = None,
) -> BlendState:
    """Per-Gaussian reference blending loop (front to back).

    Blends the rows ``sorted_indices`` of ``projected`` into ``state``, in
    that order, and returns it.  With ``model_indices``, as in
    :func:`blend_streaming`, contributions that arrive out of depth order
    are counted in ``state.depth_violations``, and each row's blended and
    out-of-order weights are added into ``weights`` /
    ``violation_weights`` at ``model_indices[row]`` (recorded instead when
    they are :class:`~repro.engine.state.WeightLog` objects; ``None``
    leaves one untracked).  Without it neither is tracked.
    """
    track = model_indices is not None
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
        if track:
            depth = float(projected.depths[gid])
            violated = contributes & (
                state.max_depth > depth + DEPTH_VIOLATION_EPSILON
            )
            state.depth_violations += int(np.count_nonzero(violated))
            key = int(model_indices[gid])
            add_weights(weights, key, float(weight.sum()))
            if np.any(violated):
                add_weights(violation_weights, key, float(weight[violated].sum()))
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


def footprint_boxes(projected: ProjectedGaussians) -> np.ndarray:
    """Opacity-aware screen boxes of every row of ``projected``.

    Returns a ``(4, N)`` array of ``x_lo, x_hi, y_lo, y_hi`` in pixel
    coordinates.  A Gaussian's alpha exceeds :data:`ALPHA_EPSILON` only
    inside the ellipse where ``o * exp(power) > ALPHA_EPSILON``, i.e. where
    the conic's quadratic form stays below ``tau = 2 ln(o / ALPHA_EPSILON)``.
    That ellipse spans ``sqrt(tau * Sxx)`` and ``sqrt(tau * Syy)`` about the
    mean, with ``Sxx = c / det`` and ``Syy = a / det`` the covariance
    diagonal recovered from the conic ``(a, b, c)``, ``det = a c - b^2``.
    The box is that ellipse's bounding box, widened by two rounding
    margins: :data:`FOOTPRINT_EXPONENT_SLACK` on ``tau`` (which bounds the
    blend's own rounding of the exponent at any scale) and
    :data:`FOOTPRINT_PIXEL_MARGIN` pixels on every side (which bounds the
    rounding of coordinates).  Rows with ``o <= ALPHA_EPSILON`` get an
    empty box, since their alpha never exceeds their opacity; rows whose
    conic is not safely positive definite (``a <= 0`` or
    ``det <= CONIC_DET_FLOOR * a * c``) get an unbounded one.
    """
    a, b, c = projected.conics.T
    opacity = projected.opacities
    det = a * c - b * b
    bounded = (a > 0.0) & (det > CONIC_DET_FLOOR * a * c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = 2.0 * np.log(opacity / ALPHA_EPSILON) + FOOTPRINT_EXPONENT_SLACK
        half_x = np.where(bounded, np.sqrt(tau * c / det), np.inf)
        half_y = np.where(bounded, np.sqrt(tau * a / det), np.inf)
        half_x += FOOTPRINT_PIXEL_MARGIN
        half_y += FOOTPRINT_PIXEL_MARGIN
        mean_x, mean_y = projected.means2d.T
        boxes = np.stack(
            [mean_x - half_x, mean_x + half_x, mean_y - half_y, mean_y + half_y]
        )
    # A NaN bound (from NaN parameters) fails every comparison, so it never
    # culls; a faint Gaussian's box is empty.
    boxes[:, opacity <= ALPHA_EPSILON] = [[np.inf], [-np.inf], [np.inf], [-np.inf]]
    return boxes


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
    #: (Gaussian, pixel) pairs the tile streams offered: each tile's stream
    #: length times its column count, summed.
    pairs_offered: int
    #: Pairs left after footprint culling: each subtile's culled stream
    #: length times its column count, summed.
    pairs_kept: int
    #: (B,) wall seconds of each column block's chunk loop.
    block_seconds: np.ndarray


@dataclass
class SubtileStreams:
    """Stacked tile columns split into subtiles, each with a culled stream.

    A subtile is a maximal run of consecutive columns of one tile whose
    pixels lie in one aligned :data:`SUBTILE_SIZE` cell.  Its stream is the
    subsequence of its tile's stream whose :func:`footprint_boxes` box
    meets the bounding box of the subtile's pixel centres.
    """

    #: (S + 1,) first column of each subtile, then the column count.
    column_offsets: np.ndarray
    #: (T + 1,) first subtile of each tile, then ``S``: tile ``t`` holds
    #: subtiles ``tile_offsets[t]:tile_offsets[t + 1]``.
    tile_offsets: np.ndarray
    #: (S + 1,) offsets of each subtile's stream in ``rows``/``positions``.
    stream_offsets: np.ndarray
    #: Rows of ``projected``, subtile after subtile, each in stream order.
    rows: np.ndarray
    #: Each entry's position in its tile's stream.
    positions: np.ndarray


def subtile_streams(
    pixel_x: np.ndarray,
    pixel_y: np.ndarray,
    column_offsets: np.ndarray,
    projected: ProjectedGaussians,
    stream_rows: np.ndarray,
    stream_offsets: np.ndarray,
) -> SubtileStreams:
    """The subtiles of :func:`blend_streaming`'s tiles and their streams.

    Arguments as for :func:`blend_streaming`.  An entry is kept unless its
    box misses the bounding box of the subtile's pixel centres (a box that
    ends exactly on a pixel centre meets it).
    """
    num_tiles = len(column_offsets) - 1
    num_columns = int(column_offsets[-1])
    cell_x = pixel_x // SUBTILE_SIZE
    cell_y = pixel_y // SUBTILE_SIZE
    boundary = np.ones(num_columns, dtype=bool)
    boundary[1:] = (cell_x[1:] != cell_x[:-1]) | (cell_y[1:] != cell_y[:-1])
    tile_starts = column_offsets[:-1]
    boundary[tile_starts[tile_starts < num_columns]] = True
    starts = np.flatnonzero(boundary)
    tile_offsets = np.searchsorted(starts, column_offsets)
    num_subtiles = len(starts)

    # Pair p offers the entry at position positions[p] of its tile's
    # stream to subtile subtile[p].
    subtile_tile = np.repeat(np.arange(num_tiles), np.diff(tile_offsets))
    offered = np.diff(stream_offsets)[subtile_tile]
    subtile = np.repeat(np.arange(num_subtiles), offered)
    positions = np.arange(len(subtile)) - np.repeat(
        np.cumsum(offered) - offered, offered
    )
    rows = stream_rows.take(
        np.repeat(stream_offsets[subtile_tile], offered) + positions
    )
    if len(rows):
        px = pixel_x + 0.5
        py = pixel_y + 0.5
        x_lo, x_hi, y_lo, y_hi = footprint_boxes(projected)
        missed = np.maximum.reduceat(px, starts).take(subtile) < x_lo.take(rows)
        missed |= np.minimum.reduceat(px, starts).take(subtile) > x_hi.take(rows)
        missed |= np.maximum.reduceat(py, starts).take(subtile) < y_lo.take(rows)
        missed |= np.minimum.reduceat(py, starts).take(subtile) > y_hi.take(rows)
        kept = np.flatnonzero(~missed)
        subtile, positions, rows = subtile[kept], positions[kept], rows[kept]
    lens = np.bincount(subtile, minlength=num_subtiles)
    return SubtileStreams(
        column_offsets=np.append(starts, num_columns),
        tile_offsets=tile_offsets,
        stream_offsets=np.concatenate(([0], np.cumsum(lens))),
        rows=rows,
        positions=positions,
    )


def _accumulate_rows(
    ufunc: np.ufunc, values: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``ufunc.accumulate(values, axis=0, out=out)``, row by row when wide.

    ``out[i] = ufunc(out[i - 1], values[i])``; ``out`` may be ``values``.
    NumPy accumulates along axis 0 one column at a time, a whole row apart
    per step, which is slow on wide chunks; a ufunc call per contiguous row
    is slow on tall ones.  So a chunk at least as wide as it is tall walks
    its rows.  Both do the same operations in the same order, so every
    value keeps its bits (only which NaN a NaN-with-NaN step returns, which
    IEEE 754 leaves open, may differ at a row's tail).
    """
    rows, columns = values.shape
    if rows > columns:
        return ufunc.accumulate(values, axis=0, out=out)
    out[:1] = values[:1]
    for i in range(1, rows):
        ufunc(out[i - 1], values[i], out=out[i])
    return out


def blend_streaming(
    pixel_x: np.ndarray,
    pixel_y: np.ndarray,
    column_offsets: np.ndarray,
    projected: ProjectedGaussians,
    stream_rows: np.ndarray,
    stream_offsets: np.ndarray,
    block_offsets: np.ndarray,
    model_indices: Optional[np.ndarray] = None,
    weights: Optional[WeightTarget] = None,
    violation_weights: Optional[WeightTarget] = None,
) -> StreamingBlend:
    """Blend many tiles' streams over their stacked pixel columns.

    Tile ``t`` owns columns ``column_offsets[t]:column_offsets[t + 1]`` of
    ``pixel_x`` / ``pixel_y`` and blends, front to back, the rows
    ``stream_rows[stream_offsets[t]:stream_offsets[t + 1]]`` of
    ``projected`` (every row valid; an empty stream leaves the tile's
    columns untouched).  Tiles are blended in the column blocks
    ``block_offsets`` (see :func:`column_blocks`), each block through one
    chunk loop over its stacked columns.

    Each tile's columns split into subtiles, and each subtile blends only
    the subsequence of its tile's stream whose :func:`footprint_boxes` box
    meets its pixel centres (:func:`subtile_streams`; :func:`tile_columns`
    orders a tile's pixels so that its subtiles are whole 8x8 cells).  A
    skipped pair's alpha is at most :data:`ALPHA_EPSILON`, so the blend
    would have zeroed it: its factor is exactly 1.0 and it neither
    contributes nor saturates.  Saturation positions map back to positions
    in the tile's stream, and fragments and violations are summed per
    tile, so skipping changes no transmittance, saturation, count or depth
    maximum.

    With ``model_indices``, contributions that arrive out of depth order
    are counted per tile, and per-Gaussian blended and out-of-order weights
    are added in place into ``weights`` / ``violation_weights`` at
    ``model_indices[row]`` (recorded instead when they are
    :class:`~repro.engine.state.WeightLog` objects; ``None`` leaves one
    untracked).  Without it neither is tracked (a depth-sorted stream has
    no out-of-order contributions) and ``violations`` is zero.

    Transmittance comes from one cumulative product per chunk, seeded with
    the incoming transmittance, and the depth maximum from one running
    maximum (both :func:`_accumulate_rows`).  The transmittance chain, the
    contribution gates, the saturation positions and every integer count
    are bit-identical under any chunking of the stream: non-contributing
    factors are exactly 1.0, and because transmittance never increases,
    the early-termination gate reads the same on the ungated product.
    Only the accumulation order of colours and per-Gaussian weights
    depends on the subtiles and the chunking, which depend on a block's
    own tiles only.

    Each block's chunk loop is timed with one clock read per block
    (``block_seconds``), which is what a process-parallel frame balances
    its runs by.
    """
    num_columns = int(column_offsets[-1])
    px = pixel_x.astype(np.float64) + 0.5
    py = pixel_y.astype(np.float64) + 0.5
    subtiles = subtile_streams(
        pixel_x, pixel_y, column_offsets, projected, stream_rows, stream_offsets
    )
    subtile_offsets = subtiles.column_offsets
    culled_offsets = subtiles.stream_offsets
    stream_lens = np.diff(culled_offsets)
    num_subtiles = len(stream_lens)
    col_subtile = np.repeat(np.arange(num_subtiles), np.diff(subtile_offsets))
    transmittance = np.ones(num_columns, dtype=np.float64)
    color = np.zeros((num_columns, 3), dtype=np.float64)
    saturation = stream_lens[col_subtile].astype(np.int64)
    fragments = np.zeros(num_subtiles, dtype=np.int64)
    violations = np.zeros(num_subtiles, dtype=np.int64)
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

    # A block of tiles is the block of their subtiles.
    tile_offsets = subtiles.tile_offsets
    block_subtiles = tile_offsets[block_offsets]
    clock = time.perf_counter
    block_starts = np.empty(len(block_subtiles))
    for block, (lo, hi) in enumerate(zip(block_subtiles[:-1], block_subtiles[1:])):
        block_starts[block] = clock()
        lens = stream_lens[lo:hi]
        max_len = int(lens.max()) if hi > lo else 0
        if max_len == 0:
            continue
        # Column j of the block's stream matrix holds subtile lo + j's
        # culled stream, sentinel-padded past its end.  Chunks are
        # row-major (chunk rows x active columns), so the front-to-back
        # scans can walk them one contiguous row at a time.
        first = culled_offsets[lo]
        block_subtile = np.repeat(np.arange(hi - lo), lens)
        position = np.arange(culled_offsets[hi] - first) - (
            culled_offsets[lo:hi] - first
        ).repeat(lens)
        matrix = np.full((max_len, hi - lo), sentinel, dtype=np.int64)
        matrix[position, block_subtile] = subtiles.rows[first : culled_offsets[hi]]

        c0, c1 = subtile_offsets[lo], subtile_offsets[hi]
        subtile_of = col_subtile[c0:c1] - lo
        # (model ids, weight sums) per chunk and present subtile, scattered
        # into the attribution arrays once per block.
        blended: List[Tuple[np.ndarray, np.ndarray]] = []
        out_of_order: List[Tuple[np.ndarray, np.ndarray]] = []
        col_px, col_py = px[c0:c1], py[c0:c1]
        col_t, col_color = transmittance[c0:c1], color[c0:c1]
        col_saturation = saturation[c0:c1]
        if track:
            col_depth = max_depth[c0:c1]
        start = 0
        while start < max_len:
            active = np.flatnonzero(
                (col_t > TRANSMITTANCE_EPSILON) & (lens[subtile_of] > start)
            )
            if len(active) == 0:
                break
            # Columns are subtile-major, so each present subtile's active
            # columns are one contiguous run: segment reductions (reduceat)
            # recover per-subtile sums.
            per_subtile = np.bincount(subtile_of[active], minlength=hi - lo)
            present = np.flatnonzero(per_subtile)
            runs = per_subtile[present]
            boundaries = np.cumsum(runs) - runs
            # Chunks grow as columns saturate (amortising the per-chunk call
            # overhead over the long-stream tail) and the last chunk shrinks
            # to the longest remaining stream so finished subtiles do not
            # pay for sentinel rows.
            rows_k = max(STREAM_CHUNK_ROWS, STREAM_CHUNK_ELEMENTS // len(active))
            rows_k = int(min(rows_k, lens[present].max() - start))
            stop = start + rows_k

            # Every column of a subtile shares the subtile's stream, so
            # Gaussian parameters vary per (chunk row, subtile) only: gather
            # them per present subtile, then repeat each over its run.
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
            _accumulate_rows(np.multiply, factors, running[1:])
            contributes = (a > 0.0) & (running[:-1] > TRANSMITTANCE_EPSILON)
            # Zero the weights past saturation; a product of non-negative
            # finite factors is kept exactly by 1.0 and zeroed by 0.0.
            weight = a * running[:-1]
            weight *= contributes

            # Colour as one small matmul per present subtile: the colour
            # block varies per (chunk row, subtile) only, so the per-column
            # weighted sum is (columns x rows) @ (rows x 3).
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
                _accumulate_rows(np.maximum, prior_max, prior_max)
                violated = contributes & (
                    prior_max[:-1] > chunk_depths + DEPTH_VIOLATION_EPSILON
                )
                col_depth[active] = prior_max[-1]

                chunk_keys = keys.take(chunk).ravel()
                blended.append(
                    (chunk_keys, np.add.reduceat(weight, boundaries, axis=1).ravel())
                )
                if violated.any():
                    violations[lo + present] += np.add.reduceat(
                        np.count_nonzero(violated, axis=0), boundaries
                    )
                    out_of_order.append(
                        (
                            chunk_keys,
                            np.add.reduceat(
                                np.where(violated, weight, 0.0), boundaries, axis=1
                            ).ravel(),
                        )
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

        for target, parts in ((weights, blended), (violation_weights, out_of_order)):
            if parts:
                ids, sums = zip(*parts)
                add_weights(target, np.concatenate(ids), np.concatenate(sums))

    block_starts[-1] = clock()

    # Back from subtiles to tiles: a saturation position in a culled stream
    # names an entry of the tile's stream, and counts sum over subtiles.
    tile_lens = np.diff(stream_offsets).astype(np.int64)
    tile_saturation = np.repeat(tile_lens, np.diff(column_offsets))
    hit = np.flatnonzero(saturation < stream_lens[col_subtile])
    tile_saturation[hit] = subtiles.positions[
        culled_offsets[col_subtile[hit]] + saturation[hit]
    ]
    fragment_sums = np.concatenate(([0], np.cumsum(fragments)))[tile_offsets]
    violation_sums = np.concatenate(([0], np.cumsum(violations)))[tile_offsets]
    return StreamingBlend(
        color=color,
        transmittance=transmittance,
        saturation=tile_saturation,
        fragments=np.diff(fragment_sums),
        violations=np.diff(violation_sums),
        pairs_offered=int(tile_lens @ np.diff(column_offsets)),
        pairs_kept=int(stream_lens @ np.diff(subtile_offsets)),
        block_seconds=np.diff(block_starts),
    )
