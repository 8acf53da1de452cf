"""The alpha-blending kernels both renderers share.

* :func:`blend_reference` — the per-Gaussian reference loop (vectorised over
  the pixels of a tile, sequential over the depth-sorted Gaussian list), a
  direct transcription of the reference 3DGS blending recurrence and the
  oracle every faster path is held to;
* :func:`blend_streaming` — the vectorized blend: the same recurrence run
  over the stacked pixel columns of many tiles (:func:`tile_columns`), each
  column blending its own tile's stream.  The streaming renderer's streams
  are its tiles' filtered voxel streams, the tile-centric rasterizer's its
  tiles' depth-sorted Gaussian lists.  Besides colour and transmittance it
  reports, per pixel, the stream position at which the pixel saturated, so
  the streaming pipeline can reproduce the reference loop's voxel-granular
  early termination in its statistics.

Per pixel, :func:`blend_streaming` is :func:`blend_reference`'s
arithmetic: the same Gaussian exponent, alpha, contribution gates and
transmittance chain, so every transmittance, saturation position and
integer count is bit-identical.  Only the summation order of colours and
per-Gaussian weights differs, which the 1e-9 tolerances cover.

:func:`blend_streaming` culls exactly: each tile splits into 8x8
subtiles, and a subtile blends only the stream entries whose opacity-aware
box (:func:`footprint_boxes`) meets its pixel centres.  Outside the box the
blend's own alpha is at most :data:`ALPHA_EPSILON`, so a skipped pair's
factor would have been exactly 1.0: skipping it changes no transmittance,
saturation, count or depth maximum.

Like a GPU tile's pixels, a subtile's pixels blend in lockstep, as a
64-lane lattice that one gather of each Gaussian serves, and neighbouring
column blocks share steps of :data:`STREAM_CHUNK_ROWS` stream rows.  What
a block sums (colours, weights) depends on its own subtiles only, so it
blends bit for bit alike whichever blocks share its steps and whichever
process renders it (:func:`blend_streaming` says how).

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

#: Stream rows each step of the streaming blend evaluates (fewer only
#: where no live stream has that many left).
STREAM_CHUNK_ROWS = 32

#: Pixel columns per streaming-blend block: whole tiles grouped greedily.
#: Blocks are the unit a process-parallel frame cuts its runs in, and a
#: block blends bit for bit alike whatever else its process renders.
STREAM_BLOCK_COLUMNS = 512

#: Pixel columns of the consecutive whole blocks that share the streaming
#: blend's steps.  Wider groups cost fewer NumPy calls per element until a
#: step's arrays outgrow a core's cache: on a 2-CPU host, groups of 1,024
#: and of 4,096 columns both blended viewer frames slower than 2,048.
STREAM_GROUP_COLUMNS = 2048

#: Edge, in pixels, of the aligned square cells the streaming blend culls
#: against: each tile's columns split into subtiles, one per cell, and a
#: subtile blends only the stream entries whose footprint box reaches it.
SUBTILE_SIZE = 8

#: Lanes of a subtile's lattice, one per pixel of its cell.
LANES = SUBTILE_SIZE * SUBTILE_SIZE

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
    return _greedy_offsets(pixel_counts, STREAM_BLOCK_COLUMNS)


def _greedy_offsets(counts: Sequence[int], limit: int) -> np.ndarray:
    """Offsets of consecutive runs of ``counts`` summing to at most ``limit``.

    Runs are filled greedily, and an item above ``limit`` is a run of its
    own.
    """
    offsets = [0]
    total = 0
    for index, count in enumerate(np.asarray(counts, dtype=np.int64)):
        if index > offsets[-1] and total + count > limit:
            offsets.append(index)
            total = 0
        total += int(count)
    offsets.append(len(counts))
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
    #: (B,) each column block's share of the wall seconds of its steps.
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
    """``ufunc.accumulate(values, axis=0, out=out)``, one row at a time.

    ``out[i] = ufunc(out[i - 1], values[i])``; ``out`` may be ``values``.
    NumPy accumulates along axis 0 one column at a time, a whole row apart
    per step, which is slow on the blend's steps: at most
    :data:`STREAM_CHUNK_ROWS` rows, and at least one lattice of
    :data:`LANES` lanes wide.  A ufunc call per contiguous row does the
    same operations in the same order, so every value keeps its bits (only
    which NaN a NaN-with-NaN step returns, which IEEE 754 leaves open, may
    differ at a row's tail).
    """
    out[:1] = values[:1]
    for i in range(1, len(values)):
        ufunc(out[i - 1], values[i], out=out[i])
    return out


def _lanes(values: np.ndarray, outer: bool) -> np.ndarray:
    """Per-(row, subtile) 8-wide ``values`` spread over the 64 lanes.

    ``values`` holds ``(..., 8)`` values indexed by lane x (``outer``
    false) or lane y (``outer`` true); returns ``(..., 64)`` with lane
    ``8 y + x`` holding ``values[..., x]`` or ``values[..., y]``.  Scalar-
    count ``repeat`` copies contiguous runs, where a broadcast over an
    8-wide inner axis would pay NumPy's loop overhead every 8 elements.
    """
    shape = values.shape[:-1] + (LANES,)
    if outer:
        return values.repeat(SUBTILE_SIZE).reshape(shape)
    return values.reshape(-1, SUBTILE_SIZE).repeat(SUBTILE_SIZE, axis=0).reshape(shape)


def _lane_counts(mask: np.ndarray) -> np.ndarray:
    """Per subtile, the true entries of a ``(rows, subtiles, lanes)`` mask.

    Rows are summed per lane first, in bytes (a step has at most
    :data:`STREAM_CHUNK_ROWS` rows), then lanes per subtile.
    """
    per_lane = np.add.reduce(mask.reshape(len(mask), -1), axis=0, dtype=np.uint8)
    return per_lane.reshape(-1, LANES).sum(axis=1, dtype=np.int64)


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
    ``pixel_x`` / ``pixel_y`` (distinct pixels) and blends, front to back,
    the rows ``stream_rows[stream_offsets[t]:stream_offsets[t + 1]]`` of
    ``projected`` (every row valid; an empty stream leaves the tile's
    columns untouched).  ``block_offsets`` holds the tiles' column blocks
    (see :func:`column_blocks`).

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

    **Lattices.**  A subtile blends as :data:`LANES` lanes: lane
    ``8 (y mod 8) + (x mod 8)`` is that pixel of its aligned cell, and a
    lane with no pixel starts at transmittance 0, so it never contributes.
    The lattices hold each lane's transmittance, colour, saturation
    position and depth maximum; columns read theirs back at the end.

    **Steps.**  Whole blocks of up to :data:`STREAM_GROUP_COLUMNS` columns
    form a group, which evaluates rows ``[start, start + R)``
    (``R`` = :data:`STREAM_CHUNK_ROWS`) of all 64 lanes of every live
    subtile (stream left, a lane above :data:`TRANSMITTANCE_EPSILON`) as
    one ``(rows, subtiles, lanes)`` step.  Parameters are gathered per
    (row, subtile), and the exponent's squares built on 8-wide x and y
    vectors and spread over the lanes (:func:`_lanes`).  Transmittance is
    a cumulative product down the step and the depth maximum a running
    maximum (:func:`_accumulate_rows`).  Each block's colour is one
    batched ``(subtiles, 64, k) @ (subtiles, k, 3)`` matmul, each
    (row, subtile)'s weight one sum over its lanes along the contiguous
    last axis, and each block's weight additions are made in block order
    once the group is done.

    **Bits.**  Per lane this is :func:`blend_reference`'s arithmetic, and
    the transmittance chain, contribution gates, saturation positions and
    integer counts are bit-identical under any stepping: non-contributing
    factors are exactly 1.0, and as transmittance never increases, the
    early-termination gate reads the same on the ungated product.  The
    summation order of colours and weights depends on a block's own
    subtiles only: step starts are multiples of ``R`` whatever the group,
    a block's matmul takes ``k = R`` rows clipped to its own live
    subtiles' longest remaining stream, and lane sums and weight additions
    are per block.  So a block blends bit for bit alike whichever blocks
    share its steps and whichever process renders it.

    With ``model_indices``, contributions that arrive out of depth order
    are counted per tile, and per-Gaussian blended and out-of-order weights
    are added in place into ``weights`` / ``violation_weights`` at
    ``model_indices[row]`` (recorded instead when they are
    :class:`~repro.engine.state.WeightLog` objects; ``None`` leaves one
    untracked).  Without it neither is tracked (a depth-sorted stream has
    no out-of-order contributions) and ``violations`` is zero.

    ``block_seconds`` splits each step's wall time among its blocks in
    proportion to the elements each evaluated (a group's set-up and weight
    additions likewise, by the group's elements); a process-parallel
    frame balances its runs by it.
    """
    subtiles = subtile_streams(
        pixel_x, pixel_y, column_offsets, projected, stream_rows, stream_offsets
    )
    subtile_offsets = subtiles.column_offsets
    culled_offsets = subtiles.stream_offsets
    stream_lens = np.diff(culled_offsets)
    num_subtiles = len(stream_lens)
    col_subtile = np.repeat(np.arange(num_subtiles), np.diff(subtile_offsets))
    col_slot = col_subtile * LANES + (
        pixel_y % SUBTILE_SIZE * SUBTILE_SIZE + pixel_x % SUBTILE_SIZE
    )
    # Pixel-centre x and y of each subtile cell's 8 columns and 8 rows.
    corner = subtile_offsets[:-1]
    cell = np.arange(SUBTILE_SIZE)
    lane_x = (pixel_x[corner] // SUBTILE_SIZE * SUBTILE_SIZE)[:, None] + cell + 0.5
    lane_y = (pixel_y[corner] // SUBTILE_SIZE * SUBTILE_SIZE)[:, None] + cell + 0.5

    # The lattices, one row of lanes per subtile.
    transmittance = np.zeros((num_subtiles, LANES), dtype=np.float64)
    transmittance.reshape(-1)[col_slot] = 1.0
    color = np.zeros((num_subtiles, LANES, 3), dtype=np.float64)
    saturation = np.repeat(stream_lens, LANES).reshape(num_subtiles, LANES)
    fragments = np.zeros(num_subtiles, dtype=np.int64)
    violations = np.zeros(num_subtiles, dtype=np.int64)
    track = model_indices is not None

    # One row per Gaussian parameter (mean x, mean y, conic a, b, c,
    # opacity), so a step gathers all six in one take, padded with one
    # sentinel column whose zero opacity, conic and mean make it an exact
    # no-op (alpha 0, factor exactly 1.0).
    sentinel = len(projected)
    params = np.zeros((6, sentinel + 1), dtype=np.float64)
    params[0:2, :sentinel] = projected.means2d.T
    params[2:5, :sentinel] = projected.conics.T
    params[5, :sentinel] = projected.opacities
    colors = np.vstack([projected.colors, np.zeros((1, 3))])
    if track:
        max_depth = np.full((num_subtiles, LANES), -np.inf, dtype=np.float64)
        depths = np.append(projected.depths.astype(np.float64), 0.0)
        # Pad rows attribute exactly 0.0 to model id 0, a no-op.
        keys = np.append(np.asarray(model_indices, dtype=np.int64), 0)

    # A block of tiles is the block of their subtiles; a group is a run of
    # whole blocks.
    block_subtiles = subtiles.tile_offsets[block_offsets]
    group_offsets = _greedy_offsets(
        np.diff(column_offsets[block_offsets]), STREAM_GROUP_COLUMNS
    )
    block_seconds = np.zeros(len(block_offsets) - 1)
    clock = time.perf_counter
    for b0, b1 in zip(group_offsets[:-1], group_offsets[1:]):
        tick = clock()
        s0, s1 = block_subtiles[b0], block_subtiles[b1]
        lens = stream_lens[s0:s1]
        live = np.flatnonzero(lens)
        if len(live) == 0:
            continue
        # Column j of the group's stream matrix holds subtile s0 + j's
        # culled stream, sentinel-padded past its end.
        first = culled_offsets[s0]
        position = np.arange(culled_offsets[s1] - first) - (
            culled_offsets[s0:s1] - first
        ).repeat(lens)
        matrix = np.full((int(lens.max()), s1 - s0), sentinel, dtype=np.int64)
        matrix[position, np.repeat(np.arange(s1 - s0), lens)] = subtiles.rows[
            first : culled_offsets[s1]
        ]
        block_cuts = block_subtiles[b0 : b1 + 1] - s0
        # (model ids, weight sums) per block and step, made once per group.
        blended: List[List[Tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(b1 - b0)]
        out_of_order: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in range(b1 - b0)
        ]
        elements = np.zeros(b1 - b0)
        start = 0
        while len(live):
            ids = s0 + live
            remaining = lens[live] - start
            rows_k = int(min(STREAM_CHUNK_ROWS, remaining.max()))
            shape = (rows_k, len(live), LANES)

            # Parameters per (row, subtile); squares on 8-wide x and y.
            rows = matrix[start : start + rows_k].take(live, axis=1)
            mean_x, mean_y, conic_a, conic_b, conic_c, opacity = params.take(
                rows, axis=1
            )[..., None]
            dx = lane_x[ids] - mean_x.repeat(SUBTILE_SIZE, axis=2)
            dy = lane_y[ids] - mean_y.repeat(SUBTILE_SIZE, axis=2)
            power = _lanes(conic_a.repeat(SUBTILE_SIZE, axis=2) * (dx * dx), False)
            power += _lanes(conic_c.repeat(SUBTILE_SIZE, axis=2) * (dy * dy), True)
            power *= -0.5
            cross = _lanes(dx, False)
            cross *= _lanes(dy, True)
            cross *= conic_b.repeat(LANES, axis=2)
            power -= cross

            # Alpha is kept (times 1.0) only where the exponent is not
            # positive and alpha exceeds the epsilon, else zeroed (times 0.0).
            keep = power <= 0.0
            np.minimum(power, 0.0, out=power)
            a = np.exp(power, out=power)
            a *= opacity.repeat(LANES, axis=2)
            np.minimum(a, ALPHA_MAX, out=a)
            keep &= a > ALPHA_EPSILON
            a *= keep

            transmittance_in = transmittance[ids]
            factors = 1.0 - a
            factors[0] *= transmittance_in
            running = np.empty((rows_k + 1,) + shape[1:], dtype=np.float64)
            running[0] = transmittance_in
            _accumulate_rows(
                np.multiply,
                factors.reshape(rows_k, -1),
                running[1:].reshape(rows_k, -1),
            )
            # Alpha is positive exactly where it was kept.
            contributes = keep
            contributes &= running[:-1] > TRANSMITTANCE_EPSILON
            # Zero the weights past saturation; a product of non-negative
            # finite factors is kept exactly by 1.0 and zeroed by 0.0.
            weight = a
            weight *= running[:-1]
            weight *= contributes
            fragments[ids] += _lane_counts(contributes)

            if track:
                # Contributing depths, NaN elsewhere: a contributing weight
                # is positive, so ``weight / weight`` is 1.0 there and NaN
                # (0 / 0) elsewhere, and ``fmax`` passes NaN over.
                depth = depths.take(rows)[..., None]
                prior_max = np.empty((rows_k + 1,) + shape[1:], dtype=np.float64)
                prior_max[0] = max_depth[ids]
                with np.errstate(invalid="ignore"):
                    np.divide(weight, weight, out=prior_max[1:])
                prior_max[1:] *= depth.repeat(LANES, axis=2)
                flat = prior_max.reshape(rows_k + 1, -1)
                _accumulate_rows(np.fmax, flat, flat)
                violated = contributes & (
                    prior_max[:-1]
                    > (depth + DEPTH_VIOLATION_EPSILON).repeat(LANES, axis=2)
                )
                max_depth[ids] = prior_max[-1]
                row_keys = keys.take(rows)
                sums = weight.sum(axis=2)
                late = violated.any()
                if late:
                    violations[ids] += _lane_counts(violated)
                    late_sums = (weight * violated).sum(axis=2)

            # Each block's colour and weight sums over its own rows.
            rgb = colors.take(rows.T, axis=0)
            cuts = np.searchsorted(live, block_cuts)
            for block in np.flatnonzero(np.diff(cuts)):
                lo, hi = cuts[block], cuts[block + 1]
                k = int(min(rows_k, remaining[lo:hi].max()))
                color[ids[lo:hi]] += np.matmul(
                    weight[:k, lo:hi].transpose(1, 2, 0), rgb[lo:hi, :k]
                )
                if track:
                    block_keys = row_keys[:k, lo:hi].ravel()
                    blended[block].append((block_keys, sums[:k, lo:hi].ravel()))
                    if late:
                        out_of_order[block].append(
                            (block_keys, late_sums[:k, lo:hi].ravel())
                        )

            # The running product is non-increasing (factors lie in [0, 1]),
            # so a lane saturated in this step iff it started above the
            # epsilon and ended at or below it; only those lanes pay for the
            # scan.  Every other lane ends on its last contributing row
            # (later factors are exactly 1.0), so it keeps the last product,
            # or its incoming value when it was already saturated or empty.
            lanes_in = transmittance_in > TRANSMITTANCE_EPSILON
            final = np.where(lanes_in, running[-1], transmittance_in)
            hit = np.flatnonzero(lanes_in & (running[-1] <= TRANSMITTANCE_EPSILON))
            if len(hit):
                scan = running[1:].reshape(rows_k, -1)[:, hit]
                first_row = np.argmax(scan <= TRANSMITTANCE_EPSILON, axis=0)
                saturation.reshape(-1)[
                    ids[hit // LANES] * LANES + hit % LANES
                ] = start + first_row
                final.reshape(-1)[hit] = scan[first_row, np.arange(len(hit))]
            transmittance[ids] = final

            start += rows_k
            live = live[
                (remaining > rows_k) & (final > TRANSMITTANCE_EPSILON).any(axis=1)
            ]
            # The step's time, shared by the elements each block evaluated.
            share = np.diff(cuts) * float(rows_k)
            elements += share
            tock = clock()
            block_seconds[b0:b1] += (tock - tick) * share / share.sum()
            tick = tock

        for target, parts in ((weights, blended), (violation_weights, out_of_order)):
            in_order = [part for block in parts for part in block]
            if in_order:
                id_parts, sum_parts = zip(*in_order)
                add_weights(target, np.concatenate(id_parts), np.concatenate(sum_parts))
        block_seconds[b0:b1] += (clock() - tick) * elements / elements.sum()

    # Columns read their lanes back.  Then from subtiles to tiles: a
    # saturation position in a culled stream names an entry of the tile's
    # stream, and counts sum over subtiles.
    column_saturation = saturation.reshape(-1)[col_slot]
    tile_lens = np.diff(stream_offsets).astype(np.int64)
    tile_saturation = np.repeat(tile_lens, np.diff(column_offsets))
    hit = np.flatnonzero(column_saturation < stream_lens[col_subtile])
    tile_saturation[hit] = subtiles.positions[
        culled_offsets[col_subtile[hit]] + column_saturation[hit]
    ]
    tile_offsets = subtiles.tile_offsets
    fragment_sums = np.concatenate(([0], np.cumsum(fragments)))[tile_offsets]
    violation_sums = np.concatenate(([0], np.cumsum(violations)))[tile_offsets]
    return StreamingBlend(
        color=color.reshape(-1, 3)[col_slot],
        transmittance=transmittance.reshape(-1)[col_slot],
        saturation=tile_saturation,
        fragments=np.diff(fragment_sums),
        violations=np.diff(violation_sums),
        pairs_offered=int(tile_lens @ np.diff(column_offsets)),
        pairs_kept=int(stream_lens @ np.diff(subtile_offsets)),
        block_seconds=block_seconds,
    )
