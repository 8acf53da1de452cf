"""Interchangeable alpha-blending kernels.

Both renderers funnel every pixel they produce through these kernels:

* :func:`blend_reference` — the per-Gaussian reference loop (vectorised over
  the pixels of a tile, sequential over the depth-sorted Gaussian list), a
  direct transcription of the reference 3DGS blending recurrence;
* :func:`blend_vectorized` — a fully batched kernel that evaluates all
  (gaussian, pixel) powers in one broadcast and derives per-step
  transmittance with an exclusive cumulative product, reproducing the
  reference recurrence (including the early-termination gate) exactly;
* :func:`blend_streaming` — the streaming renderer's frame-level blend: the
  same recurrence run over the stacked pixel columns of many tiles, each
  column blending its own tile's voxel stream, in column blocks of
  :data:`STREAM_BLOCK_COLUMNS`.  Besides colour and transmittance it
  reports, per pixel, the stream position at which the pixel saturated, so
  the pipeline can reproduce the reference loop's voxel-granular early
  termination in its statistics.

``blend_reference`` and ``blend_vectorized`` share one signature::

    kernel(pixel_x, pixel_y, projected, sorted_indices, state,
           model_indices=None, track_depth_order=False) -> BlendState

``model_indices`` maps rows of ``projected`` to model Gaussian ids, so
per-Gaussian weight attribution lands directly in the frame-level arrays
bound into ``state``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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

#: Gaussians per broadcast batch of the vectorized kernel.  Bounds the
#: (gaussians x pixels) working set to a cache-resident block and sets the
#: granularity of the active-pixel compaction and early-termination checks.
VECTORIZED_CHUNK = 64

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

BlendKernel = Callable[..., BlendState]


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
        power = -0.5 * (a * dx * dx + c * dy * dy) - b * dx * dy
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


def blend_vectorized(
    pixel_x: np.ndarray,
    pixel_y: np.ndarray,
    projected: ProjectedGaussians,
    sorted_indices: np.ndarray,
    state: BlendState,
    model_indices: Optional[np.ndarray] = None,
    track_depth_order: bool = False,
) -> BlendState:
    """Broadcast-batched blending kernel.

    For a batch of Gaussians the kernel evaluates the full (gaussian, pixel)
    power matrix at once and recovers the sequential transmittance
    recurrence through one exclusive cumulative product along the Gaussian
    axis, seeded with the incoming per-pixel transmittance.  The recurrence
    is reproduced *bit for bit*:

    * non-contributing Gaussians (tiny alpha, positive power) have their
      blending factor replaced by exactly 1.0, so the sequential product is
      unchanged by them;
    * the early-termination gate (``T > epsilon``) evaluates identically on
      the ungated product because transmittance is non-increasing: past the
      first saturation crossing both the gated and ungated products sit at
      or below the threshold;
    * the post-batch transmittance is the running product just after the
      last contributing Gaussian (recovered as a masked minimum, since the
      product is non-increasing), where gated and ungated products agree.

    Depth-order tracking uses an exclusive running maximum of contributing
    depths along the same axis.
    """
    if track_depth_order:
        state.ensure_weight_arrays(_tracking_size(projected, model_indices))
    sorted_indices = np.asarray(sorted_indices, dtype=np.int64)
    sel = sorted_indices[projected.valid[sorted_indices]]
    num_pixels = len(pixel_x)
    if len(sel) == 0:
        return state
    px = pixel_x.astype(np.float64) + 0.5
    py = pixel_y.astype(np.float64) + 0.5

    for start in range(0, len(sel), VECTORIZED_CHUNK):
        # Active-pixel compaction: transmittance is non-increasing, so
        # saturated pixels can never contribute again and their columns are
        # dropped from the broadcast batch entirely (the reference loop can
        # only mask them, not skip their arithmetic).
        active = np.flatnonzero(state.transmittance > TRANSMITTANCE_EPSILON)
        if len(active) == 0:
            break
        compact = len(active) < num_pixels
        if compact:
            apx, apy = px[active], py[active]
            transmittance_in = state.transmittance[active]
        else:
            apx, apy = px, py
            transmittance_in = state.transmittance
        chunk = sel[start : start + VECTORIZED_CHUNK]

        dx = apx[None, :] - projected.means2d[chunk, 0][:, None]      # (G, A)
        dy = apy[None, :] - projected.means2d[chunk, 1][:, None]
        conics = projected.conics[chunk]
        power = conics[:, 0][:, None] * (dx * dx)
        power += conics[:, 2][:, None] * (dy * dy)
        power *= -0.5
        dx *= dy
        dx *= conics[:, 1][:, None]
        power -= dx

        opacities = projected.opacities[chunk][:, None]
        positive = power > 0.0
        np.minimum(power, 0.0, out=power)
        a = np.exp(power, out=power)                                  # reuse buffer
        a *= opacities
        np.minimum(a, ALPHA_MAX, out=a)
        a[positive] = 0.0
        a[a <= ALPHA_EPSILON] = 0.0

        # Sequential transmittance: running[k] is the transmittance Gaussian
        # k observes; scaling the first factor by the incoming state keeps
        # the multiplication order of the reference loop.
        factors = 1.0 - a
        factors[0] *= transmittance_in
        running = np.empty((len(chunk) + 1, len(transmittance_in)), dtype=np.float64)
        running[0] = transmittance_in
        np.cumprod(factors, axis=0, out=running[1:])
        contributes = (a > 0.0) & (running[:-1] > TRANSMITTANCE_EPSILON)

        weight = np.where(contributes, a * running[:-1], 0.0)         # (G, A)

        color_delta = np.einsum("gp,gc->pc", weight, projected.colors[chunk])
        if compact:
            state.color[active] += color_delta
        else:
            state.color += color_delta
        state.blended_fragments += int(np.count_nonzero(contributes))

        if track_depth_order:
            depths = projected.depths[chunk].astype(np.float64)
            max_depth_in = state.max_depth[active] if compact else state.max_depth
            contributed_depth = np.where(contributes, depths[:, None], -np.inf)
            # Exclusive running max of contributing depths, seeded by state.
            prior_max = np.maximum.accumulate(
                np.vstack([max_depth_in[None, :], contributed_depth]), axis=0
            )
            violated = contributes & (
                prior_max[:-1] > depths[:, None] + DEPTH_VIOLATION_EPSILON
            )
            state.depth_violations += int(np.count_nonzero(violated))
            keys = chunk if model_indices is None else model_indices[chunk]
            np.add.at(state.gaussian_weights, keys, weight.sum(axis=1))
            np.add.at(
                state.gaussian_violation_weights,
                keys,
                np.where(violated, weight, 0.0).sum(axis=1),
            )
            if compact:
                state.max_depth[active] = prior_max[-1]
            else:
                state.max_depth = prior_max[-1]

        # Transmittance after the last contributing Gaussian: the running
        # product only decreases on contributing steps, so the masked
        # minimum recovers it; pixels without contributions keep their
        # incoming value.
        after = np.min(
            np.where(contributes, running[1:], np.inf), axis=0, initial=np.inf
        )
        transmittance_out = np.where(np.isfinite(after), after, transmittance_in)
        if compact:
            state.transmittance[active] = transmittance_out
        else:
            state.transmittance = transmittance_out
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
    model_indices: np.ndarray,
    weights: np.ndarray,
    violation_weights: np.ndarray,
) -> StreamingBlend:
    """Blend many tiles' voxel streams over their stacked pixel columns.

    Tile ``t`` owns columns ``column_offsets[t]:column_offsets[t + 1]`` of
    ``pixel_x`` / ``pixel_y`` and blends, front to back, the rows
    ``stream_rows[stream_offsets[t]:stream_offsets[t + 1]]`` of
    ``projected`` (every row valid, in streaming order).  Tiles are blended
    in the column blocks ``block_offsets`` (see :func:`column_blocks`),
    each block through one chunk loop over its stacked columns.
    Per-Gaussian blended and out-of-order weights are added in place into
    ``weights`` / ``violation_weights`` at ``model_indices[row]``.

    Per column the arithmetic is that of :func:`blend_vectorized` on the
    tile's stream: the transmittance chain, the contribution gates, the
    saturation positions and every integer count are bit-identical under
    any chunking of the stream (non-contributing factors are exactly 1.0).
    Only the accumulation order of colours and per-Gaussian weights
    depends on the chunking, which the 1e-9 tolerances cover; the chunking
    itself depends on a block's own tiles only.
    """
    num_tiles = len(column_offsets) - 1
    num_columns = int(column_offsets[-1])
    stream_lens = np.diff(stream_offsets)
    col_tile = np.repeat(np.arange(num_tiles), np.diff(column_offsets))
    px = pixel_x.astype(np.float64) + 0.5
    py = pixel_y.astype(np.float64) + 0.5
    transmittance = np.ones(num_columns, dtype=np.float64)
    color = np.zeros((num_columns, 3), dtype=np.float64)
    max_depth = np.full(num_columns, -np.inf, dtype=np.float64)
    saturation = stream_lens[col_tile].astype(np.int64)
    fragments = np.zeros(num_tiles, dtype=np.int64)
    violations = np.zeros(num_tiles, dtype=np.int64)

    # Projection rows padded with one sentinel row whose zero opacity,
    # conic and mean make it an exact no-op (alpha 0, factor exactly 1.0);
    # the per-parameter 1-D copies make the chunk gathers contiguous takes.
    sentinel = len(projected)

    def padded(values: np.ndarray) -> np.ndarray:
        return np.append(values.astype(np.float64), 0.0)

    mean_x, mean_y = padded(projected.means2d[:, 0]), padded(projected.means2d[:, 1])
    conic_a, conic_b, conic_c = (padded(projected.conics[:, i]) for i in range(3))
    opacities, depths = padded(projected.opacities), padded(projected.depths)
    colors = np.vstack([projected.colors, np.zeros((1, 3))])
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
        col_t, col_color = transmittance[c0:c1], color[c0:c1]
        col_depth, col_saturation = max_depth[c0:c1], saturation[c0:c1]
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
            present, runs = np.unique(tile_of[active], return_counts=True)
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
            # present tile, then spread to columns with a sequential take.
            chunk = matrix[start:stop].take(present, axis=1)
            spread = np.repeat(np.arange(len(present)), runs)

            def gather(values: np.ndarray) -> np.ndarray:
                return values.take(chunk).take(spread, axis=1)

            transmittance_in = col_t[active]
            dx = px[c0:c1][active][None, :] - gather(mean_x)
            dy = py[c0:c1][active][None, :] - gather(mean_y)
            power = gather(conic_a)
            power *= dx * dx
            power += gather(conic_c) * (dy * dy)
            power *= -0.5
            dx *= dy
            dx *= gather(conic_b)
            power -= dx

            positive = power > 0.0
            np.minimum(power, 0.0, out=power)
            a = np.exp(power, out=power)
            a *= gather(opacities)
            np.minimum(a, ALPHA_MAX, out=a)
            positive |= a <= ALPHA_EPSILON
            np.copyto(a, 0.0, where=positive)

            factors = 1.0 - a
            factors[0] *= transmittance_in
            running = np.empty((rows_k + 1, len(active)), dtype=np.float64)
            running[0] = transmittance_in
            np.cumprod(factors, axis=0, out=running[1:])
            contributes = (a > 0.0) & (running[:-1] > TRANSMITTANCE_EPSILON)
            weight = np.where(contributes, a * running[:-1], 0.0)

            # Colour as one small matmul per present tile: the colour block
            # varies per (chunk row, tile) only, so the per-column weighted
            # sum is (columns x rows) @ (rows x 3).
            ends = boundaries + runs
            for i in range(len(present)):
                cs, ce = boundaries[i], ends[i]
                col_color[active[cs:ce]] += weight[:, cs:ce].T @ colors[chunk[:, i]]

            counts = np.count_nonzero(contributes, axis=0)
            fragments[lo + present] += np.add.reduceat(counts, boundaries)

            chunk_depths = gather(depths)
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
            np.add.at(weights, chunk_keys, np.add.reduceat(weight, boundaries, axis=1))
            if violated.any():
                violations[lo + present] += np.add.reduceat(
                    np.count_nonzero(violated, axis=0), boundaries
                )
                np.add.at(
                    violation_weights,
                    chunk_keys,
                    np.add.reduceat(np.where(violated, weight, 0.0), boundaries, axis=1),
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


#: Registry of the interchangeable blending kernels.
KERNELS = {
    "reference": blend_reference,
    "vectorized": blend_vectorized,
}

#: Kernel used when no explicit selection is made.
DEFAULT_KERNEL = "vectorized"


def available_kernels() -> tuple:
    """Names of the registered blending kernels."""
    return tuple(KERNELS)


def get_kernel(name: Optional[str] = None) -> BlendKernel:
    """Resolve a kernel name (``None`` means the default) to its callable."""
    key = name or DEFAULT_KERNEL
    if key not in KERNELS:
        raise KeyError(
            f"unknown blending kernel {key!r}; available: {sorted(KERNELS)}"
        )
    return KERNELS[key]
