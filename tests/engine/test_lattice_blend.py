"""The streaming blend's lattices and shared steps, against the oracle and themselves.

:func:`~repro.engine.kernels.blend_streaming` blends each 8x8 subtile as a
64-lane lattice, in steps of ``STREAM_CHUNK_ROWS`` stream rows that the
subtiles of neighbouring column blocks share.  On random frames whose sides
are not multiples of 8 or 16, with tiles of 5 to 16 pixels, pad rows,
pixels that saturate mid-step, empty streams and one-subtile blocks:

* against :func:`~repro.engine.kernels.blend_reference`, entry by entry,
  transmittance, saturation positions and fragment and violation counts
  are exactly equal, and colours and per-Gaussian weights within 1e-9;
* every group width (``STREAM_GROUP_COLUMNS``: one block per group, up to
  two full blocks, the default, all blocks) gives the same bits;
* every cut of the blocks into two runs, blended apart with the second
  run's weights logged and replayed, gives the same bits.
"""

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import kernels
from repro.engine.kernels import (
    LANES,
    STREAM_BLOCK_COLUMNS,
    STREAM_CHUNK_ROWS,
    TRANSMITTANCE_EPSILON,
    blend_reference,
    blend_streaming,
    column_blocks,
    subtile_streams,
    tile_columns,
)
from repro.engine.state import BlendState, WeightLog
from repro.gaussians.projection import ProjectedGaussians
from repro.gaussians.tiles import TileGrid

GOLDEN_ATOL = 1e-9

#: Group widths, in columns: one block per group, up to two full blocks,
#: the default and every block.
GROUP_WIDTHS = (1, 2 * STREAM_BLOCK_COLUMNS, kernels.STREAM_GROUP_COLUMNS, 1 << 40)

#: Per-column and per-tile fields of a blend, compared byte for byte.
FIELDS = ("color", "transmittance", "saturation", "fragments", "violations")


class Case(NamedTuple):
    projected: ProjectedGaussians
    xs: np.ndarray
    ys: np.ndarray
    column_offsets: np.ndarray
    stream_rows: np.ndarray
    stream_offsets: np.ndarray
    blocks: np.ndarray


def random_case(seed, width, height, tile_size, tile_blocks) -> Case:
    """Gaussians of 1 to 16 pixels over a frame, up to half large and nearly opaque.

    Each tile streams a random subsequence of the rows (a fifth of the
    tiles none), shuffled so that contributions also arrive out of depth
    order.  ``tile_blocks`` makes every tile a block of its own.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 160))
    opaque = rng.random(n) < rng.uniform(0.0, 0.5)
    sigma_x = np.where(opaque, rng.uniform(5.0, 16.0, n), 10.0 ** rng.uniform(0.0, 1.0, n))
    sigma_y = sigma_x * rng.uniform(0.3, 1.0, n)
    rho = rng.uniform(-0.9, 0.9, n)
    sxx, syy, sxy = sigma_x**2, sigma_y**2, rho * sigma_x * sigma_y
    det = sxx * syy - sxy * sxy
    projected = ProjectedGaussians(
        means2d=np.stack(
            [rng.uniform(-6.0, width + 6.0, n), rng.uniform(-6.0, height + 6.0, n)], axis=1
        ),
        depths=rng.uniform(1.0, 9.0, n),
        conics=np.stack([syy / det, -sxy / det, sxx / det], axis=1),
        radii=np.ceil(3.0 * sigma_x),
        colors=rng.uniform(0.0, 1.0, (n, 3)),
        opacities=np.where(opaque, rng.uniform(0.9, 0.99, n), rng.uniform(0.02, 0.9, n)),
        valid=np.ones(n, dtype=bool),
    )
    grid = TileGrid(width, height, tile_size)
    bounds = [grid.tile_pixel_bounds(tile) for tile in range(grid.num_tiles)]
    streams = [
        np.zeros(0, dtype=np.int64)
        if rng.random() < 0.2
        else rng.permutation(n)[: int(rng.integers(1, n + 1))]
        for _ in bounds
    ]
    xs, ys, column_offsets = tile_columns(bounds)
    counts = np.diff(column_offsets)
    return Case(
        projected=projected,
        xs=xs,
        ys=ys,
        column_offsets=column_offsets,
        stream_rows=np.concatenate([np.zeros(0, dtype=np.int64), *streams]),
        stream_offsets=np.concatenate(([0], np.cumsum([len(s) for s in streams]))),
        blocks=np.arange(len(bounds) + 1) if tile_blocks else column_blocks(counts),
    )


@st.composite
def cases(draw) -> Case:
    return random_case(
        seed=draw(st.integers(0, 2**32 - 1)),
        width=draw(st.integers(1, 44)),
        height=draw(st.integers(1, 40)),
        tile_size=draw(st.sampled_from((5, 8, 12, 16))),
        tile_blocks=draw(st.booleans()),
    )


def blend(case: Case, weights=None, violation_weights=None):
    """``blend_streaming`` of ``case``; weights into arrays unless given."""
    size = len(case.projected)
    weights = np.zeros(size) if weights is None else weights
    violation_weights = np.zeros(size) if violation_weights is None else violation_weights
    result = blend_streaming(
        case.xs, case.ys, case.column_offsets, case.projected,
        case.stream_rows, case.stream_offsets, case.blocks,
        np.arange(size), weights, violation_weights,
    )
    return result, weights, violation_weights


def reference(case: Case):
    """Per tile, ``blend_reference`` one stream entry at a time.

    Returns colour, transmittance, saturation positions, per-tile fragment
    and violation counts, and per-row blended and out-of-order weights.
    """
    xs, ys, offsets = case.xs, case.ys, case.column_offsets
    num_tiles = len(offsets) - 1
    color, transmittance = np.zeros((len(xs), 3)), np.ones(len(xs))
    saturation = np.zeros(len(xs), dtype=np.int64)
    fragments = np.zeros(num_tiles, dtype=np.int64)
    violations = np.zeros(num_tiles, dtype=np.int64)
    size = len(case.projected)
    weights, violation_weights = np.zeros(size), np.zeros(size)
    for tile in range(num_tiles):
        c0, c1 = offsets[tile], offsets[tile + 1]
        stream = case.stream_rows[case.stream_offsets[tile] : case.stream_offsets[tile + 1]]
        state = BlendState.fresh(c1 - c0)
        saturated = np.full(c1 - c0, len(stream))
        for position in range(len(stream)):
            blend_reference(
                xs[c0:c1], ys[c0:c1], case.projected, stream[position : position + 1],
                state, np.arange(size), weights, violation_weights,
            )
            newly = saturated == len(stream)
            newly &= state.transmittance <= TRANSMITTANCE_EPSILON
            saturated[newly] = position
        color[c0:c1], transmittance[c0:c1] = state.color, state.transmittance
        saturation[c0:c1] = saturated
        fragments[tile], violations[tile] = state.blended_fragments, state.depth_violations
    return (
        color, transmittance, saturation, fragments, violations,
        weights, violation_weights,
    )


def assert_same_bits(expected, actual):
    """Two ``blend()`` results agree byte for byte, weights included."""
    (left, *left_weights), (right, *right_weights) = expected, actual
    for field in FIELDS:
        a, b = getattr(left, field), getattr(right, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    for a, b in zip(left_weights, right_weights):
        assert a.tobytes() == b.tobytes()


def check_oracle(case: Case):
    result, weights, violation_weights = blend(case)
    color, transmittance, saturation, fragments, violations, ref_w, ref_v = reference(case)
    np.testing.assert_array_equal(result.transmittance, transmittance)
    np.testing.assert_array_equal(result.saturation, saturation)
    np.testing.assert_array_equal(result.fragments, fragments)
    np.testing.assert_array_equal(result.violations, violations)
    np.testing.assert_allclose(result.color, color, rtol=0.0, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(weights, ref_w, rtol=0.0, atol=GOLDEN_ATOL)
    np.testing.assert_allclose(violation_weights, ref_v, rtol=0.0, atol=GOLDEN_ATOL)
    assert len(result.block_seconds) == len(case.blocks) - 1
    assert np.all(result.block_seconds >= 0.0)


def check_group_widths(case: Case):
    expected = blend(case)
    for width in GROUP_WIDTHS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "STREAM_GROUP_COLUMNS", width)
            assert_same_bits(expected, blend(case))


def run_of(case: Case, lo: int, hi: int) -> Case:
    """The tiles of blocks ``lo:hi`` of ``case``, as a frame of their own."""
    t0, t1 = case.blocks[lo], case.blocks[hi]
    c0, c1 = case.column_offsets[t0], case.column_offsets[t1]
    s0, s1 = case.stream_offsets[t0], case.stream_offsets[t1]
    return case._replace(
        xs=case.xs[c0:c1],
        ys=case.ys[c0:c1],
        column_offsets=case.column_offsets[t0 : t1 + 1] - c0,
        stream_rows=case.stream_rows[s0:s1],
        stream_offsets=case.stream_offsets[t0 : t1 + 1] - s0,
        blocks=case.blocks[lo : hi + 1] - t0,
    )


def check_cuts(case: Case):
    """Two runs, the second's weights logged and replayed after the first's."""
    whole = blend(case)
    num_blocks = len(case.blocks) - 1
    size = len(case.projected)
    for cut in range(1, num_blocks):
        first, weights, violation_weights = blend(run_of(case, 0, cut))
        logs = WeightLog(size), WeightLog(size)
        second, _, _ = blend(run_of(case, cut, num_blocks), *logs)
        logs[0].replay(weights)
        logs[1].replay(violation_weights)
        joined = dataclasses.replace(
            first,
            **{
                field: np.concatenate([getattr(first, field), getattr(second, field)])
                for field in FIELDS
            },
        )
        assert_same_bits(whole, (joined, weights, violation_weights))


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_lattice_blend_matches_the_oracle(case):
    check_oracle(case)


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_every_group_width_gives_the_same_bits(case):
    check_group_widths(case)


@settings(max_examples=40, deadline=None)
@given(case=cases())
def test_every_cut_into_two_runs_gives_the_same_bits(case):
    check_cuts(case)


#: Seeded cases that between them hold every shape the lattice must
#: handle: (seed, width, height, tile size, every tile a block).
COVERAGE_CASES = [
    (1, 44, 40, 16, False),
    (2, 37, 29, 8, True),
    (3, 43, 21, 12, False),
    (4, 30, 38, 5, True),
    (5, 41, 39, 16, True),
    (6, 19, 11, 8, False),
]


def features(case: Case) -> set:
    """Which of the lattice's edge cases ``case`` exercises."""
    found = set()
    subtiles = subtile_streams(
        case.xs, case.ys, case.column_offsets, case.projected,
        case.stream_rows, case.stream_offsets,
    )
    if np.any(np.diff(subtiles.column_offsets) < LANES):
        found.add("partial cells")
    if np.any(np.diff(case.stream_offsets) == 0):
        found.add("empty streams")
    block_subtiles = subtiles.tile_offsets[case.blocks]
    if np.any(np.diff(block_subtiles) == 1):
        found.add("one-subtile blocks")
    lens = np.diff(subtiles.stream_offsets)
    for lo, hi in zip(block_subtiles[:-1], block_subtiles[1:]):
        if len(set(lens[lo:hi][lens[lo:hi] > 0].tolist())) > 1:
            found.add("pad rows")
    # A column that saturates with more of its subtile's culled stream
    # left in the same step.
    result, _, _ = blend(case)
    col_subtile = np.repeat(np.arange(len(lens)), np.diff(subtiles.column_offsets))
    counts = np.diff(case.column_offsets)
    tile_of = np.repeat(np.arange(len(counts)), counts)
    saturated = np.flatnonzero(result.saturation < np.diff(case.stream_offsets)[tile_of])
    for column in saturated:
        sub = col_subtile[column]
        lo, hi = subtiles.stream_offsets[sub], subtiles.stream_offsets[sub + 1]
        positions = subtiles.positions[lo:hi]
        row = int(np.searchsorted(positions, result.saturation[column]))
        if row % STREAM_CHUNK_ROWS < STREAM_CHUNK_ROWS - 1 and row + 1 < lens[sub]:
            found.add("saturation mid-step")
            if row >= STREAM_CHUNK_ROWS:
                found.add("saturation past the first step")
    return found


@pytest.mark.parametrize("params", COVERAGE_CASES, ids=lambda p: "-".join(map(str, p)))
def test_seeded_cases_hold_to_the_oracle_and_themselves(params):
    case = random_case(*params)
    check_oracle(case)
    check_group_widths(case)
    check_cuts(case)


def test_seeded_cases_cover_every_edge_case():
    found = set().union(*(features(random_case(*params)) for params in COVERAGE_CASES))
    assert found == {
        "partial cells",
        "empty streams",
        "one-subtile blocks",
        "pad rows",
        "saturation mid-step",
        "saturation past the first step",
    }
