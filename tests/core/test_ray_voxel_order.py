"""Tests for ray/voxel traversal and the topological voxel ordering."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.ray_voxel import (
    VoxelOrderingTable,
    ordering_tables_for_tiles,
    traverse_ray,
    traverse_rays,
)
from repro.core.voxel_grid import VoxelGrid
from repro.core.voxel_order import (
    topological_orders_for_tables,
    topological_voxel_order,
    voxel_depth_values,
)
from repro.gaussians.tiles import TileGrid
from tests.conftest import make_camera, make_model, voxel_box


def is_valid_permutation(result):
    """True when every input voxel appears exactly once in the order."""
    return len(result.order) == result.num_nodes and len(set(result.order)) == len(
        result.order
    )


def order_violation_count(order, per_ray_orders):
    """Number of per-ray precedence constraints violated by ``order``."""
    position = {voxel: i for i, voxel in enumerate(order)}
    violations = 0
    for ray_order in per_ray_orders:
        for src, dst in zip(ray_order[:-1], ray_order[1:]):
            if src == dst:
                continue
            if src in position and dst in position and position[src] > position[dst]:
                violations += 1
    return violations


@pytest.fixture
def grid():
    model = make_model(num_gaussians=500, extent=8.0, seed=6)
    return VoxelGrid.build(model, voxel_size=2.0)


def test_traverse_ray_requires_direction(grid):
    with pytest.raises(ValueError):
        traverse_ray(grid, np.zeros(3), np.zeros(3))


def test_ray_missing_grid_returns_empty(grid):
    order = traverse_ray(grid, np.array([100.0, 100.0, 100.0]), np.array([0.0, 0.0, 1.0]))
    assert order == []


def test_traversal_is_front_to_back(grid):
    origin = np.array([10.0, 0.3, 0.2])
    direction = np.array([-1.0, 0.0, 0.0])
    order = traverse_ray(grid, origin, direction)
    assert len(order) > 0
    # Distances of visited voxel centres along the ray must be increasing.
    centers = [np.mean(voxel_box(grid, v), axis=0) for v in order]
    distances = [np.dot(center - origin, direction) for center in centers]
    assert all(b >= a - grid.voxel_size for a, b in zip(distances, distances[1:]))


def test_traversal_visits_each_voxel_once(grid):
    origin = np.array([10.0, 0.0, 0.0])
    direction = np.array([-1.0, 0.05, 0.02])
    order = traverse_ray(grid, origin, direction)
    assert len(order) == len(set(order))


def test_traversal_include_empty_covers_more(grid):
    origin = np.array([10.0, 0.0, 0.0])
    direction = np.array([-1.0, 0.0, 0.0])
    non_empty = traverse_ray(grid, origin, direction, include_empty=False)
    all_cells = traverse_ray(grid, origin, direction, include_empty=True)
    assert len(all_cells) >= len(non_empty)


def test_max_voxels_bound(grid):
    origin = np.array([10.0, 0.0, 0.0])
    direction = np.array([-1.0, 0.0, 0.0])
    limited = traverse_ray(grid, origin, direction, max_voxels=2, include_empty=True)
    assert len(limited) <= 2


@pytest.mark.parametrize("tiny", [1e-160, -1e-160, 1e-13, -1e-13])
def test_component_below_the_parallel_threshold_never_steps(grid, tiny):
    # A component that _reciprocal treats as parallel (|d| < 1e-12) used to
    # keep a nonzero step, so its t_max became -inf or NaN.
    origin = np.array([10.0, 0.3, 0.2])
    direction = np.array([-1.0, 0.0, tiny])
    axis_parallel = np.array([-1.0, 0.0, 0.0])
    expected = traverse_ray(grid, origin, axis_parallel, include_empty=True)
    assert traverse_ray(grid, origin, direction, include_empty=True) == expected
    batched, lengths = traverse_rays(grid, origin[None, :], direction[None, :])
    assert lengths.tolist() == [len(batched)]
    np.testing.assert_array_equal(batched, traverse_ray(grid, origin, axis_parallel))


def test_axis_parallel_ray_that_misses_the_grid(grid):
    origins = np.array([[10.0, -20.0, 0.0], [10.0, 0.3, 0.2]])
    directions = np.array([[-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    voxels, lengths = traverse_rays(grid, origins, directions)
    assert lengths[0] == 0
    np.testing.assert_array_equal(voxels, traverse_ray(grid, origins[1], directions[1]))


@pytest.mark.parametrize("face", ["low", "high", "inner"])
def test_axis_parallel_ray_on_a_voxel_face(grid, face):
    # The slab and boundary products of a ray lying in a face used to
    # multiply 0 by inf.
    lo = grid.origin[1]
    y = {"low": lo, "high": lo + grid.dims[1] * grid.voxel_size, "inner": lo + 2.0 * grid.voxel_size}
    origin = np.array([10.0, y[face], 0.2])
    direction = np.array([-1.0, 0.0, 0.0])
    order = traverse_ray(grid, origin, direction)
    np.testing.assert_array_equal(traverse_rays(grid, origin[None, :], direction[None, :])[0], order)
    assert traverse_rays(grid, origin[None, :], direction[None, :])[1].tolist() == [len(order)]
    if face != "inner":
        inside = origin + np.array([0.0, 1e-9 if face == "low" else -1e-9, 0.0])
        assert order == traverse_ray(grid, inside, direction)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 200))
def test_traversed_voxels_actually_intersect_ray(seed):
    model = make_model(num_gaussians=200, extent=6.0, seed=seed)
    grid = VoxelGrid.build(model, voxel_size=1.5)
    rng = np.random.default_rng(seed)
    origin = np.array([8.0, rng.uniform(-2, 2), rng.uniform(-2, 2)])
    direction = np.array([-1.0, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)])
    direction /= np.linalg.norm(direction)
    for voxel in traverse_ray(grid, origin, direction):
        lo, hi = voxel_box(grid, voxel)
        # Slab test: the ray must hit the voxel's AABB.
        inv = np.where(np.abs(direction) < 1e-12, np.inf, 1.0 / direction)
        t0, t1 = (lo - origin) * inv, (hi - origin) * inv
        t_near, t_far = np.minimum(t0, t1).max(), np.maximum(t0, t1).min()
        assert t_near <= t_far + 1e-6 and t_far >= 0


def test_ordering_table_contains_voxels(grid):
    camera = make_camera(width=32, height=32, distance=8.0)
    table = ordering_tables_for_tiles(grid, camera, {0: (0, 0, 16, 16)}, ray_stride=4)[0]
    assert table.rays_sampled > 0
    assert table.total_entries == sum(len(order) for order in table.per_ray_orders)
    assert table.total_entries > 0


def test_ordering_table_rejects_empty_bounds(grid):
    camera = make_camera()
    with pytest.raises(ValueError):
        ordering_tables_for_tiles(grid, camera, {0: (4, 4, 4, 8)})


def test_ordering_tables_do_not_depend_on_the_tiles_built_together(grid):
    camera = make_camera(width=48, height=32, distance=8.0)
    bounds = {
        0: (0, 0, 16, 16),
        1: (16, 0, 32, 16),
        2: (32, 16, 48, 32),
        7: (8, 8, 24, 24),
    }
    together = ordering_tables_for_tiles(grid, camera, bounds)
    assert list(together) == list(bounds)
    assert sum(table.total_entries for table in together.values()) > 0
    for tile_id, tile in bounds.items():
        alone = ordering_tables_for_tiles(grid, camera, {tile_id: tile})[tile_id]
        assert together[tile_id].rays_sampled == alone.rays_sampled
        assert [list(order) for order in together[tile_id].per_ray_orders] == [
            list(order) for order in alone.per_ray_orders
        ]


def test_ordering_tables_of_no_tiles(grid):
    assert ordering_tables_for_tiles(grid, make_camera(), {}) == {}


@pytest.mark.parametrize("stride", [1, 3, 4, 16])
def test_ordering_table_samples_every_stride_and_the_last_pixel(grid, stride):
    """Rays every ``stride`` pixels from the corner, plus the last row and column."""
    camera = make_camera(width=32, height=32, distance=8.0)
    x0, y0, x1, y1 = 2, 5, 15, 14
    table = ordering_tables_for_tiles(
        grid, camera, {0: (x0, y0, x1, y1)}, ray_stride=stride
    )[0]
    columns = set(range(x0, x1, stride)) | {x1 - 1}
    rows = set(range(y0, y1, stride)) | {y1 - 1}
    assert table.rays_sampled == len(columns) * len(rows)


def test_ordering_table_keeps_only_rays_that_meet_voxels(grid):
    # From afar the grid fills the middle of the view only: the rays
    # through the image's edges pass beside it.
    camera = make_camera(width=64, height=64, distance=30.0)
    table = ordering_tables_for_tiles(
        grid, camera, {0: (0, 0, 64, 64)}, ray_stride=8
    )[0]
    assert 0 < len(table.per_ray_orders) < table.rays_sampled
    assert all(len(order) > 0 for order in table.per_ray_orders)


def tile_rays_one_by_one(grid, camera, bounds, stride):
    """A tile's ray orders the per-tile way: its own pixel grid, one DDA per ray."""
    x0, y0, x1, y1 = bounds
    xs, ys = list(range(x0, x1, stride)), list(range(y0, y1, stride))
    xs += [x1 - 1] if xs[-1] != x1 - 1 else []
    ys += [y1 - 1] if ys[-1] != y1 - 1 else []
    pixel_x, pixel_y = np.meshgrid(xs, ys)
    origins, directions = camera.pixel_rays(pixel_x.reshape(-1), pixel_y.reshape(-1))
    return [traverse_ray(grid, o, d) for o, d in zip(origins, directions)]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 50),
    distance=st.sampled_from([3.0, 8.0, 40.0]),
    tile_size=st.integers(3, 17),
    stride=st.integers(1, 6),
    width=st.integers(4, 40),
    height=st.integers(4, 30),
)
def test_batched_tables_equal_the_per_tile_path(seed, distance, tile_size, stride, width, height):
    # From 40 units away the grid fills a few pixels: most rays miss it.
    grid = VoxelGrid.build(make_model(num_gaussians=150, extent=4.0, seed=seed), 0.8)
    camera = make_camera(width=width, height=height, distance=distance)
    tiles = TileGrid(width, height, tile_size)
    bounds = {t: tiles.tile_pixel_bounds(t) for t in range(tiles.num_tiles)}
    tables = ordering_tables_for_tiles(grid, camera, bounds, ray_stride=stride)
    assert list(tables) == list(bounds)
    for tile_id, tile in bounds.items():
        rays = tile_rays_one_by_one(grid, camera, tile, stride)
        assert tables[tile_id].ray_lengths.tolist() == [len(ray) for ray in rays]
        assert tables[tile_id].entries.tolist() == [v for ray in rays for v in ray]


def table_of(rays):
    return VoxelOrderingTable(
        entries=np.array([v for ray in rays for v in ray], dtype=np.int64),
        ray_lengths=np.array([len(ray) for ray in rays], dtype=np.int64),
    )


#: Tiles of every kind: a fast-path tile, a Kahn tile whose depth order runs
#: against an edge (3 -> 1 with 3 deeper), a dependency cycle, a tile whose
#: rays all miss, a tile without rays and one with a self-step.
MIXED_TILES = [[[0, 2], [2, 5]], [[3, 1], [1, 2]], [[1, 2], [2, 1]], [[], []], [], [[4, 4, 6]]]
MIXED_DEPTHS = [0.5, 1.0, 2.0, 3.0, 0.0, 2.5, 1.5, 0.25]


def test_batched_orders_take_kahn_only_where_the_sorted_order_breaks_an_edge():
    tables = {7 * i: table_of(rays) for i, rays in enumerate(MIXED_TILES)}
    orders = topological_orders_for_tables(tables, voxel_depths=np.array(MIXED_DEPTHS))
    assert [orders[t].order for t in tables] == [[0, 2, 5], [3, 1, 2], [1, 2], [], [], [4, 6]]
    assert [orders[t].cycles_broken for t in tables] == [0, 0, 1, 0, 0, 0]
    assert [orders[t].num_edges for t in tables] == [2, 2, 2, 0, 0, 1]


@settings(max_examples=150, deadline=None)
@given(
    tiles=st.lists(
        st.lists(st.lists(st.integers(0, 7), max_size=6), max_size=6),
        min_size=1,
        max_size=6,
    ),
    depths=st.one_of(
        st.none(),
        st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=8, max_size=8),
    ),
)
@example(tiles=MIXED_TILES, depths=MIXED_DEPTHS)
@example(tiles=MIXED_TILES, depths=None)
def test_batched_orders_equal_the_per_tile_path(tiles, depths):
    """Random rays revisit voxels, so cycles and Kahn tiles are common."""
    tables = {3 * i + 1: table_of(rays) for i, rays in enumerate(tiles)}
    depths = None if depths is None else np.array(depths)
    orders = topological_orders_for_tables(tables, voxel_depths=depths)
    assert list(orders) == list(tables)
    for tile_id, table in tables.items():
        assert orders[tile_id] == topological_voxel_order(table.per_ray_orders, depths)


# ---------------------------------------------------------------------------
# Topological sorting
# ---------------------------------------------------------------------------
def test_dependency_graph_edges_are_distinct_ray_steps():
    # 1->2, 2->3 and 2->4; the repeated 1->2 and the self-step 3->3 add none.
    result = topological_voxel_order([[1, 2, 3], [2, 4], [1, 2], [3, 3]])
    assert result.num_nodes == 4
    assert result.num_edges == 3


def test_topological_order_respects_constraints():
    per_ray = [[1, 2, 3], [1, 4, 3], [2, 5]]
    result = topological_voxel_order(per_ray)
    assert is_valid_permutation(result)
    assert result.cycles_broken == 0
    assert order_violation_count(result.order, per_ray) == 0


def test_topological_order_empty():
    result = topological_voxel_order([])
    assert result.order == []
    assert result.num_nodes == 0


def test_topological_order_breaks_cycles():
    per_ray = [[1, 2], [2, 1]]
    result = topological_voxel_order(per_ray, voxel_depths=np.array([0.0, 1.0, 2.0]))
    assert result.cycles_broken >= 1
    assert is_valid_permutation(result)
    # The shallower voxel should be released first when breaking the tie.
    assert result.order[0] == 1


def test_depth_tiebreak_orders_front_to_back():
    # No constraints between 7 and 8; depth should decide.
    per_ray = [[7], [8]]
    depths = np.zeros(9)
    depths[[7, 8]] = [5.0, 1.0]
    result = topological_voxel_order(per_ray, voxel_depths=depths)
    assert result.order == [8, 7]


@settings(max_examples=40, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=20),
    seed=st.integers(0, 1000),
)
def test_topological_sort_matches_networkx_on_random_dags(num_nodes, seed):
    """On random DAGs our Kahn sort must produce a valid topological order."""
    rng = np.random.default_rng(seed)
    # Random DAG: edges only from lower to higher node id.
    per_ray = []
    for _ in range(num_nodes):
        path_length = int(rng.integers(2, min(5, num_nodes + 1)))
        path = sorted(rng.choice(num_nodes, size=path_length, replace=False))
        per_ray.append(list(path))
    result = topological_voxel_order(per_ray)
    assert result.cycles_broken == 0
    assert order_violation_count(result.order, per_ray) == 0
    # Cross-check the graph is a DAG with networkx.
    graph = nx.DiGraph()
    for order in per_ray:
        graph.add_nodes_from(order)
        graph.add_edges_from(zip(order[:-1], order[1:]))
    assert nx.is_directed_acyclic_graph(graph)
    assert set(result.order) == set(graph.nodes)
    assert result.num_edges == graph.number_of_edges()


def test_voxel_depth_values(grid):
    camera = make_camera(distance=8.0)
    depths = voxel_depth_values(grid, camera)
    assert depths.shape == (grid.num_voxels,)
    assert np.all(np.isfinite(depths))


def test_voxel_depth_values_are_camera_depths_of_voxel_centres(grid):
    camera = make_camera(distance=8.0)
    centres = [np.mean(voxel_box(grid, v), axis=0) for v in range(grid.num_voxels)]
    expected = camera.world_to_camera(np.array(centres))[:, 2]
    np.testing.assert_allclose(
        voxel_depth_values(grid, camera), expected, rtol=0, atol=1e-12
    )
