"""Global voxel rendering order via DAG construction and topological sort.

Pixels within one group intersect different (but overlapping) voxel
sequences; the paper merges the per-ray orders into a dependency graph —
an edge ``u -> v`` means some ray renders voxel ``u`` before voxel ``v`` —
and establishes a single global order with Kahn's topological sort
(Sec. III-B, reference [22]).  When rays disagree (the graph has a cycle,
which can happen for voxels at nearly identical depth seen from different
pixels), the cycle is broken by releasing the voxel closest to the camera,
which is the depth-correct choice for the pixels that matter most.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ray_voxel import VoxelOrderingTable


@dataclass
class VoxelOrderResult:
    """Result of the global voxel ordering."""

    order: List[int]                 # global rendering order (renamed voxel ids)
    num_nodes: int
    num_edges: int
    cycles_broken: int


def _kahn_order(
    nodes: np.ndarray, srcs: np.ndarray, dsts: np.ndarray, priorities: np.ndarray
) -> VoxelOrderResult:
    """Kahn's algorithm over one graph, releasing the lowest priority first.

    ``nodes`` are the graph's voxel ids in ascending order, ``srcs`` /
    ``dsts`` its distinct edges ``u -> v`` (``u != v``) and
    ``priorities`` the nodes' priorities.  Ties in priority go to the
    lower voxel id, and a cycle is broken by releasing the remaining node
    of lowest ``(priority, id)``.
    """
    node_list = nodes.tolist()
    adjacency: Dict[int, Set[int]] = {node: set() for node in node_list}
    for src, dst in zip(srcs.tolist(), dsts.tolist()):
        adjacency[src].add(dst)
    in_degree: Dict[int, int] = {node: 0 for node in adjacency}
    for dsts_set in adjacency.values():
        for dst in dsts_set:
            in_degree[dst] += 1
    priority = dict(zip(node_list, priorities.tolist()))

    ready = [(priority[node], node) for node, deg in in_degree.items() if deg == 0]
    heapq.heapify(ready)
    order: List[int] = []
    remaining = set(adjacency)
    cycles_broken = 0
    heappop = heapq.heappop
    heappush = heapq.heappush

    while remaining:
        if not ready:
            # Cycle: release the shallowest remaining voxel.
            victim = min(remaining, key=lambda n: (priority[n], n))
            ready = [(priority[victim], victim)]
            in_degree[victim] = 0
            cycles_broken += 1
        _, node = heappop(ready)
        if node not in remaining:
            continue
        order.append(node)
        remaining.discard(node)
        for dst in adjacency[node]:
            if dst in remaining:
                in_degree[dst] -= 1
                if in_degree[dst] == 0:
                    heappush(ready, (priority[dst], dst))

    return VoxelOrderResult(
        order=order,
        num_nodes=len(adjacency),
        num_edges=len(srcs),
        cycles_broken=cycles_broken,
    )


def _priorities(nodes: np.ndarray, voxel_depths: Optional[np.ndarray]) -> np.ndarray:
    """Release priority of each node: its depth, or its id without depths."""
    if voxel_depths is None:
        return nodes.astype(np.float64)
    return voxel_depths[nodes].astype(np.float64)


def topological_voxel_order(
    per_ray_orders: Sequence[Sequence[int]],
    voxel_depths: Optional[np.ndarray] = None,
) -> VoxelOrderResult:
    """Kahn's algorithm over the per-ray dependency graph.

    Consecutive voxels of each ray contribute one edge ``u -> v`` (``u !=
    v``, duplicates merged): the adjacent table the VSU builds in hardware
    (Fig. 10), counted in ``num_edges``.

    Parameters
    ----------
    per_ray_orders:
        Front-to-back voxel id sequences, one per sampled ray.
    voxel_depths:
        Optional per-voxel depth, indexed by voxel id (as
        :func:`voxel_depth_values` returns it), used two ways: as the
        tie-break priority so voxels whose order is unconstrained are still
        released front-to-back, and to pick the victim when a dependency
        cycle has to be broken.  Without it the voxel id is the priority.

    Returns
    -------
    :class:`VoxelOrderResult` whose ``order`` contains every voxel appearing
    in any ray exactly once.
    """
    arrays = [
        np.asarray(order, dtype=np.int64) for order in per_ray_orders if len(order)
    ]
    if not arrays:
        return VoxelOrderResult(order=[], num_nodes=0, num_edges=0, cycles_broken=0)
    nodes = np.unique(np.concatenate(arrays))
    srcs = np.concatenate([a[:-1] for a in arrays])
    span = int(nodes[-1]) + 1
    if len(srcs):
        dsts = np.concatenate([a[1:] for a in arrays])
        keep = srcs != dsts
        pairs = np.unique(srcs[keep] * span + dsts[keep])
    else:
        pairs = srcs
    srcs, dsts = pairs // span, pairs % span
    priorities = _priorities(nodes, voxel_depths)

    # Fast path: when the (priority, node)-sorted candidate order already
    # satisfies every dependency edge, Kahn's heap provably pops exactly
    # that order (the minimal remaining key always has all predecessors
    # emitted, so it is ready and is the heap minimum) with no cycle
    # breaks — so the sorted order can be returned without running the
    # per-node Python loop at all.
    perm = np.lexsort((nodes, priorities))
    position = np.empty(span, dtype=np.int64)
    position[nodes[perm]] = np.arange(len(nodes))
    if not np.all(position[srcs] < position[dsts]):
        return _kahn_order(nodes, srcs, dsts, priorities)
    return VoxelOrderResult(
        order=nodes[perm].tolist(),
        num_nodes=len(nodes),
        num_edges=len(pairs),
        cycles_broken=0,
    )


def topological_orders_for_tables(
    tables: Dict[int, "VoxelOrderingTable"],
    voxel_depths: Optional[np.ndarray] = None,
) -> Dict[int, VoxelOrderResult]:
    """Global voxel orders for many tiles' ordering tables at once.

    Part of the whole-frame preparation the engine's frame cache memoizes
    alongside :func:`repro.core.ray_voxel.ordering_tables_for_tiles`.
    Each tile's result is :func:`topological_voxel_order` of its table's
    rays, computed in one pass over every tile: one ``np.unique`` builds
    the (tile, voxel) nodes and one the distinct ray-step edges, one
    ``lexsort`` orders each tile's nodes by (priority, voxel), and one
    comparison checks every edge against that order.  A tile whose sorted
    order meets all its edges takes it (the fast path
    :func:`topological_voxel_order` proves equal to Kahn's); the others run
    Kahn's loop on their own nodes and edges.
    """
    if not tables:
        return {}
    tile_ids = list(tables)
    voxels = np.concatenate([table.entries for table in tables.values()]).astype(
        np.int64, copy=False
    )
    entry_counts = [len(table.entries) for table in tables.values()]
    num_tiles = len(tile_ids)
    if len(voxels) == 0:
        return {
            tile_id: VoxelOrderResult(order=[], num_nodes=0, num_edges=0, cycles_broken=0)
            for tile_id in tile_ids
        }
    entry_tile = np.repeat(np.arange(num_tiles), entry_counts)

    # Nodes: the distinct (tile, voxel) pairs, sorted by tile then voxel.
    span = int(voxels.max()) + 1
    node_keys, entry_node = np.unique(entry_tile * span + voxels, return_inverse=True)
    node_tile, node_voxel = node_keys // span, node_keys % span
    num_nodes = len(node_keys)
    node_offsets = np.searchsorted(node_tile, np.arange(num_tiles + 1))

    # Edges: consecutive entries of one ray on different voxels, merged.
    lengths = np.concatenate([table.ray_lengths for table in tables.values()])
    lengths = lengths[lengths > 0]
    steps = np.ones(len(voxels) - 1, dtype=bool)
    steps[np.cumsum(lengths)[:-1] - 1] = False
    srcs, dsts = entry_node[:-1][steps], entry_node[1:][steps]
    keep = srcs != dsts
    pairs = np.unique(srcs[keep] * num_nodes + dsts[keep])
    srcs, dsts = pairs // num_nodes, pairs % num_nodes
    edge_tile = node_tile[srcs]
    edge_offsets = np.searchsorted(edge_tile, np.arange(num_tiles + 1))

    # One sort of every tile's nodes by (priority, voxel); a tile breaks
    # the fast path when an edge runs against its sorted order.
    priorities = _priorities(node_voxel, voxel_depths)
    perm = np.lexsort((node_voxel, priorities, node_tile))
    rank = np.empty(num_nodes, dtype=np.int64)
    rank[perm] = np.arange(num_nodes)
    broken = set(np.unique(edge_tile[rank[srcs] > rank[dsts]]).tolist())

    sorted_voxels = node_voxel[perm].tolist()
    node_offsets = node_offsets.tolist()
    edge_offsets = edge_offsets.tolist()
    orders: Dict[int, VoxelOrderResult] = {}
    for index, tile_id in enumerate(tile_ids):
        lo, hi = node_offsets[index], node_offsets[index + 1]
        edge_lo, edge_hi = edge_offsets[index], edge_offsets[index + 1]
        if index in broken:
            orders[tile_id] = _kahn_order(
                node_voxel[lo:hi],
                node_voxel[srcs[edge_lo:edge_hi]],
                node_voxel[dsts[edge_lo:edge_hi]],
                priorities[lo:hi],
            )
        else:
            orders[tile_id] = VoxelOrderResult(
                order=sorted_voxels[lo:hi],
                num_nodes=hi - lo,
                num_edges=edge_hi - edge_lo,
                cycles_broken=0,
            )
    return orders


def voxel_depth_values(grid, camera) -> np.ndarray:
    """Camera-space depth of every voxel centre, indexed by renamed id.

    Computed in one vectorised batch over all renamed voxels; the frame
    preparation feeds it to the topological sort.
    """
    if grid.num_voxels == 0:
        return np.zeros(0, dtype=np.float64)
    raw = np.asarray(grid.renamed_to_raw, dtype=np.int64)
    x = raw % grid.dims[0]
    y = (raw // grid.dims[0]) % grid.dims[1]
    z = raw // (grid.dims[0] * grid.dims[1])
    coords = np.stack([x, y, z], axis=1)
    centers = grid.origin + (coords + 0.5) * grid.voxel_size
    cam = camera.world_to_camera(centers)
    return cam[:, 2].astype(np.float64)

