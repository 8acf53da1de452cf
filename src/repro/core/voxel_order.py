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
from typing import Dict, List, Optional, Sequence, Set

import numpy as np


@dataclass
class VoxelOrderResult:
    """Result of the global voxel ordering."""

    order: List[int]                 # global rendering order (renamed voxel ids)
    num_nodes: int
    num_edges: int
    cycles_broken: int


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
    num_edges = len(pairs)

    # Priorities are static, so resolve them once; the extra node tie-break
    # keys make the cycle-victim choice deterministic on values alone.
    if voxel_depths is None:
        priorities = nodes.astype(np.float64)
    else:
        priorities = voxel_depths[nodes].astype(np.float64)

    # Fast path: when the (priority, node)-sorted candidate order already
    # satisfies every dependency edge, Kahn's heap provably pops exactly
    # that order (the minimal remaining key always has all predecessors
    # emitted, so it is ready and is the heap minimum) with no cycle
    # breaks — so the sorted order can be returned without running the
    # per-node Python loop at all.
    perm = np.lexsort((nodes, priorities))
    position = np.empty(span, dtype=np.int64)
    position[nodes[perm]] = np.arange(len(nodes))
    if num_edges == 0 or bool(
        np.all(position[pairs // span] < position[pairs % span])
    ):
        return VoxelOrderResult(
            order=nodes[perm].tolist(),
            num_nodes=len(nodes),
            num_edges=num_edges,
            cycles_broken=0,
        )

    node_list = nodes.tolist()
    adjacency: Dict[int, Set[int]] = {node: set() for node in node_list}
    for src, dst in zip((pairs // span).tolist(), (pairs % span).tolist()):
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
        num_edges=num_edges,
        cycles_broken=cycles_broken,
    )


def topological_orders_for_tables(
    tables: Dict[int, "object"],
    voxel_depths: Optional[np.ndarray] = None,
) -> Dict[int, VoxelOrderResult]:
    """Global voxel orders for many tiles' ordering tables at once.

    Part of the whole-frame preparation the engine's frame cache memoizes
    alongside :func:`repro.core.ray_voxel.ordering_tables_for_tiles`.
    """
    return {
        tile_id: topological_voxel_order(
            table.per_ray_orders, voxel_depths=voxel_depths
        )
        for tile_id, table in tables.items()
    }


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

