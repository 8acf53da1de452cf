"""The paper's primary contribution: memory-centric streaming rendering.

The subpackage implements the fully streaming algorithm of Sec. III:

* :mod:`repro.core.voxel_grid` — scene partition into voxels, contiguous
  per-voxel storage order and empty-voxel renaming;
* :mod:`repro.core.ray_voxel` — per-pixel ray/voxel traversal (3D-DDA) and
  the voxel ordering tables of a frame's pixel groups;
* :mod:`repro.core.voxel_order` — the rendering-dependency DAG and Kahn's
  topological sort establishing the global voxel rendering order, with
  per-voxel depths as an array indexed by renamed voxel id;
* :mod:`repro.core.hierarchical_filter` — the two-phase coarse/fine Gaussian
  filter with MAC and byte accounting;
* :mod:`repro.core.data_layout` — the customized two-half DRAM layout with
  vector-quantised second half;
* :mod:`repro.core.pipeline` — the streaming renderer that ties everything
  together and produces both images and the workload statistics consumed by
  the architecture model.
"""

from repro.core.config import StreamingConfig
from repro.core.voxel_grid import VoxelGrid, cross_boundary_mask
from repro.core.ray_voxel import ordering_tables_for_tiles, traverse_ray
from repro.core.voxel_order import (
    VoxelOrderResult,
    topological_orders_for_tables,
    topological_voxel_order,
    voxel_depth_values,
)
from repro.core.hierarchical_filter import FilterStats, HierarchicalFilter
from repro.core.data_layout import DataLayout, LayoutTraffic
from repro.core.pipeline import StreamingRenderer, StreamingStats

__all__ = [
    "StreamingConfig",
    "VoxelGrid",
    "cross_boundary_mask",
    "ordering_tables_for_tiles",
    "traverse_ray",
    "VoxelOrderResult",
    "topological_orders_for_tables",
    "topological_voxel_order",
    "voxel_depth_values",
    "FilterStats",
    "HierarchicalFilter",
    "DataLayout",
    "LayoutTraffic",
    "StreamingRenderer",
    "StreamingStats",
]
