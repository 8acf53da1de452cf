"""The 3D Gaussian Splatting substrate.

This subpackage is a self-contained NumPy implementation of the 3DGS
rendering pipeline the paper builds on: the Gaussian parameter model
(59 parameters per Gaussian), spherical-harmonics appearance, pinhole
cameras, EWA splatting projection, tile binning, per-tile depth sorting,
the tile-centric alpha-blending rasterizer used as the reference
("original 3DGS") renderer throughout the evaluation, and the MSE / PSNR
metrics the paper reports.
"""

from repro.gaussians.model import GaussianModel, PARAMS_PER_GAUSSIAN
from repro.gaussians.camera import Camera, look_at, orbit_trajectory
from repro.gaussians.projection import (
    ProjectedGaussians,
    build_covariance_3d,
    project_gaussians,
    quaternion_to_rotation_matrix,
)
from repro.gaussians.sh import eval_sh, num_sh_coeffs
from repro.gaussians.tiles import TileGrid, bin_gaussians_to_tiles
from repro.gaussians.sorting import sort_tile_gaussians, GlobalSortStats
from repro.gaussians.rasterizer import TileRasterizer, RenderOutput
from repro.gaussians.metrics import psnr, mse

__all__ = [
    "GaussianModel",
    "PARAMS_PER_GAUSSIAN",
    "Camera",
    "look_at",
    "orbit_trajectory",
    "ProjectedGaussians",
    "build_covariance_3d",
    "project_gaussians",
    "quaternion_to_rotation_matrix",
    "eval_sh",
    "num_sh_coeffs",
    "TileGrid",
    "bin_gaussians_to_tiles",
    "sort_tile_gaussians",
    "GlobalSortStats",
    "TileRasterizer",
    "RenderOutput",
    "psnr",
    "mse",
]
